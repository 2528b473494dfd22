import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from iadt import baselines
from iadt.data import synth_domains
from iadt.errors import ParameterError
from iadt.evaluation import evaluate_predictions
from iadt.losses import KernelSpec, mmd_sq


def principal_angles(a, b):
    """Angles between the column spans of a and b (radians)."""
    qa = np.linalg.qr(a)[0]
    qb = np.linalg.qr(b)[0]
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))


def tca_oracle_pair(xs, xt, mu, kernel):
    """TCA's generalized eigenproblem (K H K, K L K + mu I) from dense L and H."""
    stacked = np.vstack([xs, xt])
    k = baselines._kernel_matrix(stacked, stacked, kernel)
    ns, nt = len(xs), len(xt)
    n = ns + nt
    coeff = np.array([1 / ns] * ns + [-1 / nt] * nt)
    l_mat = np.outer(coeff, coeff)
    h_mat = np.eye(n) - np.ones((n, n)) / n
    a_mat = k @ l_mat @ k + mu * np.eye(n)
    b_mat = k @ h_mat @ k
    return 0.5 * (a_mat + a_mat.T), 0.5 * (b_mat + b_mat.T)


def logistic_fit_reference(x, y, l2=1e-4, iters=500, lr=0.1):
    """Gradient descent as written before the sum/n bias gradient."""
    n, k = x.shape
    w = np.zeros(k)
    b = 0.0
    for _ in range(iters):
        t = x @ w + b
        p = np.empty_like(t)
        pos = t >= 0
        p[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
        e = np.exp(t[~pos])
        p[~pos] = e / (1.0 + e)
        resid = p - y
        gw = x.T @ resid / n + l2 * w
        gb = float(resid.mean())
        if max(np.max(np.abs(gw)), abs(gb)) <= baselines.LOGISTIC_TOL:
            break
        w -= lr * gw
        b -= lr * gb
    return w, b


class TestLogistic:
    def test_symmetric_two_points_zero_bias(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1.0, 0.0])
        model = baselines.logistic_fit(x, y)
        assert abs(model.bias) <= 1e-3

    def test_separable_blobs_full_accuracy(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(3, 0.5, (40, 3)), rng.normal(-3, 0.5, (40, 3))])
        y = np.array([1.0] * 40 + [0.0] * 40)
        model = baselines.logistic_fit(x, y)
        _, pred = baselines.logistic_predict(model, x)
        assert float((pred == y).mean()) == 1.0

    def test_gradient_small_at_optimum(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(60, 3))
        y = (x[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(float)
        model = baselines.logistic_fit(x, y, l2=1e-2, iters=20000, lr=0.5)
        p = 1.0 / (1.0 + np.exp(-(x @ model.weights + model.bias)))
        gw = x.T @ (p - y) / 60 + 1e-2 * model.weights
        gb = (p - y).mean()
        assert max(np.max(np.abs(gw)), abs(gb)) <= 1e-6

    @pytest.mark.parametrize("seed, n, k, iters", [(20, 60, 3, 500), (21, 400, 10, 500),
                                                   (22, 37, 5, 2000), (23, 8, 2, 20000)])
    def test_bit_equal_to_reference_loop(self, seed, n, k, iters):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, k)) * rng.uniform(0.5, 20.0, size=k)
        y = (x[:, 0] + rng.normal(size=n) > 0).astype(float)
        model = baselines.logistic_fit(x, y, iters=iters)
        w_ref, b_ref = logistic_fit_reference(x, y, iters=iters)
        np.testing.assert_array_equal(model.weights.view(np.int64), w_ref.view(np.int64))
        assert np.array([model.bias]).view(np.int64)[0] == np.array([b_ref]).view(np.int64)[0]

    def test_single_class_rejected(self):
        with pytest.raises(ParameterError):
            baselines.logistic_fit(np.zeros((4, 2)), np.ones(4))

    def test_predict_zero_model(self):
        model = baselines.LogisticModel(weights=np.zeros(3), bias=0.0)
        probs, labels = baselines.logistic_predict(model, np.random.default_rng(2).normal(size=(5, 3)))
        np.testing.assert_array_equal(probs, 0.5)
        np.testing.assert_array_equal(labels, 1)

    def test_predict_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        model = baselines.LogisticModel(weights=rng.normal(size=4), bias=0.3)
        x = rng.normal(size=(6, 4))
        probs, _ = baselines.logistic_predict(model, x)
        for i in range(6):
            expected = 1.0 / (1.0 + np.exp(-(model.weights @ x[i] + model.bias)))
            assert probs[i] == pytest.approx(expected, abs=1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        model = baselines.LogisticModel(weights=rng.normal(size=3), bias=-0.2)
        x = rng.normal(size=(8, 3))
        perm = rng.permutation(8)
        p1, _ = baselines.logistic_predict(model, x)
        p2, _ = baselines.logistic_predict(model, x[perm])
        np.testing.assert_allclose(p2, p1[perm], atol=1e-15)


class TestTca:
    def test_identical_domains_zero_adapted_mmd(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 4))
        smap = baselines.tca_fit(x, x, dim=3)
        zs = smap.source(x)
        zt = smap.target(x)
        assert mmd_sq(zs, zt, KernelSpec("linear")) <= 1e-8

    def test_tiny_instance_matches_generalized_eig_oracle(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(3, 4))
        xt = rng.normal(0.5, 1.0, size=(3, 4))
        dim, mu = 2, 0.01
        smap = baselines.tca_fit(xs, xt, dim=dim, mu=mu)
        w_impl = smap.arrays["projection"]

        a_mat, b_mat = tca_oracle_pair(xs, xt, mu, KernelSpec("linear"))
        vals, vecs = scipy.linalg.eigh(b_mat, a_mat)
        w_oracle = vecs[:, np.argsort(vals)[::-1][:dim]]

        angles = principal_angles(w_impl, w_oracle)
        assert angles.max() <= 1e-6

    def test_adaptation_shrinks_mmd_on_shifted_data(self):
        src, tgt = synth_domains(60, 60, [2.0, -1.0], 0.5, 3.0, 0.7, 5, seed=7)
        xs, xt = src.x, tgt.x
        raw = mmd_sq(xs, xt, KernelSpec("linear"))
        smap = baselines.tca_fit(xs, xt, dim=4)
        adapted = mmd_sq(
            smap.source(xs),
            smap.target(xt),
            KernelSpec("linear"),
        )
        assert adapted <= raw

    def test_row_permutation_invariance_up_to_sign(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(10, 4))
        xt = rng.normal(0.3, 1.0, size=(8, 4))
        perm = rng.permutation(10)
        s1 = baselines.tca_fit(xs, xt, dim=3)
        s2 = baselines.tca_fit(xs[perm], xt, dim=3)
        a1 = s1.source(xs)
        a2 = s2.source(xs[perm])
        for j in range(3):
            col1 = a1[perm, j]
            col2 = a2[:, j]
            match = min(np.max(np.abs(col1 - col2)), np.max(np.abs(col1 + col2)))
            assert match <= 1e-8

    def test_dim_too_large(self):
        with pytest.raises(ParameterError):
            baselines.tca_fit(np.zeros((3, 2)), np.zeros((3, 2)), dim=7)

    @pytest.mark.parametrize("mu", [-1.0, 0.0, np.nan, np.inf])
    def test_mu_must_be_finite_and_positive(self, mu):
        rng = np.random.default_rng(9)
        with pytest.raises(ParameterError, match="mu"):
            baselines.tca_fit(rng.normal(size=(5, 3)), rng.normal(size=(4, 3)), dim=3, mu=mu)

    @pytest.mark.parametrize("mu", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf", gamma=0.3)])
    def test_matches_dense_generalized_eig_oracle(self, kernel, mu):
        rng = np.random.default_rng(10)
        xs = rng.normal(size=(9, 4))
        xt = rng.normal(0.6, 1.3, size=(6, 4))
        a_mat, b_mat = tca_oracle_pair(xs, xt, mu, kernel)
        vals, vecs = scipy.linalg.eigh(b_mat, a_mat)
        w_oracle = vecs[:, np.argsort(vals)[::-1]]
        rank = np.linalg.matrix_rank(b_mat)
        assert rank == (4 if kernel.kind == "linear" else 14)
        for dim in range(1, rank + 1):
            w_impl = baselines.tca_fit(xs, xt, dim=dim, mu=mu, kernel=kernel).arrays["projection"]
            assert w_impl.shape == (15, dim)
            angles = principal_angles(w_impl, w_oracle[:, :dim])
            assert angles.max() <= 1e-6, (dim, angles.max())
        # beyond the rank the columns would span a null eigenspace with no fixed basis
        for dim in (rank + 1, rank + 2):
            with pytest.raises(ParameterError, match=rf"\[1, {rank}\]"):
                baselines.tca_fit(xs, xt, dim=dim, mu=mu, kernel=kernel)


class TestGfk:
    def test_identical_subspaces_give_projector(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 8))
        smap = baselines.gfk_fit(x, x, dim=3)
        from iadt.linalg import pca

        ps = pca(x, 3)
        np.testing.assert_allclose(smap.arrays["g"], ps @ ps.T, atol=1e-8)

    def test_psd_and_symmetric(self):
        rng = np.random.default_rng(10)
        xs = rng.normal(size=(40, 8))
        xt = rng.normal(1.0, 2.0, size=(35, 8))
        smap = baselines.gfk_fit(xs, xt, dim=4)
        g = smap.arrays["g"]
        assert np.max(np.abs(g - g.T)) <= 1e-10
        assert np.linalg.eigvalsh(g).min() >= -1e-8

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(50, 6))
        xt = xs @ np.diag([1.0, 0.8, 1.2, 0.9, 1.1, 0.7]) + rng.normal(0, 0.4, size=(50, 6))
        dim = 2
        smap = baselines.gfk_fit(xs, xt, dim=dim)
        g = smap.arrays["g"]

        from iadt.linalg import pca

        ps = pca(xs, dim)
        pt = pca(xt, dim)
        rs = baselines._complement_basis(ps)
        a = ps.T @ pt
        u1, cos_t, v_t = np.linalg.svd(a)
        v = v_t.T
        theta = np.arccos(np.clip(cos_t, -1, 1))
        sin_t = np.sin(theta)
        bv = rs.T @ pt @ v
        u2 = np.zeros((6 - dim, dim))
        for j in range(dim):
            if sin_t[j] > 1e-12:
                u2[:, j] = -bv[:, j] / sin_t[j]
        phi1 = ps @ u1
        phi2 = rs @ u2
        steps = 1000
        acc = np.zeros((6, 6))
        for i in range(steps):
            t = (i + 0.5) / steps
            phi_t = phi1 @ np.diag(np.cos(theta * t)) - phi2 @ np.diag(np.sin(theta * t))
            acc += phi_t @ phi_t.T
        acc /= steps
        np.testing.assert_allclose(g, acc, atol=1e-4)

    def test_transform_uses_sqrt_kernel(self):
        rng = np.random.default_rng(12)
        xs = rng.normal(size=(25, 6))
        xt = rng.normal(0.5, 1.5, size=(20, 6))
        smap = baselines.gfk_fit(xs, xt, dim=2)
        zs = smap.source(xs)
        # inner products in the adapted space equal the G-kernel products
        expected = xs @ smap.arrays["g"] @ xs.T
        np.testing.assert_allclose(zs @ zs.T, expected, atol=1e-6)

    def test_dim_bound(self):
        with pytest.raises(ParameterError):
            baselines.gfk_fit(np.zeros((10, 6)), np.zeros((10, 6)), dim=4)


class TestSa:
    def test_identical_subspaces_give_identity(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(30, 6))
        smap = baselines.sa_fit(x, x, dim=3)
        np.testing.assert_allclose(smap.arrays["m"], np.eye(3), atol=1e-10)

    def test_alignment_entries_bounded(self):
        rng = np.random.default_rng(14)
        xs = rng.normal(size=(40, 6))
        xt = rng.normal(2.0, 3.0, size=(45, 6))
        smap = baselines.sa_fit(xs, xt, dim=3)
        assert np.max(np.abs(smap.arrays["m"])) <= 1.0 + 1e-10

    def test_small_instance_matches_direct_formula(self):
        rng = np.random.default_rng(15)
        xs = rng.normal(size=(12, 5))
        xt = rng.normal(0.5, 1.0, size=(10, 5))
        from iadt.linalg import pca

        ps = pca(xs, 2)
        pt = pca(xt, 2)
        smap = baselines.sa_fit(xs, xt, dim=2)
        np.testing.assert_allclose(smap.arrays["m"], ps.T @ pt, atol=1e-12)
        np.testing.assert_allclose(
            smap.source(xs), xs @ ps @ (ps.T @ pt), atol=1e-12
        )
        np.testing.assert_allclose(smap.target(xt), xt @ pt, atol=1e-12)

    def test_spectral_norm_bound(self):
        rng = np.random.default_rng(16)
        xs = rng.normal(size=(30, 8))
        xt = rng.normal(1.0, 0.5, size=(30, 8))
        smap = baselines.sa_fit(xs, xt, dim=4)
        assert np.linalg.norm(smap.arrays["m"], 2) <= 1.0 + 1e-8


class TestCoral:
    def test_white_data_identity_transform(self):
        rng = np.random.default_rng(17)
        # exactly whitened samples: empirical covariance is the identity
        def whiten(x):
            x = x - x.mean(axis=0)
            cov = np.cov(x, rowvar=False, ddof=1)
            evals, evecs = np.linalg.eigh(cov)
            return x @ evecs @ np.diag(evals**-0.5) @ evecs.T

        xs = whiten(rng.normal(size=(50, 4)))
        xt = whiten(rng.normal(size=(60, 4)))
        smap = baselines.coral_fit(xs, xt, reg=1.0)
        np.testing.assert_allclose(smap.arrays["transform"], np.eye(4), atol=1e-6)

    def test_adapted_covariance_matches_target(self):
        rng = np.random.default_rng(18)
        mix = rng.normal(size=(8, 8))
        xs = rng.normal(size=(500, 8))
        xt = rng.normal(size=(500, 8)) @ mix
        smap = baselines.coral_fit(xs, xt, reg=1e-8)
        adapted = smap.source(xs)
        cov_a = np.cov(adapted, rowvar=False, ddof=1)
        cov_t = np.cov(xt, rowvar=False, ddof=1)
        rel = np.linalg.norm(cov_a - cov_t) / np.linalg.norm(cov_t)
        assert rel <= 1e-5

    def test_adapted_mean_matches_target(self):
        rng = np.random.default_rng(19)
        xs = rng.normal(2.0, 1.0, size=(80, 3))
        xt = rng.normal(-1.0, 2.0, size=(70, 3))
        smap = baselines.coral_fit(xs, xt)
        adapted = smap.source(xs)
        np.testing.assert_allclose(adapted.mean(axis=0), xt.mean(axis=0), atol=1e-10)

    def test_mmd_reduction_on_shifted_data(self):
        src, tgt = synth_domains(100, 100, [2.0], 0.6, 3.0, 0.8, 4, seed=20)
        xs, xt = src.x, tgt.x
        raw = mmd_sq(xs, xt, KernelSpec("linear"))
        smap = baselines.coral_fit(xs, xt)
        adapted = mmd_sq(smap.source(xs), xt, KernelSpec("linear"))
        assert adapted <= raw

    def test_too_few_samples(self):
        with pytest.raises(ParameterError):
            baselines.coral_fit(np.zeros((1, 3)), np.zeros((5, 3)))


class TestBaselinePredict:
    def test_coral_on_white_data_matches_raw_logistic(self):
        rng = np.random.default_rng(21)

        def whiten(x):
            x = x - x.mean(axis=0)
            cov = np.cov(x, rowvar=False, ddof=1)
            evals, evecs = np.linalg.eigh(cov)
            return x @ evecs @ np.diag(evals**-0.5) @ evecs.T

        xs = whiten(rng.normal(size=(60, 3)))
        ys = (xs[:, 0] > 0).astype(float)
        xt = whiten(rng.normal(size=(40, 3)))
        smap = baselines.coral_fit(xs, xt, reg=1.0)
        probs_adapted, _ = baselines.baseline_predict(smap, xs, ys, xt)
        model = baselines.logistic_fit(xs, ys)
        probs_raw, _ = baselines.logistic_predict(model, xt)
        np.testing.assert_allclose(probs_adapted, probs_raw, atol=1e-3)

    def test_determinism(self):
        src, tgt = synth_domains(40, 30, [1.0], 0.3, 3.0, 0.7, 4, seed=22)
        xs, ys, xt = src.x, src.labels_strict(), tgt.x
        smap = baselines.tca_fit(xs, xt, dim=3)
        p1, l1 = baselines.baseline_predict(smap, xs, ys, xt)
        p2, l2 = baselines.baseline_predict(smap, xs, ys, xt)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(l1, l2)

    def test_identical_domains_all_methods_near_source_logistic(self):
        src, tgt = synth_domains(500, 500, [0.0], 0.0, 3.0, 0.8, 5, seed=23)
        xs, ys = src.x, src.labels_strict()
        xt, yt = tgt.x, tgt.labels_strict().astype(int)
        model = baselines.logistic_fit(xs, ys)
        probs, _ = baselines.logistic_predict(model, xt)
        _, base_report = evaluate_predictions(yt, probs)
        fits = {
            "tca": baselines.tca_fit(xs, xt, dim=4),
            "gfk": baselines.gfk_fit(xs, xt, dim=2),
            "sa": baselines.sa_fit(xs, xt, dim=2),
            "coral": baselines.coral_fit(xs, xt),
        }
        for name, smap in fits.items():
            p, _ = baselines.baseline_predict(smap, xs, ys, xt)
            _, report = evaluate_predictions(yt, p)
            assert abs(report.bac - base_report.bac) <= 0.03, name


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_gfk_psd_property(seed):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(20, 6)) * rng.uniform(0.5, 3.0)
    xt = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=(18, 6))
    smap = baselines.gfk_fit(xs, xt, dim=rng.integers(1, 4))
    g = smap.arrays["g"]
    assert np.max(np.abs(g - g.T)) <= 1e-10
    assert np.linalg.eigvalsh(g).min() >= -1e-8


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_sa_norm_property(seed):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(15, 5))
    xt = rng.normal(size=(15, 5))
    smap = baselines.sa_fit(xs, xt, dim=int(rng.integers(1, 4)))
    assert np.linalg.norm(smap.arrays["m"], 2) <= 1.0 + 1e-8
