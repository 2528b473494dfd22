import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from iadt import baselines
from iadt.data import synth_domains
from iadt.errors import DimensionError, ParameterError
from iadt.evaluation import evaluate_predictions, predicted_labels
from iadt.linalg import pca
from iadt.losses import KernelSpec, _rbf_gram, mmd_sq
from operators import coral_transform, gfk_kernel, sa_alignment, tca_projection


def principal_angles(a, b):
    """Angles between the column spans of a and b (radians)."""
    qa = np.linalg.qr(a)[0]
    qb = np.linalg.qr(b)[0]
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))


def tca_oracle_pair(xs, xt, mu, kernel):
    """TCA's generalized eigenproblem (K H K, K L K + mu I) from dense L and H."""
    stacked = np.vstack([xs, xt])
    if kernel.kind == "linear":
        k = stacked @ stacked.T
    else:
        k = _rbf_gram(stacked, stacked, kernel.gamma)
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
        pred = predicted_labels(baselines.logistic_predict(model, x), 0.5)
        assert float((pred == y).mean()) == 1.0

    def test_gradient_small_at_optimum(self, monkeypatch):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(60, 3))
        y = (x[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(float)
        monkeypatch.setattr(baselines, "LOGISTIC_L2", 1e-2)
        monkeypatch.setattr(baselines, "LOGISTIC_ITERS", 20000)
        monkeypatch.setattr(baselines, "LOGISTIC_LR", 0.5)
        model = baselines.logistic_fit(x, y)
        p = 1.0 / (1.0 + np.exp(-(x @ model.weights + model.bias)))
        gw = x.T @ (p - y) / 60 + 1e-2 * model.weights
        gb = (p - y).mean()
        assert max(np.max(np.abs(gw)), abs(gb)) <= 1e-6

    @pytest.mark.parametrize("seed, n, k, iters", [(20, 60, 3, 500), (21, 400, 10, 500),
                                                   (22, 37, 5, 2000), (23, 8, 2, 20000)])
    def test_bit_equal_to_reference_loop(self, monkeypatch, seed, n, k, iters):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, k)) * rng.uniform(0.5, 20.0, size=k)
        y = (x[:, 0] + rng.normal(size=n) > 0).astype(float)
        monkeypatch.setattr(baselines, "LOGISTIC_ITERS", iters)
        model = baselines.logistic_fit(x, y)
        w_ref, b_ref = logistic_fit_reference(x, y, iters=iters)
        np.testing.assert_array_equal(model.weights.view(np.int64), w_ref.view(np.int64))
        assert np.array([model.bias]).view(np.int64)[0] == np.array([b_ref]).view(np.int64)[0]

    def test_single_class_rejected(self):
        with pytest.raises(ParameterError):
            baselines.logistic_fit(np.zeros((4, 2)), np.ones(4))

    def test_predict_zero_model(self):
        model = baselines.LogisticModel(weights=np.zeros(3), bias=0.0)
        probs = baselines.logistic_predict(model, np.random.default_rng(2).normal(size=(5, 3)))
        np.testing.assert_array_equal(probs, 0.5)
        np.testing.assert_array_equal(predicted_labels(probs, 0.5), 1)

    def test_predict_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        model = baselines.LogisticModel(weights=rng.normal(size=4), bias=0.3)
        x = rng.normal(size=(6, 4))
        probs = baselines.logistic_predict(model, x)
        for i in range(6):
            expected = 1.0 / (1.0 + np.exp(-(model.weights @ x[i] + model.bias)))
            assert probs[i] == pytest.approx(expected, abs=1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        model = baselines.LogisticModel(weights=rng.normal(size=3), bias=-0.2)
        x = rng.normal(size=(8, 3))
        perm = rng.permutation(8)
        p1 = baselines.logistic_predict(model, x)
        p2 = baselines.logistic_predict(model, x[perm])
        np.testing.assert_allclose(p2, p1[perm], atol=1e-15)


class TestTca:
    def test_identical_domains_zero_adapted_mmd(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 4))
        zs, zt = baselines.tca_fit(x, x, dim=3)
        assert mmd_sq(zs, zt, KernelSpec("linear")) <= 1e-8

    def test_tiny_instance_matches_generalized_eig_oracle(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(3, 4))
        xt = rng.normal(0.5, 1.0, size=(3, 4))
        dim, mu = 2, 0.01
        w_impl = tca_projection(xs, xt, *baselines.tca_fit(xs, xt, dim=dim, mu=mu),
                                KernelSpec("linear"))

        a_mat, b_mat = tca_oracle_pair(xs, xt, mu, KernelSpec("linear"))
        vals, vecs = scipy.linalg.eigh(b_mat, a_mat)
        w_oracle = vecs[:, np.argsort(vals)[::-1][:dim]]

        angles = principal_angles(w_impl, w_oracle)
        assert angles.max() <= 1e-6

    def test_adaptation_shrinks_mmd_on_shifted_data(self):
        src, tgt = synth_domains(60, 60, [2.0, -1.0], 0.5, 3.0, 0.7, 5, seed=7)
        xs, xt = src.x, tgt.x
        raw = mmd_sq(xs, xt, KernelSpec("linear"))
        adapted = mmd_sq(*baselines.tca_fit(xs, xt, dim=4), KernelSpec("linear"))
        assert adapted <= raw

    def test_row_permutation_invariance_up_to_sign(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(10, 4))
        xt = rng.normal(0.3, 1.0, size=(8, 4))
        perm = rng.permutation(10)
        a1, _ = baselines.tca_fit(xs, xt, dim=3)
        a2, _ = baselines.tca_fit(xs[perm], xt, dim=3)
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
    @pytest.mark.parametrize("kernel, duplicate_column, rank, bound", [
        pytest.param(KernelSpec("linear"), False, 4, 4, id="kernel0"),
        pytest.param(KernelSpec("rbf", gamma=0.3), False, 14, 14, id="kernel1"),
        # rank(Xc) = 3 < d = 4: K H K loses a rank below the bound min(d, n - 1)
        pytest.param(KernelSpec("linear"), True, 3, 4, id="linear_duplicate_column"),
    ])
    def test_matches_dense_generalized_eig_oracle(self, kernel, duplicate_column, rank, bound,
                                                  mu):
        rng = np.random.default_rng(10)
        xs = rng.normal(size=(9, 4))
        xt = rng.normal(0.6, 1.3, size=(6, 4))
        if duplicate_column:
            xs[:, 3] = xs[:, 0]
            xt[:, 3] = xt[:, 0]
        a_mat, b_mat = tca_oracle_pair(xs, xt, mu, kernel)
        vals, vecs = scipy.linalg.eigh(b_mat, a_mat)
        w_oracle = vecs[:, np.argsort(vals)[::-1]]
        assert np.linalg.matrix_rank(b_mat) == rank
        for dim in range(1, rank + 1):
            w_impl = tca_projection(xs, xt, *baselines.tca_fit(xs, xt, dim=dim, mu=mu,
                                                                kernel=kernel), kernel)
            assert w_impl.shape == (15, dim)
            angles = principal_angles(w_impl, w_oracle[:, :dim])
            assert angles.max() <= 1e-6, (dim, angles.max())
        # beyond the rank the columns would span a null eigenspace with no fixed basis
        for dim in (bound + 1, bound + 2):
            with pytest.raises(ParameterError, match=rf"\[1, {bound}\]"):
                baselines.tca_fit(xs, xt, dim=dim, mu=mu, kernel=kernel)

    def test_linear_fit_needs_no_n_by_n_matrix(self):
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(600, 10))
        xt = rng.normal(0.5, 1.2, size=(600, 10))
        tracemalloc.start()
        try:
            baselines.tca_fit(xs, xt, dim=10, mu=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 1200 x 1200 float64 matrix alone is 11.5 MB
        assert peak < 2**20, peak


# each subspace fit, with a dim that 6-feature data allows
EACH_FIT = pytest.mark.parametrize("fit, kwargs", [(baselines.tca_fit, {"dim": 2}),
                                                   (baselines.gfk_fit, {"dim": 2}),
                                                   (baselines.sa_fit, {"dim": 2}),
                                                   (baselines.coral_fit, {})],
                                   ids=["tca", "gfk", "sa", "coral"])


@EACH_FIT
def test_fit_returns_the_fitted_rows_adapted(fit, kwargs):
    rng = np.random.default_rng(13)
    xs = rng.normal(size=(30, 6))
    xt = rng.normal(0.5, 1.5, size=(20, 6))
    xs_before, xt_before = xs.copy(), xt.copy()
    zs, zt = fit(xs, xt, **kwargs)
    assert zs.shape[0] == len(xs) and zt.shape[0] == len(xt)
    assert zs.shape[1] == zt.shape[1]
    # fresh arrays: a caller that writes into the adapted rows keeps its inputs
    assert not any(np.shares_memory(z, x) for z in (zs, zt) for x in (xs, xt))
    np.testing.assert_array_equal(xs, xs_before)
    np.testing.assert_array_equal(xt, xt_before)


@EACH_FIT
@pytest.mark.parametrize("xt_shape, message", [((20, 5), "feature counts differ between domains"),
                                               ((20,), "must be 2-D")])
def test_domains_checked_before_any_arithmetic(fit, kwargs, xt_shape, message):
    rng = np.random.default_rng(12)
    with pytest.raises(DimensionError, match=message):
        fit(rng.normal(size=(30, 6)), rng.normal(size=xt_shape), **kwargs)


class TestGfk:
    def test_identical_subspaces_give_projector(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 8))
        zs, _ = baselines.gfk_fit(x, x, dim=3)
        ps = pca(x, 3)
        np.testing.assert_allclose(gfk_kernel(x, zs), ps @ ps.T, atol=1e-8)

    def test_psd_and_symmetric(self):
        rng = np.random.default_rng(10)
        xs = rng.normal(size=(40, 8))
        xt = rng.normal(1.0, 2.0, size=(35, 8))
        g = gfk_kernel(xs, baselines.gfk_fit(xs, xt, dim=4)[0])
        assert np.max(np.abs(g - g.T)) <= 1e-10
        assert np.linalg.eigvalsh(g).min() >= -1e-8

    @staticmethod
    def _shared_direction_pair(rng, d, n=60):
        """Domains whose top PCA directions share the first axis and differ
        by a turn of 0.6 rad in the plane of the second and third axes."""
        xs = rng.normal(size=(n, d)) * np.array([5.0, 3.0] + [0.1] * (d - 2))
        xs -= xs.mean(axis=0)
        # the first column orthogonal to the others, so it is a principal axis
        q, _ = np.linalg.qr(xs[:, 1:])
        xs[:, 0] -= q @ (q.T @ xs[:, 0])
        turn = np.eye(d)
        turn[1:3, 1:3] = [[np.cos(0.6), -np.sin(0.6)], [np.sin(0.6), np.cos(0.6)]]
        return xs, xs @ turn

    @pytest.mark.parametrize("d, dim, shared", [(6, 2, False), (6, 3, False), (10, 5, False),
                                                (6, 2, True)],
                             ids=["6x2", "6x3", "10x5", "6x2_shared_direction"])
    def test_matches_quadrature_oracle(self, d, dim, shared):
        rng = np.random.default_rng(11 + d + dim)
        if shared:
            xs, xt = self._shared_direction_pair(rng, d)
        else:
            xs = rng.normal(size=(50, d))
            xt = xs @ np.diag(rng.uniform(0.7, 1.2, size=d)) + rng.normal(0, 0.4, size=(50, d))
        g = gfk_kernel(xs, baselines.gfk_fit(xs, xt, dim=dim)[0])

        ps = pca(xs, dim)
        pt = pca(xt, dim)
        # The source's complement from a full SVD of its basis, and the
        # geodesic phi(t) = ps u1 cos(theta t) - rs u2 sin(theta t).
        rs = np.linalg.svd(ps, full_matrices=True)[0][:, dim:]
        u1, cos_t, v_t = np.linalg.svd(ps.T @ pt)
        theta = np.arccos(np.clip(cos_t, -1, 1))
        if shared:
            assert theta.min() < baselines.ANGLE_EPS and theta.max() > 0.5, theta
        sin_t = np.sin(theta)
        bv = rs.T @ pt @ v_t.T
        u2 = np.zeros((d - dim, dim))
        for j in range(dim):
            if sin_t[j] > 1e-12:
                u2[:, j] = -bv[:, j] / sin_t[j]
        phi1 = ps @ u1
        phi2 = rs @ u2
        steps = 1000
        acc = np.zeros((d, d))
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
        zs, zt = baselines.gfk_fit(xs, xt, dim=2)
        # inner products in the adapted space equal the G-kernel products,
        # with G recovered from the other domain's rows
        expected = xs @ gfk_kernel(xt, zt) @ xs.T
        np.testing.assert_allclose(zs @ zs.T, expected, atol=1e-6)

    def test_dim_bound(self):
        with pytest.raises(ParameterError):
            baselines.gfk_fit(np.zeros((10, 6)), np.zeros((10, 6)), dim=4)


class TestSa:
    @pytest.mark.parametrize("ns, nt, d, bound", [(30, 25, 6, 6), (4, 25, 6, 3), (30, 3, 6, 2)],
                             ids=["features", "source_rows", "target_rows"])
    def test_dim_bound(self, ns, nt, d, bound):
        rng = np.random.default_rng(17)
        xs, xt = rng.normal(size=(ns, d)), rng.normal(size=(nt, d))
        assert baselines.sa_fit(xs, xt, dim=bound)[0].shape == (ns, bound)
        with pytest.raises(ParameterError, match=rf"^sa dim must be in \[1, {bound}\]"):
            baselines.sa_fit(xs, xt, dim=bound + 1)

    def test_identical_subspaces_give_identity(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(30, 6))
        zs, _ = baselines.sa_fit(x, x, dim=3)
        np.testing.assert_allclose(sa_alignment(x, zs, 3), np.eye(3), atol=1e-10)

    def test_alignment_entries_bounded(self):
        rng = np.random.default_rng(14)
        xs = rng.normal(size=(40, 6))
        xt = rng.normal(2.0, 3.0, size=(45, 6))
        zs, _ = baselines.sa_fit(xs, xt, dim=3)
        assert np.max(np.abs(sa_alignment(xs, zs, 3))) <= 1.0 + 1e-10

    def test_small_instance_matches_direct_formula(self):
        rng = np.random.default_rng(15)
        xs = rng.normal(size=(12, 5))
        xt = rng.normal(0.5, 1.0, size=(10, 5))
        ps = pca(xs, 2)
        pt = pca(xt, 2)
        zs, zt = baselines.sa_fit(xs, xt, dim=2)
        np.testing.assert_allclose(sa_alignment(xs, zs, 2), ps.T @ pt, atol=1e-12)
        np.testing.assert_allclose(zs, xs @ ps @ (ps.T @ pt), atol=1e-12)
        np.testing.assert_allclose(zt, xt @ pt, atol=1e-12)

    def test_spectral_norm_bound(self):
        rng = np.random.default_rng(16)
        xs = rng.normal(size=(30, 8))
        xt = rng.normal(1.0, 0.5, size=(30, 8))
        zs, _ = baselines.sa_fit(xs, xt, dim=4)
        assert np.linalg.norm(sa_alignment(xs, zs, 4), 2) <= 1.0 + 1e-8


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
        zs, _ = baselines.coral_fit(xs, xt, reg=1.0)
        np.testing.assert_allclose(coral_transform(xs, xt, zs), np.eye(4), atol=1e-6)

    def test_adapted_covariance_matches_target(self):
        rng = np.random.default_rng(18)
        mix = rng.normal(size=(8, 8))
        xs = rng.normal(size=(500, 8))
        xt = rng.normal(size=(500, 8)) @ mix
        adapted, _ = baselines.coral_fit(xs, xt, reg=1e-8)
        cov_a = np.cov(adapted, rowvar=False, ddof=1)
        cov_t = np.cov(xt, rowvar=False, ddof=1)
        rel = np.linalg.norm(cov_a - cov_t) / np.linalg.norm(cov_t)
        assert rel <= 1e-5

    def test_adapted_mean_matches_target(self):
        rng = np.random.default_rng(19)
        xs = rng.normal(2.0, 1.0, size=(80, 3))
        xt = rng.normal(-1.0, 2.0, size=(70, 3))
        adapted, _ = baselines.coral_fit(xs, xt)
        np.testing.assert_allclose(adapted.mean(axis=0), xt.mean(axis=0), atol=1e-10)

    def test_mmd_reduction_on_shifted_data(self):
        src, tgt = synth_domains(100, 100, [2.0], 0.6, 3.0, 0.8, 4, seed=20)
        xs, xt = src.x, tgt.x
        raw = mmd_sq(xs, xt, KernelSpec("linear"))
        adapted = mmd_sq(*baselines.coral_fit(xs, xt), KernelSpec("linear"))
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
        zs, zt = baselines.coral_fit(xs, xt, reg=1.0)
        probs_adapted = baselines.logistic_predict(baselines.logistic_fit(zs, ys), zt)
        model = baselines.logistic_fit(xs, ys)
        probs_raw = baselines.logistic_predict(model, xt)
        np.testing.assert_allclose(probs_adapted, probs_raw, atol=1e-3)

    def test_determinism(self):
        src, tgt = synth_domains(40, 30, [1.0], 0.3, 3.0, 0.7, 4, seed=22)
        xs, ys, xt = src.x, src.labels_strict(), tgt.x

        def probs():
            zs, zt = baselines.tca_fit(xs, xt, dim=3)
            return baselines.logistic_predict(baselines.logistic_fit(zs, ys), zt)

        np.testing.assert_array_equal(probs(), probs())

    def test_identical_domains_all_methods_near_source_logistic(self):
        src, tgt = synth_domains(500, 500, [0.0], 0.0, 3.0, 0.8, 5, seed=23)
        xs, ys = src.x, src.labels_strict()
        xt, yt = tgt.x, tgt.labels_strict().astype(int)
        model = baselines.logistic_fit(xs, ys)
        probs = baselines.logistic_predict(model, xt)
        _, base_report = evaluate_predictions(yt, probs)
        fits = {
            "tca": baselines.tca_fit(xs, xt, dim=4),
            "gfk": baselines.gfk_fit(xs, xt, dim=2),
            "sa": baselines.sa_fit(xs, xt, dim=2),
            "coral": baselines.coral_fit(xs, xt),
        }
        for name, (zs, zt) in fits.items():
            p = baselines.logistic_predict(baselines.logistic_fit(zs, ys), zt)
            _, report = evaluate_predictions(yt, p)
            assert abs(report.bac - base_report.bac) <= 0.03, name


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_gfk_psd_property(seed):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(20, 6)) * rng.uniform(0.5, 3.0)
    xt = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=(18, 6))
    g = gfk_kernel(xs, baselines.gfk_fit(xs, xt, dim=rng.integers(1, 4))[0])
    assert np.max(np.abs(g - g.T)) <= 1e-10
    assert np.linalg.eigvalsh(g).min() >= -1e-8


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_sa_norm_property(seed):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(15, 5))
    xt = rng.normal(size=(15, 5))
    dim = int(rng.integers(1, 4))
    zs, _ = baselines.sa_fit(xs, xt, dim=dim)
    assert np.linalg.norm(sa_alignment(xs, zs, dim), 2) <= 1.0 + 1e-8
