import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iadt import losses, network
from iadt.errors import DimensionError, ParameterError
from iadt.losses import KernelSpec

LINEAR = KernelSpec("linear")
RBF = KernelSpec("rbf", gamma=0.5)


def kernel_sum_oracle(zs, zt, kernel):
    """Direct double-loop evaluation of the V-statistic."""

    def k(a, b):
        if kernel.kind == "linear":
            return float(a @ b)
        return float(np.exp(-kernel.gamma * np.sum((a - b) ** 2)))

    ns, nt = len(zs), len(zt)
    ss = sum(k(zs[i], zs[j]) for i in range(ns) for j in range(ns)) / ns**2
    tt = sum(k(zt[i], zt[j]) for i in range(nt) for j in range(nt)) / nt**2
    st_ = sum(k(zs[i], zt[j]) for i in range(ns) for j in range(nt)) / (ns * nt)
    return ss + tt - 2.0 * st_


class TestMmdSq:
    def test_identical_batches(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(6, 3))
        assert abs(losses.mmd_sq(z, z, LINEAR)) <= 1e-12
        assert abs(losses.mmd_sq(z, z, RBF)) <= 1e-12

    def test_single_points(self):
        zs = np.array([[0.0, 0.0]])
        zt = np.array([[1.0, 1.0]])
        assert losses.mmd_sq(zs, zt, LINEAR) == pytest.approx(2.0)

    def test_linear_equals_kernel_sum_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            zs = rng.normal(size=(5, 4))
            zt = rng.normal(size=(7, 4))
            assert losses.mmd_sq(zs, zt, LINEAR) == pytest.approx(
                kernel_sum_oracle(zs, zt, LINEAR), abs=1e-10
            )

    def test_rbf_equals_kernel_sum_oracle(self):
        rng = np.random.default_rng(2)
        zs = rng.normal(size=(4, 3))
        zt = rng.normal(size=(6, 3))
        assert losses.mmd_sq(zs, zt, RBF) == pytest.approx(
            kernel_sum_oracle(zs, zt, RBF), abs=1e-10
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            losses.mmd_sq(np.zeros((2, 3)), np.zeros((2, 4)), LINEAR)

    def test_empty_batch(self):
        with pytest.raises(ParameterError):
            losses.mmd_sq(np.zeros((0, 3)), np.zeros((2, 3)), LINEAR)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_mmd_symmetry_nonnegativity_translation(seed):
    rng = np.random.default_rng(seed)
    zs = rng.normal(size=(rng.integers(1, 8), 3))
    zt = rng.normal(size=(rng.integers(1, 8), 3))
    for kernel in (LINEAR, RBF):
        v1 = losses.mmd_sq(zs, zt, kernel)
        v2 = losses.mmd_sq(zt, zs, kernel)
        assert v1 >= -1e-12
        assert v1 == pytest.approx(v2, abs=1e-12)
    shift = rng.normal(size=3)
    assert losses.mmd_sq(zs + shift, zt + shift, LINEAR) == pytest.approx(
        losses.mmd_sq(zs, zt, LINEAR), abs=1e-10
    )


class TestMmdGrad:
    def test_equal_means_zero_gradient(self):
        zs = np.array([[1.0, -1.0], [-1.0, 1.0]])
        zt = np.array([[2.0, 2.0], [-2.0, -2.0]])
        gs, gt = losses.mmd_sq_grad(zs, zt, LINEAR)
        np.testing.assert_allclose(gs, 0.0, atol=1e-12)
        np.testing.assert_allclose(gt, 0.0, atol=1e-12)

    def test_single_point_closed_form(self):
        zs = np.array([[0.0, 0.0]])
        zt = np.array([[1.0, 1.0]])
        gs, gt = losses.mmd_sq_grad(zs, zt, LINEAR)
        np.testing.assert_allclose(gs, [[-2.0, -2.0]], atol=1e-12)
        np.testing.assert_allclose(gt, [[2.0, 2.0]], atol=1e-12)

    @pytest.mark.parametrize("kernel", [LINEAR, RBF])
    def test_matches_finite_differences(self, kernel):
        rng = np.random.default_rng(3)
        zs = rng.normal(size=(4, 3))
        zt = rng.normal(size=(5, 3))
        gs, gt = losses.mmd_sq_grad(zs, zt, kernel)
        step = 1e-6

        def fd(batch, other, source_side):
            grad = np.zeros_like(batch)
            for i in range(batch.shape[0]):
                for j in range(batch.shape[1]):
                    plus = batch.copy()
                    plus[i, j] += step
                    minus = batch.copy()
                    minus[i, j] -= step
                    if source_side:
                        hi = losses.mmd_sq(plus, other, kernel)
                        lo = losses.mmd_sq(minus, other, kernel)
                    else:
                        hi = losses.mmd_sq(other, plus, kernel)
                        lo = losses.mmd_sq(other, minus, kernel)
                    grad[i, j] = (hi - lo) / (2 * step)
            return grad

        np.testing.assert_allclose(gs, fd(zs, zt, True), rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(gt, fd(zt, zs, False), rtol=1e-6, atol=1e-9)


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        value = losses.cross_entropy(np.array([1.0]), np.array([1.0 - 1e-7]))
        assert 0.0 < value < 2e-7

    def test_coin_flip(self):
        assert losses.cross_entropy(np.array([1.0]), np.array([0.5])) == pytest.approx(
            np.log(2.0), abs=1e-12
        )

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, size=16).astype(float)
        yhat = rng.uniform(1e-7, 1 - 1e-7, size=16)
        oracle = sum(
            -yi * np.log(pi) - (1 - yi) * np.log(1 - pi) for yi, pi in zip(y, yhat)
        ) / 16
        assert losses.cross_entropy(y, yhat) == pytest.approx(oracle, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 2, size=50).astype(float)
        yhat = rng.uniform(1e-7, 1 - 1e-7, size=50)
        assert losses.cross_entropy(y, yhat) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            losses.cross_entropy(np.zeros(3), np.full(4, 0.5))


class TestL1Recon:
    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        assert losses.l1_recon(x, x) == 0.0

    def test_hand_value(self):
        assert losses.l1_recon(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]])) == 3.0

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 5))
        xhat = rng.normal(size=(8, 5))
        oracle = np.mean([np.abs(x[i] - xhat[i]).sum() for i in range(8)])
        assert losses.l1_recon(x, xhat) == pytest.approx(oracle, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            losses.l1_recon(np.zeros((2, 3)), np.zeros((3, 2)))


class TestTotalLoss:
    """The weighted objective that `network.backward` differentiates."""

    @staticmethod
    def total(mmd, cls, recon, lambda1, lambda2):
        parts = {"mmd": mmd, "cls": cls, "recon": recon}
        return network.total_from_parts(parts, lambda1, lambda2)

    def test_zero_weights(self):
        assert self.total(5.0, 7.0, 3.0, 0.0, 0.0) == 3.0

    def test_published_weights(self):
        assert self.total(1.0, 2.0, 3.0, 0.1, 0.1) == pytest.approx(3.3)

    def test_all_zero(self):
        assert self.total(0.0, 0.0, 0.0, 1.0, 1.0) == 0.0


class TestKernelSpec:
    def test_bad_kind(self):
        with pytest.raises(ParameterError):
            KernelSpec("poly")

    def test_bad_gamma(self):
        with pytest.raises(ParameterError):
            KernelSpec("rbf", gamma=0.0)


def rbf_gram_reference(a, b, gamma):
    """The Gram matrix as a chain of freshly allocated arrays."""
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.exp(-gamma * np.clip(sq, 0.0, None))


def as_bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestWorkspace:
    @pytest.mark.parametrize("ns, nt, m, gamma", [
        (2, 2, 1, 0.37), (7, 3, 5, 1.0), (3, 7, 2, 2.5), (64, 64, 32, 5.0), (400, 400, 4, 1.0),
    ])
    def test_rbf_gram_in_buffers_is_bit_equal_to_the_reference(self, ns, nt, m, gamma):
        rng = np.random.default_rng(ns * nt + m)
        out, scratch = np.full((ns, nt), np.nan), np.full((ns, nt), np.nan)
        # Two pairs through the same buffers, so leftovers of the first show.
        for scale in (1.0, 0.3):
            a, b = rng.normal(scale=scale, size=(ns, m)), rng.normal(size=(nt, m))
            expected = as_bits(rbf_gram_reference(a, b, gamma))
            got = losses._rbf_gram(a, b, gamma, out=out, scratch=scratch)
            assert got is out
            np.testing.assert_array_equal(as_bits(got), expected)
            np.testing.assert_array_equal(as_bits(losses._rbf_gram(a, b, gamma)), expected)

    @pytest.mark.parametrize("kernel", [LINEAR, RBF])
    def test_buffered_mmd_is_bit_equal_to_unbuffered(self, kernel):
        from iadt.workspace import Workspace

        ws = Workspace()
        grads = []
        for step, (ns, nt) in enumerate([(9, 9), (9, 9), (5, 8), (8, 5), (9, 9)]):
            rng = np.random.default_rng(70 + step)
            zs, zt = rng.normal(size=(ns, 3)), rng.normal(loc=0.4, size=(nt, 3))
            value, gs, gt = losses._mmd_sq_and_grads(zs, zt, kernel)
            value_ws, gs_ws, gt_ws = losses._mmd_sq_and_grads(zs, zt, kernel, ws)
            assert value_ws == value
            np.testing.assert_array_equal(as_bits(gs_ws), as_bits(gs))
            np.testing.assert_array_equal(as_bits(gt_ws), as_bits(gt))
            grads.append(gs_ws)
        assert grads[0] is grads[1] is grads[4]
