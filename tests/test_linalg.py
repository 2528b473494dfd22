import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iadt import linalg
from iadt.errors import DimensionError, ParameterError


def random_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return 0.5 * (a + a.T)


def random_spd(rng, n):
    a = rng.normal(size=(n + 2, n))
    return a.T @ a / n + 0.1 * np.eye(n)


class TestEigSym:
    def test_diagonal(self):
        eig = linalg.eig_sym(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(eig.values, [3.0, 2.0, 1.0])
        # columns are permuted identity axes up to sign
        for col in eig.vectors.T:
            np.testing.assert_allclose(np.sort(np.abs(col)), [0.0, 0.0, 1.0], atol=1e-12)

    def test_classic_2x2(self):
        eig = linalg.eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(eig.values, [3.0, 1.0], atol=1e-12)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(eig.vectors[:, 0]), [inv_sqrt2, inv_sqrt2], atol=1e-12)
        np.testing.assert_allclose(np.abs(eig.vectors[:, 1]), [inv_sqrt2, inv_sqrt2], atol=1e-12)

    def test_residual_per_column(self):
        rng = np.random.default_rng(1)
        a = random_symmetric(rng, 8)
        eig = linalg.eig_sym(a)
        scale = np.linalg.norm(a)
        for i in range(8):
            resid = a @ eig.vectors[:, i] - eig.values[i] * eig.vectors[:, i]
            assert np.linalg.norm(resid) <= 1e-8 * scale

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        a = random_symmetric(rng, 6)
        eig = linalg.eig_sym(a)
        recon = (eig.vectors * eig.values) @ eig.vectors.T
        assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(3)
        eig = linalg.eig_sym(random_symmetric(rng, 7))
        np.testing.assert_allclose(eig.vectors.T @ eig.vectors, np.eye(7), atol=1e-8)
        np.testing.assert_allclose(np.linalg.norm(eig.vectors, axis=0), 1.0, atol=1e-10)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(4)
        a = random_symmetric(rng, 5)
        e1 = linalg.eig_sym(a)
        e2 = linalg.eig_sym(a.copy())
        np.testing.assert_array_equal(e1.vectors, e2.vectors)
        for col in e1.vectors.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linalg.eig_sym(np.ones((2, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ParameterError):
            linalg.eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ParameterError):
            linalg.eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]), top=1)

    def test_entries_too_large_rejected_without_warning(self):
        # a + a^T overflows to inf, which eigh would turn into nan silently
        with pytest.raises(ParameterError, match="too large"):
            linalg.eig_sym(np.full((3, 3), 1e308))

    @pytest.mark.parametrize("n, top", [(1, 1), (6, 1), (6, 3), (6, 6), (40, 7), (40, 40)])
    def test_top_matches_full_decomposition(self, n, top):
        rng = np.random.default_rng(n + top)
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        # distinct eigenvalues, both signs, so every eigenvector is determined
        values = np.linspace(-3.0, 5.0, n) + 0.01 * rng.random(n)
        a = (q * values) @ q.T
        full = linalg.eig_sym(a)
        part = linalg.eig_sym(a, top=top)
        assert part.values.shape == (top,) and part.vectors.shape == (n, top)
        np.testing.assert_allclose(part.values, full.values[:top], rtol=0, atol=1e-10)
        np.testing.assert_allclose(part.vectors, full.vectors[:, :top], rtol=0, atol=1e-10)
        for col in part.vectors.T:
            assert col[np.argmax(np.abs(col))] > 0

    @pytest.mark.parametrize("top", [0, -1, 5])
    def test_top_out_of_range(self, top):
        with pytest.raises(ParameterError, match="top"):
            linalg.eig_sym(np.eye(4), top=top)


class TestMatrixRoots:
    def test_identity(self):
        np.testing.assert_allclose(linalg.inv_sqrt_psd(np.eye(4)), np.eye(4), atol=1e-12)
        np.testing.assert_allclose(linalg.sqrt_psd(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            linalg.inv_sqrt_psd(np.diag([4.0, 9.0])), np.diag([0.5, 1.0 / 3.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            linalg.sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_inverse_root_residual(self):
        rng = np.random.default_rng(7)
        c = random_spd(rng, 5)
        r = linalg.inv_sqrt_psd(c)
        np.testing.assert_allclose(r @ c @ r, np.eye(5), atol=1e-6)

    def test_root_squares_back(self):
        rng = np.random.default_rng(8)
        c = random_spd(rng, 5)
        r = linalg.sqrt_psd(c)
        np.testing.assert_allclose(r @ r, c, atol=1e-6)

    def test_roots_compose_to_identity(self):
        rng = np.random.default_rng(9)
        c = random_spd(rng, 6)
        prod = linalg.inv_sqrt_psd(c) @ linalg.sqrt_psd(c)
        np.testing.assert_allclose(prod, np.eye(6), atol=1e-6)

    def test_eps_clamp_prevents_blowup(self):
        c = np.diag([1.0, 0.0])
        r = linalg.inv_sqrt_psd(c)
        assert np.all(np.isfinite(r))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linalg.inv_sqrt_psd(np.ones((2, 3)))


class TestPca:
    def test_collinear_points(self):
        t = np.linspace(-1, 1, 9)
        x = np.stack([t, t], axis=1)
        basis = linalg.pca(x, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [1 / np.sqrt(2)] * 2, atol=1e-10)

    def test_orthonormal_basis(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(30, 5))
        basis = linalg.pca(x, 2)
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-10)

    def test_captured_variance_matches_cov_eig_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(50, 6)) @ np.diag([3.0, 2.5, 2.0, 1.0, 0.5, 0.1])
        basis = linalg.pca(x, 3)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (x.shape[0] - 1)
        captured = np.trace(basis.T @ cov @ basis)
        oracle = np.sort(np.linalg.eigvalsh(cov))[::-1][:3].sum()
        assert abs(captured - oracle) <= 1e-8

    def test_sign_convention(self):
        rng = np.random.default_rng(12)
        basis = linalg.pca(rng.normal(size=(20, 4)), 3)
        for col in basis.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_dim_too_large(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ParameterError):
            linalg.pca(rng.normal(size=(10, 4)), 5)
        with pytest.raises(ParameterError):
            linalg.pca(rng.normal(size=(3, 8)), 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_eig_residual_property(n, seed):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, n)
    eig = linalg.eig_sym(a)
    scale = max(np.linalg.norm(a), 1e-12)
    resid = a @ eig.vectors - eig.vectors * eig.values
    assert np.linalg.norm(resid, axis=0).max() <= 1e-8 * scale


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_pca_orthonormality_property(rows, dim, seed):
    rng = np.random.default_rng(seed)
    rows = max(rows, dim + 1)
    x = rng.normal(size=(rows, 4)) * rng.uniform(0.01, 100.0)
    dim = min(dim, 4, rows - 1)
    basis = linalg.pca(x, dim)
    np.testing.assert_allclose(basis.T @ basis, np.eye(dim), atol=1e-10)
