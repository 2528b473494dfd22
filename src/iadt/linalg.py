"""Dense linear algebra kernel: symmetric eigendecomposition, matrix roots
and PCA on small double-precision matrices.

All functions are pure: inputs are never mutated, outputs are freshly
allocated float64 arrays. Eigenvector signs follow a fixed convention
(largest-magnitude entry positive) so repeated runs are bit-identical.

`eig_sym(a, top=k)` computes only the k largest eigenpairs (LAPACK's
subset driver through `scipy.linalg.eigh`), with the same symmetry check,
ordering and sign convention as the full decomposition. Its one caller is
the rbf-kernel TCA, whose matrix is n x n in the stacked rows; the first
such call loads `scipy.linalg`. Every other caller (the matrix roots, PCA,
the linear-kernel TCA's d x d matrix) leaves `top` unset and runs on
numpy alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

# Eigenvalue clamp for matrix roots; guards rank-deficient covariances.
DEFAULT_EPS = 1e-10

SYMMETRY_TOL = 1e-9


def as_matrix(a, name="matrix"):
    """Validate and return `a` as a finite 2-D float64 array."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ParameterError(f"{name} contains non-finite entries")
    return out


def _require_square(a, name="matrix"):
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")


def _fix_signs(vectors):
    """Flip eigenvector columns so the largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


@dataclass(frozen=True)
class EigResult:
    """Eigenvalues (descending) and unit eigenvectors (as columns)."""

    values: np.ndarray
    vectors: np.ndarray


def eig_sym(a, top=None):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input is symmetrized by averaging with its transpose before
    decomposition; asymmetry beyond 1e-9 (relative) is rejected. With
    `top` set, only the `top` largest eigenpairs are computed and returned.
    """
    a = as_matrix(a, "a")
    _require_square(a, "a")
    n = a.shape[0]
    if top is not None and not (1 <= top <= n):
        raise ParameterError(f"top must be in [1, {n}], got {top}")
    # entries near the float64 limit overflow the norm and a + a^T
    with np.errstate(over="ignore"):
        scale = max(np.linalg.norm(a), 1.0)
        if np.max(np.abs(a - a.T)) > SYMMETRY_TOL * scale:
            raise ParameterError("matrix is not symmetric within tolerance")
        sym = 0.5 * (a + a.T)
    if not np.all(np.isfinite(sym)):
        raise ParameterError("a has entries too large to decompose in float64")
    if top is None:
        values, vectors = np.linalg.eigh(sym)
    else:
        # imported here, so only an rbf TCA pays scipy.linalg's ~140 ms and ~22 MB RSS
        import scipy.linalg

        values, vectors = scipy.linalg.eigh(sym, subset_by_index=[n - top, n - 1])
    order = np.argsort(values)[::-1]
    values = values[order]
    vectors = _fix_signs(vectors[:, order])
    return EigResult(values=values, vectors=vectors)


def _psd_power(a, eps, exponent):
    eig = eig_sym(a)
    clamped = np.maximum(eig.values, eps)
    powered = clamped**exponent
    out = (eig.vectors * powered) @ eig.vectors.T
    return 0.5 * (out + out.T)


def inv_sqrt_psd(a):
    """Inverse square root of a symmetric PSD matrix, eigenvalues clamped at
    DEFAULT_EPS."""
    return _psd_power(a, DEFAULT_EPS, -0.5)


def sqrt_psd(a, eps=DEFAULT_EPS):
    """Square root of a symmetric PSD matrix, eigenvalues clamped at eps."""
    return _psd_power(a, eps, 0.5)


def pca(x, dim):
    """Orthonormal basis (cols x dim) of the top principal directions.

    Directions are eigenvectors of the sample covariance of the
    column-mean-centered data, eigenvalue-descending.
    """
    x = as_matrix(x, "x")
    n, k = x.shape
    if n < 2:
        raise ParameterError("pca needs at least 2 rows")
    if not (1 <= dim <= min(n - 1, k)):
        raise ParameterError(f"pca dim {dim} invalid for data of shape {x.shape}")
    centered = x - x.mean(axis=0)
    cov = (centered.T @ centered) / (n - 1)
    eig = eig_sym(cov)
    return eig.vectors[:, :dim].copy()
