"""Each baseline fit's operator, recovered from the adapted rows it returns.

A fit returns only `(zs, zt)`, its rows mapped into the adapted space. Every
map is linear in the fitted operator, so least squares on the fitted rows
gives the operator back. The tests that use these fit rows of full column
rank, where the solution is unique; TCA's kernel K is singular, but its W
lies in range(K), where the minimum-norm solution is.
"""

import numpy as np

from iadt.linalg import pca
from iadt.losses import _rbf_gram


def _solve(a, b):
    return np.linalg.lstsq(a, b, rcond=None)[0]


def tca_projection(xs, xt, zs, zt, kernel):
    """TCA's components W (n x dim) from the adapted rows K W. W lies in
    range(K), so the minimum-norm solution is W itself."""
    stacked = np.vstack([xs, xt])
    if kernel.kind == "linear":
        k = stacked @ stacked.T
    else:
        k = _rbf_gram(stacked, stacked, kernel.gamma)
    return _solve(k, np.vstack([zs, zt]))


def gfk_kernel(xs, zs):
    """GFK's G from the adapted rows xs G^(1/2), G^(1/2) symmetric."""
    g_sqrt = _solve(xs, zs)
    return g_sqrt @ g_sqrt


def sa_alignment(xs, zs, dim):
    """SA's alignment m from the adapted source rows (xs ps) m."""
    return _solve(xs @ pca(xs, dim), zs)


def coral_transform(xs, xt, zs):
    """CORAL's transform T from the adapted source rows
    (xs - mean(xs)) T + mean(xt)."""
    return _solve(xs - xs.mean(axis=0), zs - xt.mean(axis=0))
