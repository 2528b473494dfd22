"""Classical comparison methods: a source-only logistic classifier and four
subspace adaptation techniques (transfer components, geodesic flow kernel,
subspace alignment, correlation alignment).

Each `*_fit` returns a SubspaceMap whose `source` and `target` callables
project raw rows of each domain into the adapted space; `baseline_predict`
then trains a logistic classifier on adapted source data and scores the
adapted target.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .linalg import eig_sym, inv_sqrt_psd, pca, sqrt_psd
from .losses import KernelSpec, _rbf_gram, _sigmoid

LOGISTIC_TOL = 1e-8

# Principal angles below this are treated as zero when assembling the
# geodesic kernel (the integrand has a removable singularity there).
ANGLE_EPS = 1e-8


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float


def logistic_fit(x, y, l2=1e-4, iters=500, lr=0.1):
    """Full-batch gradient descent on L2-regularized mean cross-entropy.

    Stops early once the gradient infinity-norm drops below 1e-8. The bias
    is not regularized.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape[0] != x.shape[0]:
        raise DimensionError("x must be 2-D with one label per row")
    if len(np.unique(y)) < 2:
        raise ParameterError("logistic_fit needs samples of both classes")
    n, k = x.shape
    w = np.zeros(k)
    b = 0.0
    for _ in range(iters):
        p = _sigmoid(x @ w + b)
        resid = p - y
        gw = x.T @ resid / n + l2 * w
        gb = float(resid.sum()) / n
        if max(np.max(np.abs(gw)), abs(gb)) <= LOGISTIC_TOL:
            break
        w -= lr * gw
        b -= lr * gb
    return LogisticModel(weights=w, bias=b)


def logistic_predict(model, x, threshold=0.5):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.weights.shape[0]:
        raise DimensionError(
            f"x has {x.shape[1]} features, model expects {model.weights.shape[0]}"
        )
    probs = _sigmoid(x @ model.weights + model.bias)
    return probs, (probs >= threshold).astype(int)


@dataclass(frozen=True)
class SubspaceMap:
    """A fitted domain-adaptation transform.

    `source(x)` and `target(x)` map raw rows of each domain into the adapted
    space; `arrays` exposes the fitted operator (tca `projection`, gfk `g`,
    sa `m`, coral `transform`).
    """

    source: Callable
    target: Callable
    arrays: dict


def _kernel_matrix(a, b, kernel):
    if kernel.kind == "linear":
        return a @ b.T
    return _rbf_gram(a, b, kernel.gamma)


def tca_fit(xs, xt, dim=40, mu=0.01, kernel=KernelSpec()):
    """Transfer components: kernelized projection that shrinks the MMD.

    Builds the combined kernel K over stacked source/target rows and takes
    the top `dim` generalized eigenvectors of (K H K, K L K + mu I), where
    L = coeff coeff^T is the MMD coefficient matrix and H the centering
    projector, so the result matches a dense generalized eigensolver.

    Neither L nor H is formed. K L K = u u^T with u = K coeff, and
    K H K = (HK)^T (HK) with HK the column-centred kernel: one n x n x n
    product. The left side mu I + u u^T has the closed-form inverse square
    root mu^(-1/2) (I - c uh uh^T), uh = u / |u|,
    c = 1 - sqrt(mu / (mu + |u|^2)), so whitening is a few rank-one
    updates, and only the top `dim` eigenpairs of the whitened matrix are
    computed.
    """
    xs = np.asarray(xs, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    ns, nt = xs.shape[0], xt.shape[0]
    n = ns + nt
    d = xs.shape[1]
    # Past the rank of K H K the components span a null eigenspace.
    if kernel.kind == "linear":
        rank_bound, formula = min(d, n - 1), "min(d, n - 1)"
    else:
        rank_bound, formula = n - 1, "n - 1"
    if not (1 <= dim <= rank_bound):
        raise ParameterError(
            f"tca dim must be in [1, {rank_bound}]: with the {kernel.kind} kernel K H K has "
            f"rank at most {formula} for d = {d} features and n = {n} stacked samples; "
            f"got {dim}"
        )
    if not (math.isfinite(mu) and mu > 0):
        raise ParameterError(f"tca mu must be finite and > 0, got {mu!r}")
    stacked = np.vstack([xs, xt])
    k = _kernel_matrix(stacked, stacked, kernel)

    coeff = np.empty(n)
    coeff[:ns] = 1.0 / ns
    coeff[ns:] = -1.0 / nt
    u = k @ coeff
    u_norm_sq = float(u @ u)
    uh = u / math.sqrt(u_norm_sq) if u_norm_sq > 0 else u  # u = 0 gives c = 0
    c = 1.0 - math.sqrt(mu / (mu + u_norm_sq))

    hk = k - k.mean(axis=0)
    b_mat = hk.T @ hk

    # C = (I - c uh uh^T) B (I - c uh uh^T) / mu, by rank-one updates
    bu = b_mat @ uh
    c_mat = b_mat - c * (np.outer(uh, bu) + np.outer(bu, uh))
    c_mat += (c * c * float(uh @ bu)) * np.outer(uh, uh)
    c_mat /= mu
    vectors = eig_sym(c_mat, top=dim).vectors
    w = (vectors - c * np.outer(uh, uh @ vectors)) / math.sqrt(mu)

    def project(x):
        return _kernel_matrix(np.asarray(x, dtype=np.float64), stacked, kernel) @ w

    return SubspaceMap(source=project, target=project, arrays={"projection": w})


def _complement_basis(basis):
    """Orthonormal basis of the orthogonal complement of `basis`'s columns."""
    d, r = basis.shape
    proj = np.eye(d) - basis @ basis.T
    eig = eig_sym(0.5 * (proj + proj.T))
    return eig.vectors[:, : d - r]


def gfk_fit(xs, xt, dim=20):
    """Geodesic flow kernel between the source and target PCA subspaces.

    Closed-form integral of the projector along the geodesic connecting the
    two subspaces on the Grassmann manifold; small principal angles use the
    series limits of the integrand so identical subspaces yield exactly the
    shared projector.
    """
    xs = np.asarray(xs, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    d = xs.shape[1]
    if xt.shape[1] != d:
        raise DimensionError("feature counts differ between domains")
    if not (1 <= dim <= d // 2):
        raise ParameterError(f"gfk dim must be in [1, {d // 2}] for {d} features")
    ps = pca(xs, dim)
    pt = pca(xt, dim)
    rs = _complement_basis(ps)

    a = ps.T @ pt
    u1, cos_t, v_t = np.linalg.svd(a)
    v = v_t.T
    cos_t = np.clip(cos_t, -1.0, 1.0)
    theta = np.arccos(cos_t)
    sin_t = np.sin(theta)

    bv = rs.T @ pt @ v
    u2 = np.zeros((d - dim, dim))
    for j in range(dim):
        if sin_t[j] > ANGLE_EPS:
            u2[:, j] = -bv[:, j] / sin_t[j]

    # Diagonal blocks of the integrated projector; series at theta ~ 0.
    small = theta < ANGLE_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc2 = np.where(small, 1.0 - (2.0 * theta**2) / 3.0, np.sin(2.0 * theta) / (2.0 * theta))
        cosm1 = np.where(small, -theta, (np.cos(2.0 * theta) - 1.0) / (2.0 * theta))
    lam1 = 0.5 * (1.0 + sinc2)
    lam2 = 0.5 * cosm1
    lam3 = 0.5 * (1.0 - sinc2)

    phi1 = ps @ u1
    phi2 = rs @ u2
    g = (
        (phi1 * lam1) @ phi1.T
        + (phi1 * lam2) @ phi2.T
        + (phi2 * lam2) @ phi1.T
        + (phi2 * lam3) @ phi2.T
    )
    g = 0.5 * (g + g.T)
    g_sqrt = sqrt_psd(g, eps=0.0)

    def project(x):
        return np.asarray(x, dtype=np.float64) @ g_sqrt

    return SubspaceMap(source=project, target=project, arrays={"g": g})


def sa_fit(xs, xt, dim=20):
    """Subspace alignment: map the source PCA basis onto the target's."""
    xs = np.asarray(xs, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    ps = pca(xs, dim)
    pt = pca(xt, dim)
    m = ps.T @ pt
    return SubspaceMap(
        source=lambda x: np.asarray(x, dtype=np.float64) @ ps @ m,
        target=lambda x: np.asarray(x, dtype=np.float64) @ pt,
        arrays={"m": m},
    )


def coral_fit(xs, xt, reg=1.0):
    """Correlation alignment: whiten source covariance, recolor to target.

    The adapted source is recentered on the target mean; target data is
    left untouched.
    """
    xs = np.asarray(xs, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    if xs.shape[0] < 2 or xt.shape[0] < 2:
        raise ParameterError("coral needs at least 2 samples per domain")
    d = xs.shape[1]
    cs = np.cov(xs, rowvar=False, ddof=1) + reg * np.eye(d)
    ct = np.cov(xt, rowvar=False, ddof=1) + reg * np.eye(d)
    transform = inv_sqrt_psd(cs) @ sqrt_psd(ct)
    source_mean = xs.mean(axis=0)
    target_mean = xt.mean(axis=0)

    def recolor(x):
        return (np.asarray(x, dtype=np.float64) - source_mean) @ transform + target_mean

    return SubspaceMap(
        source=recolor,
        target=lambda x: np.asarray(x, dtype=np.float64),
        arrays={"transform": transform},
    )


def baseline_predict(smap, xs, ys, xt, threshold=0.5):
    """Adapt both domains, fit logistic on adapted source, score the target."""
    model = logistic_fit(smap.source(xs), ys)
    return logistic_predict(model, smap.target(xt), threshold=threshold)
