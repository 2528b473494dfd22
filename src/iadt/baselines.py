"""Classical comparison methods: a source-only logistic classifier and four
subspace adaptation techniques (transfer components, geodesic flow kernel,
subspace alignment, correlation alignment).

Each `*_fit(xs, xt)` returns the adapted pair `(zs, zt)`: the rows it was
fitted on, projected into its adapted space. A logistic classifier trained
on `zs` then scores `zt`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .linalg import _fix_signs, eig_sym, inv_sqrt_psd, pca, sqrt_psd
from .losses import KernelSpec, _rbf_gram, _sigmoid

# logistic_fit's L2 weight, step limit, step size and early-stop gradient norm
LOGISTIC_L2 = 1e-4
LOGISTIC_ITERS = 500
LOGISTIC_LR = 0.1
LOGISTIC_TOL = 1e-8

# Principal angles below this are treated as zero when assembling the
# geodesic kernel (the integrand has a removable singularity there).
ANGLE_EPS = 1e-8


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float


def logistic_fit(x, y):
    """Full-batch gradient descent on L2-regularized mean cross-entropy.

    Stops early once the gradient infinity-norm drops below LOGISTIC_TOL.
    The bias is not regularized.
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
    for _ in range(LOGISTIC_ITERS):
        p = _sigmoid(x @ w + b)
        resid = p - y
        gw = x.T @ resid / n + LOGISTIC_L2 * w
        gb = float(resid.sum()) / n
        if max(np.max(np.abs(gw)), abs(gb)) <= LOGISTIC_TOL:
            break
        w -= LOGISTIC_LR * gw
        b -= LOGISTIC_LR * gb
    return LogisticModel(weights=w, bias=b)


def logistic_predict(model, x):
    """Class-1 probabilities of the rows of `x`."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.weights.shape[0]:
        raise DimensionError(
            f"x has {x.shape[1]} features, model expects {model.weights.shape[0]}"
        )
    return _sigmoid(x @ model.weights + model.bias)


def _domains(xs, xt):
    """Both domains as float64 matrices with the same feature count."""
    xs = np.asarray(xs, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    if xs.ndim != 2 or xt.ndim != 2:
        raise DimensionError("each domain must be 2-D, one row per sample")
    if xt.shape[1] != xs.shape[1]:
        raise DimensionError("feature counts differ between domains")
    return xs, xt


def _whiten(m, uh, c, mu):
    """(mu I + u u^T)^(-1/2) m = mu^(-1/2) (m - c uh (uh^T m)), one rank-one update."""
    return (m - c * np.outer(uh, uh @ m)) / math.sqrt(mu)


def tca_fit(xs, xt, dim=40, mu=0.01, kernel=KernelSpec()):
    """Transfer components: kernelized projection that shrinks the MMD.

    Over the kernel K of the n stacked source/target rows, the components
    are the top `dim` generalized eigenvectors w of (K H K, K L K + mu I),
    where L = coeff coeff^T is the MMD coefficient matrix and H the
    centering projector, so the result matches a dense generalized
    eigensolver. The adapted rows are K w, one block per domain.

    Neither L nor H is formed. K L K = u u^T with u = K coeff, so the right
    side mu I + u u^T has the closed-form inverse square root
    W = mu^(-1/2) (I - c uh uh^T), uh = u / |u|, c = 1 - sqrt(mu / (mu + |u|^2)),
    and w = W v for the top eigenvectors v of W K H K W.

    With the linear kernel K = X X^T has rank at most d, and the problem is
    solved in feature space: K H K = X S X^T with S = Xc^T Xc (d x d) for the
    centred rows Xc, so with the thin QR W X = Q R, W K H K W = Q (R S R^T) Q^T
    and v = Q v' for the top eigenvectors v' of the d x d matrix R S R^T.
    Rows project through the d x dim matrix X^T w. That is O(n d^2) time and
    O(n d) memory.

    With the rbf kernel K H K = (HK)^T (HK) with HK the column-centred
    kernel: n x n matrices, one n x n x n product and a partial
    eigendecomposition of the whitened matrix's top `dim` eigenpairs.
    """
    xs, xt = _domains(xs, xt)
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

    coeff = np.empty(n)
    coeff[:ns] = 1.0 / ns
    coeff[ns:] = -1.0 / nt
    if kernel.kind == "linear":
        u = stacked @ (stacked.T @ coeff)
    else:
        k = _rbf_gram(stacked, stacked, kernel.gamma)
        u = k @ coeff
    u_norm_sq = float(u @ u)
    uh = u / math.sqrt(u_norm_sq) if u_norm_sq > 0 else u  # u = 0 gives c = 0
    c = 1.0 - math.sqrt(mu / (mu + u_norm_sq))

    if kernel.kind == "linear":
        q, r = np.linalg.qr(_whiten(stacked, uh, c, mu))
        centred = stacked - stacked.mean(axis=0)
        t = r @ (centred.T @ centred) @ r.T
        w = _whiten(_fix_signs(q @ eig_sym(t).vectors[:, :dim]), uh, c, mu)
        weights = stacked.T @ w
        return xs @ weights, xt @ weights

    hk = k - k.mean(axis=0)
    b_mat = hk.T @ hk

    # C = (I - c uh uh^T) B (I - c uh uh^T) / mu, by rank-one updates
    bu = b_mat @ uh
    c_mat = b_mat - c * (np.outer(uh, bu) + np.outer(bu, uh))
    c_mat += (c * c * float(uh @ bu)) * np.outer(uh, uh)
    c_mat /= mu
    w = _whiten(eig_sym(c_mat, top=dim).vectors, uh, c, mu)
    return _rbf_gram(xs, stacked, kernel.gamma) @ w, _rbf_gram(xt, stacked, kernel.gamma) @ w


def gfk_fit(xs, xt, dim=20):
    """Geodesic flow kernel between the source and target PCA subspaces.

    Closed-form integral of the projector along the geodesic connecting the
    two subspaces on the Grassmann manifold; small principal angles use the
    series limits of the integrand so identical subspaces yield exactly the
    shared projector.

    The geodesic leaves the source basis phi1 = ps u1 towards
    phi2 = (phi1 cos(theta) - pt v) / sin(theta), where ps^T pt = u1 cos(theta) v^T,
    so no basis of the source's complement is built: the cost is the two
    PCAs, one dim x dim SVD and the square root of the d x d kernel.
    """
    xs, xt = _domains(xs, xt)
    d = xs.shape[1]
    if not (1 <= dim <= d // 2):
        raise ParameterError(f"gfk dim must be in [1, {d // 2}] for {d} features")
    ps = pca(xs, dim)
    pt = pca(xt, dim)

    u1, cos_t, v_t = np.linalg.svd(ps.T @ pt)
    cos_t = np.clip(cos_t, -1.0, 1.0)
    theta = np.arccos(cos_t)
    sin_t = np.sin(theta)

    # phi2 is zero on the columns where the subspaces agree.
    phi1 = ps @ u1
    turned = sin_t > ANGLE_EPS
    phi2 = np.zeros((d, dim))
    phi2[:, turned] = (phi1 * cos_t - pt @ v_t.T)[:, turned] / sin_t[turned]

    # Diagonal blocks of the integrated projector; series at theta ~ 0.
    small = theta < ANGLE_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc2 = np.where(small, 1.0 - (2.0 * theta**2) / 3.0, np.sin(2.0 * theta) / (2.0 * theta))
        cosm1 = np.where(small, -theta, (np.cos(2.0 * theta) - 1.0) / (2.0 * theta))
    lam1 = 0.5 * (1.0 + sinc2)
    lam2 = 0.5 * cosm1
    lam3 = 0.5 * (1.0 - sinc2)

    g = (
        (phi1 * lam1) @ phi1.T
        + (phi1 * lam2) @ phi2.T
        + (phi2 * lam2) @ phi1.T
        + (phi2 * lam3) @ phi2.T
    )
    g = 0.5 * (g + g.T)
    g_sqrt = sqrt_psd(g, eps=0.0)
    return xs @ g_sqrt, xt @ g_sqrt


def sa_fit(xs, xt, dim=20):
    """Subspace alignment: map the source PCA basis onto the target's."""
    xs, xt = _domains(xs, xt)
    (ns, d), nt = xs.shape, xt.shape[0]
    bound = min(d, ns - 1, nt - 1)
    if not (1 <= dim <= bound):
        raise ParameterError(
            f"sa dim must be in [1, {bound}] for {d} features, {ns} source and {nt} target "
            f"rows (min(d, n_s - 1, n_t - 1)); got {dim}"
        )
    ps = pca(xs, dim)
    pt = pca(xt, dim)
    return xs @ ps @ (ps.T @ pt), xt @ pt


def coral_fit(xs, xt, reg=1.0):
    """Correlation alignment: whiten source covariance, recolor to target.

    The adapted source is recentered on the target mean; the target rows
    come back unchanged, as a copy.
    """
    xs, xt = _domains(xs, xt)
    if xs.shape[0] < 2 or xt.shape[0] < 2:
        raise ParameterError("coral needs at least 2 samples per domain")
    d = xs.shape[1]
    cs = np.cov(xs, rowvar=False, ddof=1) + reg * np.eye(d)
    ct = np.cov(xt, rowvar=False, ddof=1) + reg * np.eye(d)
    transform = inv_sqrt_psd(cs) @ sqrt_psd(ct)
    source_mean = xs.mean(axis=0)
    target_mean = xt.mean(axis=0)
    return (xs - source_mean) @ transform + target_mean, xt.copy()
