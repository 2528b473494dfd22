"""Training losses: squared MMD between latent batches, binary cross-entropy
and L1 reconstruction, plus their analytic gradients where training needs
them and the logistic function that the network and the logistic baselines
share. All losses are batch means so their weights are batch-size free.

`_mmd_sq_and_grads` and `l1_recon` form their batch-shaped arrays in the
buffers of a `Workspace` (`iadt.workspace`; a fresh one when none is
given), and so does `_rbf_gram`, which builds each Gram matrix in place
with the rounding order of the plain expression. `l1_recon` leaves the one
difference xhat - x it forms in the workspace, so that a training step
takes both the L1 value and its sign subgradient from it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .workspace import Workspace, buffer


@dataclass(frozen=True)
class KernelSpec:
    """Kernel for the MMD estimator: 'linear' or 'rbf', with a finite gamma (> 0 for rbf)."""

    kind: str = "linear"
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and not self.gamma > 0:
            raise ParameterError("rbf kernel needs gamma > 0")
        if not np.isfinite(self.gamma):
            raise ParameterError(f"gamma must be finite, got {self.gamma!r}")


def _check_pair(zs, zt):
    zs = np.asarray(zs, dtype=np.float64)
    zt = np.asarray(zt, dtype=np.float64)
    if zs.ndim != 2 or zt.ndim != 2:
        raise DimensionError("latent batches must be 2-D")
    if zs.shape[1] != zt.shape[1]:
        raise DimensionError(
            f"latent widths differ: {zs.shape[1]} vs {zt.shape[1]}"
        )
    if zs.shape[0] < 1 or zt.shape[0] < 1:
        raise ParameterError("latent batches must be nonempty")
    return zs, zt


def _sigmoid(t, out=None):
    """Logistic function 1 / (1 + exp(-t)) as 1 / (1 + e) for t >= 0 and
    e / (1 + e) otherwise, with e = exp(-|t|) <= 1, so it never overflows.

    The result is built in `out` (an array of t's shape that does not
    overlap t) when it is given.
    """
    e = np.abs(t, out=np.empty(np.shape(t)) if out is None else out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.where(t >= 0, 1.0, e)
    e += 1.0
    return np.divide(num, e, out=e)


def _rbf_gram(a, b, gamma, ws=None, name="gram"):
    """exp(-gamma * max(|a_i|^2 + |b_j|^2 - 2 a_i.b_j, 0)) for every row pair.

    The Gram matrix is built in the buffer `name` of `ws` (a fresh workspace
    when none is given), `2 a b^T` in its "two_ab" buffer and the squares
    a * a and b * b in its "squares" buffers, so a step that reuses the
    workspace allocates none of them again. Where gamma * d^2 overflows,
    exp(-inf) = 0 is the kernel's limit: no warning.
    """
    ws = Workspace() if ws is None else ws
    shape = (a.shape[0], b.shape[0])
    sa = np.add.reduce(np.multiply(a, a, out=buffer(ws, "squares", a.shape)), axis=1)
    sb = np.add.reduce(np.multiply(b, b, out=buffer(ws, "squares", b.shape)), axis=1)
    two_ab = np.matmul(a, b.T, out=buffer(ws, "two_ab", shape))
    two_ab *= 2.0
    # sa_i, then + sb_j: the sum's one rounding, without numpy's buffered
    # broadcast of both operands.
    k = buffer(ws, name, shape)
    np.copyto(k, sa[:, None])
    k += sb
    k -= two_ab
    np.maximum(k, 0.0, out=k)
    with np.errstate(over="ignore"):
        k *= -gamma
        return np.exp(k, out=k)


def mmd_sq(zs, zt, kernel=KernelSpec()):
    """Biased (V-statistic) squared MMD between two batches.

    With the linear kernel this reduces to the squared distance between the
    batch means, which is what the shortcut in `_mmd_sq_and_grads` computes.
    """
    return _mmd_sq_and_grads(zs, zt, kernel)[0]


def _mmd_sq_and_grads(zs, zt, kernel, ws=None):
    """mmd_sq and its gradients with respect to zs and zt, from one set of
    Gram matrices; every batch-shaped array lives in `ws`.

    For the rbf kernel kss, ktt and kst are built in turn in one "gram"
    buffer per shape, each one's mean and pair term taken before the next
    overwrites it, so a step keeps two B x B arrays: the Gram matrix and
    `_rbf_gram`'s 2 a b^T.
    """
    ws = Workspace() if ws is None else ws
    zs, zt = _check_pair(zs, zt)
    ns, nt = zs.shape[0], zt.shape[0]
    gs = buffer(ws, "gs", zs.shape)
    gt = buffer(ws, "gt", zt.shape)
    if kernel.kind == "linear":
        diff = np.add.reduce(zs, axis=0) / ns - np.add.reduce(zt, axis=0) / nt
        gs[...] = 2.0 * diff / ns
        gt[...] = -2.0 * diff / nt
        return float(diff @ diff), gs, gt
    g = kernel.gamma

    def mean(k):
        return np.add.reduce(k, axis=None) / k.size

    # d/ds_i of sum k(s_a, s_b) is 2 * sum_j k_ij * (-2g)(s_i - s_j); the
    # weighted-difference sums below are K x - diag(K 1) x style products,
    # written into `out` as row * x_a - k @ x_b.
    def pair_term(k, x_a, x_b, out):
        row = np.add.reduce(k, axis=1)
        out = np.multiply(row[:, None], x_a, out=out)
        out -= np.matmul(k, x_b, out=buffer(ws, "k_x", x_a.shape))
        return out

    kss = _rbf_gram(zs, zs, g, ws, "gram")
    mean_ss = mean(kss)
    pair_term(kss, zs, zs, gs)
    gs *= -4.0 * g / ns**2
    ktt = _rbf_gram(zt, zt, g, ws, "gram")
    mean_tt = mean(ktt)
    pair_term(ktt, zt, zt, gt)
    gt *= -4.0 * g / nt**2
    kst = _rbf_gram(zs, zt, g, ws, "gram")
    value = float(mean_ss + mean_tt - 2.0 * mean(kst))
    cross = pair_term(kst, zs, zt, buffer(ws, "cross", zs.shape))
    cross *= 4.0 * g / (ns * nt)
    gs += cross
    cross = pair_term(kst.T, zt, zs, buffer(ws, "cross", zt.shape))
    cross *= 4.0 * g / (ns * nt)
    gt += cross
    return value, gs, gt


def cross_entropy(y, yhat):
    """Mean binary cross-entropy; yhat must already be clamped away from 0/1."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise DimensionError(f"label/prob length mismatch: {y.shape} vs {yhat.shape}")
    loss = -y * np.log(yhat) - (1.0 - y) * np.log(1.0 - yhat)
    return float(np.add.reduce(loss, axis=None) / loss.size)


# The buffer of a workspace in which `l1_recon` leaves xhat - x.
RECON_DIFF = "recon_diff"


def l1_recon(x, xhat, ws=None):
    """Mean over samples of the L1 distance between input and reconstruction.

    The difference xhat - x is formed once, in the RECON_DIFF buffer of
    `ws`, and left there: |x - xhat| = |xhat - x| exactly, so a training
    step takes the loss's subgradient, its sign, from the same difference.
    The elementwise distances go to another buffer of `ws`.
    """
    ws = Workspace() if ws is None else ws
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {xhat.shape}")
    diff = np.subtract(xhat, x, out=buffer(ws, RECON_DIFF, x.shape))
    rows = np.add.reduce(np.abs(diff, out=buffer(ws, "l1", x.shape)), axis=-1)
    return float(np.add.reduce(rows, axis=None) / rows.size)
