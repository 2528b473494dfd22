"""Training losses: squared MMD between latent batches, binary cross-entropy
and L1 reconstruction, plus their analytic gradients where training needs
them and the logistic function that the network and the logistic baselines
share. All losses are batch means so their weights are batch-size free.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError


@dataclass(frozen=True)
class KernelSpec:
    """Kernel for the MMD estimator: 'linear' or 'rbf' with bandwidth gamma."""

    kind: str = "linear"
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and not self.gamma > 0:
            raise ParameterError("rbf kernel needs gamma > 0")


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


def _sigmoid(t):
    """Logistic function, split by sign so neither branch overflows."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _rbf_gram(a, b, gamma):
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-gamma * np.clip(sq, 0.0, None))


def mmd_sq(zs, zt, kernel=KernelSpec()):
    """Biased (V-statistic) squared MMD between two batches.

    With the linear kernel this reduces to the squared distance between the
    batch means, which is what the shortcut in `_mmd_sq_and_grads` computes.
    """
    return _mmd_sq_and_grads(zs, zt, kernel)[0]


def mmd_sq_grad(zs, zt, kernel=KernelSpec()):
    """Gradients of mmd_sq with respect to each latent batch."""
    _, gs, gt = _mmd_sq_and_grads(zs, zt, kernel)
    return gs, gt


def _mmd_sq_and_grads(zs, zt, kernel):
    """mmd_sq and its gradients with respect to zs and zt, from one set of
    Gram matrices."""
    zs, zt = _check_pair(zs, zt)
    ns, nt = zs.shape[0], zt.shape[0]
    if kernel.kind == "linear":
        diff = zs.mean(axis=0) - zt.mean(axis=0)
        gs = np.tile(2.0 * diff / ns, (ns, 1))
        gt = np.tile(-2.0 * diff / nt, (nt, 1))
        return float(diff @ diff), gs, gt
    g = kernel.gamma
    kss = _rbf_gram(zs, zs, g)
    ktt = _rbf_gram(zt, zt, g)
    kst = _rbf_gram(zs, zt, g)
    value = float(kss.mean() + ktt.mean() - 2.0 * kst.mean())
    # d/ds_i of sum k(s_a, s_b) is 2 * sum_j k_ij * (-2g)(s_i - s_j); the
    # weighted-difference sums below are K x - diag(K 1) x style products.
    def pair_term(k, x_a, x_b):
        row = k.sum(axis=1)
        return row[:, None] * x_a - k @ x_b

    gs = (-4.0 * g / ns**2) * pair_term(kss, zs, zs) + (
        4.0 * g / (ns * nt)
    ) * pair_term(kst, zs, zt)
    gt = (-4.0 * g / nt**2) * pair_term(ktt, zt, zt) + (
        4.0 * g / (ns * nt)
    ) * pair_term(kst.T, zt, zs)
    return value, gs, gt


def cross_entropy(y, yhat):
    """Mean binary cross-entropy; yhat must already be clamped away from 0/1."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise DimensionError(f"label/prob length mismatch: {y.shape} vs {yhat.shape}")
    return float(np.mean(-y * np.log(yhat) - (1.0 - y) * np.log(1.0 - yhat)))


def l1_recon(x, xhat):
    """Mean over samples of the L1 distance between input and reconstruction."""
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {xhat.shape}")
    return float(np.mean(np.sum(np.abs(x - xhat), axis=-1)))
