"""Finite-difference utilities shared by the network and acceptance tests.

The parameters already live in one flat vector, so central differences
perturb its elements one at a time and the result is a vector in the same
layout as `network.backward`'s gradient.
"""

import numpy as np

from iadt import losses, network


def fd_gradient(params, x_src, x_tgt, y_src, lambda1, lambda2, kernel,
                recon_weight=1.0, step=1e-5):
    """Central-difference gradient of the weighted total loss."""
    p = params.copy()
    vec = p.flat

    def loss():
        cache = network.forward(p, x_src, x_tgt)
        return (lambda1 * losses.mmd_sq(cache.src.z, cache.tgt.z, kernel)
                + lambda2 * losses.cross_entropy(y_src, cache.yhat_src)
                + recon_weight * losses.l1_recon(cache.tgt.x, cache.xhat_tgt))

    grad = np.empty_like(vec)
    for i in range(vec.size):
        original = vec[i]
        vec[i] = original + step
        plus = loss()
        vec[i] = original - step
        minus = loss()
        vec[i] = original
        grad[i] = (plus - minus) / (2.0 * step)
    return grad
