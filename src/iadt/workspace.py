"""Scratch arrays that one `train`, `finetune` or `score` call reuses across
its steps.

A training step works on arrays of batch shape: activations, backward
products, gradient pieces and, with the rbf kernel, B x B Gram matrices.
Allocated afresh, every one of them larger than the allocator's mmap
threshold is a new mapping whose pages fault in again on every step. The
step functions of `network` and `losses` therefore write each such array
with `out=` into a buffer of a `Workspace`, which the next step of the same
shape overwrites. A public one-off call without a workspace makes a fresh
one, so it runs the same code and keeps nothing.

Scoring walks its rows in blocks through the same functions. `place`
hands a step a caller's array as one of its buffers, so a block's latent
codes can land straight in their rows of the scoring output, and its
attention weights and other temporaries in arrays of one block's size.

Buffers are keyed by name and shape, so a trailing partial batch gets its
own set; `scope` gives the source and target passes of a step their own
names. A workspace lives exactly as long as the call that created it.
"""

import numpy as np


class Workspace:
    """Named buffers, sub-workspaces and parameter-layout vectors of one
    training or scoring call (one parameter layout)."""

    def __init__(self):
        self._arrays = {}
        self._scopes = {}
        self._vectors = {}


def buffer(ws, name, shape, dtype=np.float64):
    """`ws`'s array for (name, shape), made on first use."""
    key = (name, shape)
    found = ws._arrays.get(key)
    if found is None:
        found = ws._arrays[key] = np.empty(shape, dtype=dtype)
    return found


def place(ws, name, array):
    """Make `array` the buffer that `buffer(ws, name, array.shape)` returns,
    so that the next step writes that result into `array` (say, a block of
    rows of a caller's output) instead of a buffer of its own."""
    ws._arrays[(name, array.shape)] = array


def scope(ws, name):
    """The sub-workspace `name` of `ws`."""
    sub = ws._scopes.get(name)
    if sub is None:
        sub = ws._scopes[name] = Workspace()
    return sub


def layer_vector(ws, name, params):
    """A vector in `params`' layout and its {layer: DenseLayer} views, made
    once per workspace and returned on every call."""
    found = ws._vectors.get(name)
    if found is None:
        vector = np.empty(params.flat.size)
        found = ws._vectors[name] = (vector, params.layers(vector))
    return found
