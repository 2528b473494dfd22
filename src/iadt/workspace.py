"""Scratch arrays that one `train`, `finetune` or `score` call reuses across
its steps.

A training step works on arrays of batch shape: activations, backward
products, gradient pieces and, with the rbf kernel, B x B Gram matrices.
Allocated afresh, every one of them larger than the allocator's mmap
threshold is a new mapping whose pages fault in again on every step. The
step functions of `network` and `losses` therefore take an optional
`Workspace` and write each such array with `out=` into one of its buffers,
which the next step of the same shape overwrites. Without a workspace
`buffer` returns None, so the same `out=buffer(...)` call allocates as
unbuffered numpy code would: the public one-off calls run the same code
and keep nothing.

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
    """`ws`'s array for (name, shape), made on first use; None without a
    workspace, so that `out=buffer(...)` allocates."""
    if ws is None:
        return None
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


def array(ws, name, shape):
    """`buffer(ws, name, shape)`, or a fresh float64 array without a
    workspace, for results that are filled rather than computed by a ufunc."""
    return np.empty(shape) if ws is None else buffer(ws, name, shape)


def scope(ws, name):
    """The sub-workspace `name` of `ws` (None without a workspace)."""
    if ws is None:
        return None
    sub = ws._scopes.get(name)
    if sub is None:
        sub = ws._scopes[name] = Workspace()
    return sub


def layer_vector(ws, name, params):
    """A vector in `params`' layout and its {layer: DenseLayer} views: made
    once per workspace and returned on every call, or fresh without one."""
    found = None if ws is None else ws._vectors.get(name)
    if found is None:
        vector = np.empty(params.flat.size)
        found = (vector, params.layers(vector))
        if ws is not None:
            ws._vectors[name] = found
    return found
