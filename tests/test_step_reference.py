"""The training step holds every bit of its reference (`step_reference`):
losses, gradients, Adam updates, the classifier-only gradient and a scoring
block, at the paper's widths, for full and trailing partial batches."""

import numpy as np
import pytest

import step_reference as ref
from iadt import network, training
from iadt.data import FeatureStats, apply_standardizer, dataset_from_arrays
from iadt.losses import KernelSpec
from iadt.workspace import Workspace

D, H, M = 90, training.HIDDEN_DIM, 32
KERNELS = [KernelSpec("linear"), KernelSpec("rbf", 0.5)]
# An epoch of 360 rows in batches of 128 ends in a partial batch of 104,
# which gets buffers of its own shape in the same workspace.
BATCHES = {"full": [128] * 5, "partial": [128, 104, 128, 104, 104]}
PART_KEYS = ("mmd", "cls", "recon", "total")


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_bits_equal(got, expected):
    np.testing.assert_array_equal(bits(got), bits(expected))


def batches(rows, seed):
    """(x_src, x_tgt, y) per batch size in `rows`; the third batch's source
    rows are scaled up so that some probabilities reach the clamp."""
    rng = np.random.default_rng(seed)
    for step, n in enumerate(rows):
        xs = rng.normal(scale=200.0 if step == 2 else 2.0, size=(n, D))
        xt = rng.normal(loc=0.5, size=(n, D))
        yield xs, xt, (rng.random(n) < 0.5).astype(float)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
@pytest.mark.parametrize("rows", BATCHES.values(), ids=BATCHES.keys())
def test_steps_bit_equal_to_reference(kernel, rows):
    params = network.init_params(D, H, M, seed=len(rows) + rows[1])
    expected = params.copy()
    state, expected_state = training.init_adam(params), training.init_adam(expected)
    ws, ref_ws = Workspace(), Workspace()
    clamped = 0
    for xs, xt, y in batches(rows, seed=rows[1]):
        cache = network.forward(params, xs, xt, ws)
        parts, grad = network.backward(params, cache, y, 0.3, 0.7, kernel, ws=ws)
        ref_cache = ref.forward(expected, xs, xt, ref_ws)
        ref_parts, ref_grad = ref.backward(expected, ref_cache, y, 0.3, 0.7, kernel, ws=ref_ws)
        for got, want in ((cache.src, ref_cache.src), (cache.tgt, ref_cache.tgt)):
            for name in ("w", "xw", "a1", "z"):
                assert_bits_equal(getattr(got, name), getattr(want, name))
        assert_bits_equal(cache.xhat_tgt, ref_cache.xhat_tgt)
        assert_bits_equal(cache.yhat_src, ref_cache.yhat_src)
        clamped += np.count_nonzero((cache.yhat_src == network.PROB_CLAMP)
                                    | (cache.yhat_src == 1.0 - network.PROB_CLAMP))
        assert_bits_equal([parts[k] for k in PART_KEYS], [ref_parts[k] for k in PART_KEYS])
        assert_bits_equal(grad, ref_grad)
        training.adam_step(params, grad, state, 1e-3)
        ref.adam_step(expected, ref_grad, expected_state, 1e-3)
        assert_bits_equal(params.flat, expected.flat)
        assert_bits_equal(state.m, expected_state.m)
        assert_bits_equal(state.v, expected_state.v)
    assert clamped > 0


@pytest.mark.parametrize("rows", BATCHES.values(), ids=BATCHES.keys())
def test_classifier_backward_bit_equal_to_reference(rows):
    params = network.init_params(D, H, M, seed=rows[1])
    ws, ref_ws = Workspace(), Workspace()
    for xs, _, y in batches(rows, seed=rows[1] + 1):
        assert_bits_equal(network.classifier_backward(params, xs, y, 0.7, ws),
                          ref.classifier_backward(params, xs, y, 0.7, ref_ws))


def test_score_block_bit_equal_to_reference():
    rng = np.random.default_rng(3)
    params = network.init_params(D, H, M, seed=3)
    stats = FeatureStats(rng.normal(size=D), rng.uniform(0.5, 2.0, size=D))
    ds = dataset_from_arrays(rng.normal(1.0, 3.0, size=(1000, D)), np.arange(1000) % 2)
    assert training._score_blocks(len(ds)) == [(0, len(ds))]
    scores = training.score(params, stats, ds, latents=True)
    probs, z, weight_sum = ref.score_block(params, apply_standardizer(ds, stats))
    assert_bits_equal(scores.probs, probs)
    assert_bits_equal(scores.latents, z)
    assert_bits_equal(scores.weight_sum, weight_sum)
