import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrupt import corrupted
from gradcheck import fd_gradient
from iadt import _cache, _fork, network
from iadt.data import SD_FLOOR, FeatureStats, identity_stats
from iadt.errors import DimensionError, IadtError, ModelFormatError, ParameterError
from iadt.losses import KernelSpec
from iadt.workspace import Workspace, layer_vector
from layers import with_layers


def small_params(seed=0, d=6, h=5, m=3):
    return network.init_params(d, h, m, seed=seed)


def wrong_labels(shape):
    """The message for labels of `shape` given to a batch of 4 rows."""
    return rf"^labels must have shape \(4,\) for a batch of 4 rows, got {re.escape(str(shape))}$"


class TestInitParams:
    def test_seed_determinism(self):
        a = network.init_params(10, 8, 4, seed=1)
        b = network.init_params(10, 8, 4, seed=1)
        for name in network.LAYER_ORDER:
            np.testing.assert_array_equal(a.layers()[name].w, b.layers()[name].w)
            np.testing.assert_array_equal(a.layers()[name].b, b.layers()[name].b)

    def test_published_architecture_shapes(self):
        p = network.init_params(90, 64, 32, seed=0)
        assert p.attention.w.shape == (90, 90)
        assert p.enc1.w.shape == (64, 90)
        assert p.enc2.w.shape == (32, 64)
        assert p.dec1.w.shape == (64, 32)
        assert p.dec2.w.shape == (90, 64)
        assert p.clf.w.shape == (1, 32)

    def test_zero_biases(self):
        p = network.init_params(7, 5, 3, seed=2)
        for layer in p.layers().values():
            np.testing.assert_array_equal(layer.b, 0.0)

    def test_glorot_bounds(self):
        p = network.init_params(20, 10, 5, seed=3)
        bound = np.sqrt(6.0 / (20 + 10))
        assert np.max(np.abs(p.enc1.w)) <= bound

    def test_zero_dims_rejected(self):
        with pytest.raises(ParameterError):
            network.init_params(0, 5, 3, seed=0)


class TestModelParams:
    def test_layers_are_views_of_one_vector(self):
        p = small_params(seed=31)
        assert p.flat.dtype == np.float64 and p.flat.flags.c_contiguous
        layers = p.layers()
        packed = np.concatenate(
            [np.concatenate([layers[name].w.ravel(), layers[name].b]) for name in network.LAYER_ORDER]
        )
        np.testing.assert_array_equal(packed, p.flat)
        for name in network.LAYER_ORDER:
            assert np.shares_memory(getattr(p, name).w, p.flat)
            assert np.shares_memory(getattr(p, name).b, p.flat)
        p.flat[-1] = 7.0
        assert p.clf.b[0] == 7.0

    def test_layers_views_another_vector_of_the_layout(self):
        p = small_params(seed=32)
        grad = np.arange(p.flat.size, dtype=np.float64)
        views = p.layers(grad)
        assert views["attention"].w[0, 1] == 1.0
        assert views["clf"].b[0] == p.flat.size - 1
        assert np.shares_memory(views["enc2"].w, grad)

    def test_built_on_a_vector_of_the_layout(self):
        p = small_params(seed=33)
        q = network.ModelParams(p.flat, p.d, p.h, p.m)
        assert q.flat is p.flat and np.shares_memory(q.clf.w, p.flat)
        for flat in (p.flat[:-1], p.flat.astype(np.float32), np.repeat(p.flat, 2)[::2],
                     list(p.flat)):
            with pytest.raises(DimensionError):
                network.ModelParams(flat, p.d, p.h, p.m)
        with pytest.raises(ParameterError):
            network.ModelParams(p.flat, 0, p.h, p.m)

    def test_copy_is_independent(self):
        p = small_params(seed=34)
        q = p.copy()
        q.enc1.w[0, 0] += 1.0
        assert q.enc1.w[0, 0] != p.enc1.w[0, 0]
        assert not np.shares_memory(q.flat, p.flat)


class TestAttentionForward:
    def test_zero_weights_uniform(self):
        p = with_layers(small_params(d=90, h=4, m=2), attention=(np.zeros((90, 90)), np.zeros(90)))
        x = np.random.default_rng(0).normal(size=(3, 90))
        w, xw = network.attention_forward(p, x)
        np.testing.assert_allclose(w, 1.0 / 90.0, atol=1e-12)
        np.testing.assert_allclose(xw, x / 90.0, atol=1e-12)

    def test_rows_sum_to_one_even_for_extreme_inputs(self):
        p = small_params()
        x = np.random.default_rng(1).normal(size=(32, 6)) * 50
        w, _ = network.attention_forward(p, x)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(w >= 0) and np.all(w <= 1)

    def test_moderate_inputs_stay_in_open_interval(self):
        p = small_params()
        x = np.random.default_rng(1).normal(size=(32, 6))
        w, _ = network.attention_forward(p, x)
        assert np.all(w > 0) and np.all(w < 1)

    def test_matches_naive_softmax_oracle(self):
        p = small_params(seed=4)
        x = np.random.default_rng(2).normal(size=(5, 6))
        w, _ = network.attention_forward(p, x)
        pre = x @ p.attention.w.T + p.attention.b
        naive = np.exp(pre) / np.exp(pre).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(w, naive, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            network.attention_forward(small_params(), np.zeros((2, 7)))


class TestEncodeDecodeClassify:
    def test_zero_weight_encode_is_bias(self):
        p = small_params(seed=5)
        zero_enc = with_layers(p, enc1=(np.zeros_like(p.enc1.w), np.ones(p.h)),
                               enc2=(np.zeros_like(p.enc2.w), 2.0 * np.ones(p.m)))
        z = network.encode(zero_enc, np.random.default_rng(0).normal(size=(4, p.d)))
        np.testing.assert_allclose(z, 2.0, atol=1e-12)

    def test_batch_row_independence(self):
        p = small_params(seed=6)
        rng = np.random.default_rng(3)
        batch = rng.normal(size=(8, p.d))
        single = network.encode(p, batch[2:3])
        full = network.encode(p, batch)
        # BLAS may pick different kernels per batch shape; agreement is to a
        # few ulps, not bitwise.
        np.testing.assert_allclose(single[0], full[2], rtol=0, atol=1e-12)

    def test_encode_matches_manual_oracle(self):
        p = small_params(seed=7)
        x = np.random.default_rng(4).normal(size=(3, p.d))
        manual = np.maximum(x @ p.enc1.w.T + p.enc1.b, 0) @ p.enc2.w.T + p.enc2.b
        np.testing.assert_allclose(network.encode(p, x), manual, atol=1e-12)

    def test_classify_zero_weights(self):
        p = small_params(seed=9)
        zero_clf = with_layers(p, clf=(np.zeros((1, p.m)), np.zeros(1)))
        probs = network.classify(zero_clf, np.ones((4, p.m)))
        np.testing.assert_array_equal(probs, 0.5)

    def test_classify_clamps_extreme_logits(self):
        p = small_params(seed=10)
        big_clf = with_layers(p, clf=(np.full((1, p.m), 1e9), np.zeros(1)))
        probs = network.classify(big_clf, np.ones((1, p.m)))
        assert probs[0] == 1.0 - 1e-7
        probs = network.classify(big_clf, -np.ones((1, p.m)))
        assert probs[0] == 1e-7

    def test_classify_matches_scalar_oracle(self):
        p = small_params(seed=11)
        z = np.random.default_rng(6).normal(size=(5, p.m))
        probs = network.classify(p, z)
        for i in range(5):
            logit = float(p.clf.w[0] @ z[i] + p.clf.b[0])
            expected = 1.0 / (1.0 + np.exp(-logit))
            assert probs[i] == pytest.approx(np.clip(expected, 1e-7, 1 - 1e-7), abs=1e-15)


class TestForward:
    def test_identical_batches_share_latents(self):
        p = small_params(seed=12)
        x = np.random.default_rng(7).normal(size=(4, p.d))
        cache = network.forward(p, x, x)
        np.testing.assert_array_equal(cache.src.z, cache.tgt.z)

    def test_empty_target_rejected(self):
        p = small_params()
        x = np.zeros((2, p.d))
        with pytest.raises(ParameterError):
            network.forward(p, x, np.zeros((0, p.d)))

    def test_composition_matches_pieces(self):
        p = small_params(seed=13)
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(3, p.d))
        xt = rng.normal(size=(5, p.d))
        cache = network.forward(p, xs, xt)
        w_s, xw_s = network.attention_forward(p, xs)
        z_s = network.encode(p, xw_s)
        np.testing.assert_allclose(cache.src.z, z_s, atol=1e-12)
        np.testing.assert_allclose(cache.yhat_src, network.classify(p, z_s), atol=1e-12)
        _, xw_t = network.attention_forward(p, xt)
        z_t = network.encode(p, xw_t)
        decoded = np.maximum(z_t @ p.dec1.w.T + p.dec1.b, 0) @ p.dec2.w.T + p.dec2.b
        np.testing.assert_allclose(cache.xhat_tgt, decoded, atol=1e-12)

    def test_forward_deterministic(self):
        p = small_params(seed=14)
        rng = np.random.default_rng(9)
        xs, xt = rng.normal(size=(4, p.d)), rng.normal(size=(4, p.d))
        c1 = network.forward(p, xs, xt)
        c2 = network.forward(p, xs, xt)
        np.testing.assert_array_equal(c1.xhat_tgt, c2.xhat_tgt)
        np.testing.assert_array_equal(c1.yhat_src, c2.yhat_src)


class TestBackward:
    def _setup(self, seed, kernel=KernelSpec("linear")):
        rng = np.random.default_rng(seed)
        p = small_params(seed=seed)
        xs = rng.normal(size=(4, p.d))
        xt = rng.normal(size=(4, p.d))
        y = rng.integers(0, 2, size=4).astype(float)
        return p, xs, xt, y, kernel

    def test_zero_lambdas_only_recon_path(self):
        p, xs, xt, y, kernel = self._setup(20)
        cache = network.forward(p, xs, xt)
        _, grads = network.backward(p, cache, y, 0.0, 0.0, kernel)
        layers = p.layers(grads)
        np.testing.assert_array_equal(layers["clf"].w, 0.0)
        np.testing.assert_array_equal(layers["clf"].b, 0.0)
        # reconstruction still drives the decoder and shared stack
        assert np.abs(layers["dec2"].w).max() > 0
        assert np.abs(layers["attention"].w).max() > 0

    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf", 0.5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_finite_differences(self, seed, kernel):
        p, xs, xt, y, _ = self._setup(seed, kernel)
        lambda1, lambda2 = 0.3, 0.7
        cache = network.forward(p, xs, xt)
        _, grads = network.backward(p, cache, y, lambda1, lambda2, kernel)
        fd = fd_gradient(p, xs, xt, y, lambda1, lambda2, kernel)
        np.testing.assert_allclose(grads, fd, rtol=1e-5, atol=1e-9)

    def test_duplication_invariance(self):
        p, xs, xt, y, kernel = self._setup(21)
        cache1 = network.forward(p, xs, xt)
        _, g1 = network.backward(p, cache1, y, 0.1, 0.1, kernel)
        cache2 = network.forward(p, np.repeat(xs, 2, axis=0), np.repeat(xt, 2, axis=0))
        _, g2 = network.backward(p, cache2, np.repeat(y, 2), 0.1, 0.1, kernel)
        np.testing.assert_allclose(g1, g2, atol=1e-10)

    def test_loss_parts_values(self):
        from iadt import losses as L

        p, xs, xt, y, kernel = self._setup(22)
        cache = network.forward(p, xs, xt)
        parts, _ = network.backward(p, cache, y, 0.1, 0.1, kernel)
        assert parts["mmd"] == pytest.approx(L.mmd_sq(cache.src.z, cache.tgt.z, kernel))
        assert parts["cls"] == pytest.approx(L.cross_entropy(y, cache.yhat_src))
        assert parts["recon"] == pytest.approx(L.l1_recon(cache.tgt.x, cache.xhat_tgt))

    def test_rbf_gram_matrices_built_once_per_step(self, monkeypatch):
        from iadt import losses as L

        p, xs, xt, y, kernel = self._setup(24, KernelSpec("rbf", gamma=0.5))
        cache = network.forward(p, xs, xt)
        expected, gs, gt = L._mmd_sq_and_grads(cache.src.z, cache.tgt.z, kernel)
        built = []
        gram = L._rbf_gram
        monkeypatch.setattr(
            L, "_rbf_gram", lambda *args, **kwargs: built.append(1) or gram(*args, **kwargs)
        )
        ws = Workspace()
        for step in range(2):  # unbuffered, then through a workspace
            if step:
                cache = network.forward(p, xs, xt, ws)
            parts, grads = network.backward(p, cache, y, 1.0, 0.0, kernel, recon_weight=0.0,
                                            ws=ws if step else None)
            assert len(built) == 3 * (step + 1)  # kss, ktt, kst
            assert parts["mmd"] == expected
            # With only the alignment term active, the latent bias gradient is
            # the sum of the MMD gradients over both batches.
            np.testing.assert_array_equal(
                p.layers(grads)["enc2"].b, gs.sum(axis=0) + gt.sum(axis=0)
            )

    def test_label_count_mismatch(self):
        p, xs, xt, y, kernel = self._setup(23)
        cache = network.forward(p, xs, xt)
        with pytest.raises(DimensionError):
            network.backward(p, cache, y[:2], 0.1, 0.1, kernel)

    @pytest.mark.parametrize("shape", [(4, 1), (1, 4), ()], ids=["column", "row", "0-d"])
    def test_labels_of_another_shape_rejected(self, shape):
        p, xs, xt, y, kernel = self._setup(25)
        cache = network.forward(p, xs, xt)
        with pytest.raises(DimensionError, match=wrong_labels(shape)):
            network.backward(p, cache, y[:np.prod(shape, dtype=int)].reshape(shape), 0.1, 0.1,
                             kernel)


def as_bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestClassifierBackward:
    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf", 0.5)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_equal_to_backward_of_the_classifier_term(self, seed, kernel):
        rng = np.random.default_rng(40 + seed)
        p = network.init_params(7, 6, 3, seed=seed)
        x = rng.normal(size=(9, p.d))
        y = rng.integers(0, 2, size=9).astype(float)
        cache = network.forward(p, x, x)
        _, full = network.backward(p, cache, y, 0.0, 0.8, kernel, recon_weight=0.0)
        path = network.classifier_backward(p, x, y, 0.8)
        for name in ("attention", "enc1", "enc2", "clf"):
            np.testing.assert_array_equal(as_bits(p.layers(path)[name].w),
                                          as_bits(p.layers(full)[name].w))
            np.testing.assert_array_equal(as_bits(p.layers(path)[name].b),
                                          as_bits(p.layers(full)[name].b))
        for name in ("dec1", "dec2"):
            np.testing.assert_array_equal(as_bits(p.layers(path)[name].w), 0)
            np.testing.assert_array_equal(as_bits(p.layers(path)[name].b), 0)

    def test_writes_every_element_of_out(self):
        rng = np.random.default_rng(45)
        p = small_params(seed=45)
        x = rng.normal(size=(5, p.d))
        y = rng.integers(0, 2, size=5).astype(float)
        ws = Workspace()
        out, _ = layer_vector(ws, "grad", p)
        out[...] = np.nan
        grad = network.classifier_backward(p, x, y, 0.5, ws)
        assert grad is out
        np.testing.assert_array_equal(grad, network.classifier_backward(p, x, y, 0.5))

    def test_label_count_mismatch(self):
        p = small_params()
        with pytest.raises(DimensionError):
            network.classifier_backward(p, np.zeros((4, p.d)), np.zeros(3), 0.5)

    @pytest.mark.parametrize("shape", [(4, 1), (1, 4), ()], ids=["column", "row", "0-d"])
    def test_labels_of_another_shape_rejected(self, shape):
        p = small_params()
        with pytest.raises(DimensionError, match=wrong_labels(shape)):
            network.classifier_backward(p, np.zeros((4, p.d)), np.zeros(shape), 0.5)


def cache_arrays(cache):
    paths = [getattr(cache, side) for side in ("src", "tgt")]
    return [getattr(path, field) for path in paths for field in ("x", "w", "xw", "a1", "z")] + [
        cache.a3_tgt, cache.xhat_tgt, cache.yhat_src
    ]


class TestWorkspace:
    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf", 0.5)])
    def test_buffered_steps_are_bit_equal_to_unbuffered(self, kernel):
        # Consecutive steps with fresh inputs through one workspace: two full
        # batches, a partial one (its own buffers) and a full one again, so a
        # stale or aliased buffer shows as a changed bit.
        p = small_params(seed=50)
        ws, clf_ws = Workspace(), Workspace()
        grads, latents = [], []
        for step, batch in enumerate((8, 8, 5, 8)):
            rng = np.random.default_rng(50 + step)
            xs, xt = rng.normal(size=(batch, p.d)), rng.normal(size=(batch, p.d))
            y = rng.integers(0, 2, size=batch).astype(float)
            cache = network.forward(p, xs, xt)
            parts, grad = network.backward(p, cache, y, 0.3, 0.7, kernel)
            buffered = network.forward(p, xs, xt, ws)
            parts_ws, grad_ws = network.backward(p, buffered, y, 0.3, 0.7, kernel, ws=ws)
            assert parts_ws == parts
            np.testing.assert_array_equal(as_bits(grad_ws), as_bits(grad))
            for got, want in zip(cache_arrays(buffered), cache_arrays(cache)):
                np.testing.assert_array_equal(as_bits(got), as_bits(want))
            np.testing.assert_array_equal(
                as_bits(network.classifier_backward(p, xs, y, 0.7, clf_ws)),
                as_bits(network.classifier_backward(p, xs, y, 0.7)),
            )
            grads.append(grad_ws)
            latents.append(buffered.src.z)
            # The next step starts from other parameters.
            p.flat -= 1e-2 * grad
        assert grads[0] is grads[1] is grads[2] is grads[3]
        assert latents[0] is latents[1] is latents[3]
        assert latents[2] is not latents[1]

    def test_public_calls_keep_no_buffers(self):
        p = small_params(seed=51)
        x = np.random.default_rng(51).normal(size=(4, p.d))
        first, second = network.forward(p, x, x), network.forward(p, x, x)
        for a, b in zip(cache_arrays(first), cache_arrays(second)):
            assert a is b or not np.shares_memory(a, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_attention_rowsum_property(seed):
    rng = np.random.default_rng(seed)
    p = network.init_params(6, 5, 3, seed=seed % 100)
    x = rng.normal(scale=rng.uniform(0.1, 30.0), size=(5, 6))
    w, _ = network.attention_forward(p, x)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
    assert np.all((w >= 0) & (w <= 1))


def test_permuting_batch_rows_permutes_latents():
    p = small_params(seed=30)
    rng = np.random.default_rng(30)
    xs = rng.normal(size=(6, p.d))
    xt = rng.normal(size=(6, p.d))
    perm = rng.permutation(6)
    c1 = network.forward(p, xs, xt)
    c2 = network.forward(p, xs[perm], xt)
    np.testing.assert_allclose(c2.src.z, c1.src.z[perm], atol=1e-12)
    np.testing.assert_allclose(
        c2.src.z.mean(axis=0), c1.src.z.mean(axis=0), atol=1e-12
    )


class TestModelFile:
    def test_save_load_bit_exact(self, tmp_path):
        p = network.init_params(8, 6, 4, seed=42)
        stats = FeatureStats(means=np.random.default_rng(0).normal(size=8),
                             sds=np.abs(np.random.default_rng(1).normal(size=8)) + 0.5)
        path = tmp_path / "model.txt"
        network.save_model(p, path, stats=stats)
        loaded, loaded_stats = network.load_model(path)
        for name in network.LAYER_ORDER:
            np.testing.assert_array_equal(loaded.layers()[name].w, p.layers()[name].w)
            np.testing.assert_array_equal(loaded.layers()[name].b, p.layers()[name].b)
        np.testing.assert_array_equal(loaded_stats.means, stats.means)
        np.testing.assert_array_equal(loaded_stats.sds, stats.sds)
        assert (loaded.d, loaded.h, loaded.m) == (8, 6, 4)

    def test_save_without_stats(self, tmp_path):
        p = network.init_params(5, 4, 3, seed=1)
        path = tmp_path / "model.txt"
        network.save_model(p, path)
        loaded, stats = network.load_model(path)
        assert stats is None
        np.testing.assert_array_equal(loaded.clf.w, p.clf.w)

    def test_magic_line(self, tmp_path):
        p = network.init_params(5, 4, 3, seed=1)
        path = tmp_path / "model.txt"
        network.save_model(p, path)
        assert path.read_text().splitlines()[0] == "iadt-model v1"

    def test_file_bytes_are_the_v1_format(self, tmp_path):
        p = with_layers(
            network.init_params(1, 1, 1, seed=0),
            attention=(np.zeros((1, 1)), np.zeros(1)),
            enc1=(np.ones((1, 1)), np.zeros(1)),
            enc2=(np.full((1, 1), -0.5), np.array([0.25])),
            dec1=(np.ones((1, 1)), np.array([-0.0])),
            dec2=(np.full((1, 1), 3.0), np.zeros(1)),
            clf=(np.full((1, 1), 100.0), np.array([-50.0])),
        )
        path = tmp_path / "model.txt"
        network.save_model(p, path, stats=FeatureStats(means=np.array([0.1]), sds=np.array([2.0])))
        assert path.read_text() == (
            "iadt-model v1\ndims 1 1 1\n"
            "layer attention 1 1 softmax\n0x0.0p+0\nbias 0x0.0p+0\n"
            "layer enc1 1 1 relu\n0x1.0000000000000p+0\nbias 0x0.0p+0\n"
            "layer enc2 1 1 linear\n-0x1.0000000000000p-1\nbias 0x1.0000000000000p-2\n"
            "layer dec1 1 1 relu\n0x1.0000000000000p+0\nbias -0x0.0p+0\n"
            "layer dec2 1 1 linear\n0x1.8000000000000p+1\nbias 0x0.0p+0\n"
            "layer clf 1 1 sigmoid\n0x1.9000000000000p+6\nbias -0x1.9000000000000p+5\n"
            "stats 1\nmeans 0x1.999999999999ap-4\nsds 0x1.0000000000000p+1\n"
        )

    def test_stats_of_another_width_rejected_before_writing(self, tmp_path):
        path = tmp_path / "model.txt"
        with pytest.raises(DimensionError):
            network.save_model(network.init_params(3, 2, 1, seed=0), path, stats=identity_stats(2))
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-model\n")
        with pytest.raises(ModelFormatError):
            network.load_model(path)

    def test_truncated_rejected(self, tmp_path):
        p = network.init_params(5, 4, 3, seed=1)
        path = tmp_path / "model.txt"
        network.save_model(p, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:10]) + "\n")
        with pytest.raises(ModelFormatError):
            network.load_model(path)

    def test_huge_widths_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("iadt-model v1\ndims 100000 100000 100000\n"
                        "layer attention 100000 100000 softmax\n")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            with pytest.raises(ModelFormatError):
                network.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_extra_lines_rejected_without_reading_them(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("iadt-model v1\ndims 1 1 1\n" + "0x0.0p+0\n" * 10**6)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            with pytest.raises(ModelFormatError, match="the file has more than 23$"):
                network.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_overlong_line_rejected_without_reading_it(self, tmp_path):
        path = tmp_path / "model.txt"
        network.save_model(network.init_params(1, 1, 1, seed=0), path)
        lines = path.read_text().splitlines()
        lines[3] += " 0x0.0p+0" * 10**6  # the attention layer's weight row
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            with pytest.raises(ModelFormatError, match="non-blank line 4 is longer than the 32 "):
                network.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("line, message", [(0, "missing 'iadt-model v1' header"),
                                               (1, "no 'dims <d> <h> <m>' line")])
    def test_overlong_header_line_reported_missing(self, tmp_path, line, message):
        path = tmp_path / "model.txt"
        network.save_model(network.init_params(1, 1, 1, seed=0), path)
        lines = path.read_text().splitlines()
        lines[line] += " " * 200 + "x"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=message):
            network.load_model(path)

    @pytest.mark.parametrize("width", [2**62, 10**20])
    def test_widths_beyond_any_line_length_rejected(self, tmp_path, width):
        path = tmp_path / "model.txt"
        path.write_text(f"iadt-model v1\ndims {width} 1 1\nlayer attention 1 1 softmax\n")
        with pytest.raises(ModelFormatError, match="too large for any file"):
            network.load_model(path)

    def test_whitespace_within_the_allowance_loads(self, tmp_path):
        p = network.init_params(3, 2, 2, seed=4)
        path = tmp_path / "model.txt"
        network.save_model(p, path, stats=identity_stats(3))
        magic, *lines = path.read_text().splitlines()
        spaced = [" \t ".join(line.split(" ")) + " " * 7 for line in lines]
        path.write_text("\n\n".join([magic, *spaced]) + "\n")
        loaded, _ = network.load_model(path)
        np.testing.assert_array_equal(loaded.flat, p.flat)

    @pytest.mark.parametrize("prefix, magic_end", [
        (b"", b" "), (b"", b"\t"), (b"", b" \t \r"), (b"\xef\xbb\xbf", b""),
        (b"\xef\xbb\xbf \t", b" ")], ids=["space", "tab", "mixed", "bom", "bom_and_blanks"])
    def test_magic_line_read_as_tokens_after_a_leading_bom(self, tmp_path, prefix, magic_end):
        # the magic line takes whitespace as every other line does
        p = network.init_params(3, 2, 2, seed=4)
        clean = tmp_path / "clean.txt"
        network.save_model(p, clean, stats=identity_stats(3))
        magic, rest = clean.read_bytes().split(b"\n", 1)
        path = tmp_path / "model.txt"
        path.write_bytes(prefix + magic + magic_end + b"\n" + rest)
        (got, got_stats), (want, want_stats) = network.load_model(path), network.load_model(clean)
        for a, b in ((got.flat, want.flat), (got_stats.means, want_stats.means),
                     (got_stats.sds, want_stats.sds)):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("blank", [" ", "  \t", "\t\x0b\x0c \r"])
    def test_whitespace_only_lines_are_blank(self, tmp_path, blank):
        p = network.init_params(2, 2, 1, seed=4)
        clean = tmp_path / "clean.txt"
        network.save_model(p, clean, stats=identity_stats(2))
        lines = clean.read_text().splitlines()
        path = tmp_path / "model.txt"
        # before the magic line, between lines, and at the end without a newline
        path.write_text("\n".join([blank, *lines[:3], blank, blank, *lines[3:], blank]))
        (got, got_stats), (want, want_stats) = network.load_model(path), network.load_model(clean)
        for a, b in ((got.flat, want.flat), (got_stats.means, want_stats.means),
                     (got_stats.sds, want_stats.sds)):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))

    def test_overlong_whitespace_only_line_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        network.save_model(network.init_params(2, 2, 1, seed=0), path)
        lines = path.read_text().splitlines()
        # the line read in place of the attention layer's first weight row,
        # blank up to its 64-character limit
        path.write_text("\n".join([*lines[:3], " " * 64, *lines[3:]]) + "\n")
        network.load_model(path)
        path.write_text("\n".join([*lines[:3], " " * 65, *lines[3:]]) + "\n")
        with pytest.raises(ModelFormatError, match="non-blank line 4 is longer than the 64 "):
            network.load_model(path)

    @pytest.mark.parametrize("magic", [b"iadt-model v2", b"iadt-model", b"iadt-modelv1",
                                       b"\xef\xbb\xbf\xef\xbb\xbfiadt-model v1"])
    def test_other_magic_tokens_are_missing_the_header(self, tmp_path, magic):
        path = tmp_path / "model.txt"
        network.save_model(network.init_params(1, 1, 1, seed=0), path)
        path.write_bytes(magic + b"\n" + path.read_bytes().split(b"\n", 1)[1])
        with pytest.raises(ModelFormatError, match="missing 'iadt-model v1' header"):
            network.load_model(path)


def _entry(path):
    return path.parent / "__iadtcache__" / (path.name + ".params")


def _parses(monkeypatch):
    """The paths `load_model` parses from now on, in order."""
    parsed, parse = [], network._parse_model
    monkeypatch.setattr(network, "_parse_model", lambda p: parsed.append(p) or parse(p))
    return parsed


def _assert_same_model(got, want):
    """Bit-equal parameters and stats, compared as integers."""
    (params, stats), (want_params, want_stats) = got, want
    assert (params.d, params.h, params.m) == (want_params.d, want_params.h, want_params.m)
    np.testing.assert_array_equal(params.flat.view(np.int64), want_params.flat.view(np.int64))
    assert (stats is None) == (want_stats is None)
    if stats is not None:
        for a, b in ((stats.means, want_stats.means), (stats.sds, want_stats.sds)):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def _with_head(raw, d, h, m, with_stats):
    """A model cache entry whose head announces other widths."""
    at = len(network._MODEL_CACHE_FORMAT) + _cache.DIGEST_SIZE + _fork.LENGTH.size
    return (raw[:at] + network._MODEL_HEAD.pack(d, h, m, with_stats)
            + raw[at + network._MODEL_HEAD.size:])


class TestModelCache:
    def _file(self, tmp_path, stats=True):
        params = network.init_params(4, 3, 2, seed=5)
        rng = np.random.default_rng(5)
        stats = (FeatureStats(means=rng.normal(size=4), sds=rng.uniform(0.5, 2.0, size=4))
                 if stats else None)
        path = tmp_path / "model.txt"
        network.save_model(params, path, stats=stats)
        return path, (params, stats)

    @pytest.mark.parametrize("stats", [True, False], ids=["stats", "no_stats"])
    def test_second_load_is_bit_equal_and_skips_the_parse(self, tmp_path, monkeypatch, stats):
        path, model = self._file(tmp_path, stats)
        os.chmod(path, 0o640)
        parsed = _parses(monkeypatch)
        first = network.load_model(path)
        _assert_same_model(first, model)
        assert os.stat(_entry(path)).st_mode & 0o777 == 0o640
        _assert_same_model(network.load_model(path), first)
        _assert_same_model(network.load_model(str(path)), first)
        assert parsed == [path]
        assert sorted(os.listdir(_entry(path).parent)) == ["model.txt.params"]

    def test_rewrite_keeping_size_and_mtime_is_picked_up(self, tmp_path):
        path, (params, stats) = self._file(tmp_path)
        network.load_model(path)
        before = os.stat(path)
        other = network.ModelParams(params.flat[::-1].copy(), params.d, params.h, params.m)
        network.save_model(other, path, stats=stats)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(path).st_size == before.st_size
        for _ in range(2):
            _assert_same_model(network.load_model(path), (other, stats))

    @pytest.mark.parametrize("damage", [
        # a value's byte: still a finite float, so only the CRC tells
        lambda raw: raw[:-8] + bytes([raw[-8] ^ 1]) + raw[-7:],
        lambda raw: raw[: len(raw) // 2],
        lambda raw: raw + b"\x00",
        lambda raw: b"iadt-csv-cache v2\n" + raw[len(network._MODEL_CACHE_FORMAT):],
        lambda raw: _with_head(raw, 2, 6, 4, 1),
        lambda raw: _with_head(raw, 4, 3, 2, 2),
        lambda raw: b"",
    ], ids=["crc", "truncated", "trailing-byte", "csv-key", "other-widths", "stats-flag",
            "empty"])
    def test_damaged_entry_is_reparsed(self, tmp_path, monkeypatch, damage):
        path, model = self._file(tmp_path)
        network.load_model(path)
        raw = _entry(path).read_bytes()
        damaged = damage(raw)
        assert damaged != raw
        _entry(path).write_bytes(damaged)
        parsed = _parses(monkeypatch)
        for _ in range(2):
            _assert_same_model(network.load_model(path), model)
        assert parsed == [path]
        assert _entry(path).read_bytes() == raw

    @pytest.mark.parametrize("value", ["nan_weight", "sds_below_floor"])
    def test_entry_values_a_parse_refuses_are_reparsed(self, tmp_path, monkeypatch, value):
        # An entry whose length and CRC hold, stored under the file's key,
        # but whose values no model file could give.
        path, (params, stats) = self._file(tmp_path)
        flat, sds = params.flat.copy(), stats.sds.copy()
        if value == "nan_weight":
            flat[0] = np.nan
        else:
            sds[0] = SD_FLOOR / 2
        entry, key = network._model_key(path)
        _entry(path).parent.mkdir()
        with open(entry, "wb") as fh:
            fh.write(key)
            fh.flush()
            _fork.send(fh.fileno(), _cache.with_crc([network._MODEL_HEAD.pack(4, 3, 2, 1), flat,
                                                     stats.means, sds]))
        parsed = _parses(monkeypatch)
        for _ in range(2):
            _assert_same_model(network.load_model(path), (params, stats))
        assert parsed == [path]

    def test_entry_of_other_bytes_is_not_used(self, tmp_path):
        path, model = self._file(tmp_path)
        other = tmp_path / "other" / "model.txt"
        other.parent.mkdir()
        network.save_model(network.init_params(4, 3, 2, seed=6), other, stats=model[1])
        network.load_model(other)
        _entry(path).parent.mkdir()
        _entry(path).write_bytes(_entry(other).read_bytes())
        _assert_same_model(network.load_model(path), model)

    def test_huge_widths_in_an_entry_are_refused_before_allocating(self, tmp_path, monkeypatch):
        path, model = self._file(tmp_path)
        network.load_model(path)
        _entry(path).write_bytes(_with_head(_entry(path).read_bytes(), 2**40, 2**40, 2**40, 1))
        parsed = _parses(monkeypatch)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _assert_same_model(network.load_model(path), model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert parsed == [path]

    def test_fifo_is_parsed_each_time_and_not_cached(self, tmp_path):
        path, model = self._file(tmp_path)
        fifo = tmp_path / "pipe.txt"
        os.mkfifo(fifo)
        for _ in range(2):
            loaded = []

            def load():
                try:
                    loaded.append(network.load_model(fifo))
                except Exception as exc:  # reported by the assertion below
                    loaded.append(exc)

            writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
            reader = threading.Thread(target=load, daemon=True)
            reader.start()
            writer.start()
            writer.join(timeout=10)
            reader.join(timeout=10)
            if reader.is_alive():  # it opened the pipe a second time: end that read
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                reader.join(timeout=10)
            assert not writer.is_alive()
            assert len(loaded) == 1 and not isinstance(loaded[0], Exception), loaded
            _assert_same_model(loaded[0], model)
        assert not (tmp_path / "__iadtcache__").exists()

    def test_read_only_directory_loads_and_writes_no_entry(self, tmp_path, monkeypatch):
        path, model = self._file(tmp_path)
        os.chmod(tmp_path, 0o555)
        try:
            if os.access(tmp_path, os.W_OK):
                # Permission bits do not bind this user (root): refuse the
                # directory creation as a read-only file system would.
                def refuse(*args, **kwargs):
                    raise PermissionError(30, "Read-only file system")

                monkeypatch.setattr(os, "makedirs", refuse)
            for _ in range(2):
                _assert_same_model(network.load_model(path), model)
        finally:
            os.chmod(tmp_path, 0o755)
        assert sorted(os.listdir(tmp_path)) == ["model.txt"]

    def test_file_rewritten_during_the_parse_is_not_cached(self, tmp_path, monkeypatch):
        path, (params, stats) = self._file(tmp_path)
        other = network.ModelParams(params.flat + 1.0, params.d, params.h, params.m)
        parse = network._parse_model

        def parse_then_rewrite(p):
            parsed = parse(p)
            network.save_model(other, path, stats=stats)
            return parsed

        monkeypatch.setattr(network, "_parse_model", parse_then_rewrite)
        _assert_same_model(network.load_model(path), (params, stats))
        assert not _entry(path).exists()
        monkeypatch.undo()
        _assert_same_model(network.load_model(path), (other, stats))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308]
SIZE_221 = network.init_params(2, 2, 1, seed=0).flat.size


@settings(max_examples=200, deadline=None)
@given(flat=st.lists(FINITE, min_size=SIZE_221, max_size=SIZE_221),
       means=st.lists(FINITE, min_size=2, max_size=2),
       sds=st.lists(st.floats(min_value=SD_FLOOR, allow_infinity=False), min_size=2, max_size=2))
@example(flat=(EXTREMES * 4)[:SIZE_221], means=[-0.0, 5e-324],
         sds=[SD_FLOOR, 1.7976931348623157e308])
def test_save_load_round_trips_every_finite_value(tmp_path_factory, flat, means, sds):
    path = tmp_path_factory.mktemp("model") / "model.txt"
    params = network.ModelParams(np.array(flat), 2, 2, 1)
    network.save_model(params, path, stats=FeatureStats(means=means, sds=sds))
    for _ in range(2):  # the parse, then its cache entry
        loaded, stats = network.load_model(path)
        for got, want in ((loaded.flat, flat), (stats.means, means), (stats.sds, sds)):
            np.testing.assert_array_equal(got.view(np.int64), np.array(want).view(np.int64))
    assert _entry(path).exists()
    tokens = []
    for line in path.read_text().splitlines()[2:]:
        head, *values = line.split()
        if head not in ("layer", "stats"):
            tokens += values if head in ("bias", "means", "sds") else [head, *values]
    assert tokens == [float.hex(v) for v in flat + means + sds]


MODEL_TOKENS = [b"layer", b"stats", b"means", b"sds", b"bias", b"dims", b"extra", b"sigmoid",
                b" ", b"\n", b"0", b"-1", b"ten", b"nan", b"0x1p99999", b"\xff", b"100000",
                *(name.encode() for name in network.LAYER_ORDER)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_model_loads_or_raises_iadt_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("model") / "model.txt"
    network.save_model(network.init_params(2, 2, 1, seed=0), path, stats=identity_stats(2))
    path.write_bytes(data.draw(corrupted(path.read_bytes(), MODEL_TOKENS)))
    try:
        network.load_model(path)
    except IadtError:
        pass
