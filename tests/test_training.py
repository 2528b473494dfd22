import re
import tracemalloc

import numpy as np
import pytest

from gradcheck import fd_gradient
from iadt import network, training
from iadt.data import (
    apply_standardizer,
    dataset_from_arrays,
    duplicate_to_balance,
    fit_standardizer,
    identity_stats,
    synth_domains,
)
from iadt.errors import DimensionError, ParameterError
from iadt.losses import KernelSpec
from iadt.training import TrainConfig
from iadt.workspace import Workspace


def params_equal(a, b):
    for name in network.LAYER_ORDER:
        la, lb = a.layers()[name], b.layers()[name]
        if not (np.array_equal(la.w, lb.w) and np.array_equal(la.b, lb.b)):
            return False
    return True


class TestTrainConfig:
    def test_published_defaults(self):
        cfg = TrainConfig()
        assert cfg.latent_dim == 32
        assert cfg.lambda1 == 0.1
        assert cfg.lambda2 == 0.1
        assert cfg.lr == 0.001
        assert cfg.epochs == 60
        assert cfg.batch_size == 128
        assert cfg.kernel.kind == "linear"
        assert cfg.standardize is True

    def test_invalid_values(self):
        with pytest.raises(ParameterError):
            TrainConfig(lr=0.0)
        with pytest.raises(ParameterError):
            TrainConfig(lambda1=-1.0)

    @pytest.mark.parametrize("bad", [
        {"seed": -1},
        {"lambda1": float("nan")},
        {"lambda2": float("inf")},
        {"lr": float("inf")},
        {"lr": float("nan")},
        {"kernel": KernelSpec("rbf", float("inf"))},
        {"kernel": KernelSpec("linear", float("nan"))},
    ])
    def test_negative_seed_and_non_finite_values_rejected(self, bad):
        with pytest.raises(ParameterError):
            TrainConfig(**bad)


class TestAdamStep:
    def test_zero_gradient_keeps_params(self):
        p = network.init_params(2, 2, 2, seed=0)
        before = p.flat.copy()
        state = training.init_adam(p)
        training.adam_step(p, np.zeros_like(p.flat), state, lr=0.01)
        np.testing.assert_array_equal(p.flat.view(np.int64), before.view(np.int64))
        assert state.t == 1

    def test_hand_evaluated_first_step(self):
        # theta = 0, g = 1, lr = 1e-3: update is -lr / (1 + eps)
        p0 = network.init_params(2, 2, 2, seed=0)
        p0.flat[...] = 0.0
        ones = np.ones_like(p0.flat)
        training.adam_step(p0, ones, training.init_adam(p0), lr=0.001)
        expected = -0.001 * (1.0 / (1.0 + 1e-8))
        assert p0.enc1.w[0, 0] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(-0.000999999990, abs=1e-12)

    def test_two_steps_match_scalar_reference(self):
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        theta, m, v = 0.0, 0.0, 0.0
        g, lr = 0.7, 0.01
        for t in (1, 2):
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            theta -= lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)

        p0 = network.init_params(2, 2, 2, seed=0)
        p0.flat[...] = 0.0
        grads = np.full_like(p0.flat, g)
        state = training.init_adam(p0)
        training.adam_step(p0, grads, state, lr=lr)
        training.adam_step(p0, grads, state, lr=lr)
        assert p0.dec2.w[1, 0] == pytest.approx(theta, abs=1e-15)

    def test_shape_mismatch(self):
        p = network.init_params(2, 2, 2, seed=0)
        before = p.flat.copy()
        state = training.init_adam(p)
        with pytest.raises(DimensionError):
            training.adam_step(p, np.zeros(1), state, lr=0.01)
        np.testing.assert_array_equal(p.flat, before)
        assert state.t == 0

    def test_non_finite_update_names_the_layer(self):
        p = network.init_params(2, 2, 2, seed=0)
        p.enc2.b[0] = -1.5e308
        grad = np.zeros_like(p.flat)
        p.layers(grad)["enc2"].b[0] = 1.0
        with np.errstate(over="ignore"), pytest.raises(
            ParameterError, match=r"Adam step 1 made layer 'enc2' non-finite"
        ):
            training.adam_step(p, grad, training.init_adam(p), lr=1e308)


def small_cfg(**kw):
    defaults = dict(latent_dim=4, epochs=5, batch_size=16, seed=3)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrain:
    def _domains(self, seed=0):
        return synth_domains(64, 32, [1.0], 0.3, 4.0, 0.7, 6, seed=seed)

    def test_zero_epochs_returns_seeded_init(self):
        src, tgt = self._domains()
        cfg = small_cfg(epochs=0)
        params, stats, history = training.train(src, tgt, cfg)
        init = network.init_params(6, training.HIDDEN_DIM, cfg.latent_dim, cfg.seed)
        assert params_equal(params, init)
        assert len(history) == 0

    def test_deterministic_history(self):
        src, tgt = self._domains()
        cfg = small_cfg()
        _, _, h1 = training.train(src, tgt, cfg)
        p2, _, h2 = training.train(src, tgt, cfg)
        assert h1.epochs == h2.epochs
        p1, _, _ = training.train(src, tgt, cfg)
        assert params_equal(p1, p2)

    def test_history_length_and_keys(self):
        src, tgt = self._domains()
        cfg = small_cfg(epochs=4)
        _, _, history = training.train(src, tgt, cfg)
        assert len(history) == 4
        assert set(history.epochs[0]) == {"mmd", "cls", "recon", "total"}

    def test_loss_decreases(self):
        src, tgt = self._domains(seed=1)
        cfg = small_cfg(epochs=30)
        _, _, history = training.train(src, tgt, cfg)
        assert history.epochs[-1]["total"] < history.epochs[0]["total"]

    def test_unlabeled_source_rejected(self):
        src, tgt = self._domains()
        x = src.x
        y = src.labels.copy()
        y[0] = np.nan
        bad = dataset_from_arrays(x, y, "source", feature_names=src.feature_names)
        with pytest.raises(ParameterError):
            training.train(bad, tgt, small_cfg())

    def test_feature_mismatch_rejected(self):
        src, _ = self._domains()
        _, tgt = synth_domains(16, 8, [0.0], 0.0, 2.0, 0.5, 4, seed=0)
        with pytest.raises(DimensionError):
            training.train(src, tgt, small_cfg())

    def test_unlabeled_target_ok(self):
        src, tgt = self._domains()
        x = tgt.x
        unlabeled = dataset_from_arrays(x, None, "target", feature_names=tgt.feature_names)
        params, _, _ = training.train(src, unlabeled, small_cfg(epochs=2))
        assert params.d == 6

    def test_large_lambda2_fits_separable_source(self):
        src, tgt = synth_domains(128, 64, [0.0], 0.0, 6.0, 0.5, 6, seed=5)
        cfg = small_cfg(lambda2=1.0, epochs=60, seed=5)
        params, stats, _ = training.train(src, tgt, cfg)
        _, pred = training.predict(params, stats, src)
        acc = float((pred == src.labels_strict()).mean())
        assert acc >= 0.99


def as_bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def reference_train(source, target, cfg):
    """The training loop with Adam on separate per-layer arrays, rebuilding
    the parameters every step; returns {name: (w, b)}."""
    stats = fit_standardizer(source)
    src_std = apply_standardizer(source, stats)
    tgt_std = apply_standardizer(target, stats)
    init = network.init_params(source.feature_count, training.HIDDEN_DIM, cfg.latent_dim, cfg.seed)
    dims = {"d": init.d, "h": init.h, "m": init.m}
    layers = {name: (layer.w.copy(), layer.b.copy()) for name, layer in init.layers().items()}
    m = {name: (np.zeros_like(w), np.zeros_like(b)) for name, (w, b) in layers.items()}
    v = {name: (np.zeros_like(w), np.zeros_like(b)) for name, (w, b) in layers.items()}
    b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
    n = max(len(source), len(target))
    t = 0
    for epoch in range(cfg.epochs):
        src_epoch, tgt_epoch = src_std, tgt_std
        if len(target) <= len(source):
            tgt_epoch = duplicate_to_balance(tgt_std, n, training._epoch_seed(cfg.seed, epoch, 1))
        else:
            src_epoch = duplicate_to_balance(src_std, n, training._epoch_seed(cfg.seed, epoch, 4))
        rng = np.random.default_rng(training._epoch_seed(cfg.seed, epoch, 2))
        src_order = rng.permutation(n)
        tgt_order = rng.permutation(n)
        for start, stop in training._batch_slices(n, cfg.batch_size):
            si, ti = src_order[start:stop], tgt_order[start:stop]
            params = network.ModelParams(
                **dims, **{name: network.DenseLayer(w, b) for name, (w, b) in layers.items()}
            )
            cache = network.forward(params, src_epoch.x[si], tgt_epoch.x[ti])
            _, grad = network.backward(
                params, cache, src_epoch.labels[si], cfg.lambda1, cfg.lambda2, cfg.kernel
            )
            t += 1
            for name, g in params.layers(grad).items():
                new = []
                for i, gi in enumerate((g.w, g.b)):
                    mi = b1 * m[name][i] + (1.0 - b1) * gi
                    vi = b2 * v[name][i] + (1.0 - b2) * gi**2
                    theta = layers[name][i] - cfg.lr * (mi / (1.0 - b1**t)) / (
                        np.sqrt(vi / (1.0 - b2**t)) + eps
                    )
                    new.append((theta, mi, vi))
                layers[name] = (new[0][0], new[1][0])
                m[name] = (new[0][1], new[1][1])
                v[name] = (new[0][2], new[1][2])
    return layers


DIVERGED = r"{} diverged in epoch (\d+), step (\d+): Adam step (\d+) made layer '(\w+)' non-finite"


def check_divergence_message(message, what, steps_per_epoch):
    match = re.fullmatch(DIVERGED.format(what), message)
    assert match, message
    epoch, step, adam_step = (int(g) for g in match.groups()[:3])
    assert (epoch - 1) * steps_per_epoch + step == adam_step
    assert match.group(4) in network.LAYER_ORDER


class TestTrainMatchesReference:
    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf", 0.5)])
    def test_bit_identical_to_per_layer_reference_loop(self, kernel):
        src, tgt = synth_domains(64, 40, [1.0], 0.3, 4.0, 0.7, 6, seed=4)
        cfg = small_cfg(kernel=kernel, lambda1=0.5, lr=0.01)
        params, _, _ = training.train(src, tgt, cfg)
        expected = reference_train(src, tgt, cfg)
        for name, (w, b) in expected.items():
            np.testing.assert_array_equal(as_bits(params.layers()[name].w), as_bits(w))
            np.testing.assert_array_equal(as_bits(params.layers()[name].b), as_bits(b))

    def test_larger_target_bit_identical_to_reference(self):
        # The source is the side regrown by duplication here.
        src, tgt = synth_domains(40, 64, [1.0], 0.3, 4.0, 0.7, 6, seed=6)
        cfg = small_cfg(kernel=KernelSpec("rbf", 0.5), lambda1=0.5, lr=0.01)
        params, _, _ = training.train(src, tgt, cfg)
        expected = reference_train(src, tgt, cfg)
        for name, (w, b) in expected.items():
            np.testing.assert_array_equal(as_bits(params.layers()[name].w), as_bits(w))
            np.testing.assert_array_equal(as_bits(params.layers()[name].b), as_bits(b))

    def test_divergence_names_epoch_step_and_layer(self):
        src, tgt = synth_domains(64, 32, [1.0], 0.3, 4.0, 0.7, 6, seed=0)
        with pytest.raises(ParameterError) as info:
            training.train(src, tgt, small_cfg(lr=1e308))
        check_divergence_message(str(info.value), "training", steps_per_epoch=4)

    def test_non_finite_epoch_loss_is_divergence(self):
        # Finite features this large overflow the squared latent-mean
        # distance; with lambda1 = 0 its gradient term is zero, so only the
        # epoch's mean mmd loss shows the overflow.
        rng = np.random.default_rng(0)
        src = dataset_from_arrays(rng.normal(size=(16, 3)) * 1e155, np.arange(16) % 2, "source")
        tgt = dataset_from_arrays(rng.normal(size=(16, 3)) * 1e155 - 3e155, None, "target")
        cfg = small_cfg(latent_dim=2, epochs=2, batch_size=8, lambda1=0.0, standardize=False)
        with pytest.raises(ParameterError,
                           match=r"^training diverged in epoch 1: mean mmd loss is inf$"):
            training.train(src, tgt, cfg)


class TestPredict:
    def test_zero_classifier_gives_half_and_label_one(self):
        p = network.init_params(4, 3, 2, seed=0)
        zero_clf = network.ModelParams(
            attention=p.attention, enc1=p.enc1, enc2=p.enc2, dec1=p.dec1, dec2=p.dec2,
            clf=network.DenseLayer(np.zeros((1, 2)), np.zeros(1)),
            d=4, h=3, m=2,
        )
        ds = dataset_from_arrays(np.random.default_rng(0).normal(size=(5, 4)))
        probs, labels = training.predict(zero_clf, identity_stats(4), ds)
        np.testing.assert_array_equal(probs, 0.5)
        np.testing.assert_array_equal(labels, 1)  # >= threshold rule

    def test_permutation_equivariance(self):
        src, tgt = synth_domains(32, 16, [0.5], 0.2, 3.0, 0.6, 5, seed=7)
        params, stats, _ = training.train(src, tgt, small_cfg(epochs=2))
        x = tgt.x
        ds = dataset_from_arrays(x, feature_names=tgt.feature_names)
        perm = np.random.default_rng(0).permutation(len(x))
        ds_perm = dataset_from_arrays(x[perm], feature_names=tgt.feature_names)
        p1, _ = training.predict(params, stats, ds)
        p2, _ = training.predict(params, stats, ds_perm)
        np.testing.assert_allclose(p2, p1[perm], atol=1e-12)

    def test_feature_mismatch(self):
        p = network.init_params(4, 3, 2, seed=0)
        ds = dataset_from_arrays(np.zeros((2, 5)))
        with pytest.raises(DimensionError):
            training.predict(p, identity_stats(4), ds)


class TestExportLatent:
    def test_column_count_and_values(self, tmp_path):
        src, tgt = synth_domains(16, 8, [0.0], 0.0, 2.0, 0.5, 4, seed=2)
        cfg = small_cfg(epochs=1, latent_dim=3)
        params, stats, _ = training.train(src, tgt, cfg)
        out = tmp_path / "latent.csv"
        training.export_latent(params, stats, tgt, out)
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["subject_id", "domain", "label", "z_1", "z_2", "z_3"]
        assert len(lines) == 9
        z = training.latent_codes(params, stats, tgt)
        first = np.array([float(tok) for tok in lines[1].split(",")[3:]])
        np.testing.assert_allclose(first, z[0], atol=1e-12)

    def test_empty_dataset_header_only(self, tmp_path):
        params = network.init_params(4, 3, 2, seed=0)
        out = tmp_path / "latent.csv"
        empty = dataset_from_arrays(np.zeros((0, 4)))
        training.export_latent(params, identity_stats(4), empty, out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1


class TestFinetune:
    def _labeled_target(self, n=48, seed=11):
        rng = np.random.default_rng(seed)
        half = n // 2
        x = np.vstack([
            rng.normal(2.0, 0.5, size=(half, 4)),
            rng.normal(-2.0, 0.5, size=(half, 4)),
        ])
        y = np.array([1] * half + [0] * half)
        return dataset_from_arrays(x, y, "target")

    def test_zero_epochs_noop(self):
        p = network.init_params(4, 3, 2, seed=0)
        ds = self._labeled_target()
        out = training.finetune(p, ds, small_cfg(epochs=0))
        assert params_equal(p, out)

    def test_decoder_untouched(self):
        p = network.init_params(4, 3, 2, seed=0)
        ds = self._labeled_target()
        out = training.finetune(p, ds, small_cfg(epochs=3))
        assert np.array_equal(out.dec1.w, p.dec1.w)
        assert np.array_equal(out.dec2.w, p.dec2.w)
        assert not np.array_equal(out.clf.w, p.clf.w)

    def test_argument_and_decoder_bits_unchanged(self):
        p = network.init_params(4, 3, 2, seed=0)
        before = p.flat.copy()
        out = training.finetune(p, self._labeled_target(), small_cfg(epochs=3))
        np.testing.assert_array_equal(as_bits(p.flat), as_bits(before))
        assert not np.shares_memory(out.flat, p.flat)
        for name in ("dec1", "dec2"):
            np.testing.assert_array_equal(as_bits(out.layers()[name].w), as_bits(p.layers()[name].w))
            np.testing.assert_array_equal(as_bits(out.layers()[name].b), as_bits(p.layers()[name].b))
        assert not np.array_equal(out.clf.w, p.clf.w)

    def test_divergence_names_epoch_step_and_layer(self):
        p = network.init_params(4, 3, 2, seed=0)
        with pytest.raises(ParameterError) as info:
            training.finetune(p, self._labeled_target(), small_cfg(lr=1e308))
        check_divergence_message(str(info.value), "fine-tuning", steps_per_epoch=3)

    def test_separable_toy_reaches_full_accuracy(self):
        ds = self._labeled_target()
        p = network.init_params(4, 3, 2, seed=1)
        cfg = small_cfg(epochs=120, seed=1, lambda2=1.0, lr=0.01)
        out = training.finetune(p, ds, cfg)
        _, pred = training.predict(out, identity_stats(4), ds)
        assert float((pred == ds.labels_strict()).mean()) == 1.0

    def test_finetune_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        p = network.init_params(5, 4, 3, seed=13)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 2, size=6).astype(float)
        grads = network.classifier_backward(p, x, y, 0.5)
        fd = fd_gradient(p, x, x, y, 0.0, 0.5, KernelSpec("linear"), recon_weight=0.0)
        np.testing.assert_allclose(grads, fd, rtol=1e-5, atol=1e-9)

    def test_unlabeled_rejected(self):
        p = network.init_params(4, 3, 2, seed=0)
        ds = dataset_from_arrays(np.zeros((4, 4)), [1, 0, 1, np.nan], "target")
        with pytest.raises(ParameterError):
            training.finetune(p, ds, small_cfg())


class TestWorkspaceStep:
    @pytest.mark.parametrize("path", ["linear", "rbf", "classifier"])
    def test_warm_step_peaks_below_one_hidden_activation(self, path):
        # B = 400 rows, d = 10, h = 64: one B x h float64 array is 204 800
        # bytes; the same step without a workspace peaks at ~0.8 MB
        # (classifier), ~1.8 MB (linear) and ~6.4 MB (rbf) above its start.
        batch = 400
        rng = np.random.default_rng(60)
        p = network.init_params(10, training.HIDDEN_DIM, 32, seed=60)
        state = training.init_adam(p)
        xs, xt = rng.normal(size=(batch, p.d)), rng.normal(size=(batch, p.d))
        y = rng.integers(0, 2, size=batch).astype(float)
        kernel = KernelSpec("rbf", 1.0) if path == "rbf" else KernelSpec("linear")
        ws = Workspace()

        def step():
            if path == "classifier":
                grad = network.classifier_backward(p, xs, y, 0.1, ws)
            else:
                cache = network.forward(p, xs, xt, ws)
                _, grad = network.backward(p, cache, y, 0.1, 0.1, kernel, ws=ws)
            training.adam_step(p, grad, state, 1e-3)

        step()
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            step()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < batch * training.HIDDEN_DIM * 8
