import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iadt
from iadt import baselines, cli, evaluation, network, training
from iadt.data import (Dataset, FeatureStats, by_domain, dataset_from_arrays, identity_stats,
                       load_csv, synth_domains, write_csv)
from iadt.errors import ModelFormatError
from layers import with_layers


def run_cli(*argv):
    return cli.main(list(argv))


def synth_file(tmp_path, name="data.csv", n_source=40, n_target=20, seed=0,
               shift="1.0", rotation=0.3):
    path = tmp_path / name
    code = run_cli(
        "synth", "--n-source", str(n_source), "--n-target", str(n_target),
        "--dim", "4", "--class-sep", "4.0", "--noise-sd", "0.6",
        "--shift", shift, "--rotation", str(rotation),
        "--seed", str(seed), "--out", str(path),
    )
    assert code == 0
    return path


def step_model(tmp_path):
    """A hand-built 1-feature model: predicts 1 exactly when the feature is 1.

    Attention on a single feature is the constant 1, the encoder passes
    relu(x) through, and the classifier applies sigmoid(100 z - 50).
    """
    params = with_layers(
        network.init_params(1, 1, 1, seed=0),
        attention=(np.zeros((1, 1)), np.zeros(1)),
        enc1=(np.ones((1, 1)), np.zeros(1)),
        enc2=(np.ones((1, 1)), np.zeros(1)),
        dec1=(np.ones((1, 1)), np.zeros(1)),
        dec2=(np.ones((1, 1)), np.zeros(1)),
        clf=(np.full((1, 1), 100.0), np.array([-50.0])),
    )
    path = tmp_path / "step-model.txt"
    network.save_model(params, path, stats=identity_stats(1))
    return path


def confusion_fixture(tmp_path):
    """Target data that the step model maps to tp=16, tn=38, fp=14, fn=8."""
    rows = (
        [(1, 1.0)] * 16  # predicted 1, label 1 -> tp
        + [(1, 0.0)] * 8  # predicted 0, label 1 -> fn
        + [(0, 0.0)] * 38  # tn
        + [(0, 1.0)] * 14  # fp
    )
    x = np.array([[v] for _, v in rows])
    y = np.array([lab for lab, _ in rows])
    ds = dataset_from_arrays(x, y, domain="target", feature_names=["roi_1"])
    path = tmp_path / "fixture.csv"
    write_csv(ds, path)
    return path


def layer_block(text, name):
    """The header, weight rows and bias line of layer `name` in a model file's text."""
    start = text.index(f"layer {name} ")
    return text[start:text.index("\n", text.index("\nbias ", start) + 1) + 1]


def moved(text, block, before):
    """`text` with the substring `block` moved to just before `before`."""
    return text.replace(block, "").replace(before, block + before)


# Corruptions of a saved d=4, h=3, m=2 model file (with stats), keyed by case.
MALFORMED_MODELS = {
    "garbage": lambda text: b"garbage\n",
    "non_integer_width": lambda text: text.replace("attention 4 4", "attention ten 4").encode(),
    "width_beyond_index_range": lambda text: text.replace("dims 4", "dims 99999999999999999999")
                                                 .encode(),
    "extra_layer": lambda text: (text + "layer extra 1 1 linear\n0x0p+0\nbias 0x0p+0\n").encode(),
    "bare_stats": lambda text: text.replace("stats 4", "stats").encode(),
    "non_utf8": lambda text: text.encode().replace(b"bias", b"b\xffas", 1),
    "stats_width_differs": lambda text: (
        text.split("stats")[0] + "stats 3\nmeans 0x0.0p+0 0x0.0p+0 0x0.0p+0\n"
        "sds 0x1.0p+0 0x1.0p+0 0x1.0p+0\n"
    ).encode(),
    "non_finite_stats": lambda text: text.split("sds")[0].encode() + b"sds nan nan nan nan\n",
    "wrong_activation": lambda text: text.replace("enc1 3 4 relu", "enc1 3 4 sigmoid").encode(),
    "layers_out_of_order": lambda text: moved(text, layer_block(text, "enc2"),
                                              "layer enc1").encode(),
    "stats_before_layers": lambda text: moved(text, text[text.index("stats "):],
                                              "layer attention").encode(),
    "wrong_layer_shape": lambda text: re.sub(r"clf 1 2 (sigmoid\n.*)", r"clf 1 3 \1 0x0p+0",
                                             text).encode(),
    "non_finite_weight": lambda text: re.sub(r"(softmax\n)\S+", r"\1inf", text).encode(),
    "bad_hex_weight": lambda text: re.sub(r"(relu\n\S+ )\S+", r"\g<1>0xZZ", text, count=1).encode(),
}


class TestSynth:
    def test_roundtrip_and_counts(self, tmp_path):
        path = synth_file(tmp_path, n_source=30, n_target=10)
        ds = load_csv(path)
        assert len(ds) == 40
        assert int((ds.domains == "source").sum()) == 30

    def test_seeded_determinism(self, tmp_path):
        p1 = synth_file(tmp_path, name="a.csv", seed=5)
        p2 = synth_file(tmp_path, name="b.csv", seed=5)
        assert p1.read_bytes() == p2.read_bytes()

    def test_invalid_params_exit_2(self, tmp_path):
        code = run_cli("synth", "--dim", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 2


class TestTrain:
    def test_model_loadable_and_history_rows(self, tmp_path):
        data = synth_file(tmp_path)
        model = tmp_path / "model.txt"
        history = tmp_path / "history.csv"
        code = run_cli(
            "train", "--data", str(data), "--model", str(model),
            "--history", str(history), "--epochs", "60", "--batch-size", "16",
            "--latent-dim", "4",
        )
        assert code == 0
        params, stats = network.load_model(model)
        assert params.d == 4 and stats is not None
        lines = history.read_text().strip().splitlines()
        assert lines[0] == "epoch,mmd,cls,recon,total"
        assert len(lines) == 61

    def test_one_row_per_domain_exit_1_and_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "two_rows.csv"
        write_csv(dataset_from_arrays([[1.0, 2.0]], [1], "source")
                  .concat(dataset_from_arrays([[0.5, 1.0]], [0], "target")), data)
        model, history = tmp_path / "model.txt", tmp_path / "history.csv"
        capsys.readouterr()
        assert run_cli("train", "--data", str(data), "--model", str(model),
                       "--history", str(history), "--no-standardize", "--epochs", "3") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training needs at least 2 rows") and err.count("\n") == 1
        assert not model.exists() and not history.exists()

    def test_zero_epochs_equals_seeded_init(self, tmp_path):
        data = synth_file(tmp_path)
        model = tmp_path / "model.txt"
        code = run_cli(
            "train", "--data", str(data), "--model", str(model),
            "--epochs", "0", "--seed", "3", "--latent-dim", "4",
            "--history", str(tmp_path / "h.csv"),
        )
        assert code == 0
        assert (tmp_path / "h.csv").read_bytes() == b"epoch,mmd,cls,recon,total\n"
        params, _ = network.load_model(model)
        init = network.init_params(4, training.HIDDEN_DIM, 4, seed=3)
        for name in network.LAYER_ORDER:
            np.testing.assert_array_equal(params.layers()[name].w, init.layers()[name].w)

    def test_same_seed_byte_identical_models(self, tmp_path):
        data = synth_file(tmp_path)
        m1, m2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        for m in (m1, m2):
            code = run_cli(
                "train", "--data", str(data), "--model", str(m),
                "--history", str(tmp_path / "h.csv"),
                "--epochs", "3", "--seed", "3", "--batch-size", "16",
                "--latent-dim", "4",
            )
            assert code == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_target_larger_than_source(self, tmp_path):
        data = synth_file(tmp_path, n_source=40, n_target=80)
        m1, m2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        for m in (m1, m2):
            code = run_cli(
                "train", "--data", str(data), "--model", str(m),
                "--history", str(tmp_path / "h.csv"),
                "--epochs", "3", "--seed", "3", "--batch-size", "16",
                "--latent-dim", "4",
            )
            assert code == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_missing_domain_is_data_error(self, tmp_path):
        ds = dataset_from_arrays(np.zeros((4, 2)), [1, 0, 1, 0], domain="source")
        path = tmp_path / "only-source.csv"
        write_csv(ds, path)
        code = run_cli("train", "--data", str(path), "--model", str(tmp_path / "m.txt"))
        assert code == 1

    def test_config_file_and_flag_precedence(self, tmp_path):
        data = synth_file(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=2\nlatent_dim=3\nseed=9\n")
        model = tmp_path / "m.txt"
        code = run_cli(
            "train", "--data", str(data), "--model", str(model),
            "--history", str(tmp_path / "h.csv"),
            "--config", str(cfg), "--latent-dim", "5",
        )
        assert code == 0
        params, _ = network.load_model(model)
        assert params.m == 5  # flag beats file
        lines = (tmp_path / "h.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # file epochs honored

    def test_unknown_config_key_exit_2(self, tmp_path):
        data = synth_file(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rate=0.1\n")
        code = run_cli(
            "train", "--data", str(data), "--model", str(tmp_path / "m.txt"),
            "--config", str(cfg),
        )
        assert code == 2

    def test_config_file_with_a_byte_order_mark(self, tmp_path):
        data = synth_file(tmp_path)
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes("\ufeffepochs=2\n".encode())
        code = run_cli(
            "train", "--data", str(data), "--model", str(tmp_path / "m.txt"),
            "--history", str(tmp_path / "h.csv"), "--config", str(cfg),
            "--batch-size", "16", "--latent-dim", "4",
        )
        assert code == 0
        assert len((tmp_path / "h.csv").read_text().splitlines()) == 3

    def test_config_file_not_utf8_exit_2(self, tmp_path, capsys):
        data = synth_file(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"epochs=2\nseed=\xff\n")
        capsys.readouterr()
        code = run_cli(
            "train", "--data", str(data), "--model", str(tmp_path / "m.txt"),
            "--history", str(tmp_path / "h.csv"), "--config", str(cfg),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg} is not UTF-8") and err.count("\n") == 1
        assert not (tmp_path / "m.txt").exists()

    def test_config_key_set_twice_exit_2(self, tmp_path, capsys):
        data = synth_file(tmp_path)
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("epochs=5\n# more epochs\nlatent_dim=3\n epochs = 50\n")
        capsys.readouterr()
        code = run_cli("train", "--data", str(data), "--model", str(tmp_path / "m.txt"),
                       "--history", str(tmp_path / "h.csv"), "--config", str(cfg))
        assert code == 2
        assert capsys.readouterr().err == (f"error: {cfg}:4: config key 'epochs' is already set "
                                           "on line 1\n")
        assert not (tmp_path / "m.txt").exists()


def _flag_actions(command):
    """The actions of `command`'s parser."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices[command]._actions


class TestTrainingSettings:
    """Each TrainConfig field is one config key, of its type, and one flag."""

    def test_config_keys_are_the_train_config_fields(self):
        names = [f.name for f in fields(training.TrainConfig)]
        at = names.index("kernel")
        assert list(cli.CONFIG_KEYS) == names[:at] + ["kernel", "gamma"] + names[at + 1:]
        defaults = vars(training.TrainConfig()) | {"kernel": cli.DEFAULTS.kernel.kind,
                                                   "gamma": cli.DEFAULTS.kernel.gamma}
        assert cli.CONFIG_KEYS == {key: type(defaults[key]) for key in cli.CONFIG_KEYS}
        assert all(isinstance(kind, type) for kind in cli.CONFIG_KEYS.values())

    @pytest.mark.parametrize("command", ["train", "baseline", "sweep"])
    def test_every_key_is_a_flag_of_its_type(self, command):
        actions = [a for a in _flag_actions(command) if a.dest in cli.CONFIG_KEYS]
        assert {a.dest for a in actions} == set(cli.CONFIG_KEYS)
        for action in actions:
            kind = cli.CONFIG_KEYS[action.dest]
            assert action.type is kind or action.type is None and kind in (str, bool)

    def test_sweep_params_are_config_keys(self):
        assert set(cli.SWEEP_PARAMS) <= set(cli.CONFIG_KEYS)

    def test_readme_lists_exactly_the_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = re.findall(r"Recognized\s+keys:\s+`([^`]*)`", readme)
        assert len(listed) == 1
        assert re.split(r",\s*", listed[0]) == list(cli.CONFIG_KEYS)

    # stderr as the gamma check printed it when TrainConfig held it
    @pytest.mark.parametrize("flags, err", [
        (["--gamma", "inf"], "error: gamma must be finite, got inf\n"),
        (["--kernel", "rbf", "--gamma", "nan"], "error: rbf kernel needs gamma > 0\n"),
        (["--kernel", "rbf", "--gamma", "-1"], "error: rbf kernel needs gamma > 0\n"),
        (["--config", "gamma.cfg"], "error: gamma must be finite, got inf\n"),
    ])
    def test_gamma_errors_keep_their_bytes(self, tmp_path, monkeypatch, capsys, flags, err):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gamma.cfg").write_text("gamma=inf\n")
        code = run_cli("train", "--data", "d.csv", "--model", "m.txt", *flags)
        assert (code, capsys.readouterr().err) == (2, err)


class TestEvaluate:
    def test_published_accuracy_fixture(self, tmp_path):
        model = step_model(tmp_path)
        data = confusion_fixture(tmp_path)
        out = tmp_path / "report.json"
        code = run_cli(
            "evaluate", "--data", str(data), "--model", str(model), "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["acc"] == 0.710526
        assert payload["counts"] == {"tp": 16, "tn": 38, "fp": 14, "fn": 8}
        assert round(100 * payload["bac"], 2) == 69.87
        assert round(100 * payload["sen"], 2) == 66.67
        assert round(100 * payload["spe"], 2) == 73.08

    def test_perfect_fixture(self, tmp_path):
        model = step_model(tmp_path)
        ds = dataset_from_arrays(
            np.array([[1.0]] * 3 + [[0.0]] * 3), [1, 1, 1, 0, 0, 0],
            domain="target", feature_names=["roi_1"],
        )
        data = tmp_path / "perfect.csv"
        write_csv(ds, data)
        out = tmp_path / "report.json"
        assert run_cli("evaluate", "--data", str(data), "--model", str(model),
                       "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["acc"] == payload["bac"] == payload["sen"] == payload["spe"] == 1.0

    def test_second_run_reads_the_cached_model_and_writes_the_same_bytes(self, tmp_path,
                                                                       monkeypatch, capsys):
        data = synth_file(tmp_path)
        model = tmp_path / "model.txt"
        assert run_cli("train", "--data", str(data), "--model", str(model), "--epochs", "2",
                       "--latent-dim", "2", "--history", str(tmp_path / "history.csv")) == 0
        runs = []
        for _ in range(2):
            out = tmp_path / "report.json"
            capsys.readouterr()
            assert run_cli("evaluate", "--data", str(data), "--model", str(model),
                           "--out", str(out)) == 0
            runs.append((out.read_bytes(), capsys.readouterr()))

            def no_parse(path):
                raise AssertionError(f"{path} was parsed instead of read from the cache")

            monkeypatch.setattr(network, "_parse_model", no_parse)
        assert runs[0] == runs[1]
        assert (model.parent / "__iadtcache__" / "model.txt.params").exists()

    def test_json_roundtrips(self, tmp_path):
        model = step_model(tmp_path)
        data = confusion_fixture(tmp_path)
        out = tmp_path / "report.json"
        run_cli("evaluate", "--data", str(data), "--model", str(model), "--out", str(out))
        payload = json.loads(out.read_text())
        assert json.loads(json.dumps(payload)) == payload

    def test_scores_each_row_once(self, tmp_path, monkeypatch):
        model = step_model(tmp_path)
        data = confusion_fixture(tmp_path)
        for name in ("attention_forward", "classify"):
            counted = getattr(network, name)
            rows = []
            monkeypatch.setattr(
                network, name,
                lambda params, x, *ws, f=counted, rows=rows:
                    rows.append(len(x)) or f(params, x, *ws),
            )
            assert run_cli("evaluate", "--data", str(data), "--model", str(model)) == 0
            assert rows == [76], name

    def test_ranking_fallback_is_announced(self, tmp_path, capsys):
        model = step_model(tmp_path)
        ds = dataset_from_arrays(np.array([[1.0], [0.0], [0.0]]), [0, 0, 1],
                                 domain="target", feature_names=["roi_1"])
        data = tmp_path / "no-correct-positives.csv"
        write_csv(ds, data)
        out = tmp_path / "report.json"
        assert run_cli("evaluate", "--data", str(data), "--model", str(model),
                       "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "no correctly identified positive samples" in err and "all 3 samples" in err
        assert json.loads(out.read_text())["roi_ranking_filter"] == "all"
        run_cli("evaluate", "--data", str(confusion_fixture(tmp_path)), "--model", str(model))
        assert capsys.readouterr().err == ""

    def test_unlabeled_data_exit_1(self, tmp_path):
        model = step_model(tmp_path)
        ds = dataset_from_arrays(np.array([[1.0], [0.0]]), None,
                                 domain="target", feature_names=["roi_1"])
        data = tmp_path / "unlabeled.csv"
        write_csv(ds, data)
        assert run_cli("evaluate", "--data", str(data), "--model", str(model)) == 1


class TestBaselineCommand:
    def test_logistic_close_to_target_trained_oracle(self, tmp_path):
        # identical domains: source-trained logistic should match one trained
        # on the target itself
        data = synth_file(tmp_path, n_source=200, n_target=200, seed=1,
                          shift="0", rotation=0.0)
        out = tmp_path / "report.json"
        code = run_cli("baseline", "--data", str(data), "--method", "logistic",
                       "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())

        from iadt.baselines import logistic_fit, logistic_predict
        from iadt.data import apply_standardizer, by_domain, fit_standardizer
        from iadt.evaluation import evaluate_predictions

        ds = load_csv(data)
        source, target = by_domain(ds)
        stats = fit_standardizer(source)
        xt = apply_standardizer(target, stats)
        yt = target.labels_strict()
        oracle_model = logistic_fit(xt, yt)
        probs = logistic_predict(oracle_model, xt)
        _, oracle = evaluate_predictions(yt.astype(int), probs)
        assert abs(payload["bac"] - oracle.bac) <= 0.05

    @pytest.mark.parametrize("method", ["tca", "gfk", "sa", "coral", "tl"])
    def test_methods_run_and_report(self, tmp_path, method):
        data = synth_file(tmp_path, n_source=60, n_target=40, seed=2)
        out = tmp_path / f"{method}.json"
        argv = ["baseline", "--data", str(data), "--method", method, "--out", str(out)]
        if method in ("tca", "gfk", "sa"):
            argv += ["--dim", "2"]
        if method == "coral":
            argv += ["--reg", "1.0"]
        if method == "tl":
            argv += ["--epochs", "5", "--latent-dim", "4"]
        assert run_cli(*argv) == 0
        payload = json.loads(out.read_text())
        assert set(payload["counts"]) == {"tp", "tn", "fp", "fn"}
        assert payload["acc"] is not None

    def test_tl_split_leaving_no_rows_to_evaluate_exit_1(self, tmp_path, capsys):
        data = synth_file(tmp_path, n_source=60, n_target=200, seed=2)
        out = tmp_path / "tl.json"
        capsys.readouterr()
        assert run_cli("baseline", "--data", str(data), "--method", "tl", "--out", str(out),
                       "--finetune-fraction", "0.999", *TRAINING_ARGV) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --finetune-fraction 0.999 ") and err.count("\n") == 1
        assert not out.exists()

    def test_tl_one_row_split_exit_1(self, tmp_path, capsys):
        # one target class, so a 0.1 split takes ceil(0.1 * 10) = 1 row to fine-tune on
        source, _ = by_domain(load_csv(synth_file(tmp_path)))
        target = dataset_from_arrays(np.ones((10, 4)), np.ones(10), "target",
                                     feature_names=source.feature_names)
        data = tmp_path / "one_class_target.csv"
        write_csv(source.concat(target), data)
        out = tmp_path / "tl.json"
        capsys.readouterr()
        assert run_cli("baseline", "--data", str(data), "--method", "tl", "--out", str(out),
                       "--finetune-fraction", "0.1", *TRAINING_ARGV) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fine-tuning needs at least 2 labeled rows, got 1")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("method, fit", [("tca", baselines.tca_fit),
                                             ("gfk", baselines.gfk_fit),
                                             ("sa", baselines.sa_fit)])
    def test_default_dim_is_the_fit_signature_default(self, tmp_path, method, fit):
        data = tmp_path / "wide.csv"
        assert run_cli("synth", "--n-source", "50", "--n-target", "30", "--dim", "40",
                       "--seed", "3", "--out", str(data)) == 0
        out = tmp_path / f"{method}.json"
        assert run_cli("baseline", "--data", str(data), "--method", method,
                       "--out", str(out)) == 0

        from iadt.data import apply_standardizer, by_domain, fit_standardizer

        source, target = by_domain(load_csv(data))
        stats = fit_standardizer(source)
        xs = apply_standardizer(source, stats)
        xt = apply_standardizer(target, stats)
        zs, zt = fit(xs, xt)
        probs = baselines.logistic_predict(baselines.logistic_fit(zs, source.labels_strict()), zt)
        conf, report = evaluation.evaluate_predictions(target.labels_strict(), probs)
        expected = json.loads(json.dumps(cli._report_payload(conf, report)))
        assert json.loads(out.read_text()) == expected

    @pytest.mark.parametrize("kernel, dim, bound", [("linear", 5, 4), ("rbf", 60, 59)])
    def test_tca_dim_past_rank_bound_exit_1(self, tmp_path, capsys, kernel, dim, bound):
        data = synth_file(tmp_path)  # 40 + 20 rows of 4 features
        out = tmp_path / "tca.json"
        code = run_cli("baseline", "--data", str(data), "--method", "tca", "--kernel", kernel,
                       "--dim", str(dim), "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: tca dim must be in [1, {bound}]")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_sa_default_dim_past_feature_count_exit_1(self, tmp_path, capsys):
        data = synth_file(tmp_path)  # 4 features, below sa's default dim of 20
        out = tmp_path / "sa.json"
        assert run_cli("baseline", "--data", str(data), "--method", "sa",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sa dim must be in [1, 4]") and err.count("\n") == 1
        assert not out.exists()

    def test_unsupported_method_exit_2(self, tmp_path, capsys):
        data = synth_file(tmp_path)
        code = run_cli("baseline", "--data", str(data), "--method", "voxcnn")
        assert code == 2
        err = capsys.readouterr().err
        assert "voxcnn" in err
        assert "logistic" in err  # valid names listed


class TestRankRois:
    def _trained_model(self, tmp_path):
        data = synth_file(tmp_path, n_source=40, n_target=30, seed=4)
        model = tmp_path / "model.txt"
        code = run_cli(
            "train", "--data", str(data), "--model", str(model),
            "--history", str(tmp_path / "h.csv"),
            "--epochs", "3", "--batch-size", "16", "--latent-dim", "3",
        )
        assert code == 0
        return data, model

    def test_top_k_rows_and_weight_sum(self, tmp_path, capsys):
        data, model = self._trained_model(tmp_path)
        out = tmp_path / "ranking.json"
        code = run_cli(
            "rank-rois", "--data", str(data), "--model", str(model),
            "--top", "3", "--out", str(out),
        )
        assert code == 0
        table = capsys.readouterr().out.strip().splitlines()
        header_idx = next(i for i, line in enumerate(table) if line.startswith("index"))
        assert len(table[header_idx + 1 :]) >= 3
        payload = json.loads(out.read_text())
        total = sum(e["mean_weight"] for e in payload["entries"])
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_top_clipped_to_feature_count(self, tmp_path, capsys):
        data, model = self._trained_model(tmp_path)
        code = run_cli(
            "rank-rois", "--data", str(data), "--model", str(model), "--top", "99",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header_idx = next(i for i, line in enumerate(lines) if line.startswith("index"))
        assert len(lines[header_idx + 1 :]) == 4  # dim=4 features

    def test_empty_selection_exit_1_with_hint(self, tmp_path, capsys):
        model = step_model(tmp_path)
        ds = dataset_from_arrays(np.array([[0.0]] * 4), [1, 1, 0, 0],
                                 domain="target", feature_names=["roi_1"])
        data = tmp_path / "no-positives.csv"
        write_csv(ds, data)
        code = run_cli("rank-rois", "--data", str(data), "--model", str(model))
        assert code == 1
        assert capsys.readouterr().err == ("error: no correctly identified positive samples; "
                                           "rerun with --filter all\n")

    def test_threshold_above_every_probability_names_the_flag(self, tmp_path, capsys):
        data, model = self._trained_model(tmp_path)
        argv = ["rank-rois", "--data", str(data), "--model", str(model)]
        assert run_cli(*argv, "--threshold", "0.9999") == 1
        err = capsys.readouterr().err
        assert err.endswith("; rerun with --filter all\n") and "filter='all'" not in err
        assert run_cli(*argv, "--threshold", "0.9999", "--filter", "all") == 0


class TestSweep:
    def test_lambda_grid_of_published_values(self, tmp_path):
        data = synth_file(tmp_path, n_source=16, n_target=8, seed=6)
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--data", str(data),
            "--param", "lambda1",
            "--values", "0.001,0.01,0.02,0.05,0.1,0.2,0.5,1",
            "--epochs", "1", "--batch-size", "8", "--latent-dim", "3",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda1,acc,bac,auc,sen,spe"
        assert len(lines) == 9

    def test_latent_dim_sweep(self, tmp_path):
        data = synth_file(tmp_path, n_source=16, n_target=8, seed=6)
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--data", str(data),
            "--param", "latent_dim", "--values", "2,3,4,5",
            "--epochs", "1", "--batch-size", "8",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5

    def test_single_value_matches_plain_train_evaluate(self, tmp_path):
        data = synth_file(tmp_path, n_source=24, n_target=12, seed=7)
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--data", str(data),
            "--param", "lambda1", "--values", "0.1",
            "--epochs", "2", "--batch-size", "8", "--latent-dim", "3",
            "--seed", "11",
            "--out", str(out),
        )
        assert code == 0
        row = out.read_text().strip().splitlines()[1].split(",")

        from iadt.data import by_domain
        from iadt.evaluation import evaluate_predictions
        from iadt.training import TrainConfig, predict, train
        from iadt.losses import KernelSpec

        ds = load_csv(data)
        source, target = by_domain(ds)
        cfg = TrainConfig(latent_dim=3, lambda1=0.1, epochs=2, batch_size=8, seed=11)
        params, stats, _ = train(source, target, cfg)
        probs = predict(params, stats, target)
        _, report = evaluate_predictions(target.labels_strict().astype(int), probs)
        assert float(row[1]) == pytest.approx(round(report.acc, 6), abs=1e-9)

    def test_two_param_grid(self, tmp_path):
        data = synth_file(tmp_path, n_source=16, n_target=8, seed=8)
        out = tmp_path / "grid.csv"
        code = run_cli(
            "sweep", "--data", str(data),
            "--param", "lambda1", "--values", "0.01,0.1",
            "--param", "lambda2", "--values", "0.1,1",
            "--epochs", "1", "--batch-size", "8", "--latent-dim", "3",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda1,lambda2,acc,bac,auc,sen,spe"
        assert len(lines) == 5

    def test_invalid_value_exit_2(self, tmp_path):
        data = synth_file(tmp_path)
        code = run_cli(
            "sweep", "--data", str(data),
            "--param", "latent_dim", "--values", "ten,20",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2

    def test_unknown_param_exit_2(self, tmp_path):
        data = synth_file(tmp_path)
        code = run_cli(
            "sweep", "--data", str(data),
            "--param", "dropout", "--values", "0.5",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2


class TestWrittenBytes:
    """The history and sweep CSVs hold exactly the bytes that
    csv.writer(lineterminator="\n") writes for the same values."""

    @staticmethod
    def csv_bytes(header, rows):
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([header, *rows])
        return text.getvalue().encode("utf-8")

    def test_history(self, tmp_path):
        data = synth_file(tmp_path)
        history = tmp_path / "history.csv"
        assert run_cli("train", "--data", str(data), "--model", str(tmp_path / "m.txt"),
                       "--history", str(history), "--epochs", "3", "--batch-size", "16",
                       "--latent-dim", "3") == 0
        source, target = by_domain(load_csv(data))
        cfg = training.TrainConfig(epochs=3, batch_size=16, latent_dim=3)
        _, _, losses = training.train(source, target, cfg)
        assert losses.shape == (3, 4)
        rows = [[i, *row.tolist()] for i, row in enumerate(losses, start=1)]
        assert history.read_bytes() == self.csv_bytes(
            ["epoch", "mmd", "cls", "recon", "total"], rows)

    def test_sweep_with_an_undefined_metric(self, tmp_path):
        # every target row is positive, so specificity and AUC are undefined
        rng = np.random.default_rng(4)
        source = dataset_from_arrays(rng.normal(size=(16, 3)), [0.0, 1.0] * 8)
        target = dataset_from_arrays(rng.normal(size=(8, 3)), [1.0] * 8, domain="target")
        data = tmp_path / "data.csv"
        write_csv(source.concat(target), data)
        out = tmp_path / "sweep.csv"
        values = (0.1, 0.5)
        assert run_cli("sweep", "--data", str(data), "--param", "lambda1",
                       "--values", ",".join(map(str, values)), "--epochs", "1",
                       "--batch-size", "8", "--latent-dim", "2", "--out", str(out)) == 0
        source, target = by_domain(load_csv(data))
        metrics = ("acc", "bac", "auc", "sen", "spe")
        rows = []
        for index, value in enumerate(values):
            cfg = training.TrainConfig(latent_dim=2, lambda1=value, epochs=1, batch_size=8)
            cfg = replace(cfg, seed=cfg.seed + index)
            params, stats, _ = training.train(source, target, cfg)
            probs = training.predict(params, stats, target)
            _, report = evaluation.evaluate_predictions(target.labels_strict(), probs)
            rows.append([value, *(cli._round6(report.as_dict()[k]) for k in metrics)])
        assert None in rows[0]
        assert out.read_bytes() == self.csv_bytes(["lambda1", *metrics], rows)


SCORING_COMMANDS = ("predict", "evaluate", "rank-rois", "export-latent")


def tiny_model(data, tmp_path):
    model = tmp_path / "m.txt"
    assert run_cli("train", "--data", str(data), "--model", str(model),
                   "--history", str(tmp_path / "h.csv"),
                   "--epochs", "1", "--batch-size", "8", "--latent-dim", "3") == 0
    return model


def overflowing_model(model):
    """A copy of `model` with finite weights whose latent codes overflow."""
    params, stats = network.load_model(model)
    params.enc1.w[...] *= 1e300
    params.enc2.w[...] *= 1e300
    overflow = model.with_name("overflow.txt")
    network.save_model(params, overflow, stats=stats)
    return overflow


class TestPredictAndExport:
    def test_predict_writes_rows(self, tmp_path):
        data = synth_file(tmp_path, n_source=20, n_target=10, seed=9)
        model = tmp_path / "m.txt"
        run_cli("train", "--data", str(data), "--model", str(model),
                "--history", str(tmp_path / "h.csv"),
                "--epochs", "1", "--batch-size", "8", "--latent-dim", "3")
        out = tmp_path / "preds.csv"
        code = run_cli("predict", "--data", str(data), "--model", str(model),
                       "--domain", "target", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "subject_id,domain,label,prob,pred"
        assert len(lines) == 11

    def test_export_latent_columns(self, tmp_path):
        data = synth_file(tmp_path, n_source=20, n_target=10, seed=9)
        model = tmp_path / "m.txt"
        run_cli("train", "--data", str(data), "--model", str(model),
                "--history", str(tmp_path / "h.csv"),
                "--epochs", "1", "--batch-size", "8", "--latent-dim", "3")
        out = tmp_path / "latent.csv"
        code = run_cli("export-latent", "--data", str(data), "--model", str(model),
                       "--out", str(out))
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "subject_id,domain,label,z_1,z_2,z_3"

    @pytest.mark.parametrize("command", SCORING_COMMANDS)
    def test_overflow_exit_1(self, tmp_path, command):
        data = synth_file(tmp_path, n_source=20, n_target=10, seed=9)
        model = overflowing_model(tiny_model(data, tmp_path))
        out = tmp_path / "out"
        code, err, runtime_warnings = run_cli_captured(
            [command, "--data", str(data), "--model", str(model), "--out", str(out)]
        )
        assert code == 1 and not runtime_warnings
        assert err.startswith("error: latent codes are not finite") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", SCORING_COMMANDS)
    def test_empty_domain_exit_1(self, tmp_path, command):
        ds = dataset_from_arrays(np.array([[1.0], [0.0]]), [1, 0], domain="source",
                                 feature_names=["roi_1"])
        data = tmp_path / "source-only.csv"
        write_csv(ds, data)
        out = tmp_path / "out"
        code, err, runtime_warnings = run_cli_captured(
            [command, "--data", str(data), "--model", str(step_model(tmp_path)),
             "--domain", "target", "--out", str(out)]
        )
        assert code == 1 and not runtime_warnings
        assert err == f"error: {data}: no samples in domain 'target'\n"
        assert not out.exists()

    def test_one_domain_is_copied_without_the_other(self, tmp_path):
        # Loading (from the cache entry) and selecting --domain target may
        # hold the whole file and the target rows, but not also the source
        # rows: splitting into both halves first held about 0.9 of the
        # whole feature array on top of what --domain all holds, selecting
        # one half about 0.4.
        src, tgt = synth_domains(2000, 2000, [0.5], 0.2, 3.0, 0.6, 90, seed=3)
        data = tmp_path / "data.csv"
        write_csv(src.concat(tgt), data)
        model = tmp_path / "model.txt"
        network.save_model(network.init_params(90, 4, 2, seed=0), model,
                           stats=identity_stats(90))
        full = load_csv(data)
        peaks, rows = {}, {}
        for domain in ("all", "target"):
            args = argparse.Namespace(model=str(model), data=str(data), domain=domain)
            was_tracing = tracemalloc.is_tracing()
            if not was_tracing:
                tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                rows[domain] = cli._model_and_rows(args)[2]
                peaks[domain] = tracemalloc.get_traced_memory()[1] - start
            finally:
                if not was_tracing:
                    tracemalloc.stop()
        assert rows["target"].ids.tolist() == tgt.ids.tolist()
        assert np.array_equal(rows["target"].x, full.x[2000:])
        assert peaks["target"] - peaks["all"] < 0.6 * full.x.nbytes

    def test_predict_quotes_ids(self, tmp_path):
        ids = ["sub,1", 'he said "x"', "plain"]
        ds = Dataset(["roi_1"], ids, ["target"] * 3, [1.0, 0.0, 0.0],
                     np.array([[1.0], [0.0], [1.0]]))
        data = tmp_path / "quoted.csv"
        write_csv(ds, data)
        out = tmp_path / "preds.csv"
        assert run_cli("predict", "--data", str(data), "--model", str(step_model(tmp_path)),
                       "--out", str(out)) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 5 for row in rows)
        assert [row[0] for row in rows[1:]] == ids
        assert out.read_text().splitlines()[3].startswith("plain,target,0,")


# Ids with every character the CSV writer quotes, spaces and non-ASCII text.
ID_TEXT = st.text(alphabet=st.sampled_from(',"\r\n \taé日ß'), max_size=6)


@settings(max_examples=40, deadline=None)
@given(ids=st.lists(ID_TEXT, min_size=1, max_size=6, unique=True))
@example(ids=["a\rb"])
def test_ids_come_back_equal_from_every_written_csv(tmp_path_factory, ids):
    """The dataset CSV (through load_csv), the predictions (through
    csv.reader) and the latent CSV (through load_csv) give back each id as
    it was, a bare CR included, though the predictions end rows with LF."""
    tmp = tmp_path_factory.mktemp("ids")
    n = len(ids)
    ds = Dataset(["roi_1"], ids, ["target", "source"] * (n // 2) + ["target"] * (n % 2),
                 [1.0] * n, np.arange(n, dtype=float)[:, None] % 2)
    data, preds, latent = tmp / "d.csv", tmp / "p.csv", tmp / "z.csv"
    write_csv(ds, data)
    assert load_csv(data).ids.tolist() == ids
    model = str(step_model(tmp))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("predict", "--data", str(data), "--model", model, "--out", str(preds)) == 0
        assert run_cli("export-latent", "--data", str(data), "--model", model,
                       "--out", str(latent)) == 0
    with open(preds, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [5] * (n + 1)
    assert [row[0] for row in rows[1:]] == ids
    assert load_csv(latent).ids.tolist() == ids


# Flag values that used to run (or fail late, or crash) and now exit 2 up
# front, each with the flag or config key its error names.
TRAINING_ARGV = ("--epochs", "2", "--batch-size", "16", "--latent-dim", "3")
BAD_FLAGS = {
    "train_negative_seed": (("train", "--seed", "-1"), "seed"),
    "train_nan_lambda1": (("train", "--lambda1", "nan"), "lambda1"),
    "train_negative_lambda1": (("train", "--lambda1", "-1"), "lambda1"),
    "train_negative_epochs": (("train", "--epochs", "-1"), "epochs"),
    "train_zero_lr": (("train", "--lr", "0"), "lr"),
    "train_inf_lr": (("train", "--lr", "inf"), "lr"),
    "train_inf_gamma": (("train", "--kernel", "rbf", "--gamma", "inf"), "gamma"),
    "sweep_negative_seed": (("sweep", "--param", "lambda1", "--values", "0.1", "--seed", "-1"),
                            "seed"),
    "sweep_latent_dim_0": (("sweep", "--param", "latent_dim", "--values", "4,0"), "latent_dim"),
    "sweep_nan_lambda2": (("sweep", "--param", "lambda2", "--values", "nan"), "lambda2"),
    "sweep_negative_lambda2": (("sweep", "--param", "lambda2", "--values=-1"), "lambda2"),
    "sweep_repeated_param": (("sweep", "--param", "lambda1", "--values", "0.0,5.0",
                              "--param", "lambda1", "--values", "0.1"), "lambda1"),
    "sweep_empty_values": (("sweep", "--param", "lambda1", "--values", ","), "--values"),
    "sweep_blank_values": (("sweep", "--param", "latent_dim", "--values", " "), "--values"),
    "tl_negative_seed": (("baseline", "--method", "tl", "--seed", "-1"), "seed"),
    "sa_dim_0": (("baseline", "--method", "sa", "--dim", "0"), "--dim"),
    "gfk_dim_0": (("baseline", "--method", "gfk", "--dim", "0"), "--dim"),
    "tca_dim_negative": (("baseline", "--method", "tca", "--dim", "-2"), "--dim"),
    # only tca, gfk and sa project onto a --dim subspace; the others would ignore it
    **{f"{method}_dim": (("baseline", "--method", method, "--dim", "5"),
                         f"--dim must be unset with --method {method}")
       for method in ("logistic", "coral", "tl")},
    "baseline_nan_threshold": (("baseline", "--method", "logistic", "--threshold", "nan"),
                               "--threshold"),
    # --mu reaches only tca and --reg only coral; another method would ignore them
    **{f"{method}_mu": (("baseline", "--method", method, "--mu", "5"),
                        f"--mu must be unset with --method {method}")
       for method in ("logistic", "gfk", "sa", "coral", "tl")},
    **{f"{method}_reg": (("baseline", "--method", method, "--reg", "3"),
                         f"--reg must be unset with --method {method}")
       for method in ("logistic", "tca", "gfk", "sa", "tl")},
    "tca_nan_mu": (("baseline", "--method", "tca", "--mu", "nan"), "--mu"),
    "tca_zero_mu": (("baseline", "--method", "tca", "--mu", "0"), "--mu"),
    "coral_negative_reg": (("baseline", "--method", "coral", "--reg", "-5"), "--reg"),
    "coral_inf_reg": (("baseline", "--method", "coral", "--reg", "inf"), "--reg"),
    "tl_nan_finetune_fraction": (("baseline", "--method", "tl", "--finetune-fraction", "nan"),
                                 "--finetune-fraction"),
    "tl_finetune_fraction_1": (("baseline", "--method", "tl", "--finetune-fraction", "1"),
                               "--finetune-fraction"),
    "synth_inf_noise_sd": (("synth", "--noise-sd", "inf"), "--noise-sd"),
    "synth_negative_noise_sd": (("synth", "--noise-sd", "-1"), "--noise-sd"),
    "synth_inf_rotation": (("synth", "--rotation", "inf"), "--rotation"),
    "synth_nan_class_sep": (("synth", "--class-sep", "nan"), "--class-sep"),
    "synth_nan_shift_entry": (("synth", "--shift", "1,2,nan"), "--shift"),
    "synth_non_numeric_shift_entry": (("synth", "--shift", "1,x"), "--shift"),
}


class TestFlagValidation:
    def _argv(self, tmp_path, command, *flags):
        if command == "synth":
            return [command, "--out", str(tmp_path / "out"), *flags]
        argv = [command, "--data", str(synth_file(tmp_path))]
        if command == "train":
            argv += ["--model", str(tmp_path / "m.txt"), "--history", str(tmp_path / "h.csv")]
        if command in ("train", "sweep") or "tl" in flags:
            argv += list(TRAINING_ARGV)
        if command in ("sweep", "baseline"):
            argv += ["--out", str(tmp_path / "out")]
        return argv + list(flags)

    @pytest.mark.parametrize("case", sorted(BAD_FLAGS))
    def test_exit_2_naming_the_flag(self, tmp_path, capsys, case):
        (command, *flags), name = BAD_FLAGS[case]
        assert run_cli(*self._argv(tmp_path, command, *flags)) == 2
        err = capsys.readouterr().err
        assert name in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists() and not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("command, flags, name", [
        ("evaluate", ("--threshold", "nan"), "--threshold"),
        ("predict", ("--threshold", "inf"), "--threshold"),
        ("rank-rois", ("--top", "-3"), "--top"),
        ("rank-rois", ("--top", "0"), "--top"),
    ])
    def test_scoring_flags_exit_2(self, tmp_path, capsys, command, flags, name):
        argv = [command, "--data", str(confusion_fixture(tmp_path)),
                "--model", str(step_model(tmp_path))]
        if command == "predict":
            argv += ["--out", str(tmp_path / "p.csv")]
        assert run_cli(*argv, *flags) == 2
        assert name in capsys.readouterr().err

    def test_divergence_names_epoch_step_and_layer(self, tmp_path, capsys):
        argv = self._argv(tmp_path, "train", "--lr", "1e308")
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith("error: training diverged in epoch ") and ", step " in err
        assert any(f"layer {name!r} non-finite" in err for name in network.LAYER_ORDER)


COMMANDS = ("synth", "train", "predict", "evaluate", "baseline", "rank-rois", "sweep",
            "export-latent")


class TestExitCodesAndHelp:
    def test_file_with_a_byte_order_mark_reads_as_without(self, tmp_path, capsys):
        plain = synth_file(tmp_path)
        bom = tmp_path / "bom.csv"
        bom.write_bytes("\ufeff".encode() + plain.read_bytes())
        capsys.readouterr()
        outputs = []
        for path in (plain, bom):
            assert run_cli("baseline", "--data", str(path), "--method", "logistic") == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_missing_file_exit_1(self, tmp_path):
        code = run_cli("evaluate", "--data", str(tmp_path / "nope.csv"),
                       "--model", str(tmp_path / "nope.txt"))
        assert code == 1

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_malformed_model_exit_1(self, tmp_path, case):
        good = tmp_path / "model.txt"
        network.save_model(network.init_params(4, 3, 2, seed=0), good, stats=identity_stats(4))
        bad = tmp_path / "bad-model.txt"
        bad.write_bytes(MALFORMED_MODELS[case](good.read_text()))
        messages = []
        for _ in range(2):
            with pytest.raises(ModelFormatError) as info:
                network.load_model(bad)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert not (tmp_path / "__iadtcache__" / "bad-model.txt.params").exists()
        data = synth_file(tmp_path)
        out = tmp_path / "preds.csv"
        assert run_cli("predict", "--data", str(data), "--model", str(bad), "--out", str(out)) == 1

    def test_malformed_model_error_names_the_bad_value(self, tmp_path, capsys):
        good = tmp_path / "model.txt"
        network.save_model(network.init_params(4, 3, 2, seed=0), good, stats=identity_stats(4))
        bad = tmp_path / "bad-model.txt"
        bad.write_bytes(MALFORMED_MODELS["bad_hex_weight"](good.read_text()))
        data = synth_file(tmp_path)
        capsys.readouterr()
        assert run_cli("predict", "--data", str(data), "--model", str(bad),
                       "--out", str(tmp_path / "preds.csv")) == 1
        assert "non-blank line 10: bad hex float '0xZZ' (value 2)" in capsys.readouterr().err

    def test_unknown_flag_exit_2(self, tmp_path):
        assert run_cli("train", "--frobnicate") == 2

    def test_help_exit_0(self):
        assert run_cli("--help") == 0
        for command in COMMANDS:
            assert run_cli(command, "--help") == 0

    def test_help_shows_no_unset_default(self, capsys):
        for command in COMMANDS:
            run_cli(command, "--help")
            assert "(default: None)" not in capsys.readouterr().out, command

    def test_help_lists_published_defaults(self, capsys):
        run_cli("train", "--help")
        text = capsys.readouterr().out
        assert "0.001" in text and "60" in text and "128" in text and "0.1" in text
        for command in ("train", "baseline", "sweep"):
            run_cli(command, "--help")
            text = " ".join(capsys.readouterr().out.split())
            for phrase in ("latent width (default 32)", "alignment loss weight (default 0.1)",
                           "classification loss weight (default 0.1)",
                           "Adam learning rate (default 0.001)", "training epochs (default 60)",
                           "paired batch size (default 128)", "MMD kernel (default linear)",
                           "rbf bandwidth (default 1.0)", "random seed (default 0)",
                           "source statistics (default on)"):
                assert phrase in text, (command, phrase)

    def test_help_shows_every_default(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command, sub in commands.choices.items():
            assert len(sub._actions) > 1, command
            for action in sub._actions:
                if not action.option_strings or action.default in (None, argparse.SUPPRESS):
                    continue
                formatter = sub._get_formatter()
                formatter.add_argument(action)
                text = " ".join(formatter.format_help().split())
                assert f"(default: {action.default})" in text, (command, action.dest)

    @pytest.mark.parametrize("place", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command, flag", [
        ("train", "--model"), ("train", "--history"), ("sweep", "--out"), ("baseline", "--out"),
        ("synth", "--out"), ("predict", "--out"), ("evaluate", "--out"), ("rank-rois", "--out"),
        ("export-latent", "--out"),
    ])
    def test_unwritable_output_exit_1_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                      command, flag, place):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{command} read or generated data before checking {flag}")

        for module, name in ((cli, "load_csv"), (cli, "synth_domains"), (network, "load_model")):
            monkeypatch.setattr(module, name, refuse)
        argv = {
            "train": ["--data", "d.csv", "--model", str(tmp_path / "m.txt"),
                      "--history", str(tmp_path / "h.csv")],
            "sweep": ["--data", "d.csv", "--param", "lambda1", "--values", "0.1"],
            "baseline": ["--data", "d.csv", "--method", "logistic"],
            "synth": [],
        }.get(command, ["--data", "d.csv", "--model", "m.txt"])
        bad = tmp_path / "missing" / "out" if place == "missing-directory" else tmp_path
        assert run_cli(command, *argv, flag, str(bad)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {flag} {bad}") and err.count("\n") == 1

    # Each argv names one file with two flags, the second of them an output;
    # {dir} is the directory holding d.csv, m.txt, t.cfg and link.csv -> d.csv,
    # which is also the working directory.
    @pytest.mark.parametrize("argv, flags", [
        (("train", "--data", "d.csv", "--model", "n.txt", "--history", "n.txt"),
         ("--model", "--history")),
        (("train", "--data", "d.csv", "--model", "n.txt", "--history", "{dir}/d.csv"),
         ("--data", "--history")),
        (("train", "--data", "{dir}/d.csv", "--model", "./d.csv", "--history", "n.csv"),
         ("--data", "--model")),
        (("train", "--data", "d.csv", "--config", "t.cfg", "--model", "n.txt",
          "--history", "t.cfg"), ("--config", "--history")),
        (("train", "--data", "link.csv", "--model", "n.txt", "--history", "d.csv"),
         ("--data", "--history")),
        (("predict", "--data", "d.csv", "--model", "m.txt", "--out", "{dir}/m.txt"),
         ("--model", "--out")),
        (("evaluate", "--data", "d.csv", "--model", "m.txt", "--out", "link.csv"),
         ("--data", "--out")),
        (("rank-rois", "--data", "d.csv", "--model", "m.txt", "--out", "d.csv"),
         ("--data", "--out")),
        (("export-latent", "--data", "d.csv", "--model", "m.txt", "--out", "m.txt"),
         ("--model", "--out")),
        (("sweep", "--data", "d.csv", "--param", "lambda1", "--values", "0.1",
          "--out", "sub/../d.csv"), ("--data", "--out")),
        (("baseline", "--data", "d.csv", "--method", "logistic", "--config", "t.cfg",
          "--out", "t.cfg"), ("--config", "--out")),
        (("train", "--data", "d.csv", "--model", "n.txt", "--history", "hard.csv"),
         ("--data", "--history")),
        (("predict", "--data", "d.csv", "--model", "m.txt", "--out", "hard.txt"),
         ("--model", "--out")),
    ], ids=["train-model-history", "train-history-data", "train-model-data",
            "train-history-config", "train-history-symlinked-data", "predict-out-model",
            "evaluate-out-symlink-to-data", "rank-rois-out-data", "export-latent-out-model",
            "sweep-out-data", "baseline-out-config", "train-history-hard-linked-data",
            "predict-out-hard-linked-model"])
    def test_output_naming_another_flags_file_exit_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, argv, flags):
        synth_file(tmp_path, name="d.csv")
        tiny_model(tmp_path / "d.csv", tmp_path)
        (tmp_path / "t.cfg").write_text("epochs=1\n")
        (tmp_path / "link.csv").symlink_to(tmp_path / "d.csv")
        os.link(tmp_path / "d.csv", tmp_path / "hard.csv")
        os.link(tmp_path / "m.txt", tmp_path / "hard.txt")
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)

        def digests():
            return {p: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in tmp_path.rglob("*") if p.is_file()}

        def refuse(*args, **kwargs):
            raise AssertionError(f"{argv[0]} read data before checking its outputs")

        monkeypatch.setattr(cli, "load_csv", refuse)
        monkeypatch.setattr(network, "load_model", refuse)
        before = digests()
        capsys.readouterr()
        assert run_cli(*[arg.replace("{dir}", str(tmp_path)) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert all(flag in err for flag in flags), err
        assert digests() == before

    def test_outputs_to_a_device_may_share_it(self, tmp_path):
        data = synth_file(tmp_path)
        assert run_cli("train", "--data", str(data), "--model", os.devnull,
                       "--history", os.devnull, *TRAINING_ARGV) == 0

    def test_out_of_memory_is_one_error_line(self, tmp_path, monkeypatch):
        message = ("Unable to allocate 7.28 TiB for an array with shape "
                   "(1000000000000, 1) and data type float64")

        def exhausted(**kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "synth_domains", exhausted)
        out = tmp_path / "x.csv"
        code, err, _ = run_cli_captured(["synth", "--n-source", "1000000000000",
                                         "--out", str(out)])
        assert code == 1 and err == f"error: out of memory: {message}\n"
        assert not out.exists()

    def test_import_leaves_scipy_special_unloaded(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(iadt.__file__)))
        probe = "import sys, iadt.cli; sys.exit('scipy.special' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env=env)
        assert result.returncode == 0, result.stderr or "scipy.special was imported"

    def test_linear_tca_leaves_scipy_linalg_unloaded(self, tmp_path):
        data = synth_file(tmp_path)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(iadt.__file__)))
        probe = ("import sys, iadt.cli; "
                 "code = iadt.cli.main(['baseline', '--data', sys.argv[1], '--method', 'tca', "
                 "'--dim', '2']); "
                 "sys.exit(code or 3 * ('scipy.linalg' in sys.modules))")
        result = subprocess.run([sys.executable, "-c", probe, str(data)], capture_output=True,
                                text=True, env=env)
        assert result.returncode == 0, result.stderr or "scipy.linalg was imported"

    def test_console_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "iadt", "synth", "--n-source", "8",
             "--n-target", "4", "--dim", "3", "--out", str(tmp_path / "d.csv")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "d.csv").exists()


# Edge values for every numeric flag of `synth` and `baseline`. Sizes and
# widths stay small: a huge row count or latent width would really be
# allocated, so only values that are rejected or cheap are drawn.
EDGE_REALS = ("-1", "0", "0.5", "nan", "inf", "-inf", "1e308", "-1e308")
SEEDS = ("-1", "0", "4294967295", "18446744073709551616")
SYNTH_FLAGS = {
    "--n-source": ("-1", "0", "3", "4", "6"),
    "--n-target": ("-1", "0", "3", "4", "6"),
    "--dim": ("-1", "0", "1", "2", "5"),
    "--class-sep": EDGE_REALS,
    "--noise-sd": EDGE_REALS,
    "--rotation": EDGE_REALS,
    "--shift": EDGE_REALS + ("", "1,nan", "1,x", "1,2,3,4,5,6", "1e308,1e308,1e308"),
    "--seed": SEEDS,
}
BASELINE_FLAGS = {
    "--dim": ("-1", "0", "1", "2", "1000000000"),
    "--mu": EDGE_REALS,
    "--reg": EDGE_REALS,
    "--finetune-fraction": EDGE_REALS + ("1e-308", "0.999"),
    "--threshold": EDGE_REALS,
    "--lambda1": EDGE_REALS,
    "--lambda2": EDGE_REALS,
    "--lr": EDGE_REALS,
    "--gamma": EDGE_REALS,
    "--kernel": ("linear", "rbf"),
    "--epochs": ("-1", "0", "1", "2"),
    "--batch-size": ("-1", "0", "1", "1000000000"),
    "--latent-dim": ("-1", "0", "1", "3"),
    "--seed": SEEDS,
}


@st.composite
def flag_values(draw, flags):
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True))
    return [tok for flag in chosen for tok in (flag, draw(st.sampled_from(flags[flag])))]


def run_cli_captured(argv):
    """Run the CLI; return its code, stderr and the RuntimeWarnings it raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run_cli(*argv)
    return code, err.getvalue(), [w for w in caught if issubclass(w.category, RuntimeWarning)]


def assert_clean_exit(code, err, runtime_warnings):
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not runtime_warnings, [str(w.message) for w in runtime_warnings]
    assert code == 0 or err


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    return synth_file(tmp_path_factory.mktemp("tiny"), n_source=20, n_target=12)


@settings(max_examples=60, deadline=None)
@given(flags=flag_values(SYNTH_FLAGS))
@example(flags=["--noise-sd", "1e308"])
def test_synth_flags_property(tiny_csv, flags):
    out = tiny_csv.parent / "synth.csv"
    argv = ["synth", "--n-source", "6", "--n-target", "4", "--dim", "3", "--out", str(out)]
    assert_clean_exit(*run_cli_captured(argv + flags))


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(cli.BASELINE_METHODS + ("nope",)),
       flags=flag_values(BASELINE_FLAGS))
@example(method="coral", flags=["--reg", "1e308"])
@example(method="tca", flags=["--kernel", "rbf", "--gamma", "1e308", "--dim", "1"])
def test_baseline_flags_property(tiny_csv, method, flags):
    argv = ["baseline", "--data", str(tiny_csv), "--method", method,
            "--epochs", "2", "--batch-size", "8", "--latent-dim", "3"]
    assert_clean_exit(*run_cli_captured(argv + flags))


# Training flags for `train` and `sweep`: every numeric flag's edge values.
# Epochs stay at most 2 and latent widths small, so each example trains in
# well under a second on the tiny file.
TRAIN_FLAGS = {
    "--lambda1": EDGE_REALS,
    "--lambda2": EDGE_REALS,
    "--lr": EDGE_REALS,
    "--gamma": EDGE_REALS,
    "--kernel": ("linear", "rbf"),
    "--epochs": ("-1", "0", "1", "2"),
    "--batch-size": ("-1", "0", "1", "2", "1000000000"),
    "--latent-dim": ("-1", "0", "1", "3"),
    "--seed": SEEDS,
    "--standardize": (),
    "--no-standardize": (),
    "--config": ("good", "unknown_key", "bad_epochs", "fractional_latent", "bad_bool",
                 "nan_lr", "no_equals", "missing"),
}
CONFIG_FILES = {
    "good": "# a comment\nepochs=1\nkernel=rbf\nstandardize=off\n",
    "unknown_key": "epochs=1\nmomentum=0.9\n",
    "bad_epochs": "epochs=two\n",
    "fractional_latent": "latent_dim=2.5\n",
    "bad_bool": "standardize=maybe\n",
    "nan_lr": "lr=nan\n",
    "no_equals": "epochs 1\n",
}
SWEEP_VALUES = ("", ",", " ", ",,", "1,,2", "0.5", "0.5,0.5", "2,3", "x", "1,x", "nan",
                "inf", "-1", "0", "1e308", "2.5")


@st.composite
def train_flags(draw):
    """Flags drawn from TRAIN_FLAGS; a flag without values stands alone."""
    chosen = draw(st.lists(st.sampled_from(sorted(TRAIN_FLAGS)), max_size=4, unique=True))
    return [tok for flag in chosen
            for tok in ((flag, draw(st.sampled_from(TRAIN_FLAGS[flag])))
                        if TRAIN_FLAGS[flag] else (flag,))]


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("configs")
    for name, text in CONFIG_FILES.items():
        (folder / name).write_text(text, encoding="utf-8")
    return folder


def _with_config_paths(flags, folder):
    return [str(folder / tok) if prev == "--config" else tok
            for prev, tok in zip([None, *flags], flags)]


@settings(max_examples=60, deadline=None)
@given(flags=train_flags())
@example(flags=["--lambda1", "1e308"])
@example(flags=["--lr", "1e308", "--kernel", "rbf"])
def test_train_flags_property(tiny_csv, config_dir, flags):
    folder = tiny_csv.parent
    argv = ["train", "--data", str(tiny_csv), "--model", str(folder / "m.txt"),
            "--history", str(folder / "h.csv"), "--epochs", "1", "--batch-size", "8",
            "--latent-dim", "3"]
    assert_clean_exit(*run_cli_captured(argv + _with_config_paths(flags, config_dir)))


@settings(max_examples=60, deadline=None)
@given(grid=st.lists(st.tuples(st.sampled_from(cli.SWEEP_PARAMS + ("lr",)),
                               st.sampled_from(SWEEP_VALUES)), min_size=0, max_size=2),
       flags=train_flags())
@example(grid=[("latent_dim", "2.5")], flags=[])
@example(grid=[("lambda1", ",")], flags=[])
def test_sweep_flags_property(tiny_csv, config_dir, grid, flags):
    argv = ["sweep", "--data", str(tiny_csv), "--out", str(tiny_csv.parent / "sweep.csv"),
            "--epochs", "1", "--batch-size", "8", "--latent-dim", "3"]
    for param, values in grid:
        argv += ["--param", param, "--values", values]
    assert_clean_exit(*run_cli_captured(argv + _with_config_paths(flags, config_dir)))


SCORING_FLAGS = {
    "--threshold": EDGE_REALS,
    "--top": ("-1", "0", "1", "3", "1000000000"),
    "--domain": ("source", "target", "all", "neither"),
    "--filter": ("correct_positives", "all", "none"),
}
ACCEPTED_FLAGS = {
    "predict": ("--threshold", "--domain"),
    "evaluate": ("--threshold", "--domain"),
    "rank-rois": ("--threshold", "--top", "--domain", "--filter"),
    "export-latent": ("--domain",),
}


@pytest.fixture(scope="module")
def scoring_models(tiny_csv):
    trained = tiny_model(tiny_csv, tiny_csv.parent)
    return {"trained": trained, "overflowing": overflowing_model(trained)}


@pytest.mark.parametrize("model", ["trained", "overflowing"])
@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(SCORING_COMMANDS), data=st.data())
def test_scoring_flags_property(tiny_csv, scoring_models, model, command, data):
    flags = data.draw(flag_values({f: SCORING_FLAGS[f] for f in ACCEPTED_FLAGS[command]}))
    argv = [command, "--data", str(tiny_csv), "--model", str(scoring_models[model]),
            "--out", str(tiny_csv.parent / "scored.out")]
    assert_clean_exit(*run_cli_captured(argv + flags))


OVERFLOW_ERROR = "error: standardized features overflow float64\n"


def overflow_csv(tmp_path):
    """Six rows whose source roi_1 is constant (its sd is floored at 1e-8),
    so a target roi_1 of 1e301 has a z-score past float64's range."""
    path = tmp_path / "overflow.csv"
    path.write_text(
        "subject_id,domain,label,roi_1,roi_2\n"
        "s1,source,0,1.0,0.5\ns2,source,1,1.0,0.7\ns3,source,0,1.0,0.2\n"
        "s4,source,1,1.0,0.9\nt1,target,1,1e301,0.3\nt2,target,0,1.0,0.4\n",
        encoding="utf-8",
    )
    return path


@pytest.mark.parametrize("argv", [["train", "--epochs", "1"],
                                  ["baseline", "--method", "logistic"]])
def test_overflowing_z_scores_exit_1(tmp_path, argv):
    data = overflow_csv(tmp_path)
    if argv[0] == "train":
        argv = argv + ["--model", str(tmp_path / "m.txt"), "--history", str(tmp_path / "h.csv")]
    code, err, runtime_warnings = run_cli_captured(argv + ["--data", str(data)])
    assert_clean_exit(code, err, runtime_warnings)
    assert code == 1 and err == OVERFLOW_ERROR


def test_predict_overflowing_z_scores_exit_1(tmp_path):
    params, _ = network.load_model(step_model(tmp_path))
    model = tmp_path / "tiny-sd.txt"
    network.save_model(params, model, stats=FeatureStats(means=np.zeros(1), sds=np.full(1, 1e-8)))
    data = tmp_path / "huge.csv"
    write_csv(dataset_from_arrays(np.array([[1e301], [1.0]]), feature_names=["roi_1"]), data)
    out = tmp_path / "preds.csv"
    code, err, runtime_warnings = run_cli_captured(
        ["predict", "--data", str(data), "--model", str(model), "--out", str(out)]
    )
    assert_clean_exit(code, err, runtime_warnings)
    assert code == 1 and err == OVERFLOW_ERROR
    assert not out.exists()
