import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iadt
from iadt import baselines, cli, evaluation, network, training
from iadt.data import dataset_from_arrays, identity_stats, load_csv, write_csv
from iadt.errors import ModelFormatError
from iadt.network import DenseLayer, ModelParams


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
    params = ModelParams(
        attention=DenseLayer(np.zeros((1, 1)), np.zeros(1)),
        enc1=DenseLayer(np.ones((1, 1)), np.zeros(1)),
        enc2=DenseLayer(np.ones((1, 1)), np.zeros(1)),
        dec1=DenseLayer(np.ones((1, 1)), np.zeros(1)),
        dec2=DenseLayer(np.ones((1, 1)), np.zeros(1)),
        clf=DenseLayer(np.full((1, 1), 100.0), np.array([-50.0])),
        d=1, h=1, m=1,
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


# Corruptions of a saved d=4, h=3, m=2 model file (with stats), keyed by case.
MALFORMED_MODELS = {
    "garbage": lambda text: b"garbage\n",
    "non_integer_width": lambda text: text.replace("attention 4 4", "attention ten 4").encode(),
    "extra_layer": lambda text: (text + "layer extra 1 1 linear\n0x0p+0\nbias 0x0p+0\n").encode(),
    "bare_stats": lambda text: text.replace("stats 4", "stats").encode(),
    "non_utf8": lambda text: text.encode().replace(b"bias", b"b\xffas", 1),
    "stats_width_differs": lambda text: (
        text.split("stats")[0] + "stats 3\nmeans 0x0.0p+0 0x0.0p+0 0x0.0p+0\n"
        "sds 0x1.0p+0 0x1.0p+0 0x1.0p+0\n"
    ).encode(),
    "non_finite_stats": lambda text: text.split("sds")[0].encode() + b"sds nan nan nan nan\n",
    "wrong_activation": lambda text: text.replace("enc1 3 4 relu", "enc1 3 4 sigmoid").encode(),
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

    def test_zero_epochs_equals_seeded_init(self, tmp_path):
        data = synth_file(tmp_path)
        model = tmp_path / "model.txt"
        code = run_cli(
            "train", "--data", str(data), "--model", str(model),
            "--epochs", "0", "--seed", "3", "--latent-dim", "4",
            "--history", str(tmp_path / "h.csv"),
        )
        assert code == 0
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
                lambda params, x, f=counted, rows=rows: rows.append(len(x)) or f(params, x),
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
        xt = apply_standardizer(target, stats).x
        yt = target.labels_strict()
        oracle_model = logistic_fit(xt, yt)
        probs, _ = logistic_predict(oracle_model, xt)
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
        xs = apply_standardizer(source, stats).x
        xt = apply_standardizer(target, stats).x
        probs, _ = baselines.baseline_predict(fit(xs, xt), xs, source.labels_strict(), xt)
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
        assert "all" in capsys.readouterr().err


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
        probs, _ = predict(params, stats, target)
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

    def test_export_latent_overflow_exit_1(self, tmp_path):
        data = synth_file(tmp_path, n_source=20, n_target=10, seed=9)
        model = tmp_path / "m.txt"
        run_cli("train", "--data", str(data), "--model", str(model),
                "--history", str(tmp_path / "h.csv"),
                "--epochs", "1", "--batch-size", "8", "--latent-dim", "3")
        params, stats = network.load_model(model)
        params.enc1.w[...] *= 1e300  # finite weights whose latent codes overflow
        params.enc2.w[...] *= 1e300
        network.save_model(params, model, stats=stats)
        out = tmp_path / "latent.csv"
        code, err, runtime_warnings = run_cli_captured(
            ["export-latent", "--data", str(data), "--model", str(model), "--out", str(out)]
        )
        assert code == 1 and not runtime_warnings
        assert err.startswith("error: latent codes are not finite") and err.count("\n") == 1
        assert not out.exists()


# Flag values that used to run (or fail late, or crash) and now exit 2 up
# front, each with the flag or config key its error names.
TRAINING_ARGV = ("--epochs", "2", "--batch-size", "16", "--latent-dim", "3")
BAD_FLAGS = {
    "train_negative_seed": (("train", "--seed", "-1"), "seed"),
    "train_nan_lambda1": (("train", "--lambda1", "nan"), "lambda1"),
    "train_inf_lr": (("train", "--lr", "inf"), "lr"),
    "train_inf_gamma": (("train", "--kernel", "rbf", "--gamma", "inf"), "gamma"),
    "sweep_negative_seed": (("sweep", "--param", "lambda1", "--values", "0.1", "--seed", "-1"),
                            "seed"),
    "sweep_latent_dim_0": (("sweep", "--param", "latent_dim", "--values", "4,0"), "latent_dim"),
    "sweep_nan_lambda2": (("sweep", "--param", "lambda2", "--values", "nan"), "lambda2"),
    "tl_negative_seed": (("baseline", "--method", "tl", "--seed", "-1"), "seed"),
    "sa_dim_0": (("baseline", "--method", "sa", "--dim", "0"), "--dim"),
    "gfk_dim_0": (("baseline", "--method", "gfk", "--dim", "0"), "--dim"),
    "tca_dim_negative": (("baseline", "--method", "tca", "--dim", "-2"), "--dim"),
    "baseline_nan_threshold": (("baseline", "--method", "logistic", "--threshold", "nan"),
                               "--threshold"),
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


class TestExitCodesAndHelp:
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
        with pytest.raises(ModelFormatError):
            network.load_model(bad)
        data = synth_file(tmp_path)
        out = tmp_path / "preds.csv"
        assert run_cli("predict", "--data", str(data), "--model", str(bad), "--out", str(out)) == 1

    def test_unknown_flag_exit_2(self, tmp_path):
        assert run_cli("train", "--frobnicate") == 2

    def test_help_exit_0(self):
        assert run_cli("--help") == 0
        for command in ("synth", "train", "predict", "evaluate", "baseline",
                        "rank-rois", "sweep", "export-latent"):
            assert run_cli(command, "--help") == 0

    def test_help_lists_published_defaults(self, capsys):
        run_cli("train", "--help")
        text = capsys.readouterr().out
        assert "0.001" in text and "60" in text and "128" in text and "0.1" in text

    def test_import_leaves_scipy_special_unloaded(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(iadt.__file__)))
        probe = "import sys, iadt.cli; sys.exit('scipy.special' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env=env)
        assert result.returncode == 0, result.stderr or "scipy.special was imported"

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
def test_baseline_flags_property(tiny_csv, method, flags):
    argv = ["baseline", "--data", str(tiny_csv), "--method", method,
            "--epochs", "2", "--batch-size", "8", "--latent-dim", "3"]
    assert_clean_exit(*run_cli_captured(argv + flags))
