"""Tests of the benchmark harness itself: span arithmetic, names, result shape."""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, batches  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(name, start, end, parent=-1, iteration=0, rows=None, error=False, peak=None):
    return [name, start, end, parent, iteration, rows, error, peak]


def test_self_time_subtracts_child_coverage():
    trace = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 4.0, 8.0, parent=0),
        span("b.inner", 5.0, 6.0, parent=2),
    ]
    assert spans.self_times(trace) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    trace = [
        span("root", 0.0, 10.0),
        span("a", 2.0, 6.0, parent=0),
        span("b", 4.0, 7.0, parent=0),
        span("c", 9.0, 12.0, parent=0),  # clipped at the parent's end
    ]
    assert spans.self_times(trace)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_aggregate_per_iteration_and_recursion():
    trace = [
        span("cli.train", 0.0, 4.0, iteration=1),
        span("f", 0.0, 3.0, parent=0, iteration=1, rows=10),
        span("f", 1.0, 2.0, parent=1, iteration=1, rows=5, error=True),
        span("cli.train", 10.0, 12.0, iteration=3),
        span("f", 10.0, 11.0, parent=3, iteration=3, rows=10, peak=2.5),
        span("cli.train", 20.0, 30.0, iteration=0),  # not a traced iteration
    ]
    stats = spans.aggregate(trace, [1, 3])
    # the nested f is inside an f, so its time is not counted twice
    assert stats["f"]["s"] == pytest.approx((3.0 + 1.0) / 2)
    assert stats["f"]["self_s"] == pytest.approx((2.0 + 1.0 + 1.0) / 2)
    assert stats["f"]["calls"] == pytest.approx(1.5)
    assert stats["f"]["rows"] == pytest.approx(12.5)
    assert stats["f"]["errors"] == pytest.approx(0.5)
    assert stats["f"]["peak_mb"] == 2.5
    assert stats["cli.train"]["s"] == pytest.approx(3.0)
    assert stats["cli.train"]["self_s"] == pytest.approx((1.0 + 1.0) / 2)


def test_rows_under_counts_only_inside_named_roots():
    trace = [
        span("cli.evaluate", 0.0, 1.0),
        span("g", 0.1, 0.2, parent=0, rows=7),
        span("cli.train", 2.0, 3.0),
        span("g", 2.1, 2.2, parent=2, rows=100),
    ]
    assert spans.roots(trace) == [0, 0, 2, 2]
    assert spans.rows_under(trace, "g", {"cli.evaluate"}, [0]) == 7


def test_tracer_wraps_every_binding_site_and_restores_them():
    import iadt.baselines
    import iadt.cli
    import iadt.data
    import iadt.linalg
    import iadt.training

    original = iadt.data.apply_standardizer
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert iadt.training.apply_standardizer is iadt.data.apply_standardizer
        assert iadt.data.apply_standardizer is not original
        assert iadt.cli.load_csv is iadt.data.load_csv
        assert iadt.baselines.eig_sym is iadt.linalg.eig_sym
        source, _ = iadt.data.synth_domains(8, 8, [0.0], 0.0, 4.0, 0.7, 3, seed=0)
        stats = iadt.data.fit_standardizer(source)
        iadt.training.apply_standardizer(source, stats)
    finally:
        tracer.uninstall()
    assert iadt.data.apply_standardizer is original
    assert iadt.training.apply_standardizer is original
    names = [s[spans.NAME] for s in tracer.spans]
    assert "data.synth_domains" in names
    assert "data.dataset_from_arrays" in names
    standardize = next(s for s in tracer.spans if s[spans.NAME] == "data.apply_standardizer")
    assert standardize[spans.ROWS] == 8


def test_metric_names_and_units_use_the_allowed_characters():
    names = [name for name, _, _ in run.END_TO_END] + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names), names
    units = [unit for _, unit, _ in run.END_TO_END] + [run.unit_of(n) for n in run.PER_LAYER]
    assert all(UNIT_RE.match(unit) for unit in units)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_result_line_shape():
    metrics = {"wall_s": 1.5, "ok_ratio": 1}
    line = run.result_line(True, 4, 0, metrics, {"wall_s": "s", "ok_ratio": "ratio"})
    assert json.loads(json.dumps(line)) == {
        "correct": True,
        "attempted": 4,
        "failed": 0,
        "metrics": {"wall_s": {"value": 1.5, "unit": "s"},
                    "ok_ratio": {"value": 1.0, "unit": "ratio"}},
    }


def test_end_to_end_metrics_from_iterations():
    workload = WORKLOADS["paper_sweep"]
    ref = run.REFERENCE_PROBE_S
    commands = [{"seconds": 1.0, "errors": [], "probe_s": ref} for _ in workload.commands]
    failing = [dict(c) for c in commands]
    failing[2] = {"seconds": 1.5, "errors": ["rank-rois: exit code 1"], "probe_s": ref}
    measured = {
        "iterations": [
            {"wall_s": 4.0, "target_bac": 0.6, "commands": commands},
            {"wall_s": 4.5, "target_bac": 0.6, "commands": failing},
        ],
        "retrain": [],
        "peak_rss_mb": 60.0,
        "warmup_s": 0.25,
        "warmup_probe_s": ref,
    }
    setups = [(0.5, {"probe_s": ref}), (0.7, {"probe_s": ref}), (0.6, {"probe_s": ref})]
    metrics = run.end_to_end(workload, setups, measured)
    assert set(metrics) == {name for name, _, _ in run.END_TO_END}
    assert metrics["wall_s"] == pytest.approx(4.25)
    assert metrics["setup_s"] == pytest.approx(0.6 + 0.25)
    assert metrics["train_steps_per_s"] == pytest.approx((180 + 720) / 2.0)
    # rank-rois took 1.0 and 1.5 s: its median, 1.25 s, counts
    assert metrics["rows_per_s"] == pytest.approx((76 + 76) / 2.25)
    assert metrics["ok_ratio"] == 1.0 - 1 / 8
    assert metrics["peak_rss_mb"] == 60.0


def test_each_command_is_scaled_by_the_probes_beside_it():
    workload = WORKLOADS["cohort_score"]
    ref = run.REFERENCE_PROBE_S
    # the machine ran at half speed during the second command of each iteration
    commands = [{"seconds": s, "errors": [], "probe_s": p}
                for s, p in ((2.0, ref), (4.0, 2 * ref), (2.0, ref))]
    slow = [dict(c, seconds=2 * c["seconds"], probe_s=2 * c["probe_s"]) for c in commands]
    measured = {
        "iterations": [
            {"wall_s": 8.0, "target_bac": 0.55, "commands": commands},
            {"wall_s": 16.0, "target_bac": 0.55, "commands": slow},
        ],
        # the set-up's training, timed again after the loop
        "retrain": [{"steps": 180, "seconds": s, "errors": [], "probe_s": p}
                    for s, p in ((0.6, ref), (1.2, 2 * ref), (0.6, ref))],
        "peak_rss_mb": 200.0,
        "warmup_s": 1.0,
        "warmup_probe_s": 2 * ref,
    }
    setups = [(4.0, {"probe_s": ref})] * 3
    metrics = run.end_to_end(workload, setups, measured)
    assert metrics["wall_s"] == pytest.approx(6.0)
    assert metrics["rows_per_s"] == pytest.approx(50_000 / 6.0)
    assert metrics["setup_s"] == pytest.approx(4.0 + 0.5)
    assert metrics["train_steps_per_s"] == pytest.approx(300.0)
    assert metrics["ok_ratio"] == 1.0
    raw = run.end_to_end(workload, setups, measured, scale=run.raw)
    assert raw["wall_s"] == pytest.approx(12.0)
    assert raw["setup_s"] == pytest.approx(5.0)


def test_step_counts_come_from_config_and_sizes():
    assert batches(360, 128) == 3
    assert batches(257, 128) == 2  # a 1-row remainder is dropped
    assert batches(20, 400) == 1
    paper = {c.name: c.steps for c in WORKLOADS["paper_sweep"].commands}
    assert paper["train"] == 180 and paper["sweep"] == 720
    full = [c.steps for c in WORKLOADS["fullbatch_adapt"].commands if c.steps]
    assert full == [300, 60, 600]
    assert [c.steps for c in WORKLOADS["cohort_score"].setup] == [180]
