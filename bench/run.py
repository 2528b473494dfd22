"""End-to-end and per-layer benchmark of the iadt CLI pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper_sweep --seed 0 --seconds 20 --trace 0

Set-up runs SETUP_REPEATS times, each in a fresh process that imports iadt,
writes the workload's CSVs with `iadt synth` and runs its set-up commands;
the copies must be byte-identical. A fresh measuring process then runs the
workload's iteration back to back for `--seconds`. `--trace 0` prints the
end-to-end metrics; `--trace 1` wraps the iadt layers and prints the
per-layer metrics. The last line of standard output is the result JSON.
Scratch files go to .bench_work/ (removed at exit); the full result, the
machine block and any span files go to .bench_out/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import aggregate, read_spans, rows_under  # noqa: E402
from workloads import SCORING, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
# Timed metrics are reported as if the speed probe (worker.probe) took this
# long; the raw figures are kept in the full result.
REFERENCE_PROBE_S = 0.001
# Set for every child process. One BLAS thread, so the load comes from one
# single-threaded process. Each of the three settings, left free, moved the
# peak RSS of cohort_score by about 20 MB from run to run: BLAS threads,
# the hash seed, and glibc's sliding mmap threshold (fixed here at its
# 128 KiB default, so large freed arrays go back to the system).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": "131072",
}
DEADLINE_S = 170.0

# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("train_steps_per_s", "1/s", "higher"),
    ("rows_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("target_bac", "ratio", "higher"),
    ("ok_ratio", "ratio", "higher"),
)

PER_LAYER = (
    "network.forward.self_s",
    "network.backward.self_s",
    "training.adam_step.s",
    "training.adam_step.calls",
    "training.train.self_s",
    "data.duplicate_to_balance.s",
    "data.duplicate_to_balance.calls",
    "losses.mmd_sq_grad.s",
    "losses.mmd_sq.s",
    "data.load_csv.s",
    "data.load_csv.rows",
    "data.apply_standardizer.s",
    "data.apply_standardizer.rows_per_input_row",
    "data.by_domain.s",
    "training.predict.s",
    "training.predict.rows",
    "network.attention_forward.rows_per_input_row",
    "training.export_latent.s",
    "network.load_model.s",
    "network.save_model.s",
    "evaluation.auc.s",
    "evaluation.auc.peak_mb",
    "evaluation.rank_rois.s",
    "baselines.tca_fit.s",
    "baselines.gfk_fit.s",
    "baselines.sa_fit.s",
    "baselines.coral_fit.s",
    "baselines.logistic_fit.s",
    "baselines.baseline_predict.s",
    "linalg.eig_sym.s",
    "linalg.eig_sym.calls",
    "linalg.inv_sqrt_psd.s",
    "linalg.inv_sqrt_psd.calls",
    "linalg.pca.s",
    "linalg.pca.calls",
    "training.finetune.s",
    *(f"cli.{command}.{stat}" for command in
      ("train", "evaluate", "rank-rois", "sweep", "baseline", "predict", "export-latent")
      for stat in ("s", "errors")),
    "setup.synth.s",
    "setup.write_csv.s",
    "trace.overhead_s",
)

UNITS = {"s": "s", "self_s": "s", "overhead_s": "s", "calls": "count", "rows": "count",
         "errors": "count", "peak_mb": "MB", "rows_per_input_row": "ratio"}

# Set-up metrics come from the spans of these functions in the set-up runs.
SETUP_SPANS = {"setup.synth": "data.synth_domains", "setup.write_csv": "data.write_csv"}

WAITING = "none: each workload is one process with one client and no queue, so no layer waits"


class BenchError(Exception):
    pass


def unit_of(metric):
    return UNITS[metric.rsplit(".", 1)[1]]


def run_child(mode, spec, cwd, deadline):
    """Run worker.py in `cwd`; returns (wall seconds, its JSON result)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} process")
    env = dict(os.environ, **PINNED_ENV)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), mode, json.dumps(spec)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the {DEADLINE_S:.0f} s deadline") from None
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def machine(software):
    """Hardware, software versions, thread settings and source revision."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    block = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        **software,
    }
    block.update(git_revision())
    return block


def git_revision():
    """Commit and dirty flag, only when the checkout itself is a git repository."""
    if not (ROOT / ".git").exists():
        return {"git_commit": None, "git_dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=20).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True,
                                timeout=20).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}
    return {"git_commit": commit or None, "git_dirty": bool(status.strip())}


def outcome(measured):
    """(attempted, failed, error messages) over the measured commands."""
    results = [r for it in measured["iterations"] for r in it["commands"]] + measured["retrain"]
    return len(results), sum(bool(r["errors"]) for r in results), [
        e for r in results for e in r["errors"]
    ]


def result_line(correct, attempted, failed, metrics, units):
    """The result object printed as the last line of standard output."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }


def calibrated(seconds, probe_s):
    """Seconds scaled to a machine on which the speed probe takes REFERENCE_PROBE_S."""
    return seconds * REFERENCE_PROBE_S / probe_s


def raw(seconds, probe_s):
    return seconds


def end_to_end(workload, setups, measured, scale=calibrated):
    """End-to-end metrics; `scale(seconds, probe_s)` maps each command's time."""
    iterations = measured["iterations"]
    commands = workload.commands

    def seconds(result):
        return scale(result["seconds"], result["probe_s"])

    def ratio(weight, select):
        """Summed weight of the selected commands over the sum of their median times."""
        chosen = [i for i, c in enumerate(commands) if select(c)]
        return sum(weight(commands[i]) for i in chosen) / sum(
            statistics.median(seconds(it["commands"][i]) for it in iterations) for i in chosen
        )

    if any(c.steps for c in commands):
        steps_per_s = ratio(lambda c: c.steps, lambda c: c.steps > 0)
    else:  # the only training is the set-up's, timed again between iterations
        retrain = measured["retrain"]
        steps_per_s = sum(t["steps"] for t in retrain) / sum(seconds(t) for t in retrain)
    attempted, failed, _ = outcome(measured)
    return {
        "wall_s": statistics.median(sum(seconds(r) for r in it["commands"])
                                    for it in iterations),
        "train_steps_per_s": steps_per_s,
        "rows_per_s": ratio(lambda c: c.scored_rows, lambda c: c.name in SCORING),
        "peak_rss_mb": measured["peak_rss_mb"],
        "setup_s": statistics.median(scale(wall, s["probe_s"]) for wall, s in setups)
        + scale(measured["warmup_s"], measured["warmup_probe_s"]),
        "target_bac": iterations[0]["target_bac"] or 0.0,
        "ok_ratio": 1.0 - failed / attempted,
    }


def per_layer(workload, setup_spans, measured, spans):
    iterations = measured["iterations"]
    traced = [i for i, it in enumerate(iterations) if it["traced"]]
    stats = aggregate(spans, traced)
    scored = sum(c.scored_rows for c in workload.commands if c.name in SCORING)
    roots = {f"cli.{name}" for name in SCORING}
    values = {}
    for metric in PER_LAYER:
        name, stat = metric.rsplit(".", 1)
        if name in SETUP_SPANS:
            values[metric] = statistics.median(
                aggregate(s, [0]).get(SETUP_SPANS[name], {}).get(stat, 0.0) for s in setup_spans
            )
        elif stat == "rows_per_input_row":
            values[metric] = rows_under(spans, name, roots, traced) / (scored * len(traced))
        elif metric == "trace.overhead_s":
            values[metric] = (
                statistics.median(it["wall_s"] for it in iterations if it["traced"])
                - statistics.median(it["wall_s"] for it in iterations if not it["traced"])
            )
        else:
            values[metric] = stats.get(name, {}).get(stat, 0.0)
    return values


def run(args):
    workload = WORKLOADS[args.workload]
    if not (ROOT / "src" / "iadt" / "cli.py").is_file():
        raise BenchError(f"no iadt sources under {ROOT / 'src'}; run from a checkout of the repo")
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    spec = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    setup_spans = [out / f"spans-{tag}-setup{k}.jsonl.gz" for k in range(SETUP_REPEATS)]
    measure_spans = out / f"spans-{tag}-measure.jsonl.gz"
    try:
        setups = []
        for k, spans_path in enumerate(setup_spans):
            cwd = work / f"setup{k}"
            cwd.mkdir(parents=True)
            setups.append(run_child("setup", dict(spec, spans=str(spans_path)), cwd, deadline))
        for _, result in setups:
            if result["errors"]:
                raise BenchError("set-up failed: " + "; ".join(result["errors"]))
        identical = all(r["hashes"] == setups[0][1]["hashes"] for _, r in setups)
        for k in range(1, SETUP_REPEATS):  # drop the copies before measuring
            shutil.rmtree(work / f"setup{k}")
        measure_spec = dict(spec, seconds=args.seconds, spans=str(measure_spans))
        _, measured = run_child("measure", measure_spec, work / "setup0", deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(workload, [read_spans(p) for p in setup_spans], measured,
                            read_spans(measure_spans))
        units = {name: unit_of(name) for name in PER_LAYER}
        raw_metrics = {}
    else:
        metrics = end_to_end(workload, setups, measured)
        raw_metrics = end_to_end(workload, setups, measured, scale=raw)
        units = {name: unit for name, unit, _ in END_TO_END}

    attempted, failed, errors = outcome(measured)
    if not identical:
        errors.append("set-up repeats wrote different files from the same seed")
    line = result_line(failed == 0 and identical, attempted, failed, metrics, units)
    block = machine(measured["software"])
    full = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": len(measured["iterations"]),
        "setup_walls_s": [wall for wall, _ in setups],
        "retrain": measured["retrain"],
        "waiting": WAITING,
        "machine": block,
        "errors": errors,
        **line,
        "raw_metrics": raw_metrics,
        "per_iteration": measured["iterations"],
    }
    with open(out / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)

    for name, value in metrics.items():
        shown = f" (raw {raw_metrics[name]:.6g})" if name in raw_metrics else ""
        print(f"{name:48s} {value:14.6g} {units[name]}{shown}")
    print(f"iterations {len(measured['iterations'])}; waiting: {WAITING}")
    print("machine " + json.dumps(block, sort_keys=True))
    for error in errors[:20]:
        print(f"check failed: {error}")
    print(json.dumps(line))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="data seed; the program sees it only through the generated CSVs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the measuring loop runs (at least one iteration)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from traced iterations")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
