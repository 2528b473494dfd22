"""Child process of the benchmark: the set-up or the measured loop of a workload.

Usage: python3 bench/worker.py (setup|measure) '<json spec>'

Runs in the directory it works on and prints one JSON object as the last
line of its standard output. Every command is an in-process
`iadt.cli.main(argv)` call with its output captured. Output checks run
after the command, outside the timed region.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from iadt import cli  # noqa: E402
from iadt.network import load_model  # noqa: E402  (bound before tracing wraps it)

from spans import ERROR, NAME, ROWS, Tracer, roots  # noqa: E402
from workloads import WORKLOADS, Command, data_seed  # noqa: E402

REPORT_METRICS = ("acc", "bac", "auc", "sen", "spe")


class CheckFailed(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(rows, f"{path}: empty")
    return rows[0], rows[1:]


def _unit_interval(value, what):
    _require(value is not None and 0.0 <= float(value) <= 1.0, f"{what}={value!r} not in [0, 1]")


class Inputs:
    """(subject_id, domain) of each input row, read once per data file."""

    def __init__(self):
        self._rows = {}

    def ids(self, path, domain):
        if path not in self._rows:
            _, rows = _read_csv(path)
            self._rows[path] = [(row[0], row[1]) for row in rows]
        rows = self._rows[path]
        return rows if domain == "all" else [r for r in rows if r[1] == domain]


def check_model(path, inputs, d, m):
    params, stats = load_model(path)
    _require((params.d, params.m) == (d, m), f"{path}: dims {params.d}/{params.m}, want {d}/{m}")
    _require(stats is not None and stats.means.shape == (d,), f"{path}: no standardizer stats")


def check_history(path, inputs, epochs):
    header, rows = _read_csv(path)
    _require(header == ["epoch", "mmd", "cls", "recon", "total"], f"{path}: header {header}")
    _require(len(rows) == epochs, f"{path}: {len(rows)} epochs, want {epochs}")
    for i, row in enumerate(rows, start=1):
        _require(int(row[0]) == i, f"{path}: epoch column out of order at {i}")
        _require(all(math.isfinite(float(v)) for v in row[1:]), f"{path}: non-finite loss")


def check_report(path, inputs, rows):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    for name in REPORT_METRICS:
        _unit_interval(report[name], f"{path}: {name}")
    counts = report["counts"]
    total = counts["tp"] + counts["tn"] + counts["fp"] + counts["fn"]
    _require(total == rows, f"{path}: confusion counts {total} rows, want {rows}")


def check_ranking(path, inputs, dim):
    with open(path, encoding="utf-8") as fh:
        ranking = json.load(fh)
    entries = ranking["entries"]
    _require(sorted(e["roi_index"] for e in entries) == list(range(1, dim + 1)),
             f"{path}: ranking does not cover the {dim} regions once each")
    weights = [e["mean_weight"] for e in entries]
    _require(min(weights) >= 0.0 and abs(sum(weights) - 1.0) < 1e-6,
             f"{path}: mean attention weights do not form a distribution")
    _require(weights == sorted(weights, reverse=True), f"{path}: ranking not sorted")
    _require(ranking["n_selected"] >= 1, f"{path}: no samples selected")


def check_sweep(path, inputs, values):
    header, rows = _read_csv(path)
    _require(header == ["lambda1"] + list(REPORT_METRICS), f"{path}: header {header}")
    _require([float(r[0]) for r in rows] == list(values), f"{path}: grid points differ")
    for row in rows:
        for name, value in zip(REPORT_METRICS, row[1:]):
            _unit_interval(float(value), f"{path}: {name}")


def check_predictions(path, inputs, data, domain):
    header, rows = _read_csv(path)
    _require(header == ["subject_id", "domain", "label", "prob", "pred"],
             f"{path}: header {header}")
    expected = inputs.ids(data, domain)
    _require(len(rows) == len(expected), f"{path}: {len(rows)} rows for {len(expected)} inputs")
    for row, ident in zip(rows, expected):
        _require((row[0], row[1]) == ident, f"{path}: row {row[:2]} is not input row {ident}")
        prob = float(row[3])
        _unit_interval(prob, f"{path}: prob of {row[0]}")
        _require(int(row[4]) == int(prob >= 0.5), f"{path}: pred of {row[0]} disagrees with prob")


def check_latent(path, inputs, data, domain, m):
    header, rows = _read_csv(path)
    want = ["subject_id", "domain", "label"] + [f"z_{j + 1}" for j in range(m)]
    _require(header == want, f"{path}: header has {len(header)} columns, want {len(want)}")
    expected = inputs.ids(data, domain)
    _require(len(rows) == len(expected), f"{path}: {len(rows)} rows for {len(expected)} inputs")
    for row, ident in zip(rows, expected):
        _require((row[0], row[1]) == ident, f"{path}: row {row[:2]} is not input row {ident}")
        _require(all(math.isfinite(float(v)) for v in row[3:]), f"{path}: non-finite latent")


def report_bac(path, inputs, sweep=None):
    """Target BAC from a report, averaged with the BAC column of `sweep`."""
    with open(path, encoding="utf-8") as fh:
        values = [json.load(fh)["bac"]]
    if sweep:
        header, rows = _read_csv(sweep)
        values += [float(row[header.index("bac")]) for row in rows]
    return sum(values) / len(values)


def check_bac_margin(path, inputs, adapted, margin):
    """The adapted model's BAC is at most `margin` below this baseline's."""
    with open(path, encoding="utf-8") as fh:
        baseline = json.load(fh)["bac"]
    with open(adapted, encoding="utf-8") as fh:
        bac = json.load(fh)["bac"]
    _require(bac >= baseline - margin,
             f"{adapted}: target bac {bac} is more than {margin} below {path} ({baseline})")


def predictions_bac(path, inputs):
    """BAC of the target rows of a predictions file with reference labels."""
    _, rows = _read_csv(path)
    counts = {(label, pred): 0 for label in "01" for pred in "01"}
    for row in rows:
        if row[1] == "target":
            counts[(row[2], row[4])] += 1
    sen = counts[("1", "1")] / (counts[("1", "1")] + counts[("1", "0")])
    spe = counts[("0", "0")] / (counts[("0", "0")] + counts[("0", "1")])
    return 0.5 * (sen + spe)


CHECKS = {
    "model": check_model,
    "history": check_history,
    "report": check_report,
    "ranking": check_ranking,
    "sweep": check_sweep,
    "predictions": check_predictions,
    "latent": check_latent,
    "bac_margin": check_bac_margin,
    "report_bac": report_bac,
    "predictions_bac": predictions_bac,
}


def run_check(check, inputs):
    """Run one check; returns (value, error message or None)."""
    try:
        return CHECKS[check.kind](check.path, inputs, **check.params), None
    except CheckFailed as exc:
        return None, str(exc)
    except Exception as exc:  # an unreadable output is a failed check, not a crash
        return None, f"{check.path}: {type(exc).__name__}: {exc}"


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# Speed samples: EDGE_SAMPLES between two commands, and one every TICK_S
# while a command runs.
EDGE_SAMPLES = 8
TICK_S = 0.05
_A = np.full((32, 90), 0.5)
_W = np.full((90, 90), 0.01)


def probe():
    """Seconds for a fixed mix of work like the program's, to gauge machine speed.

    Python arithmetic, small matrix products as in a training step, and a
    float-to-text-to-float round trip as in CSV IO; about 1 ms. It uses no
    iadt code, so a change to the program cannot move it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(2_000):
        total += i * i
    for _ in range(6):
        np.maximum(_A @ _W, 0.0)
    values = [i / 7.0 for i in range(400)]
    [float(tok) for tok in ",".join(map(repr, values)).split(",")]
    return time.perf_counter() - start


class Speed:
    """Speed samples (`probe` times) next to and during each command.

    The VM this was built on switched between speeds up to 1.8x apart, for
    a fraction of a second up to minutes at a time. So the worker samples
    the speed on both edges of every command and, through a SIGALRM timer,
    while it runs; the time of the samples taken during a command is taken
    off the command's. A command's time divided by the mean of its samples
    is nearly free of those switches.
    """

    def __init__(self):
        self.ticks = []
        self._busy = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if not self._busy:  # a tick that lands inside a sample is dropped
            self._busy = True
            self.ticks.append(probe())
            self._busy = False

    @staticmethod
    def edge():
        return [probe() for _ in range(EDGE_SAMPLES)]

    def run(self, cmd, tracer=None):
        """`run_command`, sampled unless traced (the samples would land in spans).

        Returns (seconds without the samples, errors, span handle, samples).
        """
        self.ticks = []
        if tracer is None:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            seconds, errors, handle = run_command(cmd, tracer)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        ticks, self.ticks = self.ticks, []
        return seconds - sum(ticks), errors, handle, ticks


def mean(values):
    return sum(values) / len(values)


def run_command(cmd, tracer=None):
    """One `cli.main` call: returns (seconds, errors, span handle or None)."""
    out, err = io.StringIO(), io.StringIO()
    handle = tracer.open_span(f"cli.{cmd.name}") if tracer else None
    errors = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd.argv))
        if code != 0:
            errors.append(f"{cmd.name}: exit code {code}: {err.getvalue().strip()}")
    except Exception:  # a traceback escaping the CLI is a failed operation
        errors.append(f"{cmd.name}: uncaught {traceback.format_exc(limit=-2)}")
    seconds = time.perf_counter() - start
    if tracer:
        tracer.close_span(handle, error=bool(errors))
    return seconds, errors, handle


def verify(cmd, errors, inputs):
    """Output checks of a command that exited cleanly."""
    if not errors:
        errors.extend(err for _, err in (run_check(c, inputs) for c in cmd.checks) if err)


def setup(spec):
    """Write the workload's data files and run its set-up commands here."""
    workload = WORKLOADS[spec["workload"]]
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.iteration = 0
        tracer.install()
    inputs = Inputs()
    speed = Speed()
    errors = []
    samples = speed.edge()
    commands = [
        Command(tuple(gen.argv(data_seed(spec["seed"], offset), name)))
        for name, gen, offset in workload.data
    ] + list(workload.setup)
    for cmd in commands:
        _, cmd_errors, _, during = speed.run(cmd, tracer)
        samples = samples + during + speed.edge()
        verify(cmd, cmd_errors, inputs)
        errors += cmd_errors
    if tracer:
        tracer.uninstall()
        tracer.write(spec["spans"])
    hashes = {p.name: sha256(p) for p in sorted(Path(".").iterdir()) if p.is_file()}
    return {"errors": errors, "hashes": hashes, "probe_s": mean(samples)}


def count_checks(workload, spans, handles, file_rows):
    """Exact counts of a traced iteration: Adam steps and rows parsed, per command."""
    top = roots(spans)
    steps = {h: 0 for h in handles}
    loaded = {h: [] for h in handles}
    for i, span in enumerate(spans):
        if top[i] not in steps:
            continue
        if span[NAME] == "training.adam_step":
            steps[top[i]] += 1
        elif span[NAME] == "data.load_csv" and not span[ERROR]:
            loaded[top[i]].append(span[ROWS])
    problems = []
    for cmd, handle in zip(workload.commands, handles):
        want_rows = file_rows[cmd.argv[cmd.argv.index("--data") + 1]]
        if steps[handle] != cmd.steps:
            problems.append(f"{cmd.name}: {steps[handle]} Adam steps, want {cmd.steps}")
        elif any(rows != want_rows for rows in loaded[handle]):
            problems.append(
                f"{cmd.name}: load_csv returned {loaded[handle]} rows, want {want_rows}"
            )
        else:
            problems.append(None)
    return problems


def measure(spec):
    """Run the workload's commands back to back until `seconds` have passed.

    With tracing on, iterations alternate untraced and traced, so the
    tracing overhead is measured in the same process.
    """
    workload = WORKLOADS[spec["workload"]]
    trace = spec["trace"]
    tracer = Tracer() if trace else None
    inputs = Inputs()
    file_rows = {name: gen.rows for name, gen, _ in workload.data}
    reference = {}
    iterations = []
    speed = Speed()
    retrained = []
    # warm-up: the first command once, untimed, so page cache, allocator and
    # BLAS threads are ready; its failures show again in the timed iterations
    before = speed.edge()
    warmup_s, _, _, during = speed.run(workload.commands[0])
    warmup_probe_s = mean(before + during + speed.edge())
    start = time.perf_counter()
    while True:
        index = len(iterations)
        traced = trace and index % 2 == 1
        if traced:
            tracer.iteration = index
            tracer.install()
        results, probes = [], []
        edge = speed.edge()
        for cmd in workload.commands:
            seconds, errors, handle, during = speed.run(cmd, tracer if traced else None)
            before, edge = edge, speed.edge()
            results.append((seconds, errors, handle))
            probes.append(mean(before + during + edge))
        wall = sum(seconds for seconds, _, _ in results)
        if index == 0:
            # peak of the fresh process over imports, warm-up and one
            # iteration, before any check or later iteration adds to the heap
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not trace:
            retrained += retrain(workload, speed, inputs)
        if traced:
            tracer.uninstall()
            problems = count_checks(workload, tracer.spans, [h for _, _, h in results], file_rows)
            for (_, errors, _), problem in zip(results, problems):
                if problem:
                    errors.append(problem)
        for cmd, (_, errors, _) in zip(workload.commands, results):
            verify(cmd, errors, inputs)
            if not errors:
                for path in cmd.outputs:
                    digest = sha256(path)
                    if reference.setdefault(path, digest) != digest:
                        errors.append(f"{path}: differs from the first iteration's output")
        bac, bac_error = run_check(workload.target_bac, inputs)
        if bac_error:
            owner = next(i for i, c in enumerate(workload.commands)
                         if workload.target_bac.path in c.outputs)
            results[owner][1].append(bac_error)
        if traced:
            for _, errors, handle in results:
                tracer.spans[handle][ERROR] = bool(errors)
        iterations.append({
            "traced": traced,
            "wall_s": wall,
            "target_bac": bac,
            "commands": [{"seconds": s, "errors": e, "probe_s": p}
                         for (s, e, _), p in zip(results, probes)],
        })
        done = time.perf_counter() - start >= spec["seconds"]
        if done and (not trace or len(iterations) >= 2):
            break
    if tracer:
        tracer.write(spec["spans"])
    return {
        "iterations": iterations,
        "retrain": retrained,
        "peak_rss_mb": peak_rss_mb,
        "warmup_s": warmup_s,
        "warmup_probe_s": warmup_probe_s,
        "software": software(),
    }


def retrain(workload, speed, inputs):
    """Time a set-up-only training again, once per iteration of the loop.

    For train_steps_per_s of a workload whose loop does not train; it is
    not part of the iteration's wall time. The commands rewrite the set-up's
    files, which must come out byte-identical.
    """
    results = []
    if any(c.steps for c in workload.commands):
        return results
    edge = speed.edge()
    for cmd in (c for c in workload.setup if c.steps):
        digests = {path: sha256(path) for path in cmd.outputs}
        seconds, errors, _, during = speed.run(cmd)
        before, edge = edge, speed.edge()
        verify(cmd, errors, inputs)
        if not errors:
            errors.extend(f"{path}: retraining changed it" for path, digest in digests.items()
                          if sha256(path) != digest)
        results.append({"steps": cmd.steps, "seconds": seconds, "errors": errors,
                        "probe_s": mean(before + during + edge)})
    return results


def software():
    """Interpreter, numpy/scipy and BLAS build of this process."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "env": {k: v for k, v in os.environ.items()
                if k.endswith("_NUM_THREADS") or k in ("PYTHONHASHSEED", "MALLOC_MMAP_THRESHOLD_")},
    }


def main(argv):
    mode, spec = argv[1], json.loads(argv[2])
    result = setup(spec) if mode == "setup" else measure(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
