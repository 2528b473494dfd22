"""Span tracing of the iadt layers from outside the package.

`Tracer.install` replaces every public function of the layer modules with
a wrapper at each place it is bound, not only in its home module: `cli`
imports `load_csv`, `write_csv` and `by_domain` by name, `training`
imports `apply_standardizer` and `duplicate_to_balance`, and `baselines`
imports the `linalg` routines. `uninstall` puts the originals back, so a
run can alternate traced and untraced iterations in one process.

A span is the list [name, start, end, parent, iteration, rows, error,
peak_mb]: `parent` indexes the enclosing span or is -1, `rows` is the row
count the call handled (for the functions in ROW_COUNTERS, else None),
`error` is true when the call raised and `peak_mb` is the peak traced
allocation inside the call (for PEAK_MEMORY, else None). Spans stay in
memory until the run ends.

This module imports nothing from numpy, so the parent process can derive
the per-layer metrics from a span file.
"""

import functools
import gzip
import json
import sys
import time
import tracemalloc

LAYERS = ("cli", "data", "network", "losses", "training", "baselines", "linalg", "evaluation")

NAME, START, END, PARENT, ITERATION, ROWS, ERROR, PEAK_MB = range(8)

# How many rows a call handles, read from its arguments or result.
ROW_COUNTERS = {
    "data.load_csv": lambda args, kwargs, result: len(result),
    "data.apply_standardizer": lambda args, kwargs, result: len(args[0]),
    "training.predict": lambda args, kwargs, result: len(args[2]),
    "network.attention_forward": lambda args, kwargs, result: int(args[1].shape[0]),
}

# Calls whose peak traced allocation is recorded, in MiB.
PEAK_MEMORY = ("evaluation.auc",)


def layer_functions(modules):
    """Map `<layer>.<function>` to each public function a layer module defines."""
    found = {}
    for layer in LAYERS:
        module = modules[f"iadt.{layer}"]
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and callable(value)
                and getattr(value, "__module__", None) == module.__name__
                and not isinstance(value, type)
            ):
                found[f"{layer}.{attr}"] = value
    return found


class Tracer:
    """Records spans for wrapped iadt functions and benchmark-level steps."""

    def __init__(self):
        self.spans = []
        self.iteration = -1
        self._stack = []
        self._patches = []

    def open_span(self, name):
        """Start a span under the innermost open one; returns its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.iteration, None, False, None]
        )
        self._stack.append(index)
        return index

    def close_span(self, index, rows=None, error=False):
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[ROWS] = rows
        span[ERROR] = error
        self._stack.pop()

    def _wrap(self, name, fn):
        count_rows = ROW_COUNTERS.get(name)
        track_memory = name in PEAK_MEMORY
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open_span(name)
            if track_memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close_span(index, error=True)
                raise
            finally:
                if track_memory:
                    tracer.spans[index][PEAK_MB] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            rows = count_rows(args, kwargs, result) if count_rows else None
            tracer.close_span(index, rows=rows)
            return result

        return wrapper

    def install(self):
        """Wrap every public layer function wherever an iadt module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = layer_functions(sys.modules)
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "iadt" and not mod_name.startswith("iadt."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def write(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    result = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def roots(spans):
    """Index of the outermost ancestor of each span."""
    result = []
    for i, span in enumerate(spans):
        parent = span[PARENT]
        result.append(i if parent < 0 else result[parent])
    return result


def aggregate(spans, iterations):
    """Per-iteration totals for every span name over the given iterations.

    Returns {name: {"s", "self_s", "calls", "rows", "errors", "peak_mb"}};
    `peak_mb` is the largest peak of any one call, the rest are sums
    divided by the number of iterations. Inclusive time counts a span only
    when no ancestor has the same name, so a recursive call is not counted
    twice.
    """
    wanted = set(iterations)
    n = max(len(wanted), 1)
    own = self_times(spans)
    totals = {}
    for i, span in enumerate(spans):
        if span[ITERATION] not in wanted:
            continue
        stats = totals.setdefault(
            span[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0, "rows": 0, "errors": 0}
        )
        if not _has_same_name_ancestor(spans, i):
            stats["s"] += span[END] - span[START]
        stats["self_s"] += own[i]
        stats["calls"] += 1
        stats["rows"] += span[ROWS] or 0
        stats["errors"] += int(bool(span[ERROR]))
    result = {name: {k: v / n for k, v in stats.items()} for name, stats in totals.items()}
    for span in spans:
        if span[ITERATION] in wanted and span[PEAK_MB] is not None:
            stats = result[span[NAME]]
            stats["peak_mb"] = max(stats.get("peak_mb", 0.0), span[PEAK_MB])
    return result


def rows_under(spans, name, root_names, iterations):
    """Rows handled by `name` calls that run inside one of the root spans."""
    wanted = set(iterations)
    top = roots(spans)
    return sum(
        span[ROWS] or 0
        for i, span in enumerate(spans)
        if span[NAME] == name and span[ITERATION] in wanted and spans[top[i]][NAME] in root_names
    )


def _has_same_name_ancestor(spans, index):
    name = spans[index][NAME]
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
