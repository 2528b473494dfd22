"""The counters that a traced benchmark run reads, checked on the scoring
commands: bench/spans.Tracer wraps the iadt layers, and the rows it counts
for `data.load_csv`, `training.predict` and `network.attention_forward`,
and the `evaluation.rank_rois` spans it records, must keep meaning what the
benchmark's checks take them to mean. The tracer keeps one span stack, so
every call it wraps must also run on the thread that called into iadt."""

import contextlib
import io
import pathlib
import threading

import pytest

from iadt import cli, data, network, training
from iadt.data import identity_stats, synth_domains, write_csv
from iadt.losses import KernelSpec

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    return spans


def test_scoring_commands_count_what_the_benchmark_checks(tmp_path, spans_module):
    spans = spans_module
    # Enough target rows for two scoring blocks.
    n_source, n_target = 300, 2 * training.SCORE_BLOCK_ROWS + 100
    source, target = synth_domains(n_source, n_target, [0.5], 0.2, 3.0, 0.6, 4, seed=3)
    data = tmp_path / "data.csv"
    write_csv(source.concat(target), data)
    model = tmp_path / "model.txt"
    network.save_model(network.init_params(4, training.HIDDEN_DIM, 3, seed=3), model,
                       stats=identity_stats(4))
    common = ["--data", str(data), "--model", str(model), "--domain", "target"]
    commands = {
        "evaluate": ["evaluate", *common, "--out", str(tmp_path / "eval.json")],
        "predict": ["predict", *common, "--out", str(tmp_path / "predictions.csv")],
        "export-latent": ["export-latent", *common, "--out", str(tmp_path / "latent.csv")],
        "rank-rois": ["rank-rois", *common, "--filter", "all"],
    }
    tracer = spans.Tracer()
    tracer.iteration = 0
    tracer.install()
    handles = {}
    try:
        for name, argv in commands.items():
            handles[name] = tracer.open_span(f"cli.{name}")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            tracer.close_span(handles[name], error=code != 0)
            assert code == 0, name
    finally:
        tracer.uninstall()

    top = spans.roots(tracer.spans)
    rows = {name: {} for name in commands}
    for i, span in enumerate(tracer.spans):
        for name, handle in handles.items():
            if top[i] == handle and i != handle:
                counted = rows[name].setdefault(span[spans.NAME], [])
                counted.append((span[spans.ROWS], span[spans.ERROR]))
    for name in commands:
        assert rows[name]["data.load_csv"] == [(n_source + n_target, False)], name
        attended = rows[name]["network.attention_forward"]
        assert len(attended) == 2 and sum(r for r, _ in attended) == n_target, name
    assert rows["predict"]["training.predict"] == [(n_target, False)]
    for name in ("evaluate", "rank-rois"):
        assert any(not error for _, error in rows[name]["evaluation.rank_rois"]), name


def test_every_wrapped_call_runs_on_the_calling_thread(tmp_path, spans_module, monkeypatch):
    # A large CSV's scan runs on a helper thread. A public layer function
    # called there would open its span on the tracer's one stack, under
    # whatever the calling thread has open.
    spans = spans_module
    monkeypatch.setattr(data, "_THREAD_BYTES", 0)
    caller, scanned_on, elsewhere = threading.get_ident(), [], []
    scan = data._scan

    def recorded_scan(path):
        scanned_on.append(threading.current_thread().name)
        return scan(path)

    monkeypatch.setattr(data, "_scan", recorded_scan)

    class ThreadCheckingTracer(spans.Tracer):
        def open_span(self, name):
            if threading.get_ident() != caller:
                elsewhere.append(name)
            return super().open_span(name)

    source, target = synth_domains(120, 80, [1.0], 0.3, 4.0, 0.7, 4, seed=9)
    path = tmp_path / "data.csv"
    write_csv(source.concat(target), path)
    cfg = training.TrainConfig(latent_dim=3, epochs=2, batch_size=64, kernel=KernelSpec("rbf"))
    tracer = ThreadCheckingTracer()
    tracer.iteration = 0
    tracer.install()
    try:
        for _ in range(2):  # a cache miss, then a hit
            ds = data.load_csv(path)
        training.train(*data.by_domain(ds), cfg)
    finally:
        tracer.uninstall()
    assert elsewhere == []
    assert scanned_on.count("iadt-csv-scan") == 2  # one scan per load on the helper
    traced = {span[spans.NAME] for span in tracer.spans}
    assert {"data.load_csv", "training.train", "network.backward",
            "training.adam_step"} <= traced
