"""The `iadt` argument parser: its help, usage and error bytes, and the
one parser that a process builds and reuses."""

import argparse
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iadt import cli, network
from iadt.data import dataset_from_arrays, identity_stats, write_csv

# Exit code, stdout and stderr of `cli.main(argv)` at COLUMNS 60 and 200,
# recorded under Python 3.11 from the parser that built every command's
# flags up front. argparse's wording differs between Python versions.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_help_golden.json").read_text())


def _commands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


@pytest.mark.parametrize("case", GOLDEN,
                         ids=[f"{' '.join(c['argv']) or '<none>'}@{c['columns']}" for c in GOLDEN])
def test_help_usage_and_errors_match_golden_bytes(case, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", str(case["columns"]))
    code = cli.main(list(case["argv"]))
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def test_golden_holds_every_command_help_at_both_widths():
    # a command added to the parser needs its --help bytes recorded too
    widths = {case["columns"] for case in GOLDEN}
    helps = {(case["argv"][0], case["columns"]) for case in GOLDEN
             if case["argv"][1:] == ["--help"]}
    commands = _commands(cli.build_parser()).choices
    assert len(widths) == 2 and commands
    assert helps == {(name, width) for name in commands for width in widths}


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    data = tmp_path / "d.csv"
    x = np.array([[0.0], [1.0], [0.0], [1.0]])
    write_csv(dataset_from_arrays(x, np.array([0, 1, 0, 1]), domain="target",
                                  feature_names=["roi_1"]), data)
    model = tmp_path / "m.txt"
    network.save_model(network.init_params(1, 1, 1, seed=0), model, stats=identity_stats(1))
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    cli.build_parser.cache_clear()
    scoring = ["--data", str(data), "--model", str(model)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["evaluate", *scoring]) == 0
        assert ("--data",) in added
        added.clear()
        assert cli.main(["predict", *scoring, "--out", str(tmp_path / "p.csv")]) == 0
    assert added == []


def test_main_calls_the_handler_bound_when_it_runs(monkeypatch):
    # the cached parser holds command names, not handlers, so a handler
    # rebound after the parser is built is the one that runs
    cli.build_parser()
    called = []
    monkeypatch.setattr(cli, "cmd_export_latent", lambda args: called.append(args.command) or 7)
    assert cli.main(["export-latent", "--data", "d", "--model", "m", "--out", "o"]) == 7
    assert called == ["export-latent"]


# command -> its flags as (option, takes a value, choices, required, type)
FLAGS = {name: [(option, action.nargs != 0, action.choices, action.required, action.type)
                for action in sub._actions for option in action.option_strings
                if option not in ("-h", "--help")]
         for name, sub in _commands(cli.build_parser.__wrapped__()).choices.items()}
EVERY_FLAG = [flag for flags in FLAGS.values() for flag in flags]

junk = st.text(alphabet="-=.,0123456789abeinx ", max_size=8)
numbers = st.one_of(st.integers(-3, 500).map(str), st.floats().map(repr))


@st.composite
def flag_tokens(draw, flag):
    """The tokens of one flag: the option, then a value that is often valid."""
    option, takes_value, choices, _, kind = flag
    if not takes_value:
        return [option]
    fitting = (st.sampled_from([str(c) for c in choices]) if choices
               else numbers if kind in (int, float) else junk)
    token = draw(st.one_of(fitting, fitting, numbers, junk))
    return [f"{option}={token}"] if draw(st.booleans()) else [option, token]


@st.composite
def argvs(draw):
    """A command name (or none, or junk), then a shuffle of flags with
    values, junk, `--`, `-h` and command names. Drawn flags are mostly the
    command's own, and its required flags are often all there, so that
    some argvs parse."""
    head = draw(st.one_of(st.sampled_from(sorted(FLAGS)).map(lambda c: [c]),
                          st.lists(junk, max_size=1)))
    own = FLAGS.get(head[0] if head else None) or EVERY_FLAG
    items = [draw(flag_tokens(flag)) for flag in own if flag[3] and draw(st.integers(0, 4))]
    items += draw(st.lists(st.one_of(
        st.sampled_from(own).flatmap(flag_tokens), st.sampled_from(own).flatmap(flag_tokens),
        st.sampled_from(EVERY_FLAG).flatmap(flag_tokens), junk.map(lambda t: [t]),
        st.sampled_from([["--"], ["-h"], ["--help"]]),
        st.sampled_from(sorted(FLAGS)).map(lambda c: [c])), max_size=5))
    return head + [tok for item in draw(st.permutations(items)) for tok in item]


def parse(parser, argv, columns):
    """(exit code or None, stdout, stderr, parsed values) at terminal width
    `columns`."""
    out, err = io.StringIO(), io.StringIO()
    code, values = None, None
    with (pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        patch.setenv("COLUMNS", str(columns))
        try:
            values = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    if values is not None:
        values = repr(sorted(values.items()))  # repr, so a nan equals a nan
    return code, out.getvalue(), err.getvalue(), values


@settings(max_examples=150, deadline=None)
@given(calls=st.lists(st.tuples(argvs(), st.sampled_from([60, 200])), min_size=1, max_size=4))
@example(calls=[(["--"], 60)])
@example(calls=[(["evaluate", "--data", "d", "--model", "m", "--", "x"], 200)])
@example(calls=[(["evaluate", "--data", "d", "--model", "m", "--domain", "target"], 60),
                (["evaluate", "--data", "d", "--model", "m"], 200)])
@example(calls=[(["sweep", "--data", "d", "--param", "lambda1", "--values", "0.1", "--out", "o"],
                 200),
                (["sweep", "--data", "d", "--out", "o"], 200)])
@example(calls=[(["train", "--data", "d", "--model", "m", "--no-standardize", "--epochs=3"], 200),
                (["train", "--help"], 60), (["train", "--data", "d", "--model", "m"], 200)])
def test_cached_parser_parses_each_call_as_a_fresh_one(calls):
    # the parser `main` keeps for the process carries nothing from one call to the next
    for argv, columns in calls:
        assert (parse(cli.build_parser(), argv, columns)
                == parse(cli.build_parser.__wrapped__(), argv, columns))
