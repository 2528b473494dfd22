"""Command-line pipeline: synthesize data, train, predict, evaluate,
run baselines, rank regions, sweep hyperparameters, export latents.

Exit codes: 0 success, 1 data or model error (or out of memory), 2 usage
or configuration error. Flag precedence is built-in defaults < config file
< command line. Each TrainConfig field is one config key and one flag (its
kernel field two: `kernel` and `gamma`), and a config file sets a key once.

`main` builds the parser once per process, so every later call only parses;
it picks the command's handler by name on each call.
"""

import argparse
import functools
import inspect
import itertools
import json
import math
import os
import sys
from dataclasses import fields, replace

from . import baselines, evaluation, network, training
from .data import (_write_table, apply_standardizer, by_domain, identity_stats, load_csv,
                   split_stratified, synth_domains, write_csv)
from .errors import ConfigError, IadtError, ParameterError, ParseError
from .losses import KernelSpec
from .training import HIDDEN_DIM, TrainConfig

# Config key -> type, in TrainConfig's field order.
CONFIG_KEYS = {key: kind for f in fields(TrainConfig)
               for key, kind in ({"kernel": str, "gamma": float} if f.name == "kernel"
                                 else {f.name: f.type}).items()}

BASELINE_METHODS = ("logistic", "tca", "gfk", "sa", "coral", "tl")

SWEEP_PARAMS = ("latent_dim", "lambda1", "lambda2")

# The published recipe; the config flags' help and defaults read it from here.
DEFAULTS = TrainConfig()


def _parse_bool(token):
    lowered = token.strip().lower()
    if lowered in ("1", "true", "on", "yes"):
        return True
    if lowered in ("0", "false", "off", "no"):
        return False
    raise ConfigError(f"cannot parse boolean value {token!r}")


def parse_config_file(path):
    """Read `key=value` lines, each key at most once, into typed config overrides."""
    overrides, set_on = {}, {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is already set on "
                              f"line {set_on[key]}")
        set_on[key] = lineno
        caster = CONFIG_KEYS[key]
        try:
            overrides[key] = _parse_bool(value) if caster is bool else caster(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for {key}") from None
    return overrides


def build_config(config_path=None, flag_overrides=None):
    """Assemble a TrainConfig from defaults, a config file and CLI flags."""
    values = {}
    if config_path:
        values.update(parse_config_file(config_path))
    for key, val in (flag_overrides or {}).items():
        if val is not None:
            values[key] = val
    kernel_kind = values.pop("kernel", DEFAULTS.kernel.kind)
    gamma = values.pop("gamma", DEFAULTS.kernel.gamma)
    try:
        return TrainConfig(kernel=KernelSpec(kind=kernel_kind, gamma=gamma), **values)
    except IadtError as exc:
        raise ConfigError(str(exc)) from None


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Shows a flag's default unless it is None (not given: see its help)."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


def _add_config_flags(sub):
    # None marks a flag as not given, so a config file value can stand.
    d = DEFAULTS
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--latent-dim", dest="latent_dim", type=int,
                     help=f"latent width (default {d.latent_dim})")
    sub.add_argument("--lambda1", type=float, help=f"alignment loss weight (default {d.lambda1})")
    sub.add_argument("--lambda2", type=float,
                     help=f"classification loss weight (default {d.lambda2})")
    sub.add_argument("--lr", type=float, help=f"Adam learning rate (default {d.lr})")
    sub.add_argument("--epochs", type=int, help=f"training epochs (default {d.epochs})")
    sub.add_argument("--batch-size", dest="batch_size", type=int,
                     help=f"paired batch size (default {d.batch_size})")
    sub.add_argument("--kernel", choices=("linear", "rbf"),
                     help=f"MMD kernel (default {d.kernel.kind})")
    sub.add_argument("--gamma", type=float, help=f"rbf bandwidth (default {d.kernel.gamma})")
    sub.add_argument("--seed", type=int, help=f"random seed (default {d.seed})")
    sub.add_argument("--standardize", dest="standardize", action="store_true", default=None,
                     help="z-score features with source statistics "
                          f"(default {'on' if d.standardize else 'off'})")
    sub.add_argument("--no-standardize", dest="standardize", action="store_false", default=None,
                     help="disable feature standardization")


def _check_flag(ok, flag, value, rule):
    """Reject a flag value that would silently change what is computed."""
    if not ok:
        raise ConfigError(f"{flag} must be {rule}, got {value!r}")


def _check_outputs(args, *dests):
    """Fail before any work when an output path cannot be written: it names a
    directory, or its directory does not exist; or when it names the same
    file as an input (--data, --config, --model when it is read) or as
    another output. An existing file is known by its device and inode, so
    a symlink or a hard link to it names it too; a missing path is known by
    its path with symlinks resolved. An existing path that is no regular
    file, such as /dev/null, may be named twice. An unset path is skipped."""
    files = {}  # file identity -> "--flag path" of the first flag naming it
    for dest in [d for d in ("data", "model", "config") if d not in dests] + list(dests):
        path = getattr(args, dest, None)
        if path is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if dest in dests:
            if os.path.isdir(path):
                raise IsADirectoryError(f"{flag} {path}: is a directory")
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                raise FileNotFoundError(f"{flag} {path}: no such directory: {parent}")
        if os.path.exists(path) and not os.path.isfile(path):
            continue
        info = os.stat(path) if os.path.exists(path) else None
        key = os.path.realpath(path) if info is None else (info.st_dev, info.st_ino)
        if key in files and dest in dests:
            raise ConfigError(f"{flag} {path}: same file as {files[key]}")
        files.setdefault(key, f"{flag} {path}")


def _check_threshold(args):
    _check_flag(math.isfinite(args.threshold), "--threshold", args.threshold, "finite")


def _config_from_args(args):
    flags = {key: getattr(args, key) for key in CONFIG_KEYS}
    return build_config(args.config, flags)


def _round6(value):
    return None if value is None else round(float(value), 6)


def _ranking_entries(ranking, weight):
    """The ranking's entries as JSON objects, each weight passed through `weight`."""
    return [{"roi_index": e.roi_index, "roi_name": e.roi_name,
             "mean_weight": weight(e.mean_weight), "shifted_weight": weight(e.shifted_weight)}
            for e in ranking.entries]


def _report_payload(conf, report, ranking=None):
    payload = {name: _round6(val) for name, val in report.as_dict().items()}
    payload["counts"] = {"tp": conf.tp, "tn": conf.tn, "fp": conf.fp, "fn": conf.fn}
    if ranking is None:
        payload["roi_ranking"] = None
    else:
        payload["roi_ranking"] = _ranking_entries(ranking, _round6)
        payload["roi_ranking_filter"] = ranking.filter_used
    return payload


def _print_report(conf, report):
    print(f"{'metric':<8}value")
    for name, value in report.as_dict().items():
        shown = "undefined" if value is None else f"{value:.6f}"
        print(f"{name:<8}{shown}")
    print(f"counts  tp={conf.tp} tn={conf.tn} fp={conf.fp} fn={conf.fn}")


def _write_json(payload, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_domains(path, what):
    """The source and target rows of a CSV; `what` needs both to be non-empty."""
    source, target = by_domain(load_csv(path))
    if len(source) == 0 or len(target) == 0:
        raise ParseError(f"{path}: {what} needs both source and target rows")
    return source, target


def cmd_synth(args):
    _check_flag(math.isfinite(args.class_sep), "--class-sep", args.class_sep, "finite")
    _check_flag(math.isfinite(args.noise_sd) and args.noise_sd >= 0, "--noise-sd",
                args.noise_sd, "finite and >= 0")
    _check_flag(math.isfinite(args.rotation), "--rotation", args.rotation, "finite")
    try:
        shift = [float(tok) for tok in args.shift.split(",")] if args.shift else [0.0]
    except ValueError:
        shift = [math.nan]
    _check_flag(all(map(math.isfinite, shift)), "--shift", args.shift,
                "comma-separated finite numbers")
    _check_outputs(args, "out")
    try:
        source, target = synth_domains(
            n_source=args.n_source,
            n_target=args.n_target,
            shift=shift,
            rotation_angle=args.rotation,
            class_sep=args.class_sep,
            noise_sd=args.noise_sd,
            dim=args.dim,
            seed=args.seed,
        )
    except (IadtError, ValueError) as exc:
        # generator parameters come straight from flags, so this is usage
        raise ConfigError(str(exc)) from None
    merged = source.concat(target)
    write_csv(merged, args.out)
    print(f"wrote {len(merged)} samples ({len(source)} source, {len(target)} target) to {args.out}")
    return 0


def cmd_train(args):
    cfg = _config_from_args(args)
    _check_outputs(args, "model", "history")
    source, target = _load_domains(args.data, "training")
    params, stats, losses = training.train(source, target, cfg)
    network.save_model(params, args.model, stats=stats)
    _write_table(args.history, ["epoch", *network.LOSS_PARTS],
                 [[str(i) for i in range(1, len(losses) + 1)], losses], "\n")
    if len(losses):
        mmd, cls, recon, _ = losses[-1]
        print(f"trained {cfg.epochs} epochs; final losses "
              f"mmd={mmd:.6f} cls={cls:.6f} recon={recon:.6f}")
    print(f"model written to {args.model}; history to {args.history}")
    return 0


def _model_and_rows(args):
    """The --model parameters and stats (identity if none) and the --domain rows of --data."""
    params, stats = network.load_model(args.model)
    if stats is None:
        stats = identity_stats(params.d)
    ds = load_csv(args.data)
    if args.domain != "all":
        # only the rows asked for are copied, never both halves at once
        ds = ds.take(ds.domains == args.domain)
    return params, stats, ds


def _check_rows(args, ds, labeled):
    """Reject an empty domain, and unlabeled rows when `labeled`, before scoring."""
    if len(ds) == 0:
        raise ParseError(f"{args.data}: no samples in domain {args.domain!r}")
    if labeled:
        ds.labels_strict()


def cmd_predict(args):
    _check_threshold(args)
    _check_outputs(args, "out")
    params, stats, ds = _model_and_rows(args)
    _check_rows(args, ds, labeled=False)
    probs = training.predict(params, stats, ds)
    labels = evaluation.predicted_labels(probs, args.threshold)
    # probabilities are written as their repr, so they round-trip exactly
    _write_table(args.out, ["subject_id", "domain", "label", "prob", "pred"],
                 [ds.ids, ds.domains, ds.label_tokens(), probs[:, None], labels.astype(str)],
                 "\n")
    print(f"wrote {len(ds)} predictions to {args.out}")
    return 0


def cmd_evaluate(args):
    _check_threshold(args)
    _check_outputs(args, "out")
    params, stats, ds = _model_and_rows(args)
    _check_rows(args, ds, labeled=True)
    # One pass gives the metrics' probabilities and the ranking's weight sums.
    scores = training.score(params, stats, ds, threshold=args.threshold)
    conf, report = evaluation.evaluate_predictions(ds.labels_strict(), scores.probs,
                                                   args.threshold)
    try:
        ranking = evaluation.rank_rois(scores, ds)
    except ParameterError:
        print(f"note: no correctly identified positive samples; ranking regions over "
              f"all {len(ds)} samples instead", file=sys.stderr)
        ranking = evaluation.rank_rois(scores, ds, filter="all")
    _print_report(conf, report)
    if args.out:
        _write_json(_report_payload(conf, report, ranking), args.out)
        print(f"report written to {args.out}")
    return 0


def cmd_baseline(args):
    _check_threshold(args)
    _check_flag(args.dim is None or args.dim >= 1, "--dim", args.dim, ">= 1")
    # each flag reaches only the fits listed with it; another method would ignore it
    for flag, value, methods in (("--dim", args.dim, ("tca", "gfk", "sa")),
                                 ("--mu", args.mu, ("tca",)), ("--reg", args.reg, ("coral",))):
        _check_flag(value is None or args.method in methods, flag, value,
                    f"unset with --method {args.method}")
    _check_flag(args.mu is None or (math.isfinite(args.mu) and args.mu > 0), "--mu", args.mu,
                "finite and > 0")
    _check_flag(args.reg is None or (math.isfinite(args.reg) and args.reg >= 0), "--reg",
                args.reg, "finite and >= 0")
    _check_flag(0 < args.finetune_fraction < 1, "--finetune-fraction", args.finetune_fraction,
                "in (0, 1)")
    cfg = _config_from_args(args)
    _check_outputs(args, "out")
    source, target = _load_domains(args.data, "baseline")
    ys = source.labels_strict()
    stats = training.source_stats(source, cfg)
    y_eval = target.labels_strict()
    if args.method == "tl":
        tune, test = split_stratified(target, args.finetune_fraction, cfg.seed)
        if len(test) == 0:
            raise ParameterError(f"--finetune-fraction {args.finetune_fraction} takes all "
                                 f"{len(target)} target rows for fine-tuning, leaving none "
                                 "to evaluate")
        params = network.init_params(source.feature_count, HIDDEN_DIM, cfg.latent_dim, cfg.seed)
        params = training.finetune(params, source, cfg, stats)
        params = training.finetune(params, tune, cfg, stats)
        probs = training.predict(params, stats, test)
        y_eval = test.labels_strict()
    else:
        xs = apply_standardizer(source, stats)
        xt = apply_standardizer(target, stats)
        # Each fit adapts the rows (logistic leaves them as they are). --dim, --mu and
        # --reg reach the fit only when given; otherwise its defaults hold.
        given = {key: value for key, value in
                 (("dim", args.dim), ("mu", args.mu), ("reg", args.reg)) if value is not None}
        if args.method == "tca":
            xs, xt = baselines.tca_fit(xs, xt, kernel=cfg.kernel, **given)
        elif args.method == "gfk":
            xs, xt = baselines.gfk_fit(xs, xt, **given)
        elif args.method == "sa":
            xs, xt = baselines.sa_fit(xs, xt, **given)
        elif args.method == "coral":
            xs, xt = baselines.coral_fit(xs, xt, **given)
        probs = baselines.logistic_predict(baselines.logistic_fit(xs, ys), xt)

    conf, report = evaluation.evaluate_predictions(y_eval, probs, args.threshold)
    print(f"method: {args.method}")
    _print_report(conf, report)
    if args.out:
        _write_json(_report_payload(conf, report), args.out)
        print(f"report written to {args.out}")
    return 0


def cmd_rank_rois(args):
    _check_threshold(args)
    _check_flag(args.top >= 1, "--top", args.top, ">= 1")
    _check_outputs(args, "out")
    params, stats, ds = _model_and_rows(args)
    _check_rows(args, ds, labeled=args.filter == "correct_positives")
    scores = training.score(params, stats, ds, threshold=args.threshold)
    if args.filter == "correct_positives" and scores.positives == 0:
        raise ParameterError("no correctly identified positive samples; "
                             "rerun with --filter all")
    ranking = evaluation.rank_rois(scores, ds, filter=args.filter)
    top = ranking.top(args.top)
    width = max((len(e.roi_name) for e in top), default=10)
    print(f"{'index':<7}{'name':<{width + 2}}{'weight':<12}shifted")
    for e in top:
        print(f"{e.roi_index:<7}{e.roi_name:<{width + 2}}{e.mean_weight:<12.6f}{e.shifted_weight:.6f}")
    if args.out:
        payload = {"filter": ranking.filter_used, "n_selected": ranking.n_selected,
                   "entries": _ranking_entries(ranking, float)}
        _write_json(payload, args.out)
        print(f"ranking written to {args.out}")
    return 0


def cmd_export_latent(args):
    _check_outputs(args, "out")
    params, stats, ds = _model_and_rows(args)
    _check_rows(args, ds, labeled=False)
    training.export_latent(params, stats, ds, args.out)
    print(f"wrote {len(ds)} latent rows to {args.out}")
    return 0


def _parse_sweep_values(param, tokens):
    try:
        values = [CONFIG_KEYS[param](tok) for tok in tokens.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse values {tokens!r} for parameter {param}") from None
    if not values:
        raise ConfigError(f"--values {tokens!r} for parameter {param} holds no value")
    return values


def cmd_sweep(args):
    params_given = args.param or []
    values_given = args.values or []
    if not params_given:
        raise ConfigError("sweep needs at least one --param with matching --values")
    if len(params_given) != len(values_given):
        raise ConfigError("each --param needs a matching --values list")
    if len(params_given) > 2:
        raise ConfigError("at most two parameters may be swept jointly")
    if len(set(params_given)) < len(params_given):
        raise ConfigError(f"--param {params_given[0]} is given twice")
    value_lists = [
        _parse_sweep_values(p, toks) for p, toks in zip(params_given, values_given)
    ]

    base_cfg = _config_from_args(args)
    points = list(itertools.product(*value_lists))
    try:
        configs = [
            replace(base_cfg, seed=base_cfg.seed + index, **dict(zip(params_given, point)))
            for index, point in enumerate(points)
        ]
    except IadtError as exc:
        raise ConfigError(f"sweep: {exc}") from None

    _check_outputs(args, "out")
    source, target = _load_domains(args.data, "sweep")
    y_eval = target.labels_strict()

    rows = []
    for point, cfg in zip(points, configs):
        params, stats, _ = training.train(source, target, cfg)
        probs = training.predict(params, stats, target)
        _, report = evaluation.evaluate_predictions(y_eval, probs)
        rows.append(point + tuple(_round6(report.as_dict()[k]) for k in
                                  ("acc", "bac", "auc", "sen", "spe")))

    header = list(params_given) + ["acc", "bac", "auc", "sen", "spe"]
    _write_table(args.out, header,
                 [["" if row[j] is None else str(row[j]) for row in rows]
                  for j in range(len(header))], "\n")
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def _add_model_flags(sub, domain):
    """The flags of a command that reads a trained model and scores rows."""
    sub.add_argument("--data", required=True, help="CSV of rows to score")
    sub.add_argument("--model", required=True, help="model file written by train")
    sub.add_argument("--domain", choices=("source", "target", "all"), default=domain,
                     help="rows to score")


def _add_threshold_flag(sub):
    sub.add_argument("--threshold", type=float, default=0.5,
                     help="probability at or above which a row is predicted positive")


def _synth_flags(p):
    p.add_argument("--n-source", type=int, default=400, help="source rows (even, >= 4)")
    p.add_argument("--n-target", type=int, default=200, help="target rows (even, >= 4)")
    p.add_argument("--dim", type=int, default=10, help="feature count (>= 2)")
    p.add_argument("--class-sep", dest="class_sep", type=float, default=4.0,
                   help="distance between the two class means along the first feature")
    p.add_argument("--noise-sd", dest="noise_sd", type=float, default=0.7,
                   help="standard deviation of the per-feature Gaussian noise (>= 0)")
    p.add_argument("--shift", default="0", help="comma-separated shift vector (padded with zeros)")
    p.add_argument("--rotation", type=float, default=0.0, help="rotation angle in radians")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", required=True, help="output CSV")


def _train_flags(p):
    p.add_argument("--data", required=True, help="CSV with source and target rows")
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--history", default="history.csv", help="per-epoch loss CSV")
    _add_config_flags(p)


def _predict_flags(p):
    _add_model_flags(p, domain="all")
    p.add_argument("--out", required=True, help="output CSV of probabilities and predictions")
    _add_threshold_flag(p)


def _evaluate_flags(p):
    _add_model_flags(p, domain="all")
    p.add_argument("--out", help="JSON report path")
    _add_threshold_flag(p)


def _baseline_flags(p):
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=BASELINE_METHODS, metavar="METHOD",
                   help="one of: " + ", ".join(BASELINE_METHODS))
    tca, gfk, sa, coral = (inspect.signature(fit).parameters for fit in
                           (baselines.tca_fit, baselines.gfk_fit, baselines.sa_fit,
                            baselines.coral_fit))
    p.add_argument("--dim", type=int, default=None,
                   help=f"subspace dimension (default: {tca['dim'].default} for tca, "
                        f"{gfk['dim'].default} for gfk, {sa['dim'].default} for sa); tca needs "
                        "dim <= source + target rows - 1, and dim <= features with the linear "
                        "kernel")
    p.add_argument("--mu", type=float, default=None,
                   help=f"tca regularizer (> 0) (default: {tca['mu'].default})")
    p.add_argument("--reg", type=float, default=None,
                   help=f"coral covariance regularizer (>= 0) (default: {coral['reg'].default})")
    p.add_argument("--finetune-fraction", dest="finetune_fraction", type=float, default=0.1,
                   help="labeled target fraction for the tl method, in (0, 1)")
    _add_threshold_flag(p)
    p.add_argument("--out", help="JSON report path")
    _add_config_flags(p)


def _rank_rois_flags(p):
    _add_model_flags(p, domain="target")
    p.add_argument("--top", type=int, default=10, help="regions to print (>= 1)")
    p.add_argument("--filter", choices=("correct_positives", "all"), default="correct_positives",
                   help="rows whose attention is averaged: labeled positives predicted "
                        "positive, or every row")
    _add_threshold_flag(p)
    p.add_argument("--out", help="JSON ranking path")


def _sweep_flags(p):
    p.description = ("Train one model per grid point and score it on the target rows' labels. "
                     "Point i trains with --seed + i, so init noise is mixed into each "
                     "point's effect. The output is a sensitivity report, not a "
                     "model-selection protocol: picking the best row tunes on the labels "
                     "it is scored on.")
    p.add_argument("--data", required=True)
    p.add_argument("--param", action="append", choices=SWEEP_PARAMS, metavar="PARAM",
                   help="parameter to sweep (repeatable): " + ", ".join(SWEEP_PARAMS))
    p.add_argument("--values", action="append", help="comma-separated values, one per --param")
    p.add_argument("--out", required=True, help="output CSV")
    _add_config_flags(p)


def _export_latent_flags(p):
    _add_model_flags(p, domain="all")
    p.add_argument("--out", required=True, help="output CSV of latent codes")


@functools.cache
def build_parser():
    """The `iadt` parser, built on the first call and shared by every later
    one; `build_parser.__wrapped__()` builds a fresh one."""
    parser = argparse.ArgumentParser(
        prog="iadt",
        description="Attention-weighted autoencoder with domain transfer for tabular ROI features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, add_flags in (
        ("synth", "generate a synthetic source/target dataset", _synth_flags),
        ("train", "train the adaptation model", _train_flags),
        ("predict", "score samples with a trained model", _predict_flags),
        ("evaluate", "metric report for a trained model", _evaluate_flags),
        ("baseline", "run a comparison method", _baseline_flags),
        ("rank-rois", "rank input regions by attention weight", _rank_rois_flags),
        ("sweep", "train/evaluate across a hyperparameter grid", _sweep_flags),
        ("export-latent", "write latent codes for a dataset", _export_latent_flags),
    ):
        add_flags(sub.add_parser(name, help=summary, formatter_class=_HelpFormatter))
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # the handlers are looked up per call, not held by the cached parser
        handler = {"synth": cmd_synth, "train": cmd_train, "predict": cmd_predict,
                   "evaluate": cmd_evaluate, "baseline": cmd_baseline,
                   "rank-rois": cmd_rank_rois, "sweep": cmd_sweep,
                   "export-latent": cmd_export_latent}[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IadtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
