"""Command-line pipeline: synthesize data, train, predict, evaluate,
run baselines, rank regions, sweep hyperparameters, export latents.

Exit codes: 0 success, 1 data or model error, 2 usage or configuration
error. Flag precedence is built-in defaults < config file < command line.
"""

import argparse
import inspect
import json
import math
import sys
from dataclasses import replace

from . import baselines, evaluation, network, training
from .data import by_domain, load_csv, split_stratified, synth_domains, write_csv
from .errors import ConfigError, IadtError, ParameterError, ParseError
from .losses import KernelSpec
from .training import HIDDEN_DIM, TrainConfig

CONFIG_KEYS = {
    "latent_dim": int,
    "lambda1": float,
    "lambda2": float,
    "lr": float,
    "epochs": int,
    "batch_size": int,
    "kernel": str,
    "gamma": float,
    "seed": int,
    "standardize": bool,
}

BASELINE_METHODS = ("logistic", "tca", "gfk", "sa", "coral", "tl")

SWEEP_PARAMS = ("latent_dim", "lambda1", "lambda2")


def _parse_bool(token):
    lowered = token.strip().lower()
    if lowered in ("1", "true", "on", "yes"):
        return True
    if lowered in ("0", "false", "off", "no"):
        return False
    raise ConfigError(f"cannot parse boolean value {token!r}")


def parse_config_file(path):
    """Read `key=value` lines into a dict of typed config overrides."""
    overrides = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
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
    kernel_kind = values.pop("kernel", "linear")
    gamma = values.pop("gamma", 1.0)
    if kernel_kind not in ("linear", "rbf"):
        raise ConfigError(f"unknown kernel {kernel_kind!r}")
    try:
        return TrainConfig(kernel=KernelSpec(kind=kernel_kind, gamma=gamma), **values)
    except IadtError as exc:
        raise ConfigError(str(exc)) from None


def _add_config_flags(sub):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--latent-dim", dest="latent_dim", type=int, default=None,
                     help="latent width (default 32)")
    sub.add_argument("--lambda1", type=float, default=None,
                     help="alignment loss weight (default 0.1)")
    sub.add_argument("--lambda2", type=float, default=None,
                     help="classification loss weight (default 0.1)")
    sub.add_argument("--lr", type=float, default=None, help="Adam learning rate (default 0.001)")
    sub.add_argument("--epochs", type=int, default=None, help="training epochs (default 60)")
    sub.add_argument("--batch-size", dest="batch_size", type=int, default=None,
                     help="paired batch size (default 128)")
    sub.add_argument("--kernel", choices=("linear", "rbf"), default=None,
                     help="MMD kernel (default linear)")
    sub.add_argument("--gamma", type=float, default=None, help="rbf bandwidth (default 1.0)")
    sub.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
    sub.add_argument("--standardize", dest="standardize", action="store_true", default=None,
                     help="z-score features with source statistics (default on)")
    sub.add_argument("--no-standardize", dest="standardize", action="store_false",
                     help="disable feature standardization")


def _check_flag(ok, flag, value, rule):
    """Reject a flag value that would silently change what is computed."""
    if not ok:
        raise ConfigError(f"{flag} must be {rule}, got {value!r}")


def _check_threshold(args):
    _check_flag(math.isfinite(args.threshold), "--threshold", args.threshold, "finite")


def _config_from_args(args):
    flags = {key: getattr(args, key) for key in CONFIG_KEYS}
    return build_config(args.config, flags)


def _round6(value):
    return None if value is None else round(float(value), 6)


def _report_payload(conf, report, ranking=None):
    payload = {name: _round6(val) for name, val in report.as_dict().items()}
    payload["counts"] = {"tp": conf.tp, "tn": conf.tn, "fp": conf.fp, "fn": conf.fn}
    if ranking is None:
        payload["roi_ranking"] = None
    else:
        payload["roi_ranking"] = [
            {
                "roi_index": e.roi_index,
                "roi_name": e.roi_name,
                "mean_weight": _round6(e.mean_weight),
                "shifted_weight": _round6(e.shifted_weight),
            }
            for e in ranking.entries
        ]
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


def _select_domain(ds, which):
    if which == "all":
        return ds
    source, target = by_domain(ds)
    return source if which == "source" else target


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
    source, target = _load_domains(args.data, "training")
    params, stats, history = training.train(source, target, cfg)
    network.save_model(params, args.model, stats=stats)
    history_path = args.history
    with open(history_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,mmd,cls,recon,total\n")
        for i, rec in enumerate(history.epochs, start=1):
            fh.write(f"{i},{rec['mmd']!r},{rec['cls']!r},{rec['recon']!r},{rec['total']!r}\n")
    if history.epochs:
        last = history.epochs[-1]
        print(
            f"trained {cfg.epochs} epochs; final losses "
            f"mmd={last['mmd']:.6f} cls={last['cls']:.6f} recon={last['recon']:.6f}"
        )
    print(f"model written to {args.model}; history to {history_path}")
    return 0


def _load_model_with_stats(path):
    params, stats = network.load_model(path)
    if stats is None:
        from .data import identity_stats

        stats = identity_stats(params.d)
    return params, stats


def cmd_predict(args):
    _check_threshold(args)
    params, stats = _load_model_with_stats(args.model)
    ds = _select_domain(load_csv(args.data), args.domain)
    probs, labels = training.predict(params, stats, ds, threshold=args.threshold)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("subject_id,domain,label,prob,pred\n")
        rows = zip(ds.ids, ds.domains, ds.label_tokens(), probs.tolist(), labels.tolist())
        for sid, domain, ref, p, lab in rows:
            fh.write(f"{sid},{domain},{ref},{p!r},{lab}\n")
    print(f"wrote {len(ds)} predictions to {args.out}")
    return 0


def cmd_evaluate(args):
    _check_threshold(args)
    params, stats = _load_model_with_stats(args.model)
    ds = _select_domain(load_csv(args.data), args.domain)
    if len(ds) == 0:
        raise ParseError(f"{args.data}: no samples in domain {args.domain!r}")
    y = ds.labels_strict()
    # One pass gives the metrics' probabilities and the ranking's weights.
    scores = training.attend_and_classify(params, stats, ds)
    conf, report = evaluation.evaluate_predictions(y, scores[1], args.threshold)
    try:
        ranking = evaluation.rank_rois(params, stats, ds, filter="correct_positives",
                                       reference_labels=y, threshold=args.threshold,
                                       scores=scores)
    except ParameterError:
        print(f"note: no correctly identified positive samples; ranking regions over "
              f"all {len(ds)} samples instead", file=sys.stderr)
        ranking = evaluation.rank_rois(params, stats, ds, filter="all", scores=scores)
    _print_report(conf, report)
    if args.out:
        _write_json(_report_payload(conf, report, ranking), args.out)
        print(f"report written to {args.out}")
    return 0


def cmd_baseline(args):
    if args.method not in BASELINE_METHODS:
        raise ConfigError(
            f"unknown or unsupported method {args.method!r}; valid methods: "
            + ", ".join(BASELINE_METHODS)
        )
    _check_threshold(args)
    _check_flag(args.dim is None or args.dim >= 1, "--dim", args.dim, ">= 1")
    _check_flag(math.isfinite(args.mu) and args.mu > 0, "--mu", args.mu, "finite and > 0")
    _check_flag(math.isfinite(args.reg) and args.reg >= 0, "--reg", args.reg, "finite and >= 0")
    _check_flag(0 < args.finetune_fraction < 1, "--finetune-fraction", args.finetune_fraction,
                "in (0, 1)")
    cfg = _config_from_args(args)
    source, target = _load_domains(args.data, "baseline")
    ys = source.labels_strict()

    from .data import apply_standardizer, fit_standardizer, identity_stats

    stats = fit_standardizer(source) if cfg.standardize else identity_stats(source.feature_count)
    xs = apply_standardizer(source, stats).x
    xt = apply_standardizer(target, stats).x

    y_eval = target.labels_strict()
    if args.method == "tl":
        tune, test = split_stratified(target, args.finetune_fraction, cfg.seed)
        params = network.init_params(source.feature_count, HIDDEN_DIM, cfg.latent_dim, cfg.seed)
        params = training.finetune(params, source, cfg, stats)
        params = training.finetune(params, tune, cfg, stats)
        probs, _ = training.predict(params, stats, test)
        y_eval = test.labels_strict()
    elif args.method == "logistic":
        model = baselines.logistic_fit(xs, ys)
        probs, _ = baselines.logistic_predict(model, xt)
    else:
        # --dim reaches the fit only when given; otherwise the fit's default holds
        dim = {} if args.dim is None else {"dim": args.dim}
        if args.method == "tca":
            smap = baselines.tca_fit(xs, xt, mu=args.mu, kernel=cfg.kernel, **dim)
        elif args.method == "gfk":
            smap = baselines.gfk_fit(xs, xt, **dim)
        elif args.method == "sa":
            smap = baselines.sa_fit(xs, xt, **dim)
        else:
            smap = baselines.coral_fit(xs, xt, reg=args.reg)
        probs, _ = baselines.baseline_predict(smap, xs, ys, xt)

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
    params, stats = _load_model_with_stats(args.model)
    ds = _select_domain(load_csv(args.data), args.domain)
    if len(ds) == 0:
        raise ParseError(f"{args.data}: no samples in domain {args.domain!r}")
    reference = ds.labels_strict() if args.filter == "correct_positives" else None
    ranking = evaluation.rank_rois(params, stats, ds, filter=args.filter,
                                   reference_labels=reference, threshold=args.threshold)
    top = ranking.top(args.top)
    width = max((len(e.roi_name) for e in top), default=10)
    print(f"{'index':<7}{'name':<{width + 2}}{'weight':<12}shifted")
    for e in top:
        print(f"{e.roi_index:<7}{e.roi_name:<{width + 2}}{e.mean_weight:<12.6f}{e.shifted_weight:.6f}")
    if args.out:
        payload = {
            "filter": ranking.filter_used,
            "n_selected": ranking.n_selected,
            "entries": [
                {
                    "roi_index": e.roi_index,
                    "roi_name": e.roi_name,
                    "mean_weight": e.mean_weight,
                    "shifted_weight": e.shifted_weight,
                }
                for e in ranking.entries
            ],
        }
        _write_json(payload, args.out)
        print(f"ranking written to {args.out}")
    return 0


def cmd_export_latent(args):
    params, stats = _load_model_with_stats(args.model)
    ds = _select_domain(load_csv(args.data), args.domain)
    training.export_latent(params, stats, ds, args.out)
    print(f"wrote {len(ds)} latent rows to {args.out}")
    return 0


def _parse_sweep_values(param, tokens):
    caster = int if param == "latent_dim" else float
    try:
        return [caster(tok) for tok in tokens.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse values {tokens!r} for parameter {param}") from None


def cmd_sweep(args):
    params_given = args.param or []
    values_given = args.values or []
    if not params_given:
        raise ConfigError("sweep needs at least one --param with matching --values")
    if len(params_given) != len(values_given):
        raise ConfigError("each --param needs a matching --values list")
    if len(params_given) > 2:
        raise ConfigError("at most two parameters may be swept jointly")
    for p in params_given:
        if p not in SWEEP_PARAMS:
            raise ConfigError(f"unknown sweep parameter {p!r}; choose from {SWEEP_PARAMS}")
    value_lists = [
        _parse_sweep_values(p, toks) for p, toks in zip(params_given, values_given)
    ]

    base_cfg = _config_from_args(args)
    if len(params_given) == 1:
        points = [(v,) for v in value_lists[0]]
    else:
        points = [(v1, v2) for v1 in value_lists[0] for v2 in value_lists[1]]
    try:
        configs = [
            replace(base_cfg, seed=base_cfg.seed + index, **dict(zip(params_given, point)))
            for index, point in enumerate(points)
        ]
    except IadtError as exc:
        raise ConfigError(f"sweep: {exc}") from None

    source, target = _load_domains(args.data, "sweep")
    y_eval = target.labels_strict()

    rows = []
    for point, cfg in zip(points, configs):
        params, stats, _ = training.train(source, target, cfg)
        probs, _ = training.predict(params, stats, target)
        _, report = evaluation.evaluate_predictions(y_eval, probs)
        rows.append(point + tuple(_round6(report.as_dict()[k]) for k in
                                  ("acc", "bac", "auc", "sen", "spe")))

    header = list(params_given) + ["acc", "bac", "auc", "sen", "spe"]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else str(v) for v in row) + "\n")
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="iadt",
        description="Attention-weighted autoencoder with domain transfer for tabular ROI features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("synth", help="generate a synthetic source/target dataset",
                       formatter_class=fmt)
    p.add_argument("--n-source", type=int, default=400)
    p.add_argument("--n-target", type=int, default=200)
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--class-sep", dest="class_sep", type=float, default=4.0)
    p.add_argument("--noise-sd", dest="noise_sd", type=float, default=0.7)
    p.add_argument("--shift", default="0", help="comma-separated shift vector (padded with zeros)")
    p.add_argument("--rotation", type=float, default=0.0, help="rotation angle in radians")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the adaptation model", formatter_class=fmt)
    p.add_argument("--data", required=True, help="CSV with source and target rows")
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--history", default="history.csv", help="per-epoch loss CSV")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score samples with a trained model",
                       formatter_class=fmt)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--domain", choices=("source", "target", "all"), default="all")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="metric report for a trained model",
                       formatter_class=fmt)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--domain", choices=("source", "target", "all"), default="all")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="run a comparison method", formatter_class=fmt)
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True,
                   help="one of: " + ", ".join(BASELINE_METHODS))
    tca_dim, gfk_dim, sa_dim = (
        inspect.signature(fit).parameters["dim"].default
        for fit in (baselines.tca_fit, baselines.gfk_fit, baselines.sa_fit)
    )
    p.add_argument("--dim", type=int, default=None,
                   help=f"subspace dimension (default: {tca_dim} for tca, {gfk_dim} for gfk, "
                        f"{sa_dim} for sa); tca needs dim <= source + target rows - 1, "
                        "and dim <= features with the linear kernel")
    p.add_argument("--mu", type=float, default=0.01, help="tca regularizer (> 0)")
    p.add_argument("--reg", type=float, default=1.0,
                   help="coral covariance regularizer (>= 0)")
    p.add_argument("--finetune-fraction", dest="finetune_fraction", type=float, default=0.1,
                   help="labeled target fraction for the tl method, in (0, 1)")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", help="JSON report path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("rank-rois", help="rank input regions by attention weight",
                       formatter_class=fmt)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--filter", choices=("correct_positives", "all"), default="correct_positives")
    p.add_argument("--domain", choices=("source", "target", "all"), default="target")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", help="JSON ranking path")
    p.set_defaults(func=cmd_rank_rois)

    p = sub.add_parser("sweep", help="train/evaluate across a hyperparameter grid",
                       formatter_class=fmt)
    p.add_argument("--data", required=True)
    p.add_argument("--param", action="append",
                   help="parameter to sweep (repeatable): " + ", ".join(SWEEP_PARAMS))
    p.add_argument("--values", action="append", help="comma-separated values, one per --param")
    p.add_argument("--out", required=True, help="output CSV")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-latent", help="write latent codes for a dataset",
                       formatter_class=fmt)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--domain", choices=("source", "target", "all"), default="all")
    p.set_defaults(func=cmd_export_latent)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IadtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
