"""The three benchmark workloads: their data, commands and output checks.

Each workload is a closed loop with one client: one iteration issues its
commands back to back as in-process `iadt.cli.main(argv)` calls, each one
starting when the previous one returned. Sizes and recipes are part of the
workload definition; only the data seed comes from the command line, and
the program sees it only through the CSV files set-up writes.

This module imports nothing from numpy or iadt.
"""

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Generator:
    """Arguments of `iadt synth` for one data file."""

    n_source: int
    n_target: int
    dim: int
    class_sep: float
    noise_sd: float
    shift: float
    rotation: float

    @property
    def rows(self):
        return self.n_source + self.n_target

    def argv(self, seed, out):
        return [
            "synth",
            "--n-source", str(self.n_source),
            "--n-target", str(self.n_target),
            "--dim", str(self.dim),
            "--class-sep", repr(self.class_sep),
            "--noise-sd", repr(self.noise_sd),
            "--shift", repr(self.shift),
            "--rotation", repr(self.rotation),
            "--seed", str(seed),
            "--out", out,
        ]


@dataclass(frozen=True)
class Check:
    """One output check: `kind` names a function in worker.CHECKS."""

    kind: str
    path: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Command:
    """One CLI call of a workload.

    `steps` is the number of Adam steps it takes (training commands) and
    `scored_rows` the rows it scores with a saved model (scoring commands).
    """

    argv: tuple
    steps: int = 0
    scored_rows: int = 0
    checks: tuple = ()

    @property
    def name(self):
        return self.argv[0]

    @property
    def outputs(self):
        return tuple(dict.fromkeys(check.path for check in self.checks))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data: tuple  # (file name, Generator, seed offset)
    commands: tuple
    setup: tuple = ()
    # Mean target BAC of the linear-kernel iadt models the workload trains or uses.
    target_bac: Check = None


def batches(n, batch_size):
    """Batches per epoch: full batches plus a remainder of at least 2 rows."""
    full, rest = divmod(n, batch_size)
    return full + (1 if rest >= 2 else 0)


def train_steps(n_source, batch_size, epochs):
    return epochs * batches(n_source, batch_size)


# Criterion 11's generator at the published scale: 90 AAL-sized features.
PAPER = Generator(360, 76, 90, 3.0, 0.8, 1.0, 0.2)
# Criterion 5's generator: the acceptance benchmark's domain pair.
ACCEPT = Generator(400, 200, 10, 4.0, 0.7, 1.5, 0.4)
# The paper generator scaled to a multi-site cohort.
COHORT = Generator(10_000, 10_000, 90, 3.0, 0.8, 1.0, 0.2)

DEFAULT_EPOCHS, DEFAULT_BATCH, DEFAULT_LATENT = 60, 128, 32

# The acceptance recipe (criterion 5): latent 4, lambda1 3, lambda2 2, lr 0.003,
# batch 400, so one step per epoch at 400 source rows.
RECIPE_LATENT, RECIPE_BATCH, RECIPE_EPOCHS = 4, 400, 300
RECIPE_FLAGS = (
    "--latent-dim", str(RECIPE_LATENT), "--lambda1", "3", "--lambda2", "2", "--lr", "0.003",
    "--batch-size", str(RECIPE_BATCH),
)
RBF_EPOCHS = 60
TL_FRACTION = 0.1
SWEEP_VALUES = (0.01, 0.1, 0.5, 1.0)
# The linear iadt model's target BAC may trail the logistic baseline's by at
# most this much. It beats it on 15 of seeds 0-19 and trails by up to 0.045
# on the others (criterion 5 compares medians over seeds, not single seeds).
BAC_MARGIN = 0.1


def _model_checks(model, history, dim, latent, epochs):
    return (
        Check("model", model, {"d": dim, "m": latent}),
        Check("history", history, {"epochs": epochs}),
    )


def _paper_sweep():
    gen = PAPER
    steps = train_steps(gen.n_source, DEFAULT_BATCH, DEFAULT_EPOCHS)
    data, model = "data.csv", "model.txt"
    return Workload(
        name="paper_sweep",
        why="published setting (436 x 90, default recipe): network forward/backward and "
        "Adam per step dominate; sweep points are independent trainings",
        data=((data, gen, 0),),
        commands=(
            Command(
                ("train", "--data", data, "--model", model, "--history", "history.csv"),
                steps=steps,
                checks=_model_checks(model, "history.csv", gen.dim, DEFAULT_LATENT,
                                     DEFAULT_EPOCHS),
            ),
            Command(
                ("evaluate", "--data", data, "--model", model, "--domain", "target",
                 "--out", "eval.json"),
                scored_rows=gen.n_target,
                checks=(Check("report", "eval.json", {"rows": gen.n_target}),),
            ),
            Command(
                ("rank-rois", "--data", data, "--model", model, "--out", "rank.json"),
                scored_rows=gen.n_target,
                checks=(Check("ranking", "rank.json", {"dim": gen.dim}),),
            ),
            Command(
                ("sweep", "--data", data, "--param", "lambda1",
                 "--values", ",".join(repr(v) for v in SWEEP_VALUES), "--out", "sweep.csv"),
                steps=len(SWEEP_VALUES) * steps,
                checks=(Check("sweep", "sweep.csv", {"values": SWEEP_VALUES}),),
            ),
        ),
        target_bac=Check("report_bac", "eval.json", {"sweep": "sweep.csv"}),
    )


def _fullbatch_adapt():
    gen = ACCEPT
    data = "data.csv"
    batch, epochs, latent = RECIPE_BATCH, RECIPE_EPOCHS, RECIPE_LATENT
    recipe = RECIPE_FLAGS + ("--epochs", str(epochs))
    tune_rows = 2 * math.ceil(TL_FRACTION * (gen.n_target // 2))
    commands = [
        Command(
            ("train", "--data", data, "--model", "model_linear.txt",
             "--history", "history_linear.csv") + recipe,
            steps=train_steps(gen.n_source, batch, epochs),
            checks=_model_checks("model_linear.txt", "history_linear.csv", gen.dim, latent,
                                 epochs),
        ),
        Command(
            ("train", "--data", data, "--model", "model_rbf.txt",
             "--history", "history_rbf.csv") + RECIPE_FLAGS
            + ("--epochs", str(RBF_EPOCHS), "--kernel", "rbf"),
            steps=train_steps(gen.n_source, batch, RBF_EPOCHS),
            checks=_model_checks("model_rbf.txt", "history_rbf.csv", gen.dim, latent,
                                 RBF_EPOCHS),
        ),
    ]
    for kernel in ("linear", "rbf"):
        commands.append(Command(
            ("evaluate", "--data", data, "--model", f"model_{kernel}.txt", "--domain", "target",
             "--out", f"eval_{kernel}.json"),
            scored_rows=gen.n_target,
            checks=(Check("report", f"eval_{kernel}.json", {"rows": gen.n_target}),),
        ))
    method_flags = {
        "logistic": (),
        "tca": ("--dim", "10", "--mu", "1.0"),
        "sa": ("--dim", "2"),
        "coral": (),
        "gfk": ("--dim", "2"),
        "tl": recipe + ("--finetune-fraction", repr(TL_FRACTION)),
    }
    for method, flags in method_flags.items():
        out = f"baseline_{method}.json"
        rows = gen.n_target - tune_rows if method == "tl" else gen.n_target
        checks = (Check("report", out, {"rows": rows}),)
        if method == "logistic":
            checks += (Check("bac_margin", out,
                             {"adapted": "eval_linear.json", "margin": BAC_MARGIN}),)
        steps = 0
        if method == "tl":
            steps = epochs * (batches(gen.n_source, batch) + batches(tune_rows, batch))
        commands.append(Command(
            ("baseline", "--data", data, "--method", method, "--no-standardize",
             "--out", out) + flags,
            steps=steps,
            checks=checks,
        ))
    return Workload(
        name="fullbatch_adapt",
        why="acceptance recipe (600 x 10, one step per epoch) plus rbf MMD and all baselines: "
        "per-step Python overhead, per-epoch data prep, O(B^2) rbf MMD and TCA",
        data=((data, gen, 0),),
        commands=tuple(commands),
        target_bac=Check("report_bac", "eval_linear.json"),
    )


def _cohort_score():
    gen = COHORT
    data, model = "data.csv", "model.txt"
    return Workload(
        name="cohort_score",
        why="20k x 90 cohort scored by a model trained in set-up: no training; CSV parsing, "
        "per-row standardising, CSV writes and the AUC dominate",
        data=((data, gen, 0), ("train.csv", PAPER, 1)),
        setup=(
            Command(
                ("train", "--data", "train.csv", "--model", model, "--history", "history.csv"),
                steps=train_steps(PAPER.n_source, DEFAULT_BATCH, DEFAULT_EPOCHS),
                checks=_model_checks(model, "history.csv", gen.dim, DEFAULT_LATENT,
                                     DEFAULT_EPOCHS),
            ),
        ),
        commands=(
            Command(
                ("evaluate", "--data", data, "--model", model, "--domain", "all",
                 "--out", "eval.json"),
                scored_rows=gen.rows,
                checks=(Check("report", "eval.json", {"rows": gen.rows}),),
            ),
            Command(
                ("predict", "--data", data, "--model", model, "--domain", "all",
                 "--out", "predictions.csv"),
                scored_rows=gen.rows,
                checks=(Check("predictions", "predictions.csv",
                              {"data": data, "domain": "all"}),),
            ),
            Command(
                ("export-latent", "--data", data, "--model", model, "--domain", "target",
                 "--out", "latent.csv"),
                scored_rows=gen.n_target,
                checks=(Check("latent", "latent.csv",
                              {"data": data, "domain": "target", "m": DEFAULT_LATENT}),),
            ),
        ),
        target_bac=Check("predictions_bac", "predictions.csv"),
    )


WORKLOADS = {w.name: w for w in (_paper_sweep(), _fullbatch_adapt(), _cohort_score())}

SCORING = ("evaluate", "predict", "rank-rois", "export-latent")


def data_seed(seed, offset):
    """Seed of one data file: the workload seed folded into synth's range."""
    return (seed + offset) % 2**32
