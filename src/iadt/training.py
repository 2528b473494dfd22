"""Joint training of the adaptation network with Adam, one scoring pass
(`score`) behind prediction and latent export, and supervised fine-tuning.
`train` returns the model, its standardizer and a table of each epoch's
mean loss terms; `predict` returns probabilities, which
`evaluation.predicted_labels` turns into labels. `export_latent` writes
the scored latents straight through the data module's row writer, in
`write_csv`'s format, without building a Dataset.

Each epoch re-duplicates the smaller domain to the larger one's size,
reshuffles both domains with an epoch-derived seed and walks paired
batches; every batch does one forward/backward pass and one Adam step.
Adam runs on the flat parameter vector in place, with its moments in the
same layout. Fine-tuning backpropagates the classifier path alone. Everything
is a pure function of (datasets, config), so a fixed seed reproduces each
output bit.

Each `train` and `finetune` call creates one `Workspace` that its steps
share, so a step writes its batch-shaped arrays into the same buffers
instead of allocating them; it is dropped when the call returns. `score`
does the same over blocks of rows: it allocates its outputs once (the
probabilities, and the latent codes only when asked for), keeps every
other array at one block's size and folds each block's attention weights
into running sums before the next block overwrites them, so a large
cohort costs the outputs plus about ten MB. The step loops run with
numpy's overflow and invalid-value warnings off: a divergence is reported
instead as one ParameterError naming the epoch (and the step and layer
when an Adam step leaves a parameter non-finite, or the loss term when an
epoch's mean loss is non-finite).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import evaluation, network
from .data import (
    _write_labeled,
    _zscores,
    apply_standardizer,
    balancing_index,
    fit_standardizer,
    identity_stats,
)
from .errors import DimensionError, ParameterError
from .losses import KernelSpec
from .workspace import Workspace, place

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

HIDDEN_DIM = 64


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; the defaults are the published training recipe."""

    latent_dim: int = 32
    lambda1: float = 0.1
    lambda2: float = 0.1
    lr: float = 0.001
    epochs: int = 60
    batch_size: int = 128
    kernel: KernelSpec = field(default_factory=KernelSpec)
    seed: int = 0
    standardize: bool = True

    def __post_init__(self):
        checks = (
            ("latent_dim", self.latent_dim, self.latent_dim >= 1, ">= 1"),
            ("batch_size", self.batch_size, self.batch_size >= 2, ">= 2"),
            ("lambda1", self.lambda1, math.isfinite(self.lambda1) and self.lambda1 >= 0,
             "finite and >= 0"),
            ("lambda2", self.lambda2, math.isfinite(self.lambda2) and self.lambda2 >= 0,
             "finite and >= 0"),
            ("lr", self.lr, math.isfinite(self.lr) and self.lr > 0, "finite and > 0"),
            ("epochs", self.epochs, self.epochs >= 0, ">= 0"),
            ("seed", self.seed, self.seed >= 0, ">= 0"),
        )
        for name, value, ok, rule in checks:
            if not ok:
                raise ParameterError(f"{name} must be {rule}, got {value!r}")


@dataclass
class AdamState:
    """First/second moment vectors, in the parameter vector's layout, and
    the step counter; `adam_step` updates all three in place."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    _scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._scratch = (np.empty_like(self.m), np.empty_like(self.m))


def init_adam(params):
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params, grad, state, lr):
    """One bias-corrected Adam update of `params.flat` and `state`, in place.

    `grad` is a vector in the parameter layout. Each element follows
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    theta -= lr (m / c1) / (sqrt(v / c2) + eps), with c = 1 - b^t. Raises
    ParameterError, naming the first non-finite layer, when the update
    leaves a parameter non-finite; the parameters then hold that update.
    """
    grad = np.asarray(grad)
    if grad.shape != params.flat.shape or state.m.shape != params.flat.shape:
        raise DimensionError(
            f"gradient {grad.shape} and moments {state.m.shape} must match "
            f"the {params.flat.shape} parameters"
        )
    state.t += 1
    m, v, (scaled, step) = state.m, state.v, state._scratch
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=scaled)
    m += scaled
    v *= ADAM_BETA2
    np.square(grad, out=scaled)
    scaled *= 1.0 - ADAM_BETA2
    v += scaled
    corr1 = 1.0 - ADAM_BETA1**state.t
    corr2 = 1.0 - ADAM_BETA2**state.t
    np.divide(v, corr2, out=scaled)
    np.sqrt(scaled, out=scaled)
    scaled += ADAM_EPS
    np.divide(m, corr1, out=step)
    step *= lr
    step /= scaled
    params.flat -= step
    if not np.isfinite(params.flat).all():
        name = next(
            name for name, layer in params.layers().items()
            if not (np.isfinite(layer.w).all() and np.isfinite(layer.b).all())
        )
        raise ParameterError(f"Adam step {state.t} made layer {name!r} non-finite")


def _adam_step_at(what, epoch, step, params, grad, state, lr):
    """`adam_step`, with a divergence reported by epoch and step."""
    try:
        adam_step(params, grad, state, lr)
    except ParameterError as exc:
        raise ParameterError(
            f"{what} diverged in epoch {epoch + 1}, step {step + 1}: {exc}"
        ) from None


def _epoch_seed(base_seed, epoch, salt):
    ss = np.random.SeedSequence([int(base_seed) & 0xFFFFFFFF, salt, epoch])
    return int(ss.generate_state(1)[0])


def _batch_slices(n, batch_size):
    """Batch index ranges; a trailing partial batch survives only with >= 2 rows."""
    edges = list(range(0, n, batch_size))
    slices = []
    for start in edges:
        stop = min(start + batch_size, n)
        if stop - start >= 2:
            slices.append((start, stop))
    return slices


def source_stats(source, cfg):
    """The standardizer of `source`'s features: fitted to it when
    `cfg.standardize` is on, else the identity."""
    return fit_standardizer(source) if cfg.standardize else identity_stats(source.feature_count)


def train(source, target, cfg):
    """Jointly train classifier, decoder and alignment on a domain pair.

    The source must be fully labeled; the target may be unlabeled. Returns
    (params, stats, losses): stats is `source_stats(source, cfg)`, and
    losses is the (epochs, 4) table of each epoch's mean loss terms, in the
    column order of `network.LOSS_PARTS`. A batch takes at least 2 rows, so
    a larger domain of fewer rows raises ParameterError.
    """
    if source.feature_count != target.feature_count:
        raise DimensionError(
            f"feature counts differ: {source.feature_count} vs {target.feature_count}"
        )
    y_src_all = source.labels_strict()
    if len(target) == 0:
        raise ParameterError("target dataset is empty")

    stats = source_stats(source, cfg)
    x_src_all = apply_standardizer(source, stats)
    x_tgt_all = apply_standardizer(target, stats)

    params = network.init_params(source.feature_count, HIDDEN_DIM, cfg.latent_dim, cfg.seed)
    state = init_adam(params)
    ws = Workspace()
    losses = np.empty((cfg.epochs, len(network.LOSS_PARTS)))

    # Both domains are paired up to the larger one; the smaller is regrown by
    # cycled duplication every epoch (the target on a tie), by composing its
    # balancing index with the epoch's shuffle.
    n = max(len(source), len(target))
    grow_target = len(target) <= len(source)
    slices = _batch_slices(n, cfg.batch_size)
    if not slices:
        raise ParameterError(f"training needs at least 2 rows in the larger domain, got {n}")
    # A divergence is reported below by epoch and step, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng(_epoch_seed(cfg.seed, epoch, 2))
            src_rows = rng.permutation(n)
            tgt_rows = rng.permutation(n)
            if grow_target:
                grown = balancing_index(len(target), n, _epoch_seed(cfg.seed, epoch, 1))
                tgt_rows = grown[tgt_rows]
            else:
                grown = balancing_index(len(source), n, _epoch_seed(cfg.seed, epoch, 4))
                src_rows = grown[src_rows]

            sums = dict.fromkeys(network.LOSS_PARTS, 0.0)
            for step, (start, stop) in enumerate(slices):
                si = src_rows[start:stop]
                ti = tgt_rows[start:stop]
                cache = network.forward(params, x_src_all[si], x_tgt_all[ti], ws)
                parts, grad = network.backward(
                    params, cache, y_src_all[si], cfg.lambda1, cfg.lambda2, cfg.kernel, ws=ws
                )
                _adam_step_at("training", epoch, step, params, grad, state, cfg.lr)
                for key in sums:
                    sums[key] += parts[key]
            for col, (key, value) in enumerate(sums.items()):
                mean = value / len(slices)
                if not math.isfinite(mean):
                    raise ParameterError(
                        f"training diverged in epoch {epoch + 1}: mean {key} loss is {mean!r}"
                    )
                losses[epoch, col] = mean

    return params, stats, losses


@dataclass(frozen=True)
class Scores:
    """Class-1 probabilities, latent codes (None unless `score` was asked
    for them) and the sums of attention weights that `evaluation.rank_rois`
    averages.

    `weight_sum` adds up every row's attention weights; `positive_weight_sum`
    adds up those of the `positives` rows labelled 1 whose probability is at
    least the threshold `score` was given. Each is summed row after row, in row order, so a sum
    divided by its row count has the bits of numpy's axis-0 mean of those
    rows' weights.
    """

    probs: np.ndarray
    latents: np.ndarray | None
    weight_sum: np.ndarray
    positive_weight_sum: np.ndarray
    positives: int


# Rows per scoring block, and the multiple of rows every block but the last
# starts and ends on; see `_score_blocks`.
SCORE_BLOCK_ROWS = 4096
_SCORE_BLOCK_ALIGN = 64


def _score_blocks(n):
    """Row ranges of the max(1, n // SCORE_BLOCK_ROWS) near-equal blocks that
    `score` walks: one block below 2 * SCORE_BLOCK_ROWS rows, otherwise
    blocks of SCORE_BLOCK_ROWS to 2 * SCORE_BLOCK_ROWS - 1 rows.

    Every edge but n is a multiple of _SCORE_BLOCK_ALIGN rows, which divides
    SCORE_BLOCK_ROWS: the blocks share the n // _SCORE_BLOCK_ALIGN whole
    units near-equally, and the last also takes the n % _SCORE_BLOCK_ALIGN
    rows left over. Both numbers are there so that every row gets the bits
    of one whole-matrix pass on one OpenBLAS thread:
    - a dgemm result can depend on the row count: 512-row blocks changed
      bits, while blocks of 1024 to 5000 rows gave the whole-matrix bits at
      10k and 20k rows (d = 90, h = 64, m = 32). The floor of 4096 stays
      inside that evidence, and below twice the floor nothing is split;
    - the classifier head is a matrix-vector product whose kernel takes
      rows in groups of four and sums a last, partial group another way.
      With unaligned edges (blocks of 4166 and 4167 rows at n = 33333) such
      groups fell inside the matrix and changed probabilities; a block that
      starts on a multiple of 64 rows ends in a partial group only where
      the whole matrix does, at row n.
    With these edges the scores were bit-equal to the whole-matrix pass at
    every n tried, from 100 to 100003 rows. A block's buffers take at most
    (2 * SCORE_BLOCK_ROWS - 1) x (2d + h + m) floats, however many rows
    there are.
    """
    count = max(1, n // SCORE_BLOCK_ROWS)
    units = n // _SCORE_BLOCK_ALIGN
    edges = [_SCORE_BLOCK_ALIGN * (units * i // count) for i in range(count)] + [n]
    return list(zip(edges, edges[1:]))


def _add_rows(total, rows, where=True):
    """Add the rows of `rows[1:]` (those where `where[1:]` holds) to `total`,
    one after another, in place. Row 0 of `rows` is scratch: it carries
    `total` into the reduction, so that the sum runs on across blocks in the
    order numpy's axis-0 sum of all the rows would take."""
    rows[0] = total
    np.add.reduce(rows, axis=0, out=total, where=where)


def score(params, stats, ds, threshold=0.5, latents=False):
    """Standardize, attend, encode and classify every sample in ds once.

    Returns `Scores`: the probabilities, the latent codes when `latents` is
    true, and the running sums of attention weights that `rank_rois` needs,
    with rows labelled 1 counted as correct positives from `threshold` on.

    Rows go through in the blocks of `_score_blocks`, in order. Besides the
    probabilities (and the codes, when asked for) only one block's attention
    weights, z-scores, hidden layer and codes are held, so the memory beyond
    the outputs does not grow with the row count.

    Raises ParameterError, without numpy warnings, when a z-score, latent
    code or probability is not finite (finite weights that overflow on this
    data), from whichever block first meets one.
    """
    if ds.feature_count != params.d:
        raise DimensionError(
            f"dataset has {ds.feature_count} features, model expects {params.d}"
        )
    n = len(ds)
    probs = np.empty(n)
    codes = np.empty((n, params.m)) if latents else None
    weight_sum, positive_weight_sum = np.zeros(params.d), np.zeros(params.d)
    positives = 0
    blocks = _score_blocks(n) if n else []
    rows = max((stop - start for start, stop in blocks), default=0)
    # Row 0 of the weight and selection buffers belongs to `_add_rows`.
    w_rows, keep = np.empty((rows + 1, params.d)), np.ones((rows + 1, 1), dtype=bool)
    x_rows, hidden_rows = np.empty((rows, params.d)), np.empty((rows, params.h))
    z_rows = None if latents else np.empty((rows, params.m))
    is_positive = ds.labels == 1.0
    ws = Workspace()
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in blocks:
            size = stop - start
            x = _zscores(ds.x[start:stop], stats, out=x_rows[:size])
            place(ws, "w", w_rows[1 : size + 1])
            # The reweighted input overwrites the z-scores, which nothing
            # reads after it.
            place(ws, "xw", x)
            place(ws, "a1", hidden_rows[:size])
            place(ws, "z", codes[start:stop] if latents else z_rows[:size])
            _, xw = network.attention_forward(params, x, ws)
            z = network.encode(params, xw, ws)
            if not np.isfinite(z).all():
                raise ParameterError(
                    "latent codes are not finite: the model overflows on this data"
                )
            block_probs = network.classify(params, z)
            if np.isnan(block_probs).any():
                raise ParameterError(
                    "probabilities are not finite: the model overflows on this data"
                )
            probs[start:stop] = block_probs
            _add_rows(weight_sum, w_rows[: size + 1])
            np.logical_and(evaluation.predicted_labels(block_probs, threshold),
                           is_positive[start:stop], out=keep[1 : size + 1, 0])
            _add_rows(positive_weight_sum, w_rows[: size + 1], where=keep[: size + 1])
            positives += int(np.count_nonzero(keep[1 : size + 1]))
    return Scores(probs, codes, weight_sum, positive_weight_sum, positives)


def predict(params, stats, ds):
    """The class-1 probability of every sample in ds; `evaluation.predicted_labels`
    turns them into labels at a threshold."""
    return score(params, stats, ds).probs


def export_latent(params, stats, ds, path):
    """Write `subject_id,domain,label,z_1..z_m` latent codes as CSV, in
    `write_csv`'s format (rows end with CRLF), so `load_csv` reads them back.

    Raises ParameterError, and writes nothing, when a code is not finite.
    """
    z = score(params, stats, ds, latents=True).latents
    names = [f"z_{j + 1}" for j in range(params.m)]
    _write_labeled(ds, names, z, path)


def finetune(params, labeled_target, cfg, stats):
    """Continue training with cross-entropy only on labeled target data.

    Returns new parameters; `params` is copied once and never changed.
    Each batch backpropagates the classifier path alone (attention, encoder,
    head), so alignment and reconstruction are off and the decoder weights
    stay untouched; Adam restarts fresh. Fewer than 2 rows, which make no
    batch, raise ParameterError.
    """
    y = labeled_target.labels_strict()
    if labeled_target.feature_count != params.d:
        raise DimensionError(
            f"dataset has {labeled_target.feature_count} features, model expects {params.d}"
        )
    x_all = apply_standardizer(labeled_target, stats)
    n = len(labeled_target)
    slices = _batch_slices(n, cfg.batch_size)
    if not slices:
        raise ParameterError(f"fine-tuning needs at least 2 labeled rows, got {n}")
    params = params.copy()
    state = init_adam(params)
    ws = Workspace()
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng(_epoch_seed(cfg.seed, epoch, 3))
            order = rng.permutation(n)
            for step, (start, stop) in enumerate(slices):
                idx = order[start:stop]
                grad = network.classifier_backward(params, x_all[idx], y[idx], cfg.lambda2, ws)
                _adam_step_at("fine-tuning", epoch, step, params, grad, state, cfg.lr)
    return params
