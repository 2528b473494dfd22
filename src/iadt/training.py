"""Joint training of the adaptation network with Adam, plus prediction,
latent export and supervised fine-tuning.

Each epoch re-duplicates the smaller domain to the larger one's size,
reshuffles both domains with an epoch-derived seed and walks paired
batches; every batch does one forward/backward pass and one Adam step.
Adam runs on the flat parameter vector in place, with its moments in the
same layout. Fine-tuning backpropagates the classifier path alone. Everything
is a pure function of (datasets, config), so a fixed seed reproduces each
output bit.

Each `train` and `finetune` call creates one `Workspace` that its steps
share, so a step writes its batch-shaped arrays into the same buffers
instead of allocating them; it is dropped when the call returns. The step
loops run with numpy's overflow and invalid-value warnings off: a
divergence is reported instead as one ParameterError naming the epoch
(and the step and layer when an Adam step leaves a parameter non-finite,
or the loss term when an epoch's mean loss is non-finite).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import network
from .data import (
    apply_standardizer,
    balancing_index,
    fit_standardizer,
    identity_stats,
    write_csv,
)
from .errors import DimensionError, ParameterError
from .losses import KernelSpec
from .workspace import Workspace

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
        if self.latent_dim < 1 or self.batch_size < 2:
            raise ParameterError("latent_dim must be >= 1 and batch_size >= 2")
        reals = {"lambda1": self.lambda1, "lambda2": self.lambda2, "lr": self.lr,
                 "gamma": self.kernel.gamma}
        for name, value in reals.items():
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if self.lambda1 < 0 or self.lambda2 < 0 or self.lr <= 0 or self.epochs < 0:
            raise ParameterError("invalid training hyperparameters")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


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


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch mean losses: mmd, cls, recon and the weighted total."""

    epochs: list

    def __len__(self):
        return len(self.epochs)


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


def train(source, target, cfg):
    """Jointly train classifier, decoder and alignment on a domain pair.

    The source must be fully labeled; the target may be unlabeled. Returns
    (params, stats, history) where stats is the source-fit standardizer
    (identity when standardization is disabled).
    """
    if source.feature_count != target.feature_count:
        raise DimensionError(
            f"feature counts differ: {source.feature_count} vs {target.feature_count}"
        )
    source.labels_strict()
    if len(target) == 0:
        raise ParameterError("target dataset is empty")

    if cfg.standardize:
        stats = fit_standardizer(source)
    else:
        stats = identity_stats(source.feature_count)
    src_std = apply_standardizer(source, stats)
    tgt_std = apply_standardizer(target, stats)

    params = network.init_params(source.feature_count, HIDDEN_DIM, cfg.latent_dim, cfg.seed)
    state = init_adam(params)
    ws = Workspace()
    x_src_all, y_src_all, x_tgt_all = src_std.x, src_std.labels, tgt_std.x
    history = []

    # Both domains are paired up to the larger one; the smaller is regrown by
    # cycled duplication every epoch (the target on a tie), by composing its
    # balancing index with the epoch's shuffle.
    n = max(len(source), len(target))
    grow_target = len(target) <= len(source)
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

            sums = {"mmd": 0.0, "cls": 0.0, "recon": 0.0, "total": 0.0}
            slices = _batch_slices(n, cfg.batch_size)
            for step, (start, stop) in enumerate(slices):
                si = src_rows[start:stop]
                ti = tgt_rows[start:stop]
                cache = network.forward(params, x_src_all[si], x_tgt_all[ti], ws)
                parts, grad = network.backward(
                    params, cache, y_src_all[si], cfg.lambda1, cfg.lambda2, cfg.kernel, ws=ws
                )
                _adam_step_at("training", epoch, step, params, grad, state, cfg.lr)
                for key in ("mmd", "cls", "recon"):
                    sums[key] += parts[key]
                sums["total"] += network.total_from_parts(parts, cfg.lambda1, cfg.lambda2)
            count = max(len(slices), 1)
            means = {key: value / count for key, value in sums.items()}
            for key, value in means.items():
                if not math.isfinite(value):
                    raise ParameterError(
                        f"training diverged in epoch {epoch + 1}: mean {key} loss is {value!r}"
                    )
            history.append(means)

    return params, stats, TrainHistory(epochs=history)


def attend_and_classify(params, stats, ds):
    """Attention weights and class-1 probabilities of every sample in ds,
    from one pass through the network."""
    if ds.feature_count != params.d:
        raise DimensionError(
            f"dataset has {ds.feature_count} features, model expects {params.d}"
        )
    if len(ds) == 0:
        return np.zeros((0, params.d)), np.zeros(0)
    x = apply_standardizer(ds, stats).x
    w, xw = network.attention_forward(params, x)
    z = network.encode(params, xw)
    return w, network.classify(params, z)


def predict(params, stats, ds, threshold=0.5):
    """Probabilities and thresholded labels for every sample in ds."""
    _, probs = attend_and_classify(params, stats, ds)
    return probs, (probs >= threshold).astype(int)


def attention_weights(params, stats, ds):
    """Per-sample attention vectors for a dataset (rows sum to 1)."""
    return attend_and_classify(params, stats, ds)[0]


def latent_codes(params, stats, ds):
    """Latent representations of every sample in ds."""
    if len(ds) == 0:
        return np.zeros((0, params.m))
    x = apply_standardizer(ds, stats).x
    _, xw = network.attention_forward(params, x)
    return network.encode(params, xw)


def export_latent(params, stats, ds, path):
    """Write `subject_id,domain,label,z_1..z_m` latent codes as CSV.

    Raises ParameterError, and writes nothing, when a code is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = latent_codes(params, stats, ds)
    if not np.isfinite(z).all():
        raise ParameterError("latent codes are not finite: the model overflows on this data")
    names = [f"z_{j + 1}" for j in range(params.m)]
    write_csv(replace(ds, feature_names=names, x=z), path)


def finetune(params, labeled_target, cfg, stats=None):
    """Continue training with cross-entropy only on labeled target data.

    Returns new parameters; `params` is copied once and never changed.
    Each batch backpropagates the classifier path alone (attention, encoder,
    head), so alignment and reconstruction are off and the decoder weights
    stay untouched; Adam restarts fresh.
    """
    y = labeled_target.labels_strict()
    if labeled_target.feature_count != params.d:
        raise DimensionError(
            f"dataset has {labeled_target.feature_count} features, model expects {params.d}"
        )
    if stats is None:
        stats = identity_stats(params.d)
    x_all = apply_standardizer(labeled_target, stats).x
    n = len(labeled_target)
    params = params.copy()
    state = init_adam(params)
    ws = Workspace()
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng(_epoch_seed(cfg.seed, epoch, 3))
            order = rng.permutation(n)
            for step, (start, stop) in enumerate(_batch_slices(n, cfg.batch_size)):
                idx = order[start:stop]
                grad = network.classifier_backward(params, x_all[idx], y[idx], cfg.lambda2, ws)
                _adam_step_at("fine-tuning", epoch, step, params, grad, state, cfg.lr)
    return params
