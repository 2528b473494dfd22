"""The adaptation network: a softmax attention layer that reweights input
features, a shared two-layer encoder, a mirrored decoder and a sigmoid
classifier, with hand-derived backpropagation.

Training flows source and target batches through the same attention and
encoder weights; the classifier consumes source latents, the decoder
reconstructs target inputs, and the squared-MMD between the two latent
batches pulls the domains together. `backward` returns the analytic
gradient of

    lambda1 * mmd(z_s, z_t) + lambda2 * bce(y, yhat) + recon_w * l1(x_t, xhat_t)

with respect to every parameter, including the full softmax Jacobian of the
attention layer and the product rule through the feature reweighting.
"""

from dataclasses import dataclass

import numpy as np

from . import losses
from .errors import DimensionError, ModelFormatError, ParameterError
from .losses import KernelSpec

ACTIVATIONS = ("relu", "linear", "sigmoid", "softmax")

PROB_CLAMP = 1e-7

# The fixed architecture: each layer's activation, in file and draw order.
LAYER_ACTIVATIONS = {
    "attention": "softmax",
    "enc1": "relu",
    "enc2": "linear",
    "dec1": "relu",
    "dec2": "linear",
    "clf": "sigmoid",
}

LAYER_ORDER = tuple(LAYER_ACTIVATIONS)

MODEL_MAGIC = "iadt-model v1"


@dataclass(frozen=True)
class DenseLayer:
    """Fully connected layer: weights (out x in), biases (out), activation."""

    w: np.ndarray
    b: np.ndarray
    activation: str

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise DimensionError(
                f"bias length {b.shape} does not match weight rows {w.shape}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ParameterError("layer parameters must be finite")
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class ModelParams:
    """All network parameters plus the widths (d input, h hidden, m latent)."""

    attention: DenseLayer
    enc1: DenseLayer
    enc2: DenseLayer
    dec1: DenseLayer
    dec2: DenseLayer
    clf: DenseLayer
    d: int
    h: int
    m: int

    def __post_init__(self):
        expected = {
            "attention": (self.d, self.d),
            "enc1": (self.h, self.d),
            "enc2": (self.m, self.h),
            "dec1": (self.h, self.m),
            "dec2": (self.d, self.h),
            "clf": (1, self.m),
        }
        for name, shape in expected.items():
            layer = getattr(self, name)
            if layer.w.shape != shape:
                raise DimensionError(
                    f"{name} weights have shape {layer.w.shape}, expected {shape}"
                )

    def layers(self):
        return {name: getattr(self, name) for name in LAYER_ORDER}


@dataclass(frozen=True)
class Gradients:
    """Per-parameter gradients, shape-congruent with ModelParams."""

    attention: tuple
    enc1: tuple
    enc2: tuple
    dec1: tuple
    dec2: tuple
    clf: tuple

    def layers(self):
        return {name: getattr(self, name) for name in LAYER_ORDER}


@dataclass(frozen=True)
class ForwardCache:
    """Every intermediate needed to backpropagate one paired batch."""

    x_src: np.ndarray
    x_tgt: np.ndarray
    w_src: np.ndarray
    w_tgt: np.ndarray
    xw_src: np.ndarray
    xw_tgt: np.ndarray
    pre1_src: np.ndarray
    pre1_tgt: np.ndarray
    a1_src: np.ndarray
    a1_tgt: np.ndarray
    z_src: np.ndarray
    z_tgt: np.ndarray
    pre3_tgt: np.ndarray
    a3_tgt: np.ndarray
    xhat_tgt: np.ndarray
    logit_src: np.ndarray
    yhat_src: np.ndarray


def init_params(d, h, m, seed):
    """Glorot-uniform weights, zero biases, from a seeded generator.

    The draw order is fixed (attention, enc1, enc2, dec1, dec2, clf) so a
    seed pins every parameter bit.
    """
    if d < 1 or h < 1 or m < 1:
        raise ParameterError("layer widths must be >= 1")
    rng = np.random.default_rng(seed)

    def glorot(name, out_dim, in_dim):
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        return DenseLayer(w=w, b=np.zeros(out_dim), activation=LAYER_ACTIVATIONS[name])

    return ModelParams(
        attention=glorot("attention", d, d),
        enc1=glorot("enc1", h, d),
        enc2=glorot("enc2", m, h),
        dec1=glorot("dec1", h, m),
        dec2=glorot("dec2", d, h),
        clf=glorot("clf", 1, m),
        d=d,
        h=h,
        m=m,
    )


def _check_batch(x, width, name):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != width:
        raise DimensionError(f"{name} must have shape (batch, {width}), got {x.shape}")
    if x.shape[0] < 1:
        raise ParameterError(f"{name} batch is empty")
    return x


def _softmax_rows(a):
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def attention_forward(params, x):
    """Per-sample softmax feature weights and the reweighted input."""
    x = _check_batch(x, params.d, "x")
    pre = x @ params.attention.w.T + params.attention.b
    w = _softmax_rows(pre)
    return w, w * x


def encode(params, xw):
    """Latent codes: linear readout of a ReLU hidden layer."""
    xw = _check_batch(xw, params.d, "xw")
    a1 = np.maximum(xw @ params.enc1.w.T + params.enc1.b, 0.0)
    return a1 @ params.enc2.w.T + params.enc2.b


def decode(params, z):
    """Reconstruction from latent codes, mirroring the encoder."""
    z = _check_batch(z, params.m, "z")
    a3 = np.maximum(z @ params.dec1.w.T + params.dec1.b, 0.0)
    return a3 @ params.dec2.w.T + params.dec2.b


def classify(params, z):
    """Class-1 probabilities, clamped away from exact 0 and 1."""
    z = _check_batch(z, params.m, "z")
    logit = (z @ params.clf.w.T + params.clf.b)[:, 0]
    return np.clip(losses._sigmoid(logit), PROB_CLAMP, 1.0 - PROB_CLAMP)


def forward(params, x_src, x_tgt):
    """Run both domains through the shared stack and cache all intermediates.

    Source latents feed the classifier head, target latents the decoder.
    """
    x_src = _check_batch(x_src, params.d, "x_src")
    x_tgt = _check_batch(x_tgt, params.d, "x_tgt")

    w_src, xw_src = attention_forward(params, x_src)
    w_tgt, xw_tgt = attention_forward(params, x_tgt)

    pre1_src = xw_src @ params.enc1.w.T + params.enc1.b
    pre1_tgt = xw_tgt @ params.enc1.w.T + params.enc1.b
    a1_src = np.maximum(pre1_src, 0.0)
    a1_tgt = np.maximum(pre1_tgt, 0.0)
    z_src = a1_src @ params.enc2.w.T + params.enc2.b
    z_tgt = a1_tgt @ params.enc2.w.T + params.enc2.b

    pre3_tgt = z_tgt @ params.dec1.w.T + params.dec1.b
    a3_tgt = np.maximum(pre3_tgt, 0.0)
    xhat_tgt = a3_tgt @ params.dec2.w.T + params.dec2.b

    logit_src = (z_src @ params.clf.w.T + params.clf.b)[:, 0]
    yhat_src = np.clip(losses._sigmoid(logit_src), PROB_CLAMP, 1.0 - PROB_CLAMP)

    return ForwardCache(
        x_src=x_src,
        x_tgt=x_tgt,
        w_src=w_src,
        w_tgt=w_tgt,
        xw_src=xw_src,
        xw_tgt=xw_tgt,
        pre1_src=pre1_src,
        pre1_tgt=pre1_tgt,
        a1_src=a1_src,
        a1_tgt=a1_tgt,
        z_src=z_src,
        z_tgt=z_tgt,
        pre3_tgt=pre3_tgt,
        a3_tgt=a3_tgt,
        xhat_tgt=xhat_tgt,
        logit_src=logit_src,
        yhat_src=yhat_src,
    )


def loss_parts(cache, y_src, kernel=KernelSpec()):
    """Raw (unweighted) mmd, classification and reconstruction losses."""
    return _parts_with_mmd(cache, y_src, losses.mmd_sq(cache.z_src, cache.z_tgt, kernel))


def _parts_with_mmd(cache, y_src, mmd):
    y_src = np.asarray(y_src, dtype=np.float64)
    if y_src.shape[0] != cache.z_src.shape[0]:
        raise DimensionError("label count does not match source batch")
    return {
        "mmd": mmd,
        "cls": losses.cross_entropy(y_src, cache.yhat_src),
        "recon": losses.l1_recon(cache.x_tgt, cache.xhat_tgt),
    }


def backward(params, cache, y_src, lambda1, lambda2, kernel=KernelSpec(),
             recon_weight=1.0):
    """Analytic gradients of the weighted total loss for one paired batch.

    Returns (loss_parts, Gradients). The L1 term uses the sign subgradient
    with sign(0) = 0; the clamp on classifier probabilities zeroes the
    cross-entropy gradient wherever it is active, matching what a finite
    difference of the implemented loss would measure.
    """
    y_src = np.asarray(y_src, dtype=np.float64)
    ns = cache.z_src.shape[0]
    nt = cache.z_tgt.shape[0]
    # The alignment term's value and gradients share one set of Gram matrices.
    mmd, g_src, g_tgt = losses._mmd_sq_and_grads(cache.z_src, cache.z_tgt, kernel)
    parts = _parts_with_mmd(cache, y_src, mmd)

    # Classifier head (source path).
    unclamped = (cache.yhat_src > PROB_CLAMP) & (cache.yhat_src < 1.0 - PROB_CLAMP)
    d_logit = np.where(unclamped, cache.yhat_src - y_src, 0.0) * (lambda2 / ns)
    d_wc = d_logit[None, :] @ cache.z_src
    d_bc = np.array([d_logit.sum()])
    dz_src = d_logit[:, None] * params.clf.w

    # Decoder (target path).
    d_xhat = np.sign(cache.xhat_tgt - cache.x_tgt) * (recon_weight / nt)
    d_w4 = d_xhat.T @ cache.a3_tgt
    d_b4 = d_xhat.sum(axis=0)
    d_a3 = d_xhat @ params.dec2.w
    d_pre3 = d_a3 * (cache.pre3_tgt > 0.0)
    d_w3 = d_pre3.T @ cache.z_tgt
    d_b3 = d_pre3.sum(axis=0)
    dz_tgt = d_pre3 @ params.dec1.w

    # Alignment term touches both latent batches.
    dz_src = dz_src + lambda1 * g_src
    dz_tgt = dz_tgt + lambda1 * g_tgt

    # Shared encoder, accumulated over both domains.
    d_w2 = dz_src.T @ cache.a1_src + dz_tgt.T @ cache.a1_tgt
    d_b2 = dz_src.sum(axis=0) + dz_tgt.sum(axis=0)
    d_pre1_src = (dz_src @ params.enc2.w) * (cache.pre1_src > 0.0)
    d_pre1_tgt = (dz_tgt @ params.enc2.w) * (cache.pre1_tgt > 0.0)
    d_w1 = d_pre1_src.T @ cache.xw_src + d_pre1_tgt.T @ cache.xw_tgt
    d_b1 = d_pre1_src.sum(axis=0) + d_pre1_tgt.sum(axis=0)

    # Attention: product rule through xw = w * x, then the softmax Jacobian
    # J = diag(w) - w w^T applied row-wise.
    def attention_grads(d_xw, w, x):
        d_w = d_xw * x
        inner = np.sum(d_w * w, axis=1, keepdims=True)
        d_pre = w * (d_w - inner)
        return d_pre.T @ x, d_pre.sum(axis=0)

    d_xw_src = d_pre1_src @ params.enc1.w
    d_xw_tgt = d_pre1_tgt @ params.enc1.w
    d_wa_s, d_ba_s = attention_grads(d_xw_src, cache.w_src, cache.x_src)
    d_wa_t, d_ba_t = attention_grads(d_xw_tgt, cache.w_tgt, cache.x_tgt)

    grads = Gradients(
        attention=(d_wa_s + d_wa_t, d_ba_s + d_ba_t),
        enc1=(d_w1, d_b1),
        enc2=(d_w2, d_b2),
        dec1=(d_w3, d_b3),
        dec2=(d_w4, d_b4),
        clf=(np.asarray(d_wc), d_bc),
    )
    return parts, grads


def total_from_parts(parts, lambda1, lambda2, recon_weight=1.0):
    """Weighted total corresponding to `backward`'s gradient."""
    return lambda1 * parts["mmd"] + lambda2 * parts["cls"] + recon_weight * parts["recon"]


# ---------------------------------------------------------------------------
# Model persistence: versioned text format with lossless hex float literals.
# ---------------------------------------------------------------------------


def save_model(params, path, stats=None):
    """Write params (and optional standardizer stats) as hex-float text.

    `load_model(save_model(p))` is bit-exact.
    """
    lines = [MODEL_MAGIC, f"dims {params.d} {params.h} {params.m}"]
    for name, layer in params.layers().items():
        out_dim, in_dim = layer.w.shape
        lines.append(f"layer {name} {out_dim} {in_dim} {layer.activation}")
        for row in layer.w:
            lines.append(" ".join(v.hex() for v in row))
        lines.append("bias " + " ".join(v.hex() for v in layer.b))
    if stats is not None:
        lines.append(f"stats {stats.means.shape[0]}")
        lines.append("means " + " ".join(v.hex() for v in stats.means))
        lines.append("sds " + " ".join(v.hex() for v in stats.sds))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path):
    """Read a model file; returns (ModelParams, FeatureStats or None).

    Malformed content of any kind raises ModelFormatError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError:
        raise ModelFormatError(f"{path}: not a UTF-8 text file") from None
    try:
        return _parse_model(path, [line for line in lines if line])
    except (DimensionError, ParameterError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def _parse_model(path, lines):
    from .data import FeatureStats

    if not lines or lines[0] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: missing '{MODEL_MAGIC}' header")
    if len(lines) < 2 or not lines[1].startswith("dims "):
        raise ModelFormatError(f"{path}: missing dims line")
    try:
        d, h, m = (int(tok) for tok in lines[1].split()[1:])
    except ValueError:
        raise ModelFormatError(f"{path}: malformed dims line {lines[1]!r}") from None
    if min(d, h, m) < 1:
        raise ModelFormatError(f"{path}: layer widths must be >= 1, got {lines[1]!r}")

    def parse_floats(line, count, what, keyword=None):
        toks = line.split()
        if keyword is not None:
            if toks[:1] != [keyword]:
                raise ModelFormatError(f"{path}: {what}: missing '{keyword}' line")
            toks = toks[1:]
        if len(toks) != count:
            raise ModelFormatError(f"{path}: {what}: expected {count} values, got {len(toks)}")
        try:
            return np.array([float.fromhex(t) for t in toks])
        except (ValueError, OverflowError):
            raise ModelFormatError(f"{path}: {what}: bad hex float") from None

    def parse_ints(tokens, line):
        try:
            values = [int(tok) for tok in tokens]
        except ValueError:
            raise ModelFormatError(f"{path}: malformed line {line!r}") from None
        if min(values) < 1:
            raise ModelFormatError(f"{path}: sizes must be >= 1 in {line!r}")
        return values

    idx = 2
    layers = {}
    stats = None
    while idx < len(lines):
        header = lines[idx].split()
        if len(header) == 5 and header[0] == "layer":
            name, activation = header[1], header[4]
            if name not in LAYER_ACTIVATIONS or name in layers:
                raise ModelFormatError(f"{path}: unknown or repeated layer {name!r}")
            if activation != LAYER_ACTIVATIONS[name]:
                raise ModelFormatError(
                    f"{path}: layer {name!r} declares activation {activation!r}, "
                    f"the architecture fixes {LAYER_ACTIVATIONS[name]!r}"
                )
            out_dim, in_dim = parse_ints(header[2:4], lines[idx])
            idx += 1
            if idx + out_dim >= len(lines):
                raise ModelFormatError(f"{path}: truncated layer {name!r}")
            w = np.stack(
                [parse_floats(lines[idx + r], in_dim, f"layer {name} row {r}") for r in range(out_dim)]
            )
            idx += out_dim
            b = parse_floats(lines[idx], out_dim, f"layer {name} bias", keyword="bias")
            idx += 1
            layers[name] = DenseLayer(w=w, b=b, activation=activation)
        elif len(header) == 2 and header[0] == "stats" and stats is None:
            (k,) = parse_ints(header[1:], lines[idx])
            if k != d:
                raise ModelFormatError(f"{path}: stats cover {k} features, dims say {d}")
            if idx + 2 >= len(lines):
                raise ModelFormatError(f"{path}: truncated stats block")
            means = parse_floats(lines[idx + 1], k, "stats means", keyword="means")
            sds = parse_floats(lines[idx + 2], k, "stats sds", keyword="sds")
            stats = FeatureStats(means=means, sds=sds)
            idx += 3
        else:
            raise ModelFormatError(f"{path}: unexpected line {lines[idx]!r}")
    missing = [name for name in LAYER_ORDER if name not in layers]
    if missing:
        raise ModelFormatError(f"{path}: missing layers {missing}")
    params = ModelParams(d=d, h=h, m=m, **layers)
    return params, stats
