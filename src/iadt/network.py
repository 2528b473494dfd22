"""The adaptation network: a softmax attention layer that reweights input
features, a shared two-layer encoder, a mirrored decoder and a sigmoid
classifier, with hand-derived backpropagation.

All parameters live in one contiguous float64 vector (`ModelParams.flat`);
each layer's weights and biases are views into it, and gradients and Adam
moments are vectors of the same layout, so an optimizer step is a handful
of whole-vector operations.

Training flows source and target batches through the same attention and
encoder weights; the classifier consumes source latents, the decoder
reconstructs target inputs, and the squared-MMD between the two latent
batches pulls the domains together. `backward` returns the analytic
gradient of

    lambda1 * mmd(z_s, z_t) + lambda2 * bce(y, yhat) + recon_w * l1(x_t, xhat_t)

with respect to every parameter, including the full softmax Jacobian of the
attention layer and the product rule through the feature reweighting.
`classifier_backward` is the gradient of the classification term alone:
one pass through attention, encoder and head and back, with an exactly zero
decoder gradient. Both are built from the same per-path pieces (encode
path, classifier head, decoder), so each layer's chain rule exists once.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import losses
from .errors import DimensionError, ModelFormatError, ParameterError
from .losses import KernelSpec

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
    """One fully connected layer: weights (out x in) and biases (out).

    The same pair holds a layer's gradients or Adam moments.
    """

    w: np.ndarray
    b: np.ndarray


@functools.lru_cache(maxsize=64)
def _layout(d, h, m):
    """Each layer's (name, weight slice, weight shape, bias slice) in the
    flat vector, in LAYER_ORDER, and the vector's length."""
    if d < 1 or h < 1 or m < 1:
        raise ParameterError("layer widths must be >= 1")
    shapes = {
        "attention": (d, d),
        "enc1": (h, d),
        "enc2": (m, h),
        "dec1": (h, m),
        "dec2": (d, h),
        "clf": (1, m),
    }
    spans = []
    pos = 0
    for name in LAYER_ORDER:
        out_dim, in_dim = shapes[name]
        w = slice(pos, pos + out_dim * in_dim)
        b = slice(w.stop, w.stop + out_dim)
        spans.append((name, w, (out_dim, in_dim), b))
        pos = b.stop
    return tuple(spans), pos


class ModelParams:
    """All network parameters in one contiguous float64 vector, `flat`,
    plus the widths (d input, h hidden, m latent).

    The layers lie in LAYER_ORDER, each as its row-major weights followed by
    its biases. `attention`, `enc1`, `enc2`, `dec1`, `dec2` and `clf` are
    DenseLayers whose `w` and `b` are views into `flat`, so updating `flat`
    in place updates every layer. Gradients and Adam moments are vectors of
    the same layout; `layers(vector)` views one of them layer by layer.

    Built from layers, the parameters are copied into a fresh vector after
    their shapes and finiteness are checked.
    """

    def __init__(self, attention, enc1, enc2, dec1, dec2, clf, d, h, m):
        self._bind(np.empty(_layout(d, h, m)[1]), d, h, m)
        given = {"attention": attention, "enc1": enc1, "enc2": enc2,
                 "dec1": dec1, "dec2": dec2, "clf": clf}
        for name, view in self.layers().items():
            w = np.asarray(given[name].w, dtype=np.float64)
            b = np.asarray(given[name].b, dtype=np.float64)
            if w.shape != view.w.shape or b.shape != view.b.shape:
                raise DimensionError(
                    f"{name} has weights {w.shape} and biases {b.shape}, "
                    f"expected {view.w.shape} and {view.b.shape}"
                )
            view.w[...] = w
            view.b[...] = b
        if not np.isfinite(self.flat).all():
            raise ParameterError("layer parameters must be finite")

    @classmethod
    def _wrap(cls, flat, d, h, m):
        """Parameters viewing `flat` itself, unchecked."""
        params = cls.__new__(cls)
        params._bind(flat, d, h, m)
        return params

    def _bind(self, flat, d, h, m):
        self.flat, self.d, self.h, self.m = flat, d, h, m
        self.__dict__.update(self.layers())

    def layers(self, vector=None):
        """{name: DenseLayer} views of `vector` (default: the parameters)."""
        vector = self.flat if vector is None else vector
        spans, _ = _layout(self.d, self.h, self.m)
        return {
            name: DenseLayer(vector[w].reshape(shape), vector[b])
            for name, w, shape, b in spans
        }

    def copy(self):
        """Parameters with a fresh copy of the vector."""
        return ModelParams._wrap(self.flat.copy(), self.d, self.h, self.m)


@dataclass(frozen=True)
class EncodePath:
    """One batch through attention, enc1 and enc2, with every intermediate
    its gradient needs."""

    x: np.ndarray
    w: np.ndarray
    xw: np.ndarray
    a1: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class ForwardCache:
    """Every intermediate needed to backpropagate one paired batch: both
    encode paths, the target's decoder pass and the source's probabilities."""

    src: EncodePath
    tgt: EncodePath
    a3_tgt: np.ndarray
    xhat_tgt: np.ndarray
    yhat_src: np.ndarray


def init_params(d, h, m, seed):
    """Glorot-uniform weights, zero biases, from a seeded generator.

    The draw order is fixed (attention, enc1, enc2, dec1, dec2, clf) so a
    seed pins every parameter bit.
    """
    params = ModelParams._wrap(np.zeros(_layout(d, h, m)[1]), d, h, m)
    rng = np.random.default_rng(seed)
    for layer in params.layers().values():
        out_dim, in_dim = layer.w.shape
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        layer.w[...] = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    return params


def _check_batch(x, width, name):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != width:
        raise DimensionError(f"{name} must have shape (batch, {width}), got {x.shape}")
    if x.shape[0] < 1:
        raise ParameterError(f"{name} batch is empty")
    return x


def _check_labels(y, batch):
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != batch:
        raise DimensionError(f"{y.shape[0]} labels for a batch of {batch} rows")
    return y


def _softmax_rows(a):
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _dense(layer, x):
    out = x @ layer.w.T
    out += layer.b
    return out


# A ReLU's output is positive exactly where its input is, so the hidden
# activations double as the backward masks and no pre-activation is kept.
def _relu_dense(layer, x):
    a = _dense(layer, x)
    return np.maximum(a, 0.0, out=a)


def attention_forward(params, x):
    """Per-sample softmax feature weights and the reweighted input."""
    x = _check_batch(x, params.d, "x")
    w = _softmax_rows(_dense(params.attention, x))
    return w, w * x


def _encoder(params, xw):
    a1 = _relu_dense(params.enc1, xw)
    return a1, _dense(params.enc2, a1)


def _decoder(params, z):
    a3 = _relu_dense(params.dec1, z)
    return a3, _dense(params.dec2, a3)


def _head(params, z):
    logit = _dense(params.clf, z)[:, 0]
    return np.clip(losses._sigmoid(logit), PROB_CLAMP, 1.0 - PROB_CLAMP)


def encode(params, xw):
    """Latent codes: linear readout of a ReLU hidden layer."""
    return _encoder(params, _check_batch(xw, params.d, "xw"))[1]


def decode(params, z):
    """Reconstruction from latent codes, mirroring the encoder."""
    return _decoder(params, _check_batch(z, params.m, "z"))[1]


def classify(params, z):
    """Class-1 probabilities, clamped away from exact 0 and 1."""
    return _head(params, _check_batch(z, params.m, "z"))


def _encode_path(params, x):
    w, xw = attention_forward(params, x)
    return EncodePath(x, w, xw, *_encoder(params, xw))


def forward(params, x_src, x_tgt):
    """Run both domains through the shared stack and cache all intermediates.

    Source latents feed the classifier head, target latents the decoder.
    """
    src = _encode_path(params, _check_batch(x_src, params.d, "x_src"))
    tgt = _encode_path(params, _check_batch(x_tgt, params.d, "x_tgt"))
    a3, xhat = _decoder(params, tgt.z)
    return ForwardCache(src, tgt, a3, xhat, _head(params, src.z))


def loss_parts(cache, y_src, kernel=KernelSpec()):
    """Raw (unweighted) mmd, classification and reconstruction losses."""
    return _parts_with_mmd(cache, y_src, losses.mmd_sq(cache.src.z, cache.tgt.z, kernel))


def _parts_with_mmd(cache, y_src, mmd):
    y_src = _check_labels(y_src, cache.src.z.shape[0])
    return {
        "mmd": mmd,
        "cls": losses.cross_entropy(y_src, cache.yhat_src),
        "recon": losses.l1_recon(cache.tgt.x, cache.xhat_tgt),
    }


def _head_grad(params, z, yhat, y, weight):
    """dL/dz and the clf gradient of weight * bce(y, yhat).

    The clamp on the probabilities zeroes the gradient wherever it is
    active, matching what a finite difference of the implemented loss
    would measure.
    """
    unclamped = (yhat > PROB_CLAMP) & (yhat < 1.0 - PROB_CLAMP)
    d_logit = np.where(unclamped, yhat - y, 0.0) * (weight / z.shape[0])
    clf = DenseLayer(d_logit[None, :] @ z, np.array([d_logit.sum()]))
    return d_logit[:, None] * params.clf.w, clf


def _decoder_grad(params, cache, weight):
    """dL/dz_tgt and the dec1/dec2 gradients of weight * l1(x_t, xhat_t),
    with the sign subgradient sign(0) = 0."""
    d_xhat = np.sign(cache.xhat_tgt - cache.tgt.x) * (weight / cache.tgt.z.shape[0])
    dec2 = DenseLayer(d_xhat.T @ cache.a3_tgt, d_xhat.sum(axis=0))
    d_pre3 = (d_xhat @ params.dec2.w) * (cache.a3_tgt > 0.0)
    dec1 = DenseLayer(d_pre3.T @ cache.tgt.z, d_pre3.sum(axis=0))
    return d_pre3 @ params.dec1.w, {"dec1": dec1, "dec2": dec2}


def _encode_path_grad(params, path, dz):
    """The attention, enc1 and enc2 gradients of one encode path given dL/dz."""
    enc2 = DenseLayer(dz.T @ path.a1, dz.sum(axis=0))
    d_pre1 = (dz @ params.enc2.w) * (path.a1 > 0.0)
    enc1 = DenseLayer(d_pre1.T @ path.xw, d_pre1.sum(axis=0))
    # Attention: product rule through xw = w * x, then the softmax Jacobian
    # J = diag(w) - w w^T applied row-wise.
    d_w = (d_pre1 @ params.enc1.w) * path.x
    inner = np.sum(d_w * path.w, axis=1, keepdims=True)
    d_pre = path.w * (d_w - inner)
    attention = DenseLayer(d_pre.T @ path.x, d_pre.sum(axis=0))
    return {"attention": attention, "enc1": enc1, "enc2": enc2}


def _write(views, grads):
    for name, grad in grads.items():
        views[name].w[...] = grad.w
        views[name].b[...] = grad.b


def backward(params, cache, y_src, lambda1, lambda2, kernel=KernelSpec(),
             recon_weight=1.0, out=None):
    """Analytic gradients of the weighted total loss for one paired batch.

    Returns (loss_parts, gradient), the gradient a vector in the parameter
    layout (`params.layers(gradient)` views it by layer), written into
    `out` when given. The L1 term uses the sign subgradient with
    sign(0) = 0.
    """
    y_src = _check_labels(y_src, cache.src.z.shape[0])
    # The alignment term's value and gradients share one set of Gram matrices.
    mmd, g_src, g_tgt = losses._mmd_sq_and_grads(cache.src.z, cache.tgt.z, kernel)
    parts = _parts_with_mmd(cache, y_src, mmd)

    dz_src, clf = _head_grad(params, cache.src.z, cache.yhat_src, y_src, lambda2)
    dz_tgt, dec = _decoder_grad(params, cache, recon_weight)
    # Alignment term touches both latent batches.
    dz_src = dz_src + lambda1 * g_src
    dz_tgt = dz_tgt + lambda1 * g_tgt

    grad = np.empty(params.flat.size) if out is None else out
    views = params.layers(grad)
    # The shared attention and encoder accumulate over both domains.
    src = _encode_path_grad(params, cache.src, dz_src)
    tgt = _encode_path_grad(params, cache.tgt, dz_tgt)
    for name, g in src.items():
        np.add(g.w, tgt[name].w, out=views[name].w)
        np.add(g.b, tgt[name].b, out=views[name].b)
    _write(views, {**dec, "clf": clf})
    return parts, grad


def classifier_backward(params, x, y, lambda2, out=None):
    """Gradient of lambda2 * bce(y, yhat) through attention, encoder and head.

    One pass over the classifier path alone; the decoder gradient is exactly
    zero. It equals `backward`'s gradient with lambda1 = recon_weight = 0 on
    the batch paired with itself. Returns the gradient as a vector in the
    parameter layout, written into `out` when given.
    """
    x = _check_batch(x, params.d, "x")
    y = _check_labels(y, x.shape[0])
    path = _encode_path(params, x)
    dz, clf = _head_grad(params, path.z, _head(params, path.z), y, lambda2)
    grad = np.empty(params.flat.size) if out is None else out
    views = params.layers(grad)
    _write(views, {**_encode_path_grad(params, path, dz), "clf": clf})
    for name in ("dec1", "dec2"):
        views[name].w[...] = 0.0
        views[name].b[...] = 0.0
    return grad


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
        lines.append(f"layer {name} {out_dim} {in_dim} {LAYER_ACTIVATIONS[name]}")
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
            layers[name] = DenseLayer(w=w, b=b)
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
