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

`forward`, `backward` and `classifier_backward` take an optional
`Workspace` (`iadt.workspace`). With one, every batch-shaped array of a
step (the forward cache, the backward temporaries, the gradient vector and
its layer views) is written with `out=` into buffers that the next step of
the same shape overwrites; without one the same code allocates, as the
scoring functions do. Either way each value comes from the same operations
in the same order, so the bits do not depend on the workspace.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import losses
from .errors import DimensionError, ModelFormatError, ParameterError
from .losses import KernelSpec
from .workspace import buffer, layer_vector, scope

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
    """Row-wise softmax of `a`, computed in place."""
    a -= a.max(axis=1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=1, keepdims=True)
    return a


def _dense(layer, x, out=None):
    out = np.matmul(x, layer.w.T, out=out)
    out += layer.b
    return out


# A ReLU's output is positive exactly where its input is, so the hidden
# activations double as the backward masks and no pre-activation is kept.
def _relu_dense(layer, x, out=None):
    a = _dense(layer, x, out)
    return np.maximum(a, 0.0, out=a)


def attention_forward(params, x, ws=None):
    """Per-sample softmax feature weights and the reweighted input.

    With a workspace (see `iadt.workspace`) both live in its buffers.
    """
    x = _check_batch(x, params.d, "x")
    w = _softmax_rows(_dense(params.attention, x, buffer(ws, "w", x.shape)))
    return w, np.multiply(w, x, out=buffer(ws, "xw", x.shape))


def _encoder(params, xw, ws=None):
    batch = xw.shape[0]
    a1 = _relu_dense(params.enc1, xw, buffer(ws, "a1", (batch, params.h)))
    return a1, _dense(params.enc2, a1, buffer(ws, "z", (batch, params.m)))


def _decoder(params, z, ws=None):
    batch = z.shape[0]
    a3 = _relu_dense(params.dec1, z, buffer(ws, "a3", (batch, params.h)))
    return a3, _dense(params.dec2, a3, buffer(ws, "xhat", (batch, params.d)))


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


def _encode_path(params, x, ws):
    w, xw = attention_forward(params, x, ws)
    return EncodePath(x, w, xw, *_encoder(params, xw, ws))


def forward(params, x_src, x_tgt, ws=None):
    """Run both domains through the shared stack and cache all intermediates.

    Source latents feed the classifier head, target latents the decoder.
    With a workspace the cache's arrays are its buffers, which the next
    `forward` of the same batch shape overwrites.
    """
    src = _encode_path(params, _check_batch(x_src, params.d, "x_src"), scope(ws, "src"))
    tgt_ws = scope(ws, "tgt")
    tgt = _encode_path(params, _check_batch(x_tgt, params.d, "x_tgt"), tgt_ws)
    a3, xhat = _decoder(params, tgt.z, tgt_ws)
    return ForwardCache(src, tgt, a3, xhat, _head(params, src.z))


def loss_parts(cache, y_src, kernel=KernelSpec()):
    """Raw (unweighted) mmd, classification and reconstruction losses."""
    return _parts_with_mmd(cache, y_src, losses.mmd_sq(cache.src.z, cache.tgt.z, kernel))


def _parts_with_mmd(cache, y_src, mmd, ws=None):
    y_src = _check_labels(y_src, cache.src.z.shape[0])
    return {
        "mmd": mmd,
        "cls": losses.cross_entropy(y_src, cache.yhat_src),
        "recon": losses.l1_recon(cache.tgt.x, cache.xhat_tgt, ws),
    }


# Each *_grad helper below writes its layers' gradients into `views`
# ({name: DenseLayer} over a gradient vector) and returns dL/d(its input).


def _head_grad(params, z, yhat, y, weight, views, ws):
    """The clf gradient and dL/dz of weight * bce(y, yhat).

    The clamp on the probabilities zeroes the gradient wherever it is
    active, matching what a finite difference of the implemented loss
    would measure.
    """
    unclamped = (yhat > PROB_CLAMP) & (yhat < 1.0 - PROB_CLAMP)
    d_logit = np.where(unclamped, yhat - y, 0.0) * (weight / z.shape[0])
    np.matmul(d_logit[None, :], z, out=views["clf"].w)
    views["clf"].b[0] = d_logit.sum()
    return np.multiply(d_logit[:, None], params.clf.w, out=buffer(ws, "dz_head", z.shape))


def _relu_grad(d_a, a, ws):
    """d_a masked in place by where the ReLU output `a` is positive."""
    d_a *= np.greater(a, 0.0, out=buffer(ws, "relu_mask", a.shape, bool))
    return d_a


def _decoder_grad(params, cache, weight, views, ws):
    """The dec1/dec2 gradients and dL/dz_tgt of weight * l1(x_t, xhat_t),
    with the sign subgradient sign(0) = 0."""
    z, a3 = cache.tgt.z, cache.a3_tgt
    d_xhat = np.subtract(cache.xhat_tgt, cache.tgt.x, out=buffer(ws, "d_xhat", cache.tgt.x.shape))
    np.sign(d_xhat, out=d_xhat)
    d_xhat *= weight / z.shape[0]
    np.matmul(d_xhat.T, a3, out=views["dec2"].w)
    np.sum(d_xhat, axis=0, out=views["dec2"].b)
    d_pre3 = _relu_grad(np.matmul(d_xhat, params.dec2.w, out=buffer(ws, "d_a3", a3.shape)), a3, ws)
    np.matmul(d_pre3.T, z, out=views["dec1"].w)
    np.sum(d_pre3, axis=0, out=views["dec1"].b)
    return np.matmul(d_pre3, params.dec1.w, out=buffer(ws, "dz_dec", z.shape))


def _encode_path_grad(params, path, dz, views, ws):
    """The attention, enc1 and enc2 gradients of one encode path given dL/dz."""
    np.matmul(dz.T, path.a1, out=views["enc2"].w)
    np.sum(dz, axis=0, out=views["enc2"].b)
    d_pre1 = _relu_grad(np.matmul(dz, params.enc2.w, out=buffer(ws, "d_a1", path.a1.shape)),
                        path.a1, ws)
    np.matmul(d_pre1.T, path.xw, out=views["enc1"].w)
    np.sum(d_pre1, axis=0, out=views["enc1"].b)
    # Attention: product rule through xw = w * x, then the softmax Jacobian
    # J = diag(w) - w w^T applied row-wise: d_pre = w * (d_w - <d_w, w>).
    d_w = np.matmul(d_pre1, params.enc1.w, out=buffer(ws, "d_w", path.x.shape))
    d_w *= path.x
    inner = np.sum(np.multiply(d_w, path.w, out=buffer(ws, "d_w_w", path.x.shape)),
                   axis=1, keepdims=True, out=buffer(ws, "inner", (path.x.shape[0], 1)))
    d_w -= inner
    d_pre = np.multiply(path.w, d_w, out=d_w)
    np.matmul(d_pre.T, path.x, out=views["attention"].w)
    np.sum(d_pre, axis=0, out=views["attention"].b)


_SHARED_LAYERS = ("attention", "enc1", "enc2")


def backward(params, cache, y_src, lambda1, lambda2, kernel=KernelSpec(),
             recon_weight=1.0, ws=None):
    """Analytic gradients of the weighted total loss for one paired batch.

    Returns (loss_parts, gradient), the gradient a vector in the parameter
    layout (`params.layers(gradient)` views it by layer). With a workspace
    the gradient is the workspace's vector, overwritten by the next call.
    The L1 term uses the sign subgradient with sign(0) = 0.
    """
    y_src = _check_labels(y_src, cache.src.z.shape[0])
    # The alignment term's value and gradients share one set of Gram matrices.
    mmd, g_src, g_tgt = losses._mmd_sq_and_grads(cache.src.z, cache.tgt.z, kernel,
                                                  scope(ws, "mmd"))
    parts = _parts_with_mmd(cache, y_src, mmd, ws)

    grad, views = layer_vector(ws, "grad", params)
    dz_src = _head_grad(params, cache.src.z, cache.yhat_src, y_src, lambda2, views, ws)
    dz_tgt = _decoder_grad(params, cache, recon_weight, views, ws)
    # Alignment term touches both latent batches.
    g_src *= lambda1
    dz_src += g_src
    g_tgt *= lambda1
    dz_tgt += g_tgt

    # The shared attention and encoder accumulate over both domains: the
    # source's gradient plus the target's.
    _encode_path_grad(params, cache.src, dz_src, views, ws)
    _, tgt_views = layer_vector(ws, "grad_tgt", params)
    _encode_path_grad(params, cache.tgt, dz_tgt, tgt_views, ws)
    for name in _SHARED_LAYERS:
        layer, tgt = views[name], tgt_views[name]
        np.add(layer.w, tgt.w, out=layer.w)
        np.add(layer.b, tgt.b, out=layer.b)
    return parts, grad


def classifier_backward(params, x, y, lambda2, ws=None):
    """Gradient of lambda2 * bce(y, yhat) through attention, encoder and head.

    One pass over the classifier path alone; the decoder gradient is exactly
    zero. It equals `backward`'s gradient with lambda1 = recon_weight = 0 on
    the batch paired with itself. Returns the gradient as a vector in the
    parameter layout; with a workspace it is the workspace's vector,
    overwritten by the next call.
    """
    x = _check_batch(x, params.d, "x")
    y = _check_labels(y, x.shape[0])
    path = _encode_path(params, x, ws)
    grad, views = layer_vector(ws, "grad", params)
    dz = _head_grad(params, path.z, _head(params, path.z), y, lambda2, views, ws)
    _encode_path_grad(params, path, dz, views, ws)
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
