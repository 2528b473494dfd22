"""The adaptation network: a softmax attention layer that reweights input
features, a shared two-layer encoder, a mirrored decoder and a sigmoid
classifier, with hand-derived backpropagation.

All parameters live in one contiguous float64 vector (`ModelParams.flat`),
the only thing a `ModelParams` is built from; each layer's weights and
biases are views into it, and gradients and Adam moments are vectors of the
same layout, so an optimizer step is a handful of whole-vector operations.
`load_model` builds such a vector from a model file's values in one pass.

Training flows source and target batches through the same attention and
encoder weights; the classifier consumes source latents, the decoder
reconstructs target inputs, and the squared-MMD between the two latent
batches pulls the domains together. `backward` returns the value of

    lambda1 * mmd(z_s, z_t) + lambda2 * bce(y, yhat) + recon_w * l1(x_t, xhat_t)

with its three unweighted terms, and its analytic gradient with respect to
every parameter, including the full softmax Jacobian of the attention layer
and the product rule through the feature reweighting.
`classifier_backward` is the gradient of the classification term alone:
one pass through attention, encoder and head and back, with an exactly zero
decoder gradient. Both are built from the same per-path pieces (encode
path, classifier head, decoder), so each layer's chain rule exists once.
One reconstruction difference feeds both the L1 value and its
subgradient: `losses.l1_recon` forms xhat_t - x_t once and leaves it in the
workspace, and the decoder's gradient takes its sign from there.

Every batch-shaped array of a step (the forward cache, the backward
temporaries, the gradient vector and its layer views) is written with
`out=` into a buffer of a `Workspace` (`iadt.workspace`) that the next step
of the same shape overwrites. Training and scoring pass one; a call
without one makes a fresh one, so it runs the same code and keeps nothing.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import losses
from .errors import DimensionError, ModelFormatError, ParameterError
from .losses import KernelSpec
from .workspace import Workspace, buffer, layer_vector, scope

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

# `backward`'s loss terms, and the columns of `train`'s loss table and history file.
LOSS_PARTS = ("mmd", "cls", "recon", "total")

# The most characters a model file line may take per token (value or head
# word). A float.hex token takes at most 24, so 32 leaves room for ordinary
# whitespace; a longer line is refused before it is read in full.
MODEL_CHARS_PER_TOKEN = 32


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

    `flat` is taken as it is, not copied; it must be a contiguous float64
    vector of the layout's length.
    """

    def __init__(self, flat, d, h, m):
        size = _layout(d, h, m)[1]
        if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64
                and flat.shape == (size,) and flat.flags.c_contiguous):
            raise DimensionError(f"widths {d} {h} {m} take a contiguous float64 vector of {size}")
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
        return ModelParams(self.flat.copy(), self.d, self.h, self.m)


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
    params = ModelParams(np.zeros(_layout(d, h, m)[1]), d, h, m)
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
    if y.shape != (batch,):
        raise DimensionError(f"labels must have shape ({batch},) for a batch of {batch} rows, "
                             f"got {y.shape}")
    return y


def _softmax_rows(a, ws):
    """Row-wise softmax of `a`, computed in place; the row maxima and then
    the row sums go to one column buffer of `ws`."""
    col = buffer(ws, "row_stat", (a.shape[0], 1))
    a -= np.maximum.reduce(a, axis=1, keepdims=True, out=col)
    np.exp(a, out=a)
    a /= np.add.reduce(a, axis=1, keepdims=True, out=col)
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
    """Per-sample softmax feature weights and the reweighted input, both in
    buffers of `ws`."""
    ws = Workspace() if ws is None else ws
    x = _check_batch(x, params.d, "x")
    w = _softmax_rows(_dense(params.attention, x, buffer(ws, "w", x.shape)), ws)
    return w, np.multiply(w, x, out=buffer(ws, "xw", x.shape))


def _encoder(params, xw, ws):
    batch = xw.shape[0]
    a1 = _relu_dense(params.enc1, xw, buffer(ws, "a1", (batch, params.h)))
    return a1, _dense(params.enc2, a1, buffer(ws, "z", (batch, params.m)))


def _decoder(params, z, ws):
    batch = z.shape[0]
    a3 = _relu_dense(params.dec1, z, buffer(ws, "a3", (batch, params.h)))
    return a3, _dense(params.dec2, a3, buffer(ws, "xhat", (batch, params.d)))


def _head(params, z, ws):
    """Class-1 probabilities clamped to [PROB_CLAMP, 1 - PROB_CLAMP], in a
    buffer of `ws`."""
    batch = z.shape[0]
    logit = _dense(params.clf, z, buffer(ws, "logit", (batch, 1)))[:, 0]
    prob = losses._sigmoid(logit, buffer(ws, "prob", (batch,)))
    np.maximum(prob, PROB_CLAMP, out=prob)
    return np.minimum(prob, 1.0 - PROB_CLAMP, out=prob)


def encode(params, xw, ws=None):
    """Latent codes: linear readout of a ReLU hidden layer, both in buffers
    of `ws`."""
    ws = Workspace() if ws is None else ws
    return _encoder(params, _check_batch(xw, params.d, "xw"), ws)[1]


def classify(params, z):
    """Class-1 probabilities, clamped away from exact 0 and 1."""
    return _head(params, _check_batch(z, params.m, "z"), Workspace())


def _encode_path(params, x, ws):
    w, xw = attention_forward(params, x, ws)
    return EncodePath(x, w, xw, *_encoder(params, xw, ws))


def forward(params, x_src, x_tgt, ws=None):
    """Run both domains through the shared stack and cache all intermediates.

    Source latents feed the classifier head, target latents the decoder.
    The cache's arrays are buffers of `ws`, which the next `forward` of the
    same batch shape overwrites.
    """
    ws = Workspace() if ws is None else ws
    src_ws, tgt_ws = scope(ws, "src"), scope(ws, "tgt")
    src = _encode_path(params, _check_batch(x_src, params.d, "x_src"), src_ws)
    tgt = _encode_path(params, _check_batch(x_tgt, params.d, "x_tgt"), tgt_ws)
    a3, xhat = _decoder(params, tgt.z, tgt_ws)
    return ForwardCache(src, tgt, a3, xhat, _head(params, src.z, src_ws))


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
    np.add.reduce(d_logit, keepdims=True, out=views["clf"].b)
    return np.multiply(d_logit[:, None], params.clf.w, out=buffer(ws, "dz_head", z.shape))


def _relu_grad(d_a, a, ws):
    """d_a masked in place by where the ReLU output `a` is positive."""
    d_a *= np.greater(a, 0.0, out=buffer(ws, "relu_mask", a.shape, bool))
    return d_a


def _decoder_grad(params, cache, weight, views, ws):
    """The dec1/dec2 gradients and dL/dz_tgt of weight * l1(x_t, xhat_t),
    with the sign subgradient sign(0) = 0.

    The subgradient is the sign of the difference xhat_t - x_t that
    `losses.l1_recon` left in `ws` when it took the loss's value, so it must
    run after that call with the same workspace.
    """
    z, a3 = cache.tgt.z, cache.a3_tgt
    diff = buffer(ws, losses.RECON_DIFF, cache.tgt.x.shape)
    # Into its own buffer: np.sign in place ran ~5x slower (44-49 against 9-17 µs at 128 x 90).
    d_xhat = np.sign(diff, out=buffer(ws, "d_xhat", diff.shape))
    d_xhat *= weight / z.shape[0]
    np.matmul(d_xhat.T, a3, out=views["dec2"].w)
    np.add.reduce(d_xhat, axis=0, out=views["dec2"].b)
    d_pre3 = _relu_grad(np.matmul(d_xhat, params.dec2.w, out=buffer(ws, "d_a3", a3.shape)), a3, ws)
    np.matmul(d_pre3.T, z, out=views["dec1"].w)
    np.add.reduce(d_pre3, axis=0, out=views["dec1"].b)
    return np.matmul(d_pre3, params.dec1.w, out=buffer(ws, "dz_dec", z.shape))


def _encode_path_grad(params, path, dz, views, ws):
    """The attention, enc1 and enc2 gradients of one encode path given dL/dz."""
    np.matmul(dz.T, path.a1, out=views["enc2"].w)
    np.add.reduce(dz, axis=0, out=views["enc2"].b)
    d_pre1 = _relu_grad(np.matmul(dz, params.enc2.w, out=buffer(ws, "d_a1", path.a1.shape)),
                        path.a1, ws)
    np.matmul(d_pre1.T, path.xw, out=views["enc1"].w)
    np.add.reduce(d_pre1, axis=0, out=views["enc1"].b)
    # Attention: product rule through xw = w * x, then the softmax Jacobian
    # J = diag(w) - w w^T applied row-wise: d_pre = w * (d_w - <d_w, w>).
    d_w = np.matmul(d_pre1, params.enc1.w, out=buffer(ws, "d_w", path.x.shape))
    d_w *= path.x
    inner = np.add.reduce(np.multiply(d_w, path.w, out=buffer(ws, "d_w_w", path.x.shape)),
                          axis=1, keepdims=True, out=buffer(ws, "inner", (path.x.shape[0], 1)))
    d_w -= inner
    d_pre = np.multiply(path.w, d_w, out=d_w)
    np.matmul(d_pre.T, path.x, out=views["attention"].w)
    np.add.reduce(d_pre, axis=0, out=views["attention"].b)


def backward(params, cache, y_src, lambda1, lambda2, kernel=KernelSpec(),
             recon_weight=1.0, ws=None):
    """Analytic gradients of the weighted total loss for one paired batch.

    Returns (parts, gradient): a dict, keyed by LOSS_PARTS, of the raw
    (unweighted) "mmd", "cls" and "recon" losses and their weighted "total",
    lambda1 * mmd + lambda2 * cls + recon_weight * recon, and the gradient
    of that total as a vector in the parameter layout
    (`params.layers(gradient)` views it by layer), a vector of `ws` that the
    next call overwrites. The L1 term uses the sign subgradient with
    sign(0) = 0.
    """
    ws = Workspace() if ws is None else ws
    y_src = _check_labels(y_src, cache.src.z.shape[0])
    # The alignment term's value and gradients share one set of Gram matrices.
    mmd, g_src, g_tgt = losses._mmd_sq_and_grads(cache.src.z, cache.tgt.z, kernel,
                                                  scope(ws, "mmd"))
    cls = losses.cross_entropy(y_src, cache.yhat_src)
    recon = losses.l1_recon(cache.tgt.x, cache.xhat_tgt, ws)
    parts = dict(zip(LOSS_PARTS, (mmd, cls, recon,
                                  lambda1 * mmd + lambda2 * cls + recon_weight * recon)))

    grad, views = layer_vector(ws, "grad", params)
    dz_src = _head_grad(params, cache.src.z, cache.yhat_src, y_src, lambda2, views, ws)
    dz_tgt = _decoder_grad(params, cache, recon_weight, views, ws)
    # Alignment term touches both latent batches.
    g_src *= lambda1
    dz_src += g_src
    g_tgt *= lambda1
    dz_tgt += g_tgt

    # The shared attention and encoder accumulate over both domains: the
    # source's gradient plus the target's. They lead the layout, so their
    # gradients are the vector's span up to the end of enc2's bias.
    _encode_path_grad(params, cache.src, dz_src, views, ws)
    tgt_grad, tgt_views = layer_vector(ws, "grad_tgt", params)
    _encode_path_grad(params, cache.tgt, dz_tgt, tgt_views, ws)
    spans, _ = _layout(params.d, params.h, params.m)
    end = next(b.stop for name, _, _, b in spans if name == "enc2")
    np.add(grad[:end], tgt_grad[:end], out=grad[:end])
    return parts, grad


def classifier_backward(params, x, y, lambda2, ws=None):
    """Gradient of lambda2 * bce(y, yhat) through attention, encoder and head.

    One pass over the classifier path alone; the decoder gradient is exactly
    zero. It equals `backward`'s gradient with lambda1 = recon_weight = 0 on
    the batch paired with itself. Returns the gradient as a vector in the
    parameter layout, a vector of `ws` that the next call overwrites.
    """
    ws = Workspace() if ws is None else ws
    x = _check_batch(x, params.d, "x")
    y = _check_labels(y, x.shape[0])
    path = _encode_path(params, x, ws)
    grad, views = layer_vector(ws, "grad", params)
    dz = _head_grad(params, path.z, _head(params, path.z, ws), y, lambda2, views, ws)
    _encode_path_grad(params, path, dz, views, ws)
    for name in ("dec1", "dec2"):
        views[name].w[...] = 0.0
        views[name].b[...] = 0.0
    return grad


# ---------------------------------------------------------------------------
# Model persistence: versioned text format with lossless hex float literals.
# ---------------------------------------------------------------------------


def _line_heads(d, h, m, stats):
    """The lines of a model file after `dims`, in file order, each as its
    leading tokens and its count of values. The values, in order, are the
    parameter vector's and then, with `stats`, the means and the sds."""
    for name, _, (rows, cols), _ in _layout(d, h, m)[0]:
        yield ["layer", name, str(rows), str(cols), LAYER_ACTIVATIONS[name]], 0
        yield from itertools.repeat(([], cols), rows)
        yield ["bias"], rows
    if stats:
        yield from ((["stats", str(d)], 0), (["means"], d), (["sds"], d))


def save_model(params, path, stats=None):
    """Write params (and optional standardizer stats) as hex-float text.

    `load_model(save_model(p))` is bit-exact.
    """
    values = params.flat.tolist()
    if stats is not None:
        if stats.means.shape != (params.d,):
            raise DimensionError(f"stats of {stats.means.shape[0]} features for a model of "
                                 f"{params.d}")
        values += stats.means.tolist() + stats.sds.tolist()
    tokens = map(float.hex, values)
    lines = [MODEL_MAGIC, f"dims {params.d} {params.h} {params.m}"]
    lines += [" ".join([*head, *itertools.islice(tokens, n)])
              for head, n in _line_heads(params.d, params.h, params.m, stats is not None)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path):
    """Read a model file written by `save_model`; returns (ModelParams,
    FeatureStats or None).

    The non-blank lines, read as whitespace-split tokens past a leading BOM,
    must be save_model's sequence and nothing else: the magic line, `dims d
    h m`, the layer lines, then an optional `stats` block. Reading stops at
    the first non-blank line past the most that the widths allow, each line
    is read only up to MODEL_CHARS_PER_TOKEN characters per token it should
    hold, and the lines are parsed only once their count matches the
    widths, so neither a file that claims huge widths nor one with extra
    lines or an overlong line is held in memory.
    Malformed content of any kind raises ModelFormatError.
    """
    from .data import FeatureStats

    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = []
            if _read_lines(fh, lines, [4 * MODEL_CHARS_PER_TOKEN] * 2) is not None:
                lines.pop()  # an overlong magic or dims line is reported missing
            d, h, m = _model_widths(path, lines)
            spans, size = _layout(d, h, m)
            # Each layer takes a header, one line per weight row and a bias line.
            count = 2 + sum(shape[0] + 2 for _, _, shape, _ in spans)
            limits = ((len(head) + n) * MODEL_CHARS_PER_TOKEN
                      for head, n in _line_heads(d, h, m, stats=True))
            # one line more than the widths allow shows that the file has extra lines
            limit = _read_lines(fh, lines, itertools.chain(limits, [MODEL_CHARS_PER_TOKEN]))
    except UnicodeDecodeError:
        raise ModelFormatError(f"{path}: not a UTF-8 text file") from None
    except OverflowError:
        # a line count or length past what readline and repeat take
        raise ModelFormatError(f"{path}: widths {d} {h} {m} are too large for any file") from None
    if limit is not None and len(lines) <= count + 3:
        raise ModelFormatError(f"{path}: non-blank line {len(lines)} is longer than the "
                               f"{limit} characters its tokens may take")
    if len(lines) not in (count, count + 3):
        found = len(lines) if len(lines) <= count + 3 else f"more than {count + 3}"
        raise ModelFormatError(f"{path}: widths {d} {h} {m} take {count} non-blank lines "
                               f"({count + 3} with stats), the file has {found}")
    values = []
    heads = _line_heads(d, h, m, len(lines) > count)
    for number, (line, (head, n)) in enumerate(zip(lines[2:], heads), start=3):
        _parse_line(path, number, line, head, n, values)
    params = ModelParams(np.fromiter(values, np.float64, size), d, h, m)
    if not np.isfinite(params.flat).all():
        raise ModelFormatError(f"{path}: layer parameters must be finite")
    if len(lines) == count:
        return params, None
    try:
        return params, FeatureStats(means=values[size:size + d], sds=values[size + d:])
    except ParameterError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def _read_lines(fh, lines, limits):
    """Append to `lines` the next non-blank lines of `fh` without their
    newline, one for each limit in `limits`: the most characters that line
    may hold. A blank line holds only whitespace, at most the limit of it,
    and is skipped; a longer whitespace line is a non-blank one. Stops at the end of the file, or after a longer
    line, of which only the first limit + 1 characters are read and
    appended; returns that line's limit, or None."""
    readline, append = fh.readline, lines.append
    for limit in limits:
        line = readline(limit + 1)
        while line.isspace() and len(line.rstrip("\n")) <= limit:
            line = readline(limit + 1)
        line = line.rstrip("\n")
        if not line:
            return None
        append(line)
        if len(line) > limit:
            return limit
    return None


def _model_widths(path, lines):
    """(d, h, m) from a model file's first two non-blank lines: the magic
    line and `dims d h m` with every width >= 1."""
    if not lines or lines[0].split() != MODEL_MAGIC.split():
        raise ModelFormatError(f"{path}: missing '{MODEL_MAGIC}' header")
    try:
        keyword, *widths = lines[1].split()
        d, h, m = (int(tok) for tok in widths)
    except (IndexError, ValueError):
        keyword = None
    if keyword != "dims" or min(d, h, m) < 1:
        raise ModelFormatError(f"{path}: no 'dims <d> <h> <m>' line with widths >= 1 "
                               "after the header")
    return d, h, m


def _parse_line(path, number, line, head, n, out):
    """Check that `line` (non-blank line `number`) is the tokens `head`
    followed by `n` hex floats, and append those to the list `out`."""
    toks = line.split()
    if len(toks) != len(head) + n or head and toks[:len(head)] != head:
        raise ModelFormatError(f"{path}: non-blank line {number}: expected {' '.join(head)!r} "
                               f"and {n} values, got {line[:80]!r}")
    if head:
        del toks[:len(head)]
    try:
        out += map(float.fromhex, toks)
    except (ValueError, OverflowError):
        position, tok = _first_bad_hex(toks)
        raise ModelFormatError(f"{path}: non-blank line {number}: bad hex float "
                               f"{tok[:40]!r} (value {position})") from None


def _first_bad_hex(toks):
    """(1-based position, token) of the first token float.fromhex rejects."""
    for position, tok in enumerate(toks, start=1):
        try:
            float.fromhex(tok)
        except (ValueError, OverflowError):
            return position, tok
