"""The training step as first written with workspaces: `forward`,
`backward` with the three losses it evaluates, `classifier_backward`, the
scoring pass of one block and `adam_step`, kept as they were so that the
step's later trims can be held to their bits.

Every function here is the package's code of that time, with its module
prefixes resolved: the per-element operations, their order and their
reductions (`np.sum`, `np.mean`, `np.clip`, `np.where`) are unchanged.
Docstrings, the label-shape check and Adam's shape and finiteness checks
are left out; they change no value.
"""

import numpy as np

from iadt.errors import DimensionError, ParameterError
from iadt.losses import KernelSpec
from iadt.network import PROB_CLAMP, EncodePath, ForwardCache
from iadt.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from iadt.workspace import Workspace, buffer, layer_vector, scope

# -- losses ------------------------------------------------------------------


def _check_pair(zs, zt):
    zs = np.asarray(zs, dtype=np.float64)
    zt = np.asarray(zt, dtype=np.float64)
    if zs.ndim != 2 or zt.ndim != 2:
        raise DimensionError("latent batches must be 2-D")
    if zs.shape[1] != zt.shape[1]:
        raise DimensionError(
            f"latent widths differ: {zs.shape[1]} vs {zt.shape[1]}"
        )
    if zs.shape[0] < 1 or zt.shape[0] < 1:
        raise ParameterError("latent batches must be nonempty")
    return zs, zt


def _sigmoid(t):
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _rbf_gram(a, b, gamma, out=None, scratch=None):
    sa = np.sum(a * a, axis=1)
    sb = np.sum(b * b, axis=1)
    two_ab = np.matmul(a, b.T, out=scratch)
    two_ab *= 2.0
    k = np.add(sa[:, None], sb[None, :], out=out)
    k -= two_ab
    np.maximum(k, 0.0, out=k)
    with np.errstate(over="ignore"):
        k *= -gamma
        return np.exp(k, out=k)


def _mmd_sq_and_grads(zs, zt, kernel, ws=None):
    ws = Workspace() if ws is None else ws
    zs, zt = _check_pair(zs, zt)
    ns, nt = zs.shape[0], zt.shape[0]
    gs = buffer(ws, "gs", zs.shape)
    gt = buffer(ws, "gt", zt.shape)
    if kernel.kind == "linear":
        diff = zs.mean(axis=0) - zt.mean(axis=0)
        gs[...] = 2.0 * diff / ns
        gt[...] = -2.0 * diff / nt
        return float(diff @ diff), gs, gt
    g = kernel.gamma

    def gram(name, a, b):
        shape = (a.shape[0], b.shape[0])
        return _rbf_gram(a, b, g, out=buffer(ws, name, shape),
                         scratch=buffer(ws, "two_ab", shape))

    kss = gram("kss", zs, zs)
    ktt = gram("ktt", zt, zt)
    kst = gram("kst", zs, zt)
    value = float(kss.mean() + ktt.mean() - 2.0 * kst.mean())

    def pair_term(k, x_a, x_b, out):
        row = k.sum(axis=1)
        out = np.multiply(row[:, None], x_a, out=out)
        out -= np.matmul(k, x_b, out=buffer(ws, "k_x", x_a.shape))
        return out

    pair_term(kss, zs, zs, gs)
    gs *= -4.0 * g / ns**2
    cross = pair_term(kst, zs, zt, buffer(ws, "cross", zs.shape))
    cross *= 4.0 * g / (ns * nt)
    gs += cross
    pair_term(ktt, zt, zt, gt)
    gt *= -4.0 * g / nt**2
    cross = pair_term(kst.T, zt, zs, buffer(ws, "cross", zt.shape))
    cross *= 4.0 * g / (ns * nt)
    gt += cross
    return value, gs, gt


def cross_entropy(y, yhat):
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise DimensionError(f"label/prob length mismatch: {y.shape} vs {yhat.shape}")
    return float(np.mean(-y * np.log(yhat) - (1.0 - y) * np.log(1.0 - yhat)))


def l1_recon(x, xhat, ws=None):
    ws = Workspace() if ws is None else ws
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {xhat.shape}")
    dist = np.subtract(x, xhat, out=buffer(ws, "l1", x.shape))
    return float(np.mean(np.sum(np.abs(dist, out=dist), axis=-1)))


# -- network -----------------------------------------------------------------


def _check_batch(x, width, name):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != width:
        raise DimensionError(f"{name} must have shape (batch, {width}), got {x.shape}")
    if x.shape[0] < 1:
        raise ParameterError(f"{name} batch is empty")
    return x


def _softmax_rows(a):
    a -= a.max(axis=1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=1, keepdims=True)
    return a


def _dense(layer, x, out=None):
    out = np.matmul(x, layer.w.T, out=out)
    out += layer.b
    return out


def _relu_dense(layer, x, out=None):
    a = _dense(layer, x, out)
    return np.maximum(a, 0.0, out=a)


def attention_forward(params, x, ws=None):
    ws = Workspace() if ws is None else ws
    x = _check_batch(x, params.d, "x")
    w = _softmax_rows(_dense(params.attention, x, buffer(ws, "w", x.shape)))
    return w, np.multiply(w, x, out=buffer(ws, "xw", x.shape))


def _encoder(params, xw, ws):
    batch = xw.shape[0]
    a1 = _relu_dense(params.enc1, xw, buffer(ws, "a1", (batch, params.h)))
    return a1, _dense(params.enc2, a1, buffer(ws, "z", (batch, params.m)))


def _decoder(params, z, ws):
    batch = z.shape[0]
    a3 = _relu_dense(params.dec1, z, buffer(ws, "a3", (batch, params.h)))
    return a3, _dense(params.dec2, a3, buffer(ws, "xhat", (batch, params.d)))


def _head(params, z):
    logit = _dense(params.clf, z)[:, 0]
    return np.clip(_sigmoid(logit), PROB_CLAMP, 1.0 - PROB_CLAMP)


def _encode_path(params, x, ws):
    w, xw = attention_forward(params, x, ws)
    return EncodePath(x, w, xw, *_encoder(params, xw, ws))


def forward(params, x_src, x_tgt, ws=None):
    ws = Workspace() if ws is None else ws
    src = _encode_path(params, _check_batch(x_src, params.d, "x_src"), scope(ws, "src"))
    tgt_ws = scope(ws, "tgt")
    tgt = _encode_path(params, _check_batch(x_tgt, params.d, "x_tgt"), tgt_ws)
    a3, xhat = _decoder(params, tgt.z, tgt_ws)
    return ForwardCache(src, tgt, a3, xhat, _head(params, src.z))


def _head_grad(params, z, yhat, y, weight, views, ws):
    unclamped = (yhat > PROB_CLAMP) & (yhat < 1.0 - PROB_CLAMP)
    d_logit = np.where(unclamped, yhat - y, 0.0) * (weight / z.shape[0])
    np.matmul(d_logit[None, :], z, out=views["clf"].w)
    views["clf"].b[0] = d_logit.sum()
    return np.multiply(d_logit[:, None], params.clf.w, out=buffer(ws, "dz_head", z.shape))


def _relu_grad(d_a, a, ws):
    d_a *= np.greater(a, 0.0, out=buffer(ws, "relu_mask", a.shape, bool))
    return d_a


def _decoder_grad(params, cache, weight, views, ws):
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
    np.matmul(dz.T, path.a1, out=views["enc2"].w)
    np.sum(dz, axis=0, out=views["enc2"].b)
    d_pre1 = _relu_grad(np.matmul(dz, params.enc2.w, out=buffer(ws, "d_a1", path.a1.shape)),
                        path.a1, ws)
    np.matmul(d_pre1.T, path.xw, out=views["enc1"].w)
    np.sum(d_pre1, axis=0, out=views["enc1"].b)
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
    ws = Workspace() if ws is None else ws
    y_src = np.asarray(y_src, dtype=np.float64)
    mmd, g_src, g_tgt = _mmd_sq_and_grads(cache.src.z, cache.tgt.z, kernel, scope(ws, "mmd"))
    cls = cross_entropy(y_src, cache.yhat_src)
    recon = l1_recon(cache.tgt.x, cache.xhat_tgt, ws)
    parts = {"mmd": mmd, "cls": cls, "recon": recon,
             "total": lambda1 * mmd + lambda2 * cls + recon_weight * recon}

    grad, views = layer_vector(ws, "grad", params)
    dz_src = _head_grad(params, cache.src.z, cache.yhat_src, y_src, lambda2, views, ws)
    dz_tgt = _decoder_grad(params, cache, recon_weight, views, ws)
    g_src *= lambda1
    dz_src += g_src
    g_tgt *= lambda1
    dz_tgt += g_tgt

    _encode_path_grad(params, cache.src, dz_src, views, ws)
    _, tgt_views = layer_vector(ws, "grad_tgt", params)
    _encode_path_grad(params, cache.tgt, dz_tgt, tgt_views, ws)
    for name in _SHARED_LAYERS:
        layer, tgt = views[name], tgt_views[name]
        np.add(layer.w, tgt.w, out=layer.w)
        np.add(layer.b, tgt.b, out=layer.b)
    return parts, grad


def classifier_backward(params, x, y, lambda2, ws=None):
    ws = Workspace() if ws is None else ws
    x = _check_batch(x, params.d, "x")
    y = np.asarray(y, dtype=np.float64)
    path = _encode_path(params, x, ws)
    grad, views = layer_vector(ws, "grad", params)
    dz = _head_grad(params, path.z, _head(params, path.z), y, lambda2, views, ws)
    _encode_path_grad(params, path, dz, views, ws)
    for name in ("dec1", "dec2"):
        views[name].w[...] = 0.0
        views[name].b[...] = 0.0
    return grad


def score_block(params, x):
    """One block of `training.score` on z-scores `x`: (probabilities, latent
    codes, the attention weights' axis-0 sum)."""
    ws = Workspace()
    w, xw = attention_forward(params, x, ws)
    z = _encoder(params, xw, ws)[1]
    return _head(params, z), z, np.sum(w, axis=0)


# -- training ----------------------------------------------------------------


def adam_step(params, grad, state, lr):
    grad = np.asarray(grad)
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
