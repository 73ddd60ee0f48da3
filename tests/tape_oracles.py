"""Bitwise oracles: the composed tape chains that ``model.layer_norm``,
the pseudo-inverse helpers, ``model.gelu``, ``model.ppeg_encode``,
``model.selective_scan``, the Nystrom core and agent attention fuse, with
the head split in one node each way, and the recompute of the attention
cores through ``checkpoint`` from RECOMPUTE_MIN_TOKENS tokens on; the
layer norm closure that kept its centered and normalized rows; and, as
tape ops that the chains call, the per-tap loop that the array kernel
``autodiff.dwconv2d`` replaced and the (L, ..., d, s) chunked scan that
``autodiff.linear_recurrence`` replaced.

The fused ops must reproduce these chains' values and gradients bit for bit,
so the chains are kept verbatim, with the subtraction, division, reductions,
square root, erf and transpose the tape engine no longer carries rebuilt
here as tape ops on ``autodiff._node``.
"""

import math
from contextlib import contextmanager
from functools import partial

import numpy as np
from scipy import special

from tdam import autodiff
from tdam.autodiff import SCAN_CHUNK, Tensor, _node, _unbroadcast, concat, no_grad
from tdam.model import (_AGENT_WEIGHTS, INV_SQRT2, LN_EPS, ModelConfig, ModelParams, _grid_side,
                        _nearest_grid_index, _segment_mean_matrix, srmamba_reorder)


def tape_sub(x: Tensor, y: Tensor) -> Tensor:
    return x + (-y)


def tape_div(x: Tensor, y: Tensor) -> Tensor:
    def bw(g):
        x._accum(_unbroadcast(g / y.data, x.data.shape))
        y._accum(_unbroadcast(-g * x.data / (y.data * y.data), y.data.shape))
    return _node(x.data / y.data, (x, y), bw)


def tape_sqrt(x: Tensor) -> Tensor:
    y = np.sqrt(x.data)
    return _node(y, (x,), lambda g: x._accum(g * 0.5 / y))


def tape_erf(x: Tensor) -> Tensor:
    coeff = 2.0 / math.sqrt(math.pi)
    return _node(special.erf(x.data), (x,), lambda g: x._accum(g * coeff * np.exp(-x.data * x.data)))


def tape_transpose(x: Tensor, *axes) -> Tensor:
    inv = np.argsort(axes)
    return _node(x.data.transpose(axes), (x,), lambda g: x._accum(g.transpose(inv)))


def tape_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    return x.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def tape_max(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; the adjoint is split evenly over tied maxima."""
    y = x.data.max(axis=axis, keepdims=keepdims)

    def bw(g):
        yk = y if keepdims or axis is None else np.expand_dims(y, axis)
        gk = g if keepdims or axis is None else np.expand_dims(g, axis)
        mask = (x.data == yk).astype(x.data.dtype)
        mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        x._accum(mask * gk)
    return _node(y, (x,), bw)


def composed_layer_norm(x: Tensor, gain: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    mu = tape_mean(x, axis=-1, keepdims=True)
    centered = tape_sub(x, mu)
    var = tape_mean(centered * centered, axis=-1, keepdims=True)
    out = tape_div(centered, tape_sqrt(var + LN_EPS))
    if gain is not None:
        out = out * gain
    if bias is not None:
        out = out + bias
    return out


def closure_layer_norm(x: Tensor, gain: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """``model.layer_norm`` as it was when its closure kept the normalized rows."""
    xv = x.data
    inv_n = 1.0 / xv.shape[-1]
    c = xv + (-(xv.sum(axis=-1, keepdims=True) * inv_n))
    den = np.sqrt((c * c).sum(axis=-1, keepdims=True) * inv_n + LN_EPS)
    normed = c / den
    out = normed
    if gain is not None:
        out = out * gain.data
    if bias is not None:
        out = out + bias.data

    def bw(g):
        if bias is not None:
            bias._accum(_unbroadcast(g, bias.data.shape))
        if gain is not None:
            gain._accum(_unbroadcast(g * normed, gain.data.shape))
            g = g * gain.data
        g_den = _unbroadcast(-g * c / (den * den), den.shape)
        g_cc = np.broadcast_to(g_den * 0.5 / den * inv_n, c.shape)
        g_c = g / den + g_cc * c + g_cc * c
        x._accum(g_c)
        x._accum(np.broadcast_to(-_unbroadcast(g_c, den.shape) * inv_n, xv.shape))
    parents = tuple(t for t in (x, gain, bias) if t is not None)
    return _node(out, parents, bw)


def chained_gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    return x * (tape_erf(x * INV_SQRT2) + 1.0) * 0.5


def chained_ppeg_encode(seq: Tensor, params: ModelParams) -> Tensor:
    """``model.ppeg_encode`` as a chain of tape ops around the convolutions."""
    *lead, n_tokens, dm = seq.shape
    n_grid = n_tokens - 1
    side = _grid_side(n_grid)
    cls_row = seq[..., 0:1, :]
    img = seq[..., 1:, :].reshape(*lead, side, side, dm)
    out = (
        loop_dwconv2d(img, params["ppeg.K7"])
        + loop_dwconv2d(img, params["ppeg.K5"])
        + loop_dwconv2d(img, params["ppeg.K3"])
        + img
    )
    return concat([cls_row, out.reshape(*lead, n_grid, dm)], axis=-2)


def chained_selective_scan(x: Tensor, params: ModelParams, layer: int) -> Tensor:
    """``model.selective_scan`` as a chain of tape ops around the fused recurrence."""
    p = f"srmamba{layer}"
    cfg = params.config
    perm = srmamba_reorder(x.shape[-2], cfg.srmamba_rate)
    u = x.take(perm, axis=-2) if cfg.srmamba_rate > 1 else x
    delta = (u @ params[f"{p}.W_delta"] + params[f"{p}.b_delta"]).softplus()
    b_in = u @ params[f"{p}.W_B"]
    c_out = u @ params[f"{p}.W_C"]
    y = state_last_linear_recurrence(delta, params[f"{p}.A"], b_in, c_out, u) + u * params[f"{p}.D"]
    if cfg.srmamba_rate > 1:
        y = y.take(np.argsort(perm), axis=-2)
    return y


def composed_newton_schulz_pinv(a: Tensor, iters: int) -> Tensor:
    m = a.shape[-1]
    eye = Tensor(np.eye(m, dtype=a.data.dtype))
    norm1 = tape_max(a.sum(axis=-2, keepdims=True), axis=-1, keepdims=True)
    norm_inf = tape_max(a.sum(axis=-1, keepdims=True), axis=-2, keepdims=True)
    z = tape_div(_swap_last(a), norm1 * norm_inf)
    for _ in range(iters):
        az = a @ z
        inner = tape_sub(eye * 7.0, az)
        inner = tape_sub(eye * 15.0, az @ inner)
        inner = tape_sub(eye * 13.0, az @ inner)
        z = z * 0.25 @ inner
    return z


def chained_to_heads(x: Tensor, n_heads: int) -> Tensor:
    n, dm = x.shape
    return tape_transpose(x.reshape(n, n_heads, dm // n_heads), 1, 0, 2)


def chained_from_heads(x: Tensor) -> Tensor:
    h, n, dh = x.shape
    return tape_transpose(x, 1, 0, 2).reshape(n, h * dh)


# -- the attention cores as the tape chains they were, recomputed through
#    checkpoint from RECOMPUTE_MIN_TOKENS tokens on

RECOMPUTE_MIN_TOKENS = 256


@contextmanager
def _recording_as(flag: bool):
    """Set whether ops record for the duration of the block."""
    previous, autodiff._recording = autodiff._recording, flag
    try:
        yield
    finally:
        autodiff._recording = previous


def checkpoint(fn, *inputs: Tensor) -> Tensor:
    """``fn(*inputs)`` recorded as one node that keeps only its inputs.

    While recording, ``fn`` runs under no_grad(), so none of its
    intermediates outlive the call. The node's backward re-runs ``fn`` on
    fresh leaves sharing the inputs' data, with recording on even inside an
    outer no_grad(), backpropagates its adjoint through that sub-graph and
    hands each leaf's adjoint to its input. ``fn`` must return one tensor
    and compute the same values on every call. Outside recording this is a
    plain call.

    Each input receives its adjoint from ``fn`` as one term, already summed
    inside the sub-graph. So adjoints keep their bits only when no input is
    also used outside ``fn``: otherwise the terms are added as a + (b + c)
    instead of (a + b) + c, equal in value but not always in bits.
    """
    if not autodiff._recording:
        return fn(*inputs)
    with no_grad():
        out = fn(*inputs)

    def bw(g):
        leaves = [Tensor(t.data) for t in inputs]
        with _recording_as(True):
            redo = fn(*leaves)
        redo.backward(g)
        for t, leaf in zip(inputs, leaves):
            if leaf.grad is not None:
                t._accum(leaf.grad)
    return _node(out.data, inputs, bw)


def _attention_core(fn, x: Tensor, *weights: Tensor) -> Tensor:
    """``fn(x, *weights)``, recomputed in backward once ``x`` has at least
    RECOMPUTE_MIN_TOKENS rows per bag.

    Gradients keep their bits because ``x`` and each weight feed only this
    core: checkpoint hands an input its whole adjoint from ``fn`` as one
    term, which would change the order of a sum over uses outside ``fn``."""
    if x.shape[-2] >= RECOMPUTE_MIN_TOKENS:
        return checkpoint(fn, x, *weights)
    return fn(x, *weights)


def _to_heads(x: Tensor, n_heads: int) -> Tensor:
    """(..., n, d_model) -> (..., n_heads, n, d_head) as one tape node."""
    *lead, n, dm = x.shape
    return _node(x.data.reshape(*lead, n, n_heads, dm // n_heads).swapaxes(-3, -2), (x,),
                 lambda g: x._accum(g.swapaxes(-3, -2).reshape(*lead, n, dm)))


def _from_heads(x: Tensor) -> Tensor:
    """(..., n_heads, n, d_head) -> (..., n, d_model) as one tape node."""
    *lead, h, n, dh = x.shape
    return _node(x.data.swapaxes(-3, -2).reshape(*lead, n, h * dh), (x,),
                 lambda g: x._accum(g.reshape(*lead, n, h, dh).swapaxes(-3, -2)))


def _swap_last(x: Tensor) -> Tensor:
    """``x`` with its last two axes swapped (a stack of transposed matrices)."""
    nd = len(x.shape)
    return tape_transpose(x, *range(nd - 2), nd - 1, nd - 2)


def _nystrom_core(cfg: ModelConfig, x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor) -> Tensor:
    """Multi-head Nystrom attention of the normalized rows ``x``, (..., n,
    d_model), through ``wo``."""
    n = x.shape[-2]
    scale = 1.0 / math.sqrt(cfg.head_dim)
    q = _to_heads(x @ wq, cfg.n_heads) * scale
    k = _to_heads(x @ wk, cfg.n_heads)
    v = _to_heads(x @ wv, cfg.n_heads)
    m = min(cfg.n_landmarks, n)
    if m == n:
        # segment size 1: F pinv(A) B collapses to A A+ A = A, i.e. exact
        # softmax attention, which the landmark construction computes directly
        out = (q @ _swap_last(k)).softmax() @ v
    else:
        seg = _segment_mean_matrix(n, m, x.data.dtype)
        q_land = seg @ q
        k_land = seg @ k
        kernel_f = (q @ _swap_last(k_land)).softmax()
        kernel_a = (q_land @ _swap_last(k_land)).softmax()
        kernel_b = (q_land @ _swap_last(k)).softmax()
        out = kernel_f @ (composed_newton_schulz_pinv(kernel_a, cfg.pinv_iters) @ (kernel_b @ v))
    return _from_heads(out) @ wo


def _agent_core(cfg: ModelConfig, x: Tensor, wq: Tensor, wkv: Tensor, p_agent: Tensor, wdw: Tensor,
                wout: Tensor, bias_a2p: Tensor, bias_p2a: Tensor) -> Tensor:
    """Agent attention of the grid rows ``x``, (..., n, d_model), through ``wout``."""
    *lead, n, _ = x.shape
    side = _grid_side(n)
    dm = cfg.d_model
    q = x @ wq
    kv = x @ wkv
    k, v = kv[..., :dm], kv[..., dm:]
    scale = 1.0 / math.sqrt(cfg.head_dim)
    qh = _to_heads(q, cfg.n_heads) * scale
    kh = _to_heads(k, cfg.n_heads)
    vh = _to_heads(v, cfg.n_heads)
    agents = _to_heads(p_agent, cfg.n_heads) * scale
    if side != cfg.agent_bias_side:
        idx = _nearest_grid_index(side, cfg.agent_bias_side)
        bias_a2p = bias_a2p.take(idx, axis=2)
        bias_p2a = bias_p2a.take(idx, axis=1)
    a2p = (agents @ _swap_last(kh) + bias_a2p).softmax()
    agents_updated = a2p @ vh
    p2a = (qh @ _swap_last(agents_updated) + bias_p2a).softmax()
    attended = _from_heads(p2a @ agents_updated)
    local = loop_dwconv2d(v.reshape(*lead, side, side, dm), wdw).reshape(*lead, n, dm)
    return (local + attended) @ wout


def chained_nystrom_core(cfg: ModelConfig, x: Tensor, *weights: Tensor) -> Tensor:
    """``model._nystrom_core`` as the tape chain, recomputed from RECOMPUTE_MIN_TOKENS tokens on."""
    return _attention_core(partial(_nystrom_core, cfg), x, *weights)


def chained_agent_attention(seq: Tensor, params: ModelParams) -> Tensor:
    """``model.agent_attention`` as slices of ``seq``, the core's tape chain
    (recomputed from RECOMPUTE_MIN_TOKENS tokens on) and their concatenation."""
    weights = [params[f"agent.{w}"] for w in _AGENT_WEIGHTS]
    grid = _attention_core(partial(_agent_core, params.config), seq[..., 1:, :], *weights)
    return concat([seq[..., 0:1, :], grid], axis=-2)


def _loop_padded(xv: np.ndarray, kv: np.ndarray) -> np.ndarray:
    kh, kw, _ = kv.shape
    *lead, H, W, C = xv.shape
    xpad = np.zeros((*lead, H + kh - 1, W + kw - 1, C), dtype=xv.dtype)
    xpad[..., kh // 2:kh // 2 + H, kw // 2:kw // 2 + W, :] = xv
    return xpad


def loop_conv(xv: np.ndarray, kv: np.ndarray) -> np.ndarray:
    """The array kernel ``autodiff.dwconv2d`` as one numpy op per kernel tap."""
    kh, kw, _ = kv.shape
    H, W = xv.shape[-3:-1]
    xpad = _loop_padded(xv, kv)
    y = np.zeros_like(xv)
    for i in range(kh):
        for j in range(kw):
            y += xpad[..., i:i + H, j:j + W, :] * kv[i, j]
    return y


def loop_dwconv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """``autodiff.dwconv2d`` and its adjoints as a tape op, one numpy op per
    kernel tap forward and two per tap backward: the form the windowed
    products must match bit for bit. Leading axes are a stack of grids."""
    xv, kv = x.data, kernel.data
    kh, kw, _ = kv.shape
    H, W = xv.shape[-3:-1]

    def bw(g):
        xpad = _loop_padded(xv, kv)
        dk = np.empty_like(kv)
        dxpad = np.zeros_like(xpad)
        for i in range(kh):
            for j in range(kw):
                window = xpad[..., i:i + H, j:j + W, :]
                dk[i, j] = (window * g).sum(axis=tuple(range(g.ndim - 1)))
                dxpad[..., i:i + H, j:j + W, :] += g * kv[i, j]
        kernel._accum(dk)
        x._accum(dxpad[..., kh // 2:kh // 2 + H, kw // 2:kw // 2 + W, :])
    return _node(loop_conv(xv, kv), (x, kernel), bw)


def state_last_scan_chunk(delta, a, b_in, u, h0, work):
    """Discretize one chunk and run its recurrence from the state ``h0``.

    ``delta`` and ``u`` are (L, ..., d) and ``b_in`` is (L, ..., s), token
    axis first. Fills ``work`` = (da, abar, expm1(da)/da, h), each
    (L, ..., d, s), in place, and returns the mask of entries where
    expm1(da)/da took its series.
    """
    da, abar, e, h = work
    d3 = delta[..., None]
    np.multiply(d3, a, out=da)
    np.exp(da, out=abar)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.expm1(da, out=e)
        e /= da
    small = np.abs(da) < 1e-5
    if small.any():
        zs = da[small]
        e[small] = 1.0 + zs * 0.5 + zs * zs / 6.0
    # h[t] = contrib[t] + abar[t] * h[t-1], built in place over contrib
    np.multiply(d3, e, out=h)
    h *= b_in[..., None, :]
    h *= u[..., None]
    step = np.empty_like(h0)
    prev = h0
    for abar_t, h_t in zip(abar, h):
        np.multiply(abar_t, prev, out=step)
        h_t += step
        prev = h_t
    return small


def state_last_linear_recurrence(delta: Tensor, a: Tensor, b_in: Tensor, c_out: Tensor, u: Tensor) -> Tensor:
    """``autodiff.linear_recurrence`` with its intermediates held (L, ..., d, s),
    the readout summed by ``ndarray.sum`` over the state axis, and each
    backward contraction on that layout: the form the state-major scan must
    match bit for bit, output and all five adjoints."""
    dv, av, bv, cv, uv = delta.data, a.data, b_in.data, c_out.data, u.data
    *lead, n, d = dv.shape
    s = av.shape[1]
    if uv.shape != dv.shape or av.shape != (d, s) or bv.shape != (*lead, n, s) or cv.shape != bv.shape:
        raise ValueError("linear_recurrence operands have inconsistent shapes")
    # token axis first, as views; one sequence keeps its own layout
    dt, bt, ct, ut = (np.moveaxis(x, -2, 0) for x in (dv, bv, cv, uv))
    dtype = np.result_type(dv, av, bv, uv)
    chunks = [slice(lo, min(lo + SCAN_CHUNK, n)) for lo in range(0, n, SCAN_CHUNK)]
    work = np.empty((4, min(n, SCAN_CHUNK), *lead, d, s), dtype=dtype)
    starts = []
    state = np.zeros((*lead, d, s), dtype=dtype)
    y = np.empty((*lead, n, d), dtype=np.result_type(dtype, cv))
    yt = np.moveaxis(y, -2, 0)
    for ck in chunks:
        starts.append(state)
        part = work[:, : ck.stop - ck.start]
        state_last_scan_chunk(dt[ck], av, bt[ck], ut[ck], state, part)
        # expm1(da)/da is spent once h is built, so its buffer takes the readout product
        h, prod = part[3], part[2]
        np.multiply(h, ct[ck][..., None, :], out=prod)
        prod.sum(axis=-1, out=yt[ck])
        state = h[-1].copy()

    def bw(g):
        g_delta, g_b, g_c, g_u = (np.empty_like(x) for x in (dv, bv, cv, uv))
        gdt, gbt, gct, gut = (np.moveaxis(x, -2, 0) for x in (g_delta, g_b, g_c, g_u))
        gt = np.moveaxis(g, -2, 0)
        g_a = np.zeros_like(av)
        carry = np.zeros_like(state)
        for ck, h0 in zip(reversed(chunks), reversed(starts)):
            part = work[:, : ck.stop - ck.start]
            small = state_last_scan_chunk(dt[ck], av, bt[ck], ut[ck], h0, part)
            da, abar, e, h = part
            gk, dk, uk, bk = gt[ck], dt[ck], ut[ck], bt[ck]
            gct[ck] = np.matmul(gk[..., None, :], h)[..., 0, :]
            # adjoint of h[t]: its readout plus abar[t+1] times the adjoint of h[t+1]
            gh = gk[..., None] * ct[ck][..., None, :]
            for abar_t, gh_t in zip(abar[::-1], gh[::-1]):
                gh_t += carry
                np.multiply(abar_t, gh_t, out=carry)
            # contrib = delta e b u: with w = gh e, g_b = (delta u) . w and
            # g_u, g_delta collect delta (w b) and u (w b)
            w = gh * e
            wb = np.matmul(w, bk[..., None])[..., 0]
            du = dk * uk
            gbt[ck] = np.matmul(du[..., None, :], w)[..., 0, :]
            gut[ck] = dk * wb
            # d/dz expm1(z)/z = (exp(z) - expm1(z)/z) / z
            with np.errstate(divide="ignore", invalid="ignore"):
                de = (abar - e) / da
            if small.any():
                zs = da[small]
                de[small] = 0.5 + zs / 3.0 + zs * zs / 8.0
            # g_da: through abar = exp(da) into h[t] = abar h[t-1] + ..., and through e
            h[1:] = h[:-1]
            h[0] = h0
            g_da = h
            g_da *= abar
            de *= du[..., None] * bk[..., None, :]
            g_da += de
            g_da *= gh
            gdt[ck] = uk * wb + np.einsum("t...ij,ij->t...i", g_da, av)
            g_a += np.einsum("tij,ti->ij", g_da.reshape(-1, d, s), dk.reshape(-1, d))
        delta._accum(g_delta)
        a._accum(g_a)
        b_in._accum(g_b)
        c_out._accum(g_c)
        u._accum(g_u)
    return _node(y, (delta, a, b_in, c_out, u), bw)
