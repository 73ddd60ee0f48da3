"""The composed tape chains that ``model.layer_norm``,
``model.newton_schulz_pinv`` and the head split fuse, and the per-tap loop
that ``autodiff.dwconv2d`` replaced, kept as their bitwise oracles.

The fused ops must reproduce these chains' values and gradients bit for bit,
so the chains are kept verbatim, with the subtraction, division, reductions
and square root the tape engine no longer carries rebuilt here as tape ops on
``autodiff._node``.
"""

import numpy as np

from tdam.autodiff import Tensor, _node, _unbroadcast
from tdam.model import LN_EPS


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


def composed_newton_schulz_pinv(a: Tensor, iters: int) -> Tensor:
    m = a.shape[-1]
    eye = Tensor(np.eye(m, dtype=a.data.dtype))
    norm1 = tape_max(a.sum(axis=-2, keepdims=True), axis=-1, keepdims=True)
    norm_inf = tape_max(a.sum(axis=-1, keepdims=True), axis=-2, keepdims=True)
    z = tape_div(a.transpose(0, 2, 1), norm1 * norm_inf)
    for _ in range(iters):
        az = a @ z
        inner = tape_sub(eye * 7.0, az)
        inner = tape_sub(eye * 15.0, az @ inner)
        inner = tape_sub(eye * 13.0, az @ inner)
        z = z * 0.25 @ inner
    return z


def chained_to_heads(x: Tensor, n_heads: int) -> Tensor:
    n, dm = x.shape
    return x.reshape(n, n_heads, dm // n_heads).transpose(1, 0, 2)


def chained_from_heads(x: Tensor) -> Tensor:
    h, n, dh = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * dh)


def loop_dwconv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """``autodiff.dwconv2d`` as one numpy op per kernel tap forward and two
    per tap backward, the form the windowed products must match bit for bit."""
    xv, kv = x.data, kernel.data
    kh, kw, _ = kv.shape
    ph, pw = kh // 2, kw // 2
    H, W, C = xv.shape
    xpad = np.zeros((H + 2 * ph, W + 2 * pw, C), dtype=xv.dtype)
    xpad[ph:ph + H, pw:pw + W] = xv
    y = np.zeros_like(xv)
    for i in range(kh):
        for j in range(kw):
            y += xpad[i:i + H, j:j + W] * kv[i, j]

    def bw(g):
        dk = np.empty_like(kv)
        dxpad = np.zeros_like(xpad)
        for i in range(kh):
            for j in range(kw):
                window = xpad[i:i + H, j:j + W]
                dk[i, j] = (window * g).sum(axis=(0, 1))
                dxpad[i:i + H, j:j + W] += g * kv[i, j]
        kernel._accum(dk)
        x._accum(dxpad[ph:ph + H, pw:pw + W])
    return _node(y, (x, kernel), bw)
