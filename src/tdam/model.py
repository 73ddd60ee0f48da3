"""The bag-level survival model.

Pipeline (per bag): linear projection + GELU -> cycle-pad the token grid to a
perfect square and prepend a class token -> Nystrom attention layer ->
multi-scale depthwise-conv positional encoding -> second Nystrom layer ->
two-stage agent attention -> stacked selective-scan blocks over a strided
reordering of the tokens -> gated attention pooling -> 4 bin logits.

Everything runs on the tape engine in :mod:`tdam.autodiff`, so analytic
gradients of the survival loss are available for training and can be checked
against finite differences (:func:`grad_check`). Every stage also takes
leading batch axes, so bags of one padded grid size can run as one stack
(:func:`forward` on a list), each with the bits it gets alone.
"""

from __future__ import annotations

import json
import math
import struct
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from functools import reduce
from pathlib import Path

import numpy as np
from scipy import special

from .autodiff import (Tensor, _added, _dwconv_adjoints, _node, _recurrence_adjoints, _softmax, _softmax_adjoint,
                       _take_adjoint, _unbroadcast, concat, dwconv2d, linear_recurrence, no_grad)
from .bags import FeatureBag
from .errors import DataError, FormatError, GradError, NonFiniteError, ShapeError, TruncatedError
from .rng import substream
from .survival import N_BINS, nll_graph

CKPT_MAGIC = b"TDAMCKPT1"
# Each model variant and the stage groups its forward runs. Every variant
# keeps all weights, so any checkpoint runs under any variant.
STAGES = {
    "full": ("transformer", "agent", "scan"),
    "no_transformer": ("agent", "scan"),
    "no_agent": ("transformer", "scan"),
    "no_srmamba": ("transformer", "agent"),
}
ABLATIONS = tuple(STAGES)
LN_EPS = 1e-5
INV_SQRT2 = 1.0 / math.sqrt(2.0)
ERF_SLOPE = 2.0 / math.sqrt(math.pi)  # erf'(z) = ERF_SLOPE * exp(-z * z)


@dataclass(frozen=True)
class ModelConfig:
    d_in: int = 512
    d_model: int = 256
    n_heads: int = 8
    n_agents: int = 64
    n_landmarks: int = 64
    pinv_iters: int = 6
    srmamba_layers: int = 2
    srmamba_rate: int = 5
    ssm_state_dim: int = 16
    dropout: float = 0.25
    n_bins: int = N_BINS
    ablation: str = "full"
    agent_bias_side: int = 8
    pool_hidden: int = 0  # 0 -> d_model // 2

    def validate(self) -> None:
        for low, names in ((1, ("d_in", "d_model", "n_heads", "n_agents", "n_landmarks", "pinv_iters",
                                "srmamba_rate", "ssm_state_dim", "agent_bias_side")),
                           (0, ("srmamba_layers", "pool_hidden"))):
            for name in names:
                if getattr(self, name) < low:
                    raise DataError(f"{name} must be >= {low}")
        if self.d_model % self.n_heads != 0:
            raise DataError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.n_bins != N_BINS:
            raise DataError(f"the risk head is fixed at {N_BINS} bins")
        if not (0.0 <= self.dropout < 1.0):
            raise DataError("dropout must lie in [0, 1)")
        if self.ablation not in ABLATIONS:
            raise DataError(f"unknown ablation {self.ablation!r}, choose from {ABLATIONS}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def pool_hidden_dim(self) -> int:
        return self.pool_hidden if self.pool_hidden > 0 else max(self.d_model // 2, 2)

    def with_ablation(self, ablation: str) -> "ModelConfig":
        return ModelConfig(**{**asdict(self), "ablation": ablation})


def dataclass_from_dict(cls, d: dict, what: str):
    """Build and validate a config dataclass from plain values.

    Unknown keys and values that do not fit their field's type raise
    DataError: an int field takes ints and integral floats, a float field
    finite ints and floats, a str field strings.
    """
    kinds = {f.name: f.type for f in fields(cls)}
    unknown = set(d) - set(kinds)
    if unknown:
        raise DataError(f"unknown {what} config keys: {sorted(unknown)}")
    values = {}
    for key, value in d.items():
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        fits = {
            "int": number and (isinstance(value, int) or value.is_integer()),
            "float": number and math.isfinite(value),
            "str": isinstance(value, str),
        }
        if not fits[kinds[key]]:
            raise DataError(f"{what} config {key}={value!r} is not a valid {kinds[key]}")
        values[key] = int(value) if kinds[key] == "int" else value
    cfg = cls(**values)
    cfg.validate()
    return cfg


def config_from_dict(d: dict) -> ModelConfig:
    return dataclass_from_dict(ModelConfig, d, "model")


class ModelParams:
    """Named parameter tensors whose ``data`` are views into one vector,
    ``flat``, cut in ``param_layout`` order, which is the checkpoint order."""

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        self.config = config
        self.flat = flat
        self.tensors: dict[str, Tensor] = {}
        lo = 0
        for name, shape, _ in param_layout(config):
            hi = lo + math.prod(shape)
            self.tensors[name] = Tensor(flat[lo:hi].reshape(shape))
            lo = hi

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def __reduce__(self):
        # rebuilt from the vector, so the views survive pickling to a worker and back
        return ModelParams, (self.config, self.flat)

    def names(self) -> list[str]:
        return list(self.tensors)

    def clear_grads(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.flat.copy())

    def check_finite(self) -> None:
        for name, t in self.tensors.items():
            if not np.isfinite(t.data).all():
                raise DataError(f"parameter {name} contains non-finite values")


def param_layout(config: ModelConfig):
    """Yield each parameter's name, shape and initializer kind in checkpoint
    order. No weights are made, so a loader can size a config up first."""
    config.validate()
    d, dm, s = config.d_in, config.d_model, config.ssm_state_dim
    yield "proj.W", (d, dm), "xavier"
    yield "proj.b", (dm,), "zeros"
    yield "cls_token", (1, dm), "token"
    for blk in ("attn1", "attn2"):
        yield f"{blk}.ln_g", (dm,), "ones"
        yield f"{blk}.ln_b", (dm,), "zeros"
        for w in ("Wq", "Wk", "Wv", "Wo"):
            yield f"{blk}.{w}", (dm, dm), "xavier"
    for k in (7, 5, 3):
        yield f"ppeg.K{k}", (k, k, dm), "xavier"
    yield "agent.P_agent", (config.n_agents, dm), "token"
    yield "agent.Wq", (dm, dm), "xavier"
    yield "agent.Wkv", (dm, 2 * dm), "xavier"
    yield "agent.Wdw", (3, 3, dm), "xavier"
    yield "agent.Wout", (dm, dm), "xavier"
    g2 = config.agent_bias_side ** 2
    yield "agent.B_A2P", (config.n_heads, config.n_agents, g2), "zeros"
    yield "agent.B_P2A", (config.n_heads, g2, config.n_agents), "zeros"
    for layer in range(config.srmamba_layers):
        p = f"srmamba{layer}"
        yield f"{p}.ln_g", (dm,), "ones"
        yield f"{p}.ln_b", (dm,), "zeros"
        yield f"{p}.A", (dm, s), "ssm_A"
        yield f"{p}.W_delta", (dm, dm), "xavier"
        yield f"{p}.b_delta", (dm,), "ssm_step"
        yield f"{p}.W_B", (dm, s), "xavier"
        yield f"{p}.W_C", (dm, s), "xavier"
        yield f"{p}.D", (dm,), "ones"
    hid = config.pool_hidden_dim
    yield "pool.W1", (dm, hid), "xavier"
    yield "pool.b1", (hid,), "zeros"
    yield "pool.W2", (hid, 1), "xavier"
    yield "pool.b2", (1,), "zeros"
    yield "clf.W", (dm, N_BINS), "xavier"
    yield "clf.b", (N_BINS,), "zeros"


def init_params(config: ModelConfig, seed: int = 0, dtype=np.float32) -> ModelParams:
    """Xavier-uniform weights, zero biases, unit layernorm gains; the class
    and agent tokens start at N(0, 0.02); the scan's state matrix starts at
    -(1..state_dim) per channel with a small initial discretization step."""
    rng = substream(seed, "init")
    layout = list(param_layout(config))
    params = ModelParams(config, np.empty(sum(math.prod(shape) for _, shape, _ in layout), dtype=dtype))
    for name, shape, kind in layout:
        if kind == "xavier":
            # a (k, k, C) depthwise kernel has fan k*k on both sides
            fan_in, fan_out = shape if len(shape) == 2 else (shape[0] * shape[1],) * 2
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            v = rng.uniform(-bound, bound, size=shape)
        elif kind == "token":
            v = rng.normal(0.0, 0.02, size=shape)
        elif kind == "ssm_A":
            v = -np.arange(1.0, shape[1] + 1.0)
        elif kind == "ssm_step":
            # softplus(b_delta) = 0.05: the scan starts with a short memory step
            v = math.log(math.expm1(0.05))
        else:
            v = 1.0 if kind == "ones" else 0.0
        params[name].data[...] = v  # cast to ``dtype`` as it is written
    return params


# -- building blocks ----------------------------------------------------------


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU, x * Phi(x) = x * (erf(x / sqrt 2) + 1) / 2.

    One tape op that keeps only ``x``. Forward and backward evaluate the
    expressions of the chain of tape ops x * (erf(x * INV_SQRT2) + 1.0) * 0.5
    in its order, and ``x`` gets its two adjoint terms (through the product,
    then through erf) in that chain's order, so values and gradients keep
    their bits.
    """
    xv = x.data

    def bw(g):
        z = xv * INV_SQRT2
        g = g * 0.5
        x._accum(g * (special.erf(z) + 1.0))
        x._accum(g * xv * ERF_SLOPE * np.exp(-z * z) * INV_SQRT2)
    return _node(xv * (special.erf(xv * INV_SQRT2) + 1.0) * 0.5, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """(x - mean) / sqrt(var + LN_EPS) over the last axis, then * gain + bias.

    One tape op. Its forward and backward evaluate the same expressions, in
    the same order, as the chain of elementwise tape ops they replace, so
    values and gradients keep their bits. ``x`` gets its adjoint in two
    accumulations (centered path, then mean path), as that chain gave it.
    The node keeps only each row's scale: backward centers ``x`` and divides
    by the scale again, by the same expressions.
    """
    xv = x.data
    inv_n = 1.0 / xv.shape[-1]

    def centered():
        return xv + (-(xv.sum(axis=-1, keepdims=True) * inv_n))
    c = centered()
    den = np.sqrt((c * c).sum(axis=-1, keepdims=True) * inv_n + LN_EPS)
    out = c / den
    if gain is not None:
        out = out * gain.data
    if bias is not None:
        out = out + bias.data

    def bw(g):
        c = centered()
        if bias is not None:
            bias._accum(_unbroadcast(g, bias.data.shape))
        if gain is not None:
            gain._accum(_unbroadcast(g * (c / den), gain.data.shape))
            g = g * gain.data
        g_den = _unbroadcast(-g * c / (den * den), den.shape)
        g_cc = np.broadcast_to(g_den * 0.5 / den * inv_n, c.shape)
        g_c = g / den + g_cc * c + g_cc * c
        x._accum(g_c)
        x._accum(np.broadcast_to(-_unbroadcast(g_c, den.shape) * inv_n, xv.shape))
    parents = tuple(t for t in (x, gain, bias) if t is not None)
    return _node(out, parents, bw)


def _dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    if p <= 0.0 or rng is None:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * mask


def project_input(x: np.ndarray | Tensor, params: ModelParams) -> Tensor:
    """GELU(X W + b): project patch embeddings to the model width."""
    if x.shape[1] != params.config.d_in:
        raise ShapeError(f"bag dim {x.shape[1]} != configured d_in {params.config.d_in}")
    return gelu(x @ params["proj.W"] + params["proj.b"])


def padded_grid_size(n: int) -> int:
    """n', the least perfect square >= n: the grid a bag of ``n`` patches is
    cycle-padded to. Every shape after padding depends only on n'."""
    if n < 1:
        raise ShapeError(f"a bag needs at least one patch, got {n}")
    return (math.isqrt(n - 1) + 1) ** 2


def pad_square_with_class(xp: Tensor, params: ModelParams) -> tuple[Tensor, int]:
    """Cycle tokens from the sequence start up to the next perfect square,
    then prepend the class token."""
    n = xp.shape[0]
    n_prime = padded_grid_size(n)
    grid = xp if n_prime == n else xp.take(np.arange(n_prime) % n, axis=0)
    return concat([params["cls_token"], grid], axis=0), n_prime


def _grid_side(n_tokens: int) -> int:
    """Side of the square token grid; the stages after padding need a square."""
    side = math.isqrt(n_tokens)
    if side * side != n_tokens:
        raise ShapeError(f"{n_tokens} grid tokens do not form a square")
    return side


def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., n, d_model) -> (..., n_heads, n, d_head), a view where numpy can make one."""
    return a.reshape(*a.shape[:-1], n_heads, -1).swapaxes(-3, -2)


def _merged(a: np.ndarray) -> np.ndarray:
    """(..., n_heads, n, d_head) -> (..., n, d_model), the inverse of :func:`_heads`."""
    return a.swapaxes(-3, -2).reshape(*a.shape[:-3], a.shape[-2], -1)


def _segment_mean_matrix(n: int, m: int, dtype) -> np.ndarray:
    """(m, n) averaging matrix over contiguous segments; the last segment
    absorbs the remainder."""
    sizes = [n // m] * (m - 1) + [n - (m - 1) * (n // m)]
    mat = np.zeros((m, n), dtype=dtype)
    start = 0
    for i, size in enumerate(sizes):
        mat[i, start : start + size] = 1.0 / size
        start += size
    return mat


def _pinv(av: np.ndarray, iters: int) -> tuple[np.ndarray, tuple]:
    """Iterative Moore-Penrose pseudo-inverse of a stack of square matrices,
    (..., m, m), and what :func:`_pinv_adjoint` reads: the norms and iterates.

    z0 = a^T / (|a|_1 |a|_inf), then per iteration, with az = a z,
    z <- 0.25 z (13 I - az (15 I - az (7 I - az))). Both helpers evaluate the
    same expressions, and sum adjoints in the same order, as the chain of
    tape ops they replace, so values and gradients keep their bits.
    """
    eye7, eye15, eye13 = (np.eye(av.shape[-1], dtype=av.dtype) * c for c in (7.0, 15.0, 13.0))
    col_sums = av.sum(axis=-2, keepdims=True)
    row_sums = av.sum(axis=-1, keepdims=True)
    norm1, norm_inf = col_sums.max(axis=-1, keepdims=True), row_sums.max(axis=-2, keepdims=True)
    z = av.mT / (norm1 * norm_inf)
    steps = []
    for _ in range(iters):
        az = av @ z
        t1 = eye7 + (-az)
        t2 = eye15 + (-(az @ t1))
        t3 = eye13 + (-(az @ t2))
        zs = z * 0.25
        steps.append((z, az, t1, t2, t3, zs))
        z = zs @ t3
    return z, ((col_sums, row_sums, norm1, norm_inf), steps)


def _pinv_adjoint(g: np.ndarray, av: np.ndarray, saved: tuple) -> np.ndarray:
    """The adjoint of :func:`_pinv`'s input ``av`` for its output adjoint
    ``g``, walking the stored iterates in reverse."""
    (col_sums, row_sums, norm1, norm_inf), steps = saved
    den = norm1 * norm_inf
    at = av.mT
    g_a = []
    for z, az, t1, t2, t3, zs in reversed(steps):
        g_zs = g @ t3.mT
        g_p2 = -(zs.mT @ g)
        g_p1 = -(az.mT @ g_p2)
        g_t1 = az.mT @ g_p1
        g_az = g_p2 @ t2.mT + g_p1 @ t1.mT + (-g_t1)
        g_a.append(g_az @ z.mT)
        g = g_zs * 0.25 + at @ g_az
    g_den = _unbroadcast(-g * at / (den * den), den.shape)
    g_a.append((g / den).mT)
    # each norm is a max over sums of a: its adjoint goes to the maximal sums
    for sums, norm, axis, g_norm in ((col_sums, norm1, -1, g_den * norm_inf),
                                     (row_sums, norm_inf, -2, g_den * norm1)):
        mask = (sums == norm).astype(av.dtype)
        mask /= mask.sum(axis=axis, keepdims=True)
        g_a.append(np.broadcast_to(mask * g_norm, av.shape))
    return sum(g_a[1:], g_a[0])  # one sum, in the order the terms were listed


def _nystrom_core(cfg: ModelConfig, x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor) -> Tensor:
    """Multi-head Nystrom attention of the normalized rows ``x``, (..., n,
    d_model), through ``wo``.

    One tape op with parents (x, Wq, Wk, Wv, Wo) that keeps only ``x``:
    backward runs the forward's products again, the token-sized ones
    included, and walks them back. Both passes evaluate the expressions of
    the chain of tape ops the core replaces, in its order and on arrays of
    its layouts, and each array that took several adjoint terms on that
    chain's tape (x, q, k and the landmarks) sums them in the chain's order,
    so values and gradients keep their bits.
    """
    xv = x.data
    n = xv.shape[-2]
    scale = 1.0 / math.sqrt(cfg.head_dim)
    m = min(cfg.n_landmarks, n)
    # segment size 1: F pinv(A) B collapses to A A+ A = A, i.e. exact
    # softmax attention, which the landmark construction computes directly
    seg = None if m == n else _segment_mean_matrix(n, m, xv.dtype)

    def attend():
        q = _heads(xv @ wq.data, cfg.n_heads) * scale
        k, v = (_heads(xv @ w.data, cfg.n_heads) for w in (wk, wv))
        if seg is None:
            kernel = _softmax(q @ k.mT)
            return (q, k, v, kernel), kernel @ v
        q_land, k_land = seg @ q, seg @ k
        kernel_f, kernel_a, kernel_b = (_softmax(a @ b.mT) for a, b in ((q, k_land), (q_land, k_land), (q_land, k)))
        pinv, saved = _pinv(kernel_a, cfg.pinv_iters)
        u = kernel_b @ v
        w = pinv @ u
        return (q, k, v, q_land, k_land, kernel_f, kernel_a, kernel_b, pinv, saved, u, w), kernel_f @ w

    def bw(g):
        held, out = attend()
        wo._accum(_unbroadcast(_merged(out).mT @ g, wo.shape))
        # an adjoint that reached the chain's tape as a view was stored as a copy
        g_out = _added(None, _heads(g @ wo.data.mT, cfg.n_heads))
        if seg is None:
            q, k, v, kernel = held
            g_v = kernel.mT @ g_out
            g_logits = _softmax_adjoint(g_out @ v.mT, kernel)
            g_q, g_k = g_logits @ k, (q.mT @ g_logits).mT
        else:
            q, k, v, q_land, k_land, kernel_f, kernel_a, kernel_b, pinv, saved, u, w = held
            g_f = _softmax_adjoint(g_out @ w.mT, kernel_f)
            g_w = kernel_f.mT @ g_out
            g_a = _softmax_adjoint(_pinv_adjoint(g_w @ u.mT, kernel_a, saved), kernel_a)
            g_u = pinv.mT @ g_w
            g_b = _softmax_adjoint(g_u @ v.mT, kernel_b)
            g_v = kernel_b.mT @ g_u
            g_k_land = _added(_added(None, (q.mT @ g_f).mT), (q_land.mT @ g_a).mT)
            g_q = g_f @ k_land + seg.mT @ (g_a @ k_land + g_b @ k)
            g_k = seg.mT @ g_k_land + (q_land.mT @ g_b).mT
        for g_h, weight in ((g_q * scale, wq), (g_k, wk), (g_v, wv)):
            g_h = _added(None, _merged(g_h))
            x._accum(g_h @ weight.data.mT)
            weight._accum(_unbroadcast(xv.mT @ g_h, weight.shape))
    return _node(_merged(attend()[1]) @ wo.data, (x, wq, wk, wv, wo), bw)


def nystrom_attention_layer(seq: Tensor, params: ModelParams, which: str) -> Tensor:
    """Pre-layernorm multi-head Nystrom attention with a residual connection.

    Landmarks are contiguous-segment means of the (normalized) query and key
    rows; the softmax kernel is approximated by F pinv(A) B with the
    pseudo-inverse from Newton-Schulz iterations. With landmark count equal
    to the token count this reduces to exact softmax attention.
    """
    x = layer_norm(seq, params[f"{which}.ln_g"], params[f"{which}.ln_b"])
    weights = [params[f"{which}.{w}"] for w in ("Wq", "Wk", "Wv", "Wo")]
    return _nystrom_core(params.config, x, *weights) + seq


def ppeg_encode(seq: Tensor, params: ModelParams) -> Tensor:
    """Multi-scale depthwise-conv positional encoding on the token grid.

    The class token bypasses; the remaining tokens are reshaped to their
    square grid and receive Conv7 + Conv5 + Conv3 + identity. ``seq`` is
    (..., 1 + n', d_model).

    One tape op with parents (seq, K7, K5, K3) that keeps nothing but
    ``seq``: backward runs each convolution's adjoints on the grid rows of
    ``seq`` again. Both passes evaluate the expressions of the chain of tape
    ops the stage replaces, in its order, and ``seq`` gets its adjoint in
    one array that holds the sum of that chain's two accumulations (class
    row, then grid, each +0.0 plus its adjoint), so values and gradients
    keep their bits.
    """
    *lead, n_tokens, dm = seq.shape
    n_grid = n_tokens - 1
    side = _grid_side(n_grid)
    kernels = [params[f"ppeg.K{k}"] for k in (7, 5, 3)]
    sv = seq.data
    img = sv[..., 1:, :].reshape(*lead, side, side, dm)
    c7, c5, c3 = (dwconv2d(img, k.data) for k in kernels)
    grid = c7 + c5 + c3 + img
    out = np.concatenate([sv[..., 0:1, :], grid.reshape(*lead, n_grid, dm)], axis=-2)

    def bw(g):
        g_img = g[..., 1:, :].reshape(img.shape)
        g_grid = g_img
        for k in kernels:
            g_x, g_k = _dwconv_adjoints(g_img, img, k.data)
            k._accum(g_k)
            g_grid = g_grid + g_x
        # each row range reaches seq through a slice of it: zeros plus its adjoint
        g_seq = np.empty_like(sv)
        np.add(0.0, g[..., 0:1, :], out=g_seq[..., 0:1, :])
        np.add(0.0, g_grid.reshape(*lead, n_grid, dm), out=g_seq[..., 1:, :])
        seq._accum(g_seq)
    return _node(out, (seq, *kernels), bw)


def _nearest_grid_index(side: int, stored_side: int) -> np.ndarray:
    """Flat nearest-neighbor map from a side x side grid onto the stored grid."""
    pos = np.minimum((np.arange(side) + 0.5) * stored_side // side, stored_side - 1).astype(int)
    return (pos[:, None] * stored_side + pos[None, :]).reshape(-1)


_AGENT_WEIGHTS = ("Wq", "Wkv", "P_agent", "Wdw", "Wout", "B_A2P", "B_P2A")


def agent_attention(seq: Tensor, params: ModelParams) -> Tensor:
    """Two-stage agent attention over the grid tokens of ``seq``, (..., 1 + n',
    d_model); the class token passes through.

    Agents attend over the tokens (A2P), tokens then attend over the updated
    agents (P2A); a depthwise conv over V on the 2-D grid adds a local path.
    The token count must be a perfect square; positional biases are stored
    on a fixed square grid and nearest-neighbor resized.

    One tape op with parents (seq and the weights in ``_AGENT_WEIGHTS``
    order) that keeps only ``seq``: backward runs the forward's products
    again and walks them back, the convolution's through its adjoints. Both
    passes evaluate the expressions of the chain of tape ops the stage
    replaces (the slices of ``seq``, the core and their concatenation), in
    its order and on arrays of its layouts, and each array that took several
    adjoint terms on that chain's tape sums them in the chain's order, so
    values and gradients keep their bits.
    """
    cfg = params.config
    wq, wkv, p_agent, wdw, wout, b_a2p, b_p2a = weights = [params[f"agent.{w}"] for w in _AGENT_WEIGHTS]
    sv = seq.data
    *lead, n_tokens, dm = sv.shape
    n = n_tokens - 1
    side = _grid_side(n)
    xv = sv[..., 1:, :]
    scale = 1.0 / math.sqrt(cfg.head_dim)
    idx = None if side == cfg.agent_bias_side else _nearest_grid_index(side, cfg.agent_bias_side)

    def attend():
        kv = xv @ wkv.data
        qh = _heads(xv @ wq.data, cfg.n_heads) * scale
        kh, vh = _heads(kv[..., :dm], cfg.n_heads), _heads(kv[..., dm:], cfg.n_heads)
        agents = _heads(p_agent.data, cfg.n_heads) * scale
        bias_a2p, bias_p2a = (b_a2p.data, b_p2a.data) if idx is None else (
            np.take(b_a2p.data, idx, axis=2), np.take(b_p2a.data, idx, axis=1))
        a2p = _softmax(agents @ kh.mT + bias_a2p)
        updated = a2p @ vh
        p2a = _softmax(qh @ updated.mT + bias_p2a)
        v_img = kv[..., dm:].reshape(*lead, side, side, dm)
        local = dwconv2d(v_img, wdw.data).reshape(*lead, n, dm)
        return (kv, qh, kh, vh, agents, a2p, updated, p2a, v_img), local + _merged(p2a @ updated)

    def bias_adjoint(bias, g, axis):
        g = _unbroadcast(g, g.shape[-3:])
        bias._accum(g if idx is None else _take_adjoint(g, idx, bias.data, axis))

    def bw(g):
        (kv, qh, kh, vh, agents, a2p, updated, p2a, v_img), mixed = attend()
        g_y = _added(None, g[..., 1:, :])
        g_mixed = g_y @ wout.data.mT
        wout._accum(_unbroadcast(mixed.mT @ g_y, wout.shape))
        g_img, g_wdw = _dwconv_adjoints(g_mixed.reshape(v_img.shape), v_img, wdw.data)
        wdw._accum(g_wdw)
        g_att = _added(None, _heads(g_mixed, cfg.n_heads))
        g_p2a = _softmax_adjoint(g_att @ updated.mT, p2a)
        bias_adjoint(b_p2a, g_p2a, 1)
        g_q = _added(None, _merged(g_p2a @ updated * scale))
        g_x = g_q @ wq.data.mT
        wq._accum(_unbroadcast(xv.mT @ g_q, wq.shape))
        g_updated = p2a.mT @ g_att + (qh.mT @ g_p2a).mT
        g_a2p = _softmax_adjoint(g_updated @ vh.mT, a2p)
        bias_adjoint(b_a2p, g_a2p, 2)
        p_agent._accum(_merged(_unbroadcast(g_a2p @ kh, agents.shape) * scale))
        # each half of kv reaches it through a slice: zeros plus its adjoint
        g_kv = np.empty_like(kv)
        np.add(0.0, _merged((agents.mT @ g_a2p).mT), out=g_kv[..., :dm])
        np.add(0.0, g_img.reshape(*lead, n, dm) + _merged(a2p.mT @ g_updated), out=g_kv[..., dm:])
        wkv._accum(_unbroadcast(xv.mT @ g_kv, wkv.shape))
        # and so do the class row and the grid rows of seq
        g_seq = np.empty_like(sv)
        np.add(0.0, g[..., :1, :], out=g_seq[..., :1, :])
        np.add(g_x, g_kv @ wkv.data.mT, out=g_seq[..., 1:, :])
        g_seq[..., 1:, :] += 0.0
        seq._accum(g_seq)
    out = np.concatenate([sv[..., :1, :], attend()[1] @ wout.data], axis=-2)
    return _node(out, (seq, *weights), bw)


def srmamba_reorder(n: int, rate: int) -> np.ndarray:
    """Concatenation of the stride-``rate`` subsequences of 0..n-1."""
    if rate < 1:
        raise ValueError("rate must be >= 1")
    return np.concatenate([np.arange(r, n, rate) for r in range(min(rate, n))])


# A scan layer's weights, in the order its tape node lists them after its input.
SCAN_WEIGHTS = ("W_delta", "b_delta", "W_B", "W_C", "A", "D")


def selective_scan(x: Tensor, params: ModelParams, layer: int) -> Tensor:
    """Input-dependent diagonal state-space scan over the reordered sequence.

    delta_t = softplus(x_t W_delta + b_delta) per channel; the state matrix
    is discretized with a zero-order hold (abar = exp(delta A), bbar =
    expm1(delta A)/A * B(x_t); bbar is computed as delta * expm1(delta A) /
    (delta A), so A = 0 is no singularity); outputs are read through C(x_t)
    plus a learned skip D. Discretization, recurrence and readout run in
    the array kernel :func:`tdam.autodiff.linear_recurrence`. The scan runs
    on the stride-reordered sequence u and the result is permuted back; the
    residual is the caller's job. ``x`` is (..., n, d_model).

    The whole layer is one tape op with parents (x, W_delta, b_delta, W_B,
    W_C, A, D). It keeps the pre-softplus projection, delta and the chunk
    start states the kernel returned; backward gathers u from ``x`` again,
    recomputes the B and C projections and hands them, with the start
    states, to :func:`tdam.autodiff._recurrence_adjoints`.
    Both passes evaluate the expressions of the chain of tape ops the layer
    replaces, in its order, and u collects its five adjoint terms
    (recurrence, delta, B, C and skip paths) in that chain's order, so
    values and gradients keep their bits.
    """
    p = f"srmamba{layer}"
    w_delta, b_delta, w_b, w_c, a, d_skip = (params[f"{p}.{w}"] for w in SCAN_WEIGHTS)
    perm = srmamba_reorder(x.shape[-2], params.config.srmamba_rate)
    permuted = params.config.srmamba_rate > 1

    def projections():
        u = np.take(x.data, perm, axis=-2) if permuted else x.data
        return u, u @ w_b.data, u @ w_c.data

    u, b_in, c_out = projections()
    z = u @ w_delta.data + b_delta.data
    delta = np.logaddexp(0.0, z).astype(z.dtype)
    y, starts = linear_recurrence(delta, a.data, b_in, c_out, u)
    y = y + u * d_skip.data
    if permuted:
        y = np.take(y, np.argsort(perm), axis=-2)

    def bw(g):
        u, b_in, c_out = projections()
        if permuted:
            # the adjoint of the inverse permutation, as Tensor.take gives it
            g = np.take(g, perm, axis=-2)
            g += 0.0
        g_delta, g_a, g_b, g_c, g_u = _recurrence_adjoints(g, delta, a.data, b_in, c_out, u, starts)
        a._accum(g_a)
        g_z = g_delta * special.expit(z)
        b_delta._accum(_unbroadcast(g_z, b_delta.shape))
        w_delta._accum(_unbroadcast(u.swapaxes(-1, -2) @ g_z, w_delta.shape))
        w_b._accum(_unbroadcast(u.swapaxes(-1, -2) @ g_b, w_b.shape))
        w_c._accum(_unbroadcast(u.swapaxes(-1, -2) @ g_c, w_c.shape))
        d_skip._accum(_unbroadcast(g * u, d_skip.shape))

        def u_terms():
            """u's adjoint terms, in the order the chain's backward delivered them."""
            yield g_u
            for g_p, w in ((g_z, w_delta), (g_b, w_b), (g_c, w_c)):
                yield g_p @ w.data.swapaxes(-1, -2)
            yield g * d_skip.data

        if not permuted:
            for term in u_terms():
                x._accum(term)
            return
        g_x = np.take(reduce(np.add, u_terms()), np.argsort(perm), axis=-2)
        g_x += 0.0
        x._accum(g_x)
    return _node(y, (x, w_delta, b_delta, w_b, w_c, a, d_skip), bw)


def attention_pool(z: Tensor, params: ModelParams,
                   rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Gated attention pooling over the (parameter-free) normalized tokens of
    ``z``, (..., n, d_model): each bag's softmax runs over its own tokens,
    whose scores take dropout if given ``rng``. Returns the pooled
    (..., 1, d_model) row, the per-token weights and the normalized tokens."""
    z_norm = layer_norm(z)
    scores = (z_norm @ params["pool.W1"] + params["pool.b1"]).tanh() @ params["pool.W2"] + params["pool.b2"]
    scores = _dropout(scores, params.config.dropout, rng)
    *lead, n, _ = scores.shape
    weights = scores.reshape(*lead, n).softmax()
    pooled = weights.reshape(*lead, 1, n) @ z_norm
    return pooled, weights, z_norm


@dataclass
class ForwardTrace:
    n_prime: int
    logits: np.ndarray
    pool_weights: np.ndarray  # per token, class and padding tokens included, in the forward's dtype
    z_norm: np.ndarray
    tensors: dict = field(default_factory=dict)


def embed(bag: FeatureBag | list[FeatureBag], params: ModelParams,
          rng: np.random.Generator | None = None) -> tuple[Tensor, int]:
    """Validate a bag, or a list of B bags of one padded grid size n', and
    project, drop out (if given ``rng``), cycle-pad and stack them into a
    (1 + n', d_model) or (B, 1 + n', d_model) sequence; returns it and n'."""
    single = isinstance(bag, FeatureBag)
    group = [bag] if single else list(bag)
    for b in group:
        b.validate()
    sizes = {padded_grid_size(b.n_patches) for b in group}
    if len(sizes) != 1:
        raise ShapeError(f"a group of bags must share one padded grid size, got {sorted(sizes)}")
    dtype = params["proj.W"].data.dtype
    seqs = []
    for b in group:
        xp = project_input(np.ascontiguousarray(b.features, dtype=dtype), params)
        seq, n_prime = pad_square_with_class(_dropout(xp, params.config.dropout, rng), params)
        seqs.append(seq)
    return (seqs[0] if single else concat([s.reshape(1, *s.shape) for s in seqs], axis=0)), n_prime


def trunk(seq: Tensor, params: ModelParams) -> Tensor:
    """The stages of ``params.config.ablation`` (:data:`STAGES`) over an
    embedded sequence, (..., 1 + n', d_model), which keeps its shape."""
    cfg = params.config
    stages = STAGES[cfg.ablation]
    if "transformer" in stages:
        seq = nystrom_attention_layer(seq, params, "attn1")
        seq = ppeg_encode(seq, params)
        seq = nystrom_attention_layer(seq, params, "attn2")
    if "agent" in stages:
        seq = agent_attention(seq, params)
    if "scan" in stages:
        for layer in range(cfg.srmamba_layers):
            normed = layer_norm(seq, params[f"srmamba{layer}.ln_g"], params[f"srmamba{layer}.ln_b"])
            seq = seq + selective_scan(normed, params, layer)
    return seq


def forward(bag: FeatureBag | list[FeatureBag], params: ModelParams, *, mode: str = "eval",
            seed: int = 0) -> tuple[np.ndarray, ForwardTrace]:
    """Run a bag, or a list of bags of one padded grid size, through the model;
    returns (logits, trace).

    ``mode="train"`` records the tape and activates dropout seeded by
    ``seed``. ``mode="eval"`` runs under ``no_grad()``, so it records
    nothing and is a pure function of (bag, params).
    ``params.config.ablation`` picks the stages to run (:data:`STAGES`); a
    skipped stage leaves every tensor shape unchanged. To run weights under
    another variant, pass ``ModelParams(other_config, params.flat)``.

    One bag gives (4,) logits and runs on 2-D (tokens, d_model) arrays. A
    list of B bags that share n' (:func:`padded_grid_size`) gives (B, 4)
    logits, and the trace's arrays gain the same leading axis: each bag is
    projected and cycle-padded alone (:func:`embed`), then the stack of
    their sequences runs through every stage at once (:func:`trunk`). Every
    stage treats leading axes as independent bags, and numpy computes each
    slice of a stacked product or reduction as it would the bag alone, so
    each bag's logits keep the bits of its own forward.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    rng = np.random.default_rng(seed) if mode == "train" else None
    with no_grad() if rng is None else nullcontext():
        seq, n_prime = embed(bag, params, rng)
        pooled, weights, z_norm = attention_pool(trunk(seq, params), params, rng)
        logits_t = pooled @ params["clf.W"] + params["clf.b"]
    logits = logits_t.data.reshape(*seq.shape[:-2], N_BINS).astype(np.float64)
    if not np.isfinite(logits).all():
        raise NonFiniteError("forward pass produced non-finite logits")
    trace = ForwardTrace(n_prime=n_prime, logits=logits, pool_weights=weights.data, z_norm=z_norm.data,
                         tensors={"logits": logits_t})
    return logits, trace


# -- gradient verification -----------------------------------------------------


@dataclass
class GradReport:
    per_tensor: dict[str, float]
    max_rel_err: float
    n_params: int
    elapsed_s: float

    def ok(self, tolerance: float) -> bool:
        return self.max_rel_err < tolerance


def grad_check(
    config: ModelConfig,
    n_patches: int = 5,
    h: float = 1e-5,
    seed: int = 0,
    bin_index: int = 2,
    censored: int = 0,
) -> GradReport:
    """Compare analytic gradients of the survival loss with central differences.

    Runs in double precision on a tiny model. The analytic gradients come
    from a train forward at dropout 0, which draws no mask and gives the eval
    logits bit for bit. The reported figure per tensor is
    max |analytic - numeric| / max(|analytic|, |numeric|, 1e-4), i.e. a
    relative error with an absolute floor for near-zero entries.
    """
    if config.d_model > 16 or n_patches > 10:
        raise DataError("grad_check is for tiny configs (d_model <= 16, n <= 10)")
    t0 = time.perf_counter()
    params = init_params(replace(config, dropout=0.0), seed=seed, dtype=np.float64)
    rng = substream(seed, "gradcheck-bag")
    from .bags import grid_coords

    bag = FeatureBag(
        slide_id="gradcheck",
        features=rng.standard_normal((n_patches, config.d_in)),
        coords=grid_coords(n_patches),
    )
    bag.features = bag.features.astype(np.float64)

    def loss_value() -> float:
        with no_grad():
            _, trace = forward(bag, params)
            return float(nll_graph(trace.tensors["logits"], bin_index, censored).data)

    params.clear_grads()
    _, trace = forward(bag, params, mode="train")
    loss = nll_graph(trace.tensors["logits"], bin_index, censored)
    loss.backward()

    per_tensor: dict[str, float] = {}
    for name, tensor in params.tensors.items():
        analytic = np.zeros_like(tensor.data) if tensor.grad is None else np.asarray(tensor.grad)
        if not np.isfinite(analytic).all():
            raise GradError(f"non-finite analytic gradient in {name}")
        flat = tensor.data.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_value()
            flat[i] = orig - h
            lo = loss_value()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * h)
            a = analytic.reshape(-1)[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
            worst = max(worst, rel)
        per_tensor[name] = worst
    return GradReport(
        per_tensor=per_tensor,
        max_rel_err=max(per_tensor.values()),
        n_params=params.flat.size,
        elapsed_s=time.perf_counter() - t0,
    )


# -- checkpoints ----------------------------------------------------------------


def _manifest_tensors(config: ModelConfig, limit: int) -> list[dict]:
    """The checkpoint's tensor list for ``config``: each tensor's name, shape,
    dtype and byte offset, contiguous in ``param_layout`` order. Raises
    TruncatedError once the offsets pass ``limit`` bytes, so a config too big
    for its file is refused before anything is allocated, and the walk over
    a huge layer count stops early."""
    entries, offset = [], 0
    for name, shape, _ in param_layout(config):
        entries.append({"name": name, "shape": list(shape), "dtype": "f4", "offset": offset})
        offset += math.prod(shape) * 4
        if offset > limit:
            raise TruncatedError(f"config implies more than the {limit} bytes of weights the file holds")
    return entries


def save_checkpoint(path: str | Path, params: ModelParams, seed: int = 0) -> None:
    """Single-file checkpoint: magic, JSON manifest, then an f32 blob."""
    params.check_finite()
    manifest = {
        "version": CKPT_MAGIC.decode(),
        "config": asdict(params.config),
        "seed": int(seed),
        "tensors": _manifest_tensors(params.config, params.flat.size * 4),
    }
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        fh.write(params.flat.astype("<f4").tobytes())


def load_checkpoint(path: str | Path) -> tuple[ModelParams, ModelConfig, int]:
    raw = Path(path).read_bytes()
    if len(raw) < len(CKPT_MAGIC) + 8 or raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise FormatError(f"{path}: missing {CKPT_MAGIC.decode()} header")
    (manifest_len,) = struct.unpack_from("<Q", raw, len(CKPT_MAGIC))
    start = len(CKPT_MAGIC) + 8
    try:
        manifest = json.loads(raw[start : start + manifest_len].decode("utf-8"))
        config_dict, entries, seed = manifest["config"], manifest["tensors"], int(manifest["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: unreadable checkpoint manifest ({type(exc).__name__}: {exc})") from exc
    blob = raw[start + manifest_len :]
    if not isinstance(config_dict, dict) or not isinstance(entries, list):
        raise FormatError(f"{path}: checkpoint config must be a JSON object and tensors a list")
    config = config_from_dict(config_dict)
    try:
        expected = _manifest_tensors(config, len(blob))
    except TruncatedError as exc:
        raise TruncatedError(f"{path}: {exc}") from None
    # compared as JSON text, so neither 0.0 nor false passes for an offset of 0
    if json.dumps(entries, sort_keys=True) != json.dumps(expected, sort_keys=True):
        raise FormatError(f"{path}: the tensor list is not the config's layout "
                          "(each tensor in order, its shape, dtype f4 and contiguous offsets)")
    size = sum(math.prod(entry["shape"]) for entry in expected)
    params = ModelParams(config, np.frombuffer(blob, dtype="<f4", count=size).astype(np.float32))
    params.check_finite()
    return params, config, seed
