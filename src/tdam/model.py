"""The bag-level survival model.

Pipeline (per bag): linear projection + GELU -> cycle-pad the token grid to a
perfect square and prepend a class token -> Nystrom attention layer ->
multi-scale depthwise-conv positional encoding -> second Nystrom layer ->
two-stage agent attention -> stacked selective-scan blocks over a strided
reordering of the tokens -> gated attention pooling -> 4 bin logits.

Everything runs on the tape engine in :mod:`tdam.autodiff`, so analytic
gradients of the survival loss are available for training and can be checked
against finite differences (:func:`grad_check`).
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .autodiff import Tensor, _node, _unbroadcast, checkpoint, concat, dwconv2d, linear_recurrence, no_grad
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
# Token count from which an attention core (Nystrom or agent) keeps only its
# inputs on the tape and is recomputed in backward. Recompute adds about a
# quarter to two fifths to a core's forward+backward time at every size from
# 64 to 1,024 tokens, while the tape it saves grows with the tokens (7-9 MB
# per core at 256 tokens, 19-25 MB at 1,024; README, "Memory at paper
# width"). There is no break-even size: the value is a choice that keeps
# small bags on the plain tape.
RECOMPUTE_MIN_TOKENS = 256


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
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    return x * ((x * INV_SQRT2).erf() + 1.0) * 0.5


def layer_norm(x: Tensor, gain: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """(x - mean) / sqrt(var + LN_EPS) over the last axis, then * gain + bias.

    One tape op. Its forward and backward evaluate the same expressions, in
    the same order, as the chain of elementwise tape ops they replace, so
    values and gradients keep their bits. ``x`` gets its adjoint in two
    accumulations (centered path, then mean path), as that chain gave it.
    """
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


def _dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    if p <= 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * mask


def project_input(x: np.ndarray | Tensor, params: ModelParams) -> Tensor:
    """GELU(X W + b): project patch embeddings to the model width."""
    if x.shape[1] != params.config.d_in:
        raise ShapeError(f"bag dim {x.shape[1]} != configured d_in {params.config.d_in}")
    return gelu(x @ params["proj.W"] + params["proj.b"])


def pad_square_with_class(xp: Tensor, params: ModelParams) -> tuple[Tensor, int]:
    """Cycle tokens from the sequence start up to the next perfect square,
    then prepend the class token."""
    n = xp.shape[0]
    n_prime = (math.isqrt(n - 1) + 1) ** 2
    grid = xp if n_prime == n else xp.take(np.arange(n_prime) % n, axis=0)
    return concat([params["cls_token"], grid], axis=0), n_prime


def _grid_side(n_tokens: int) -> int:
    """Side of the square token grid; the stages after padding need a square."""
    side = math.isqrt(n_tokens)
    if side * side != n_tokens:
        raise ShapeError(f"{n_tokens} grid tokens do not form a square")
    return side


def _to_heads(x: Tensor, n_heads: int) -> Tensor:
    n, dm = x.shape
    return x.reshape(n, n_heads, dm // n_heads).transpose(1, 0, 2)


def _from_heads(x: Tensor) -> Tensor:
    h, n, dh = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * dh)


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


def newton_schulz_pinv(a: Tensor, iters: int) -> Tensor:
    """Iterative Moore-Penrose pseudo-inverse of a stack of square matrices.

    One tape op: z0 = a^T / (|a|_1 |a|_inf), then per iteration, with
    az = a z, z <- 0.25 z (13 I - az (15 I - az (7 I - az))). The backward
    walks the stored iterates in reverse. Both passes evaluate the same
    expressions, and sum adjoints in the same order, as the chain of tape
    ops they replace, so values and gradients keep their bits.
    """
    av = a.data
    eye = np.eye(av.shape[-1], dtype=av.dtype)
    col_sums = av.sum(axis=-2, keepdims=True)
    row_sums = av.sum(axis=-1, keepdims=True)
    norm1 = col_sums.max(axis=-1, keepdims=True)
    norm_inf = row_sums.max(axis=-2, keepdims=True)
    den = norm1 * norm_inf
    at = av.transpose(0, 2, 1)
    z = at / den
    steps = []
    for _ in range(iters):
        az = av @ z
        t1 = eye * 7.0 + (-az)
        t2 = eye * 15.0 + (-(az @ t1))
        t3 = eye * 13.0 + (-(az @ t2))
        zs = z * 0.25
        steps.append((z, az, t1, t2, t3, zs))
        z = zs @ t3

    def bw(g):
        g_a = []
        for z, az, t1, t2, t3, zs in reversed(steps):
            g_zs = g @ t3.swapaxes(-1, -2)
            g_p2 = -(zs.swapaxes(-1, -2) @ g)
            g_p1 = -(az.swapaxes(-1, -2) @ g_p2)
            g_t1 = az.swapaxes(-1, -2) @ g_p1
            g_az = g_p2 @ t2.swapaxes(-1, -2) + g_p1 @ t1.swapaxes(-1, -2) + (-g_t1)
            g_a.append(g_az @ z.swapaxes(-1, -2))
            g = g_zs * 0.25 + at @ g_az
        g_den = _unbroadcast(-g * at / (den * den), den.shape)
        g_a.append((g / den).transpose(0, 2, 1))
        # each norm is a max over sums of a: its adjoint goes to the maximal sums
        for sums, norm, axis, g_norm in ((col_sums, norm1, -1, g_den * norm_inf),
                                         (row_sums, norm_inf, -2, g_den * norm1)):
            mask = (sums == norm).astype(av.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            g_a.append(np.broadcast_to(mask * g_norm, av.shape))
        a._accum(sum(g_a[1:], g_a[0]))  # one sum, in the order the terms were listed
    return _node(z, (a,), bw)


def _attention_core(fn, x: Tensor, *weights: Tensor) -> Tensor:
    """``fn(x, *weights)``, recomputed in backward once ``x`` has at least
    RECOMPUTE_MIN_TOKENS rows. The re-run happens in backward, outside any
    forward, so ``fn`` calls none of the public stages that ``forward`` looks
    up in this module (a profiler may label those with the forward's mode).

    Gradients keep their bits because ``x`` and each weight feed only this
    core: checkpoint hands an input its whole adjoint from ``fn`` as one
    term, which would change the order of a sum over uses outside ``fn``."""
    if x.shape[0] >= RECOMPUTE_MIN_TOKENS:
        return checkpoint(fn, x, *weights)
    return fn(x, *weights)


def _nystrom_core(cfg: ModelConfig, x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor) -> Tensor:
    """Multi-head Nystrom attention of the normalized rows ``x``, through ``wo``."""
    n = x.shape[0]
    scale = 1.0 / math.sqrt(cfg.head_dim)
    q = _to_heads(x @ wq, cfg.n_heads) * scale
    k = _to_heads(x @ wk, cfg.n_heads)
    v = _to_heads(x @ wv, cfg.n_heads)
    m = min(cfg.n_landmarks, n)
    if m == n:
        # segment size 1: F pinv(A) B collapses to A A+ A = A, i.e. exact
        # softmax attention, which the landmark construction computes directly
        out = (q @ k.transpose(0, 2, 1)).softmax() @ v
    else:
        seg = _segment_mean_matrix(n, m, x.data.dtype)
        q_land = seg @ q
        k_land = seg @ k
        kernel_f = (q @ k_land.transpose(0, 2, 1)).softmax()
        kernel_a = (q_land @ k_land.transpose(0, 2, 1)).softmax()
        kernel_b = (q_land @ k.transpose(0, 2, 1)).softmax()
        out = kernel_f @ (newton_schulz_pinv(kernel_a, cfg.pinv_iters) @ (kernel_b @ v))
    return _from_heads(out) @ wo


def nystrom_attention_layer(seq: Tensor, params: ModelParams, which: str) -> Tensor:
    """Pre-layernorm multi-head Nystrom attention with a residual connection.

    Landmarks are contiguous-segment means of the (normalized) query and key
    rows; the softmax kernel is approximated by F pinv(A) B with the
    pseudo-inverse from Newton-Schulz iterations. With landmark count equal
    to the token count this reduces to exact softmax attention.
    """
    x = layer_norm(seq, params[f"{which}.ln_g"], params[f"{which}.ln_b"])
    weights = [params[f"{which}.{w}"] for w in ("Wq", "Wk", "Wv", "Wo")]
    return _attention_core(partial(_nystrom_core, params.config), x, *weights) + seq


def ppeg_encode(seq: Tensor, params: ModelParams) -> Tensor:
    """Multi-scale depthwise-conv positional encoding on the token grid.

    The class token bypasses; the remaining tokens are reshaped to their
    square grid and receive Conv7 + Conv5 + Conv3 + identity.
    """
    n_grid = seq.shape[0] - 1
    side = _grid_side(n_grid)
    cls_row = seq[0:1]
    img = seq[1:].reshape(side, side, seq.shape[1])
    out = (
        dwconv2d(img, params["ppeg.K7"])
        + dwconv2d(img, params["ppeg.K5"])
        + dwconv2d(img, params["ppeg.K3"])
        + img
    )
    return concat([cls_row, out.reshape(n_grid, seq.shape[1])], axis=0)


def _nearest_grid_index(side: int, stored_side: int) -> np.ndarray:
    """Flat nearest-neighbor map from a side x side grid onto the stored grid."""
    pos = np.minimum((np.arange(side) + 0.5) * stored_side // side, stored_side - 1).astype(int)
    return (pos[:, None] * stored_side + pos[None, :]).reshape(-1)


_AGENT_WEIGHTS = ("Wq", "Wkv", "P_agent", "Wdw", "Wout", "B_A2P", "B_P2A")


def _agent_core(cfg: ModelConfig, x: Tensor, wq: Tensor, wkv: Tensor, p_agent: Tensor, wdw: Tensor,
                wout: Tensor, bias_a2p: Tensor, bias_p2a: Tensor) -> Tensor:
    """Agent attention of the grid rows ``x``, through ``wout``."""
    n = x.shape[0]
    side = _grid_side(n)
    dm = cfg.d_model
    q = x @ wq
    kv = x @ wkv
    k, v = kv[:, :dm], kv[:, dm:]
    scale = 1.0 / math.sqrt(cfg.head_dim)
    qh = _to_heads(q, cfg.n_heads) * scale
    kh = _to_heads(k, cfg.n_heads)
    vh = _to_heads(v, cfg.n_heads)
    agents = _to_heads(p_agent, cfg.n_heads) * scale
    if side != cfg.agent_bias_side:
        idx = _nearest_grid_index(side, cfg.agent_bias_side)
        bias_a2p = bias_a2p.take(idx, axis=2)
        bias_p2a = bias_p2a.take(idx, axis=1)
    a2p = (agents @ kh.transpose(0, 2, 1) + bias_a2p).softmax()
    agents_updated = a2p @ vh
    p2a = (qh @ agents_updated.transpose(0, 2, 1) + bias_p2a).softmax()
    attended = _from_heads(p2a @ agents_updated)
    local = dwconv2d(v.reshape(side, side, dm), wdw).reshape(n, dm)
    return (local + attended) @ wout


def agent_attention(x: Tensor, params: ModelParams) -> Tensor:
    """Two-stage agent attention over grid tokens (class token handled by caller).

    Agents attend over the tokens (A2P), tokens then attend over the updated
    agents (P2A); a depthwise conv over V on the 2-D grid adds a local path.
    The token count must be a perfect square; positional biases are stored
    on a fixed square grid and nearest-neighbor resized.
    """
    weights = [params[f"agent.{w}"] for w in _AGENT_WEIGHTS]
    return _attention_core(partial(_agent_core, params.config), x, *weights)


def srmamba_reorder(n: int, rate: int) -> np.ndarray:
    """Concatenation of the stride-``rate`` subsequences of 0..n-1."""
    if rate < 1:
        raise ValueError("rate must be >= 1")
    return np.concatenate([np.arange(r, n, rate) for r in range(min(rate, n))])


def selective_scan(x: Tensor, params: ModelParams, layer: int) -> Tensor:
    """Input-dependent diagonal state-space scan over the reordered sequence.

    delta_t = softplus(x_t W_delta + b_delta) per channel; the state matrix
    is discretized with a zero-order hold (abar = exp(delta A), bbar =
    expm1(delta A)/A * B(x_t); bbar is computed as delta * expm1(delta A) /
    (delta A), so A = 0 is no singularity); outputs are read through C(x_t)
    plus a learned skip D. Discretization, recurrence and readout run as the
    one fused op :func:`tdam.autodiff.linear_recurrence`. The scan runs on
    the stride-reordered sequence and the result is permuted back; the
    residual is the caller's job.
    """
    p = f"srmamba{layer}"
    cfg = params.config
    n = x.shape[0]
    perm = srmamba_reorder(n, cfg.srmamba_rate)
    u = x.take(perm, axis=0) if cfg.srmamba_rate > 1 else x
    delta = (u @ params[f"{p}.W_delta"] + params[f"{p}.b_delta"]).softplus()
    b_in = u @ params[f"{p}.W_B"]
    c_out = u @ params[f"{p}.W_C"]
    y = linear_recurrence(delta, params[f"{p}.A"], b_in, c_out, u) + u * params[f"{p}.D"]
    if cfg.srmamba_rate > 1:
        y = y.take(np.argsort(perm), axis=0)
    return y


def attention_pool(
    z: Tensor,
    params: ModelParams,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Gated attention pooling over the (parameter-free) normalized tokens;
    returns the pooled row, the per-token weights and the normalized tokens."""
    z_norm = layer_norm(z)
    scores = (z_norm @ params["pool.W1"] + params["pool.b1"]).tanh() @ params["pool.W2"] + params["pool.b2"]
    if train:
        scores = _dropout(scores, params.config.dropout, rng)
    weights = scores.reshape(scores.shape[0]).softmax()
    pooled = weights.reshape(1, -1) @ z_norm
    return pooled, weights, z_norm


@dataclass
class ForwardTrace:
    n_prime: int
    logits: np.ndarray
    pool_weights: np.ndarray  # per token, class and padding tokens included
    z_norm: np.ndarray
    tensors: dict = field(default_factory=dict)


def forward(bag: FeatureBag, params: ModelParams, *, mode: str = "eval",
            seed: int = 0) -> tuple[np.ndarray, ForwardTrace]:
    """Run a bag through the model; returns (logits, trace).

    ``mode="train"`` activates dropout seeded by ``seed``; eval mode is a
    pure function of (bag, params). ``params.config.ablation`` picks the
    stages to run (:data:`STAGES`); a skipped stage leaves every tensor
    shape unchanged. To run weights under another variant, pass
    ``ModelParams(other_config, params.flat)``.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    bag.validate()
    cfg = params.config
    stages = STAGES[cfg.ablation]
    train = mode == "train"
    rng = np.random.default_rng(seed) if train else None
    dtype = params["proj.W"].data.dtype
    xp = project_input(np.ascontiguousarray(bag.features, dtype=dtype), params)
    if train:
        xp = _dropout(xp, cfg.dropout, rng)
    seq, n_prime = pad_square_with_class(xp, params)
    embedded = seq
    if "transformer" in stages:
        seq = nystrom_attention_layer(seq, params, "attn1")
        seq = ppeg_encode(seq, params)
        seq = nystrom_attention_layer(seq, params, "attn2")
    if "agent" in stages:
        grid = agent_attention(seq[1:], params)
        seq = concat([seq[0:1], grid], axis=0)
    if "scan" in stages:
        for layer in range(cfg.srmamba_layers):
            normed = layer_norm(seq, params[f"srmamba{layer}.ln_g"], params[f"srmamba{layer}.ln_b"])
            seq = seq + selective_scan(normed, params, layer)
    pooled, weights, z_norm = attention_pool(seq, params, train, rng)
    logits_t = pooled @ params["clf.W"] + params["clf.b"]
    logits = logits_t.data.reshape(N_BINS).astype(np.float64)
    if not np.isfinite(logits).all():
        raise NonFiniteError("forward pass produced non-finite logits")
    trace = ForwardTrace(
        n_prime=n_prime,
        logits=logits,
        pool_weights=weights.data.astype(np.float64),
        z_norm=z_norm.data.astype(np.float64),
        tensors={"embedded": embedded, "final_seq": seq, "logits": logits_t},
    )
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

    Runs in double precision on a tiny model. The reported figure per tensor
    is max |analytic - numeric| / max(|analytic|, |numeric|, 1e-4), i.e. a
    relative error with an absolute floor for near-zero entries.
    """
    if config.d_model > 16 or n_patches > 10:
        raise DataError("grad_check is for tiny configs (d_model <= 16, n <= 10)")
    t0 = time.perf_counter()
    params = init_params(config, seed=seed, dtype=np.float64)
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
    _, trace = forward(bag, params)
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


def save_checkpoint(path: str | Path, params: ModelParams, seed: int = 0) -> None:
    """Single-file checkpoint: magic, JSON manifest, then an f32 blob."""
    params.check_finite()
    manifest_tensors = []
    offset = 0
    for name, t in params.tensors.items():
        manifest_tensors.append({"name": name, "shape": list(t.shape), "dtype": "f4", "offset": offset})
        offset += t.data.size * 4
    manifest = {
        "version": CKPT_MAGIC.decode(),
        "config": asdict(params.config),
        "seed": int(seed),
        "tensors": manifest_tensors,
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
    # the config comes from the file, so its weights must fit the blob before
    # anything is allocated; this also bounds the walk over a huge layer count
    implied = 0
    for _, shape, _ in param_layout(config):
        implied += math.prod(shape) * 4
        if implied > len(blob):
            raise TruncatedError(f"{path}: config implies more than the {len(blob)} bytes of weights the file holds")
    params = ModelParams(config, np.empty(implied // 4, dtype=np.float32))
    loaded: set[str] = set()
    for entry in entries:
        try:
            name, shape, lo = entry["name"], entry["shape"], entry["offset"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{path}: tensor entry {entry!r} lacks name, shape or offset") from exc
        if not isinstance(name, str) or name not in params.tensors or name in loaded:
            raise FormatError(f"{path}: unexpected or repeated tensor {name!r}")
        view = params[name].data
        if shape != list(view.shape):
            raise FormatError(f"{path}: tensor {name} has shape {shape!r}, config implies {list(view.shape)}")
        if not isinstance(lo, int) or isinstance(lo, bool) or lo < 0:
            raise FormatError(f"{path}: tensor {name} has offset {lo!r}, not a byte offset")
        hi = lo + view.size * 4
        if hi > len(blob):
            raise TruncatedError(f"{path}: blob ends before tensor {name}")
        view[...] = np.frombuffer(blob[lo:hi], dtype="<f4").reshape(view.shape)
        loaded.add(name)
    missing = [name for name in params.names() if name not in loaded]
    if missing:
        raise FormatError(f"{path}: checkpoint lacks {len(missing)} tensors (first: {missing[0]})")
    params.check_finite()
    return params, config, seed
