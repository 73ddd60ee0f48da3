"""Minimal reverse-mode automatic differentiation over numpy arrays.

Tape-style engine in the micrograd tradition, but tensor-valued: each op
records a closure that maps the output adjoint onto the parents' adjoints.
It carries only the ops the model in :mod:`tdam.model` and the survival
loss reach: broadcasting add and mul, negation, batched matmul, the
nonlinearities tanh, softplus and softmax, the sum reduction, shape and
gather ops, a depthwise 2-D convolution, and the selective scan's
recurrence as one fused op (:func:`linear_recurrence`: zero-order-hold
discretization, diagonal recurrence and readout, run in chunks and
recomputed in backward).
The scan holds its state state-major, (..., s, d), so every elementwise op
loops over the d channels; its readout adds the s state rows in the order
numpy reduces a contiguous axis, and its backward contractions read
(..., d, s) copies, so it keeps the bits of the same scan held (..., d, s).
:func:`dwconv2d` multiplies a strided (tap, tap, row, column, channel)
window view of the padded grid by the kernel in one product and sums the
taps in one reduction, in row-major tap order from +0.0, so it keeps the
bits of a loop over the taps; products are cut into blocks of output rows
(whole taps, for the kernel adjoint) of at most CONV_BLOCK_BYTES. Both
fused ops take leading batch axes (a stack of grids, of sequences), as the
elementwise ops and matmul do by broadcasting, so a stack of bags runs
through the model in one pass.
The model adds more fused ops through :func:`_node`, each with a
hand-written backward: ``gelu``, ``layer_norm``, PPEG, each Nystrom
attention core, agent attention and a whole selective-scan layer. They call
the array halves of the engine's softmax and gather, and add adjoint terms
as :meth:`Tensor._accum` does, so each keeps the bits of the chain of ops
it replaced. Forward dtype is preserved, so the same graph runs in float32
for training and float64 for gradient checking. Inside :func:`no_grad` the
ops compute the same values but record nothing: each output has no parents
and no closure, so inference builds no backward graph. Backward never
records either.

Only a :class:`Tensor` is a parent. An operand that is not one (a number or
an ndarray, such as the model's bag features and dropout masks) is a
constant: it depends on nothing being differentiated, so it gets no adjoint.

Backward consumes the tape: once a node's closure has run, the node lets go
of its closure and its parents, so the arrays a closure saved are freed as
the pass moves on, and a graph can be backpropagated only once (a second
:meth:`Tensor.backward` through it raises RuntimeError). Backward also
frees each non-leaf adjoint as soon as its closure has consumed it; leaves
(tensors made directly, such as parameters) keep theirs, and so does any
tensor marked with :meth:`Tensor.retain_grad`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Sequence

import numpy as np
from scipy import special

__all__ = ["Tensor", "concat", "linear_recurrence", "dwconv2d", "no_grad", "CONV_BLOCK_BYTES", "SCAN_CHUNK"]

# Steps per chunk of the fused scan: the (chunk, s, d) intermediates of a
# paper-width layer (d = 256, s = 16) stay near 1 MB each.
SCAN_CHUNK = 64

# Bytes per block of the depthwise convolution's tap products: the taps of
# a few grid rows at acceptance scale, one row (or one tap) at paper width.
CONV_BLOCK_BYTES = 1 << 20

# False inside no_grad(). Process-global: folds run in worker processes, not threads.
_recording = True


@contextmanager
def no_grad():
    """Run ops without recording them; nests, and restores the mode on exit."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _node(data, parents: tuple, backward) -> Tensor:
    """An op's output: a tape node with ``parents`` and ``backward`` while
    recording, a bare tensor inside no_grad()."""
    return Tensor(data, parents, backward) if _recording else Tensor(data)


def _consumed(g) -> None:
    """The backward of a node whose closure backward has already run."""
    raise RuntimeError("this graph has already been backpropagated; run the forward again")


def _added(total: np.ndarray | None, g: np.ndarray) -> np.ndarray:
    """An adjoint after the term ``g`` is added to ``total``, as
    :meth:`Tensor._accum` adds it: a first term (``total`` None) is kept as it
    is, or copied when it is a view or a scalar."""
    if total is None:
        return g.copy() if g.base is not None or g.shape == () else g
    return total + g


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_adjoint(g: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    """The adjoint of the softmax input, for the softmax ``y`` and its adjoint ``g``."""
    return y * (g - (g * y).sum(axis=axis, keepdims=True))


def _take_adjoint(g: np.ndarray, idx: np.ndarray, like: np.ndarray, axis: int) -> np.ndarray:
    """The adjoint of ``like`` for ``np.take(like, idx, axis)`` and its adjoint ``g``.

    It adds into zeros in occurrence rounds: round k adds the k-th occurrence
    of each position with one fancy-index ``+=``, which touches each position
    at most once. So every position sums its occurrences in index order from
    +0.0, as ``np.add.at`` onto zeros does, with the same bits; a position
    never taken stays +0.0.
    """
    full = np.zeros_like(like)
    dst, src = np.moveaxis(full, axis, 0), np.moveaxis(g, axis, 0)
    # rank[j]: how many entries before order[j], in index order, take its position
    order = np.argsort(idx, kind="stable")
    ranked = idx[order]
    first = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    rank = np.arange(idx.size) - np.repeat(first, np.diff(np.r_[first, idx.size]))
    for k in range(rank.max(initial=-1) + 1):
        picks = order[rank == k]
        dst[idx[picks]] += src[picks]
    return full


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus the backward closure that produced it."""

    __slots__ = ("data", "grad", "_parents", "_backward", "_retain")

    # numpy defers ``ndarray @ Tensor`` to __rmatmul__, and raises TypeError for
    # the other ops with an array on the left, instead of building object arrays
    __array_ufunc__ = None

    def __init__(self, data, parents: tuple = (), backward=None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward
        self._retain = False

    # -- plumbing ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def _accum(self, g: np.ndarray) -> None:
        self.grad = _added(self.grad, g)

    def retain_grad(self) -> None:
        """Keep this tensor's adjoint after backward; a non-leaf's is freed once used."""
        self._retain = True

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (scalar unless ``seed`` given).

        The pass consumes the graph: each node is dropped from the order
        once its closure has run, and lets go of its closure and its
        parents, so what the closure saved is freed as the pass moves on.
        A later backward that reaches such a node raises RuntimeError
        before any closure runs. Each node's adjoint is dropped once its
        closure has passed it on, unless the node is a leaf or was marked
        with :meth:`retain_grad`.
        """
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _consumed:
                _consumed(None)
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed requires a scalar output")
            seed = np.ones_like(self.data)
        self.grad = np.asarray(seed, dtype=self.data.dtype)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents = _consumed, ()
            if not node._retain:
                node.grad = None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return _node(self.data + other, (self,), lambda g: self._accum(_unbroadcast(g, self.data.shape)))

        def bw(g):
            self._accum(_unbroadcast(g, self.data.shape))
            other._accum(_unbroadcast(g, other.data.shape))
        return _node(self.data + other.data, (self, other), bw)

    def __neg__(self):
        return _node(-self.data, (self,), lambda g: self._accum(-g))

    def __mul__(self, other):
        if not isinstance(other, Tensor):
            return _node(self.data * other, (self,), lambda g: self._accum(_unbroadcast(g * other, self.data.shape)))

        def bw(g):
            self._accum(_unbroadcast(g * other.data, self.data.shape))
            other._accum(_unbroadcast(g * self.data, other.data.shape))
        return _node(self.data * other.data, (self, other), bw)

    def __matmul__(self, other: Tensor):
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul operands must be at least 2-D")

        def bw(g):
            self._accum(_unbroadcast(g @ other.data.swapaxes(-1, -2), self.data.shape))
            other._accum(_unbroadcast(self.data.swapaxes(-1, -2) @ g, other.data.shape))
        return _node(self.data @ other.data, (self, other), bw)

    def __rmatmul__(self, other: np.ndarray):
        """``other @ self`` for a constant array ``other``."""
        if other.ndim < 2 or self.data.ndim < 2:
            raise ValueError("matmul operands must be at least 2-D")
        return _node(other @ self.data, (self,),
                     lambda g: self._accum(_unbroadcast(other.swapaxes(-1, -2) @ g, self.data.shape)))

    # -- elementwise nonlinearities ---------------------------------------

    def tanh(self):
        y = np.tanh(self.data)
        return _node(y, (self,), lambda g: self._accum(g * (1.0 - y * y)))

    def softplus(self):
        return _node(np.logaddexp(0.0, self.data).astype(self.data.dtype), (self,),
                     lambda g: self._accum(g * special.expit(self.data)))

    def softmax(self, axis: int = -1):
        y = _softmax(self.data, axis)
        return _node(y, (self,), lambda g: self._accum(_softmax_adjoint(g, y, axis)))

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))
        return _node(self.data.sum(axis=axis, keepdims=keepdims), (self,), bw)

    # -- shape ops --------------------------------------------------------

    def reshape(self, *shape):
        return _node(self.data.reshape(shape), (self,), lambda g: self._accum(g.reshape(self.data.shape)))

    def __getitem__(self, idx):
        """Basic indexing only (ints/slices); use take for fancy."""

        def bw(g):
            full = np.zeros_like(self.data)
            full[idx] += g
            self._accum(full)
        return _node(self.data[idx], (self,), bw)

    def take(self, indices: np.ndarray, axis: int):
        """Gather along ``axis`` by a 1-D integer index array; the adjoint is
        :func:`_take_adjoint`'s."""
        idx = np.asarray(indices)
        return _node(np.take(self.data, idx, axis=axis), (self,),
                     lambda g: self._accum(_take_adjoint(g, idx, self.data, axis)))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._accum(g[tuple(sl)])
    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)


def _state_sum(x: np.ndarray, out: np.ndarray) -> None:
    """``out = x.sum(axis=-2)`` for state-major ``x``, (..., s, d), added in
    the order ``np.add.reduce`` adds a contiguous axis: +0.0 plus numpy's
    pairwise sum of the s rows. So each entry keeps the bits of summing the
    (..., d, s) transpose over its last axis, while every add runs over the d
    channels."""
    np.add(0.0, _pairwise_rows(x, 0, x.shape[-2]), out=out)


def _pairwise_rows(x: np.ndarray, lo: int, n: int) -> np.ndarray:
    """numpy's pairwise sum of the rows ``x[..., lo:lo + n, :]``: fewer than 8
    rows one after another; up to 128 rows into 8 accumulators, which are
    combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) before the
    remainder is added row by row; more rows as two halves split at a multiple
    of 8."""
    if n < 8:
        res = x[..., lo, :].copy()
        for j in range(lo + 1, lo + n):
            res += x[..., j, :]
        return res
    if n <= 128:
        acc = x[..., lo:lo + 8, :].copy()
        stop = lo + n - n % 8
        for j in range(lo + 8, stop, 8):
            acc += x[..., j:j + 8, :]
        acc[..., 0::2, :] += acc[..., 1::2, :]
        acc[..., 0::4, :] += acc[..., 2::4, :]
        res = acc[..., 0, :]
        res += acc[..., 4, :]
        for j in range(stop, lo + n):
            res += x[..., j, :]
        return res
    half = n // 2 - n // 2 % 8
    return _pairwise_rows(x, lo, half) + _pairwise_rows(x, lo + half, n - half)


def _scan_chunk(delta, a_t, b_in, u, h0, work):
    """Discretize one chunk and run its recurrence from the state ``h0``.

    ``delta`` and ``u`` are (L, ..., d), ``b_in`` is (L, ..., s), token axis
    first, and ``a_t`` is A transposed, (s, d). Fills ``work`` = (da, abar,
    expm1(da)/da, h), each state-major (L, ..., s, d), in place, and returns
    the mask of entries where expm1(da)/da took its series.
    """
    da, abar, e, h = work
    d3 = delta[..., None, :]
    np.multiply(d3, a_t, out=da)
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
    h *= b_in[..., None]
    h *= u[..., None, :]
    step = np.empty_like(h0)
    prev = h0
    for abar_t, h_t in zip(abar, h):
        np.multiply(abar_t, prev, out=step)
        h_t += step
        prev = h_t
    return small


def _scan_chunks(n: int) -> list[slice]:
    """The scan's chunks of SCAN_CHUNK steps over n tokens, in order."""
    return [slice(lo, min(lo + SCAN_CHUNK, n)) for lo in range(0, n, SCAN_CHUNK)]


def _scan_work(dv: np.ndarray, s: int, dtype) -> np.ndarray:
    """The four state-major (chunk, ..., s, d) buffers that :func:`_scan_chunk` fills."""
    *lead, n, d = dv.shape
    return np.empty((4, min(n, SCAN_CHUNK), *lead, s, d), dtype=dtype)


def linear_recurrence(delta: Tensor, a: Tensor, b_in: Tensor, c_out: Tensor, u: Tensor,
                      starts: list | None = None) -> Tensor:
    """The selective scan's recurrence with its discretization and readout fused in.

    ``delta`` and ``u`` are (..., n, d), ``b_in`` and ``c_out`` are
    (..., n, s) and ``a`` is (d, s); leading axes are independent sequences
    (bags) that share ``a``. With a zero-order hold, per step t::

        abar[t] = exp(delta[t] a)
        h[t]    = abar[t] * h[t-1] + delta[t] expm1(delta[t] a)/(delta[t] a) * b_in[t] * u[t]
        y[t]    = sum_j h[t, :, j] * c_out[t, j]

    with h[-1] = 0; returns y, (..., n, d). expm1(z)/z takes its series
    1 + z/2 + z^2/6 where |z| < 1e-5, so A = 0 is no singularity. The
    (n, ..., s, d) intermediates never exist at once: the forward pass walks
    chunks of SCAN_CHUNK steps and keeps only the state at each chunk start,
    and the backward pass (:func:`_recurrence_adjoints`) walks the chunks in
    reverse, recomputes each one from its start state in work buffers of its
    own and runs the reverse-time adjoint scan through it. Each step of the
    Python loop advances the states of every sequence at once. Every value
    is computed elementwise or summed along the state axis alone, so a
    sequence gets the same bits alone as in a stack. A list passed as
    ``starts`` receives the chunk start states, with which a caller that
    records its own node backpropagates through the recurrence without
    re-running it.

    The state h[t] above is (d, s); it is held state-major, (..., s, d), so
    each elementwise op runs over the d channels innermost. The readout adds its s rows in the order
    numpy reduces a contiguous axis (:func:`_state_sum`), and each backward
    contraction reads a (..., d, s) copy of its operand, so output and
    adjoints keep the bits of the same scan held (..., d, s).
    """
    dv, av, bv, cv, uv = delta.data, a.data, b_in.data, c_out.data, u.data
    *lead, n, d = dv.shape
    s = av.shape[1]
    if uv.shape != dv.shape or av.shape != (d, s) or bv.shape != (*lead, n, s) or cv.shape != bv.shape:
        raise ValueError("linear_recurrence operands have inconsistent shapes")
    # token axis first, as views; one sequence keeps its own layout
    dt, bt, ct, ut = (np.moveaxis(x, -2, 0) for x in (dv, bv, cv, uv))
    at = np.ascontiguousarray(av.T)
    dtype = np.result_type(dv, av, bv, uv)
    work = _scan_work(dv, s, dtype)
    if starts is None:
        starts = []
    state = np.zeros((*lead, s, d), dtype=dtype)
    y = np.empty((*lead, n, d), dtype=np.result_type(dtype, cv))
    yt = np.moveaxis(y, -2, 0)
    for ck in _scan_chunks(n):
        starts.append(state)
        part = work[:, : ck.stop - ck.start]
        _scan_chunk(dt[ck], at, bt[ck], ut[ck], state, part)
        # expm1(da)/da is spent once h is built, so its buffer takes the readout product
        h, prod = part[3], part[2]
        np.multiply(h, ct[ck][..., None], out=prod)
        _state_sum(prod, out=yt[ck])
        state = h[-1].copy()

    def bw(g):
        grads = _recurrence_adjoints(g, dv, av, bv, cv, uv, starts)
        for t, grad in zip((delta, a, b_in, c_out, u), grads):
            t._accum(grad)
    return _node(y, (delta, a, b_in, c_out, u), bw)


def _recurrence_adjoints(g: np.ndarray, dv: np.ndarray, av: np.ndarray, bv: np.ndarray, cv: np.ndarray,
                        uv: np.ndarray, starts: list) -> tuple[np.ndarray, ...]:
    """The adjoints of :func:`linear_recurrence`'s operands, in its argument
    order, for the output adjoint ``g``, from the operands' arrays and the
    chunk start states its forward gave in ``starts``."""
    *lead, n, d = dv.shape
    s = av.shape[1]
    dt, bt, ct, ut = (np.moveaxis(x, -2, 0) for x in (dv, bv, cv, uv))
    at = np.ascontiguousarray(av.T)
    dtype = np.result_type(dv, av, bv, uv)
    work = _scan_work(dv, s, dtype)
    g_delta, g_b, g_c, g_u = (np.empty_like(x) for x in (dv, bv, cv, uv))
    gdt, gbt, gct, gut = (np.moveaxis(x, -2, 0) for x in (g_delta, g_b, g_c, g_u))
    gt = np.moveaxis(g, -2, 0)
    g_a = np.zeros_like(av)
    carry = np.zeros_like(starts[0])
    # the (..., d, s) copy that each contraction reads, one chunk long
    flipped = np.empty((*work.shape[1:-2], d, s), dtype=dtype)
    for ck, h0 in zip(reversed(_scan_chunks(n)), reversed(starts)):
        part = work[:, : ck.stop - ck.start]
        small = _scan_chunk(dt[ck], at, bt[ck], ut[ck], h0, part)
        da, abar, e, h = part
        gk, dk, uk, bk = gt[ck], dt[ck], ut[ck], bt[ck]
        flip = flipped[: ck.stop - ck.start]
        np.copyto(flip, h.swapaxes(-1, -2))
        gct[ck] = np.matmul(gk[..., None, :], flip)[..., 0, :]
        # adjoint of h[t]: its readout plus abar[t+1] times the adjoint of h[t+1]
        gh = gk[..., None, :] * ct[ck][..., None]
        for abar_t, gh_t in zip(abar[::-1], gh[::-1]):
            gh_t += carry
            np.multiply(abar_t, gh_t, out=carry)
        # contrib = delta e b u: with w = gh e, g_b = (delta u) . w and
        # g_u, g_delta collect delta (w b) and u (w b)
        np.multiply(gh.swapaxes(-1, -2), e.swapaxes(-1, -2), out=flip)
        wb = np.matmul(flip, bk[..., None])[..., 0]
        du = dk * uk
        gbt[ck] = np.matmul(du[..., None, :], flip)[..., 0, :]
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
        de *= du[..., None, :] * bk[..., None]
        g_da += de
        g_da *= gh
        np.copyto(flip, g_da.swapaxes(-1, -2))
        gdt[ck] = uk * wb + np.einsum("t...ij,ij->t...i", flip, av)
        g_a += np.einsum("tij,ti->ij", flip.reshape(-1, d, s), dk.reshape(-1, d))
    return g_delta, g_a, g_b, g_c, g_u


def _tap_windows(pad: np.ndarray, kh: int, kw: int, row: int, rows: int, flip: bool = False) -> np.ndarray:
    """The (kh, kw, ..., rows, W, C) view ``v[i, j, ..., r, w] = pad[..., row + r + i, w + j]``
    of the padded grid ``pad``, (..., H + kh - 1, W + kw - 1, C) and
    C-contiguous; with ``flip``, tap (i, j) reads tap (kh-1-i, kw-1-j). Built
    directly on pad's buffer, which costs a fraction of a ``sliding_window_view``."""
    *lead_strides, s0, s1, s2 = pad.strides
    offset = row * s0
    t0, t1 = s0, s1
    if flip:
        offset += (kh - 1) * s0 + (kw - 1) * s1
        t0, t1 = -s0, -s1
    shape = (kh, kw, *pad.shape[:-3], rows, pad.shape[-2] - kw + 1, pad.shape[-1])
    return np.ndarray(shape, pad.dtype, buffer=pad, offset=offset, strides=(t0, t1, *lead_strides, s0, s1, s2))


def _tap_sum(pad: np.ndarray, kv: np.ndarray, flip: bool = False) -> np.ndarray:
    """``out[..., h, w] = sum over taps (i, j) of window[i, j, ..., h, w] * kv[i, j]``,
    the taps added in row-major order onto +0.0, ``window`` as in
    :func:`_tap_windows`. Works in blocks of output rows (of every grid in
    the stack at once) whose products stay within CONV_BLOCK_BYTES."""
    kh, kw, c = kv.shape
    *lead, hp, wp, _ = pad.shape
    h, w = hp - kh + 1, wp - kw + 1
    out = np.empty((*lead, h, w, c), dtype=pad.dtype)
    rows = min(h, max(1, CONV_BLOCK_BYTES // (kh * kw * math.prod(lead) * w * c * pad.itemsize)))
    prod = np.empty((kh * kw, *lead, rows, w, c), dtype=pad.dtype)
    weights = kv[(slice(None), slice(None)) + (None,) * (len(lead) + 2)]
    for row in range(0, h, rows):
        n = min(rows, h - row)
        block = prod[..., :n, :, :]
        np.multiply(_tap_windows(pad, kh, kw, row, n, flip), weights, out=block.reshape(kh, kw, *block.shape[1:]))
        # the tap axis is outermost, so each output element sums its taps in order
        np.add.reduce(block, axis=0, initial=0.0, out=out[..., row:row + n, :, :])
    return out


def _tap_blocks(kh: int, kw: int, taps: int) -> list[tuple[slice, slice]]:
    """Kernel (row, column) slices covering every tap, in row-major order,
    ``taps`` or fewer taps per block: whole kernel rows when one fits, else
    runs of taps within a row."""
    if taps >= kw:
        step = taps // kw
        return [(slice(i, i + step), slice(0, kw)) for i in range(0, kh, step)]
    return [(slice(i, i + 1), slice(j, j + taps)) for i in range(kh) for j in range(0, kw, taps)]


def dwconv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Depthwise 2-D convolution, stride 1, zero-padded to the same size.

    ``x`` is (..., H, W, C), leading axes a stack of grids; ``kernel`` is
    (kh, kw, C) with odd kh, kw. Channel c of the output depends only on
    channel c of the input:
    ``y[..., h, w] = sum over taps (i, j) of xpad[..., h + i, w + j] * kernel[i, j]``.

    Each kernel is one product of a (kh, kw, ..., rows, W, C) window view of
    the padded input with the kernel, then one reduction over the tap axis
    that adds the taps in row-major (i, j) order onto +0.0. The input adjoint
    is the same product over the zero-padded output adjoint with both tap
    axes flipped; the kernel adjoint sums each tap's product with the adjoint
    over (..., H, W), several whole taps at a time. Every product is cut into
    blocks of output rows (of taps, for the kernel adjoint) of at most
    CONV_BLOCK_BYTES, so a paper-width grid takes one row, or one tap, per
    block. Each output, adjoint included, keeps the bits of the per-tap
    loop ``y += xpad[i:i+H, j:j+W] * kernel[i, j]`` for a finite kernel.
    The node keeps only its input; backward pads it again.
    """
    xv, kv = x.data, kernel.data

    def bw(g):
        g_x, g_k = _dwconv_adjoints(g, xv, kv)
        kernel._accum(g_k)
        x._accum(g_x)
    return _node(_tap_sum(_same_padded(xv, kv), kv), (x, kernel), bw)


def _same_padded(v: np.ndarray, kv: np.ndarray, dtype=None) -> np.ndarray:
    """The (..., H, W, C) grid ``v`` zero-padded on both sides of H and W for
    the kernel ``kv``, so the convolution keeps the grid's size."""
    kh, kw, _ = kv.shape
    *lead, H, W, C = v.shape
    out = np.zeros((*lead, H + kh - 1, W + kw - 1, C), dtype=dtype or v.dtype)
    out[..., kh // 2:kh // 2 + H, kw // 2:kw // 2 + W, :] = v
    return out


def _dwconv_adjoints(g: np.ndarray, xv: np.ndarray, kv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjoints of :func:`dwconv2d`'s input ``xv`` and kernel ``kv`` for
    the output adjoint ``g``. The padded input is built again here rather
    than kept on the tape."""
    kh, kw, _ = kv.shape
    xpad = _same_padded(xv, kv)
    # each tap's product with g, summed over (..., H, W) as the loop's .sum did
    dk = np.empty_like(kv)
    windows = _tap_windows(xpad, kh, kw, 0, xv.shape[-3])
    taps = max(1, CONV_BLOCK_BYTES // (xv.size * xpad.itemsize))
    prod = np.empty((min(taps, kh * kw),) + xv.shape, dtype=xv.dtype)
    for bi, bj in _tap_blocks(kh, kw, taps):
        block = windows[bi, bj]
        out = prod[:block.shape[0] * block.shape[1]].reshape(block.shape)
        np.multiply(block, g, out=out)
        out.sum(axis=tuple(range(2, out.ndim - 1)), out=dk[bi, bj])
    return _tap_sum(_same_padded(g, kv, xv.dtype), kv, flip=True), dk
