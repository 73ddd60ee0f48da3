"""Minimal reverse-mode automatic differentiation over numpy arrays.

Tape-style engine in the micrograd tradition, but tensor-valued: each op
records a closure that maps the output adjoint onto the parents' adjoints.
It carries only the ops the model in :mod:`tdam.model` and the survival
loss reach: broadcasting add and mul, negation, batched matmul, the
nonlinearities tanh, erf, softplus and softmax, the sum reduction, shape
and gather ops, a depthwise 2-D convolution, and the selective scan as one
fused op (:func:`linear_recurrence`: zero-order-hold discretization,
diagonal recurrence and readout, run in chunks and recomputed in backward).
The model adds two more fused ops through :func:`_node`, each with a
hand-written backward: ``layer_norm`` and the Newton-Schulz
pseudo-inverse. Forward dtype is preserved, so the same graph runs in
float32 for training and float64 for gradient checking. Inside :func:`no_grad` the ops compute the
same values but record nothing: each output has no parents and no closure,
so inference builds no backward graph.

Only a :class:`Tensor` is a parent. An operand that is not one (a number or
an ndarray, such as the model's bag features and dropout masks) is a
constant: it depends on nothing being differentiated, so it gets no adjoint.

Backward frees each non-leaf adjoint as soon as its closure has consumed
it; leaves (tensors made directly, such as parameters) keep theirs, and so
does any tensor marked with :meth:`Tensor.retain_grad`. :func:`checkpoint`
trades memory for compute: it records a whole function as one node that
keeps only its inputs, and re-runs the function in backward to
backpropagate through it (Chen et al. 2016, "Training Deep Nets with
Sublinear Memory Cost").
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Sequence

import numpy as np
from scipy import special

__all__ = ["Tensor", "checkpoint", "concat", "linear_recurrence", "dwconv2d", "no_grad", "SCAN_CHUNK"]

# Steps per chunk of the fused scan: the (chunk, d, s) intermediates of a
# paper-width layer (d = 256, s = 16) stay near 1 MB each.
SCAN_CHUNK = 64

# False inside no_grad(). Process-global: folds run in worker processes, not threads.
_recording = True


@contextmanager
def _recording_as(flag: bool):
    """Set whether ops record for the duration of the block."""
    global _recording
    previous, _recording = _recording, flag
    try:
        yield
    finally:
        _recording = previous


def no_grad():
    """Run ops without recording them; nests, and restores the mode on exit."""
    return _recording_as(False)


def _node(data, parents: tuple, backward) -> Tensor:
    """An op's output: a tape node with ``parents`` and ``backward`` while
    recording, a bare tensor inside no_grad()."""
    return Tensor(data, parents, backward) if _recording else Tensor(data)


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
        if self.grad is None:
            self.grad = g.copy() if g.base is not None or g.shape == () else g
        else:
            self.grad = self.grad + g

    def retain_grad(self) -> None:
        """Keep this tensor's adjoint after backward; a non-leaf's is freed once used."""
        self._retain = True

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (scalar unless ``seed`` given).

        Each node's adjoint is dropped once its closure has passed it on,
        unless the node is a leaf or was marked with :meth:`retain_grad`.
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
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
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

    def erf(self):
        coeff = 2.0 / math.sqrt(math.pi)
        return _node(special.erf(self.data), (self,),
                     lambda g: self._accum(g * coeff * np.exp(-self.data * self.data)))

    def softplus(self):
        return _node(np.logaddexp(0.0, self.data).astype(self.data.dtype), (self,),
                     lambda g: self._accum(g * special.expit(self.data)))

    def softmax(self, axis: int = -1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=axis, keepdims=True)

        def bw(g):
            inner = (g * y).sum(axis=axis, keepdims=True)
            self._accum(y * (g - inner))
        return _node(y, (self,), bw)

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

    def transpose(self, *axes):
        inv = np.argsort(axes)
        return _node(self.data.transpose(axes), (self,), lambda g: self._accum(g.transpose(inv)))

    def __getitem__(self, idx):
        """Basic indexing only (ints/slices); use take for fancy."""

        def bw(g):
            full = np.zeros_like(self.data)
            full[idx] += g
            self._accum(full)
        return _node(self.data[idx], (self,), bw)

    def take(self, indices: np.ndarray, axis: int):
        """Gather along ``axis`` by a 1-D integer index array."""
        idx = np.asarray(indices)

        def bw(g):
            full = np.zeros_like(self.data)
            np.add.at(np.moveaxis(full, axis, 0), idx, np.moveaxis(g, axis, 0))
            self._accum(full)
        return _node(np.take(self.data, idx, axis=axis), (self,), bw)


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
    if not _recording:
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


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._accum(g[tuple(sl)])
    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)


def _scan_chunk(delta, a, b_in, u, h0, work):
    """Discretize one chunk and run its recurrence from the state ``h0``.

    Fills ``work`` = (da, abar, expm1(da)/da, h), each (L, d, s), in place,
    and returns the mask of entries where expm1(da)/da took its series.
    """
    da, abar, e, h = work
    d3 = delta[:, :, None]
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
    h *= b_in[:, None, :]
    h *= u[:, :, None]
    step = np.empty_like(h0)
    prev = h0
    for abar_t, h_t in zip(abar, h):
        np.multiply(abar_t, prev, out=step)
        h_t += step
        prev = h_t
    return small


def linear_recurrence(delta: Tensor, a: Tensor, b_in: Tensor, c_out: Tensor, u: Tensor) -> Tensor:
    """The selective scan's recurrence with its discretization and readout fused in.

    ``delta`` and ``u`` are (n, d), ``b_in`` and ``c_out`` are (n, s) and
    ``a`` is (d, s). With a zero-order hold, per step t::

        abar[t] = exp(delta[t] a)
        h[t]    = abar[t] * h[t-1] + delta[t] expm1(delta[t] a)/(delta[t] a) * b_in[t] * u[t]
        y[t]    = sum_j h[t, :, j] * c_out[t, j]

    with h[-1] = 0; returns y, (n, d). expm1(z)/z takes its series
    1 + z/2 + z^2/6 where |z| < 1e-5, so A = 0 is no singularity. The
    (n, d, s) intermediates never exist at once: the forward pass walks
    chunks of SCAN_CHUNK steps and keeps only the state at each chunk start,
    and the backward pass walks the chunks in reverse, recomputes each one
    from its start state and runs the reverse-time adjoint scan through it.
    """
    dv, av, bv, cv, uv = delta.data, a.data, b_in.data, c_out.data, u.data
    n, d = dv.shape
    s = av.shape[1]
    if uv.shape != (n, d) or av.shape != (d, s) or bv.shape != (n, s) or cv.shape != (n, s):
        raise ValueError("linear_recurrence operands have inconsistent shapes")
    dtype = np.result_type(dv, av, bv, uv)
    chunks = [slice(lo, min(lo + SCAN_CHUNK, n)) for lo in range(0, n, SCAN_CHUNK)]
    work = np.empty((4, min(n, SCAN_CHUNK), d, s), dtype=dtype)
    starts = []
    state = np.zeros((d, s), dtype=dtype)
    y = np.empty((n, d), dtype=np.result_type(dtype, cv))
    for ck in chunks:
        starts.append(state)
        part = work[:, : ck.stop - ck.start]
        _scan_chunk(dv[ck], av, bv[ck], uv[ck], state, part)
        # expm1(da)/da is spent once h is built, so its buffer takes the readout product
        h, prod = part[3], part[2]
        np.multiply(h, cv[ck, None, :], out=prod)
        prod.sum(axis=2, out=y[ck])
        state = h[-1].copy()

    def bw(g):
        g_delta, g_b, g_c, g_u = (np.empty_like(x) for x in (dv, bv, cv, uv))
        g_a = np.zeros_like(av)
        carry = np.zeros_like(state)
        for ck, h0 in zip(reversed(chunks), reversed(starts)):
            part = work[:, : ck.stop - ck.start]
            small = _scan_chunk(dv[ck], av, bv[ck], uv[ck], h0, part)
            da, abar, e, h = part
            gk, dk, uk, bk = g[ck], dv[ck], uv[ck], bv[ck]
            g_c[ck] = np.matmul(gk[:, None, :], h)[:, 0]
            # adjoint of h[t]: its readout plus abar[t+1] times the adjoint of h[t+1]
            gh = gk[:, :, None] * cv[ck, None, :]
            for abar_t, gh_t in zip(abar[::-1], gh[::-1]):
                gh_t += carry
                np.multiply(abar_t, gh_t, out=carry)
            # contrib = delta e b u: with w = gh e, g_b = (delta u) . w and
            # g_u, g_delta collect delta (w b) and u (w b)
            w = gh * e
            wb = np.matmul(w, bk[:, :, None])[:, :, 0]
            du = dk * uk
            g_b[ck] = np.matmul(du[:, None, :], w)[:, 0]
            g_u[ck] = dk * wb
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
            de *= du[:, :, None] * bk[:, None, :]
            g_da += de
            g_da *= gh
            g_delta[ck] = uk * wb + np.einsum("tij,ij->ti", g_da, av)
            g_a += np.einsum("tij,ti->ij", g_da, dk)
        delta._accum(g_delta)
        a._accum(g_a)
        b_in._accum(g_b)
        c_out._accum(g_c)
        u._accum(g_u)
    return _node(y, (delta, a, b_in, c_out, u), bw)


def dwconv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Depthwise 2-D convolution, stride 1, zero-padded to the same size.

    ``x`` is (H, W, C); ``kernel`` is (kh, kw, C) with odd kh, kw. Channel c
    of the output depends only on channel c of the input.
    """
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
