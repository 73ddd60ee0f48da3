"""Minimal reverse-mode automatic differentiation over numpy arrays.

Tape-style engine in the micrograd tradition, but tensor-valued: each op
records a closure that maps the output adjoint onto the parents' adjoints.
It carries only the ops the model in :mod:`tdam.model` and the survival
loss reach: broadcasting add/sub/mul/div, batched matmul, the nonlinearities
exp, expm1(x)/x, sqrt, tanh, erf, softplus and softmax, sum/mean/max
reductions, shape and gather ops, a depthwise 2-D convolution, and the
diagonal linear recurrence used by the selective scan. Forward dtype is
preserved, so the same graph runs in float32 for training and float64 for
gradient checking.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import special

__all__ = ["Tensor", "as_tensor", "concat", "linear_recurrence", "dwconv2d"]


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

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple = (), backward=None):
        if isinstance(data, np.ndarray):
            self.data = data
        elif isinstance(data, np.generic):
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward

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

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (scalar unless ``seed`` given)."""
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

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            out = Tensor(self.data + other, (self,))
            out._backward = lambda g: self._accum(g)
            return out
        other = as_tensor(other)
        out = Tensor(self.data + other.data, (self, other))

        def bw(g):
            self._accum(_unbroadcast(g, self.data.shape))
            other._accum(_unbroadcast(g, other.data.shape))

        out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, (self,))
        out._backward = lambda g: self._accum(-g)
        return out

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return self + (-other)
        return self + (-as_tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            out = Tensor(self.data * other, (self,))
            out._backward = lambda g: self._accum(g * other)
            return out
        other = as_tensor(other)
        out = Tensor(self.data * other.data, (self, other))

        def bw(g):
            self._accum(_unbroadcast(g * other.data, self.data.shape))
            other._accum(_unbroadcast(g * self.data, other.data.shape))

        out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        other = as_tensor(other)
        out = Tensor(self.data / other.data, (self, other))

        def bw(g):
            self._accum(_unbroadcast(g / other.data, self.data.shape))
            other._accum(_unbroadcast(-g * self.data / (other.data * other.data), other.data.shape))

        out._backward = bw
        return out

    def __matmul__(self, other):
        other = as_tensor(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul operands must be at least 2-D")
        out = Tensor(self.data @ other.data, (self, other))

        def bw(g):
            self._accum(_unbroadcast(g @ other.data.swapaxes(-1, -2), self.data.shape))
            other._accum(_unbroadcast(self.data.swapaxes(-1, -2) @ g, other.data.shape))

        out._backward = bw
        return out

    # -- elementwise nonlinearities ---------------------------------------

    def exp(self):
        y = np.exp(self.data)
        out = Tensor(y, (self,))
        out._backward = lambda g: self._accum(g * y)
        return out

    def expm1x(self):
        """expm1(x)/x with the removable singularity filled: f(0) = 1."""
        z = self.data
        small = np.abs(z) < 1e-5
        safe = np.where(small, 1.0, z)
        y = np.where(small, 1.0 + z * 0.5 + z * z / 6.0, np.expm1(z) / safe)
        out = Tensor(y.astype(z.dtype), (self,))

        def bw(g):
            deriv = np.where(
                small,
                0.5 + z / 3.0 + z * z / 8.0,
                (np.exp(z) * (z - 1.0) + 1.0) / (safe * safe),
            )
            self._accum(g * deriv)

        out._backward = bw
        return out

    def sqrt(self):
        y = np.sqrt(self.data)
        out = Tensor(y, (self,))
        out._backward = lambda g: self._accum(g * 0.5 / y)
        return out

    def tanh(self):
        y = np.tanh(self.data)
        out = Tensor(y, (self,))
        out._backward = lambda g: self._accum(g * (1.0 - y * y))
        return out

    def erf(self):
        y = special.erf(self.data)
        out = Tensor(y, (self,))
        coeff = 2.0 / math.sqrt(math.pi)
        out._backward = lambda g: self._accum(g * coeff * np.exp(-self.data * self.data))
        return out

    def softplus(self):
        out = Tensor(np.logaddexp(0.0, self.data).astype(self.data.dtype), (self,))
        out._backward = lambda g: self._accum(g * special.expit(self.data))
        return out

    def softmax(self, axis: int = -1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=axis, keepdims=True)
        out = Tensor(y, (self,))

        def bw(g):
            inner = (g * y).sum(axis=axis, keepdims=True)
            self._accum(y * (g - inner))

        out._backward = bw
        return out

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))

        out._backward = bw
        return out

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis=None, keepdims: bool = False):
        y = self.data.max(axis=axis, keepdims=keepdims)
        out = Tensor(y, (self,))

        def bw(g):
            yk = y if keepdims or axis is None else np.expand_dims(y, axis)
            gk = g if keepdims or axis is None else np.expand_dims(g, axis)
            mask = (self.data == yk).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accum(mask * gk)

        out._backward = bw
        return out

    # -- shape ops --------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), (self,))
        out._backward = lambda g: self._accum(g.reshape(self.data.shape))
        return out

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        out = Tensor(self.data.transpose(axes), (self,))
        out._backward = lambda g: self._accum(g.transpose(inv))
        return out

    def __getitem__(self, idx):
        """Basic indexing only (ints/slices); use take/take_rows for fancy."""
        out = Tensor(self.data[idx], (self,))

        def bw(g):
            full = np.zeros_like(self.data)
            full[idx] += g
            self._accum(full)

        out._backward = bw
        return out

    def take_rows(self, indices: np.ndarray):
        """Gather rows (axis 0) by an integer index array; duplicates allowed."""
        idx = np.asarray(indices)
        out = Tensor(self.data[idx], (self,))

        def bw(g):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            self._accum(full)

        out._backward = bw
        return out

    def take(self, indices: np.ndarray, axis: int):
        """Gather along ``axis`` by a 1-D integer index array."""
        idx = np.asarray(indices)
        out = Tensor(np.take(self.data, idx, axis=axis), (self,))

        def bw(g):
            full = np.zeros_like(self.data)
            np.add.at(np.moveaxis(full, axis, 0), idx, np.moveaxis(g, axis, 0))
            self._accum(full)

        out._backward = bw
        return out


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._accum(g[tuple(sl)])

    out._backward = bw
    return out


def linear_recurrence(abar: Tensor, c: Tensor) -> Tensor:
    """Run ``h[t] = abar[t] * h[t-1] + c[t]`` along axis 0 (h[-1] = 0).

    Both inputs have shape (n, ...); the recurrence is elementwise over the
    trailing axes. Backward is the reverse-time adjoint scan.
    """
    a, cv = abar.data, c.data
    if a.shape != cv.shape:
        raise ValueError("linear_recurrence operands must share a shape")
    h = np.empty_like(cv)
    acc = np.zeros_like(cv[0])
    for t in range(cv.shape[0]):
        acc = a[t] * acc + cv[t]
        h[t] = acc
    out = Tensor(h, (abar, c))

    def bw(g):
        n = cv.shape[0]
        dc = np.empty_like(g)
        da = np.empty_like(g)
        carry = np.zeros_like(g[0])
        for t in range(n - 1, -1, -1):
            carry = g[t] + carry
            dc[t] = carry
            da[t] = carry * (h[t - 1] if t > 0 else 0.0)
            carry = carry * a[t]
        abar._accum(da)
        c._accum(dc)

    out._backward = bw
    return out


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
    out = Tensor(y, (x, kernel))

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

    out._backward = bw
    return out
