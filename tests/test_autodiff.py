import math

import numpy as np
import pytest

from tape_oracles import (composed_newton_schulz_pinv, loop_dwconv2d, state_last_linear_recurrence, tape_div,
                          tape_erf, tape_max, tape_mean, tape_sqrt, tape_sub, tape_transpose)
from tdam import autodiff, model
from tdam.autodiff import SCAN_CHUNK, Tensor, concat, dwconv2d, linear_recurrence, no_grad

# lengths on both sides of the fused scan's chunk boundaries
SCAN_LENGTHS = (1, 2, SCAN_CHUNK - 1, SCAN_CHUNK, SCAN_CHUNK + 1, 3 * SCAN_CHUNK + 5)


def numeric_grad(f, x, h=1e-6):
    """Central finite differences of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * h)
    return g


def check_op(build, *shapes, seed=0, tol=1e-6):
    """Compare engine gradients of scalar build(*tensors) to finite differences."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(a.copy()) for a in arrays]
    out = build(*tensors)
    out.backward()
    for k, (a, t) in enumerate(zip(arrays, tensors)):
        fd = numeric_grad(lambda _: build(*[Tensor(x.copy()) for x in arrays]).data.item(), a)
        assert t.grad is not None, f"missing grad for operand {k}"
        np.testing.assert_allclose(t.grad, fd, rtol=tol, atol=tol)


def test_add_mul_broadcast():
    check_op(lambda a, b: ((a + b) * a).sum(), (3, 4), (4,))


def test_scalar_ops_preserve_dtype():
    t = Tensor(np.ones((2, 2), dtype=np.float32))
    out = (-(t * 2.0 + 1.0) + 0.5).sum()
    assert out.dtype == np.float32


def test_matmul_batched():
    check_op(lambda a, b: (a @ b).sum(), (2, 3, 4), (2, 4, 5))


def test_matmul_broadcast_leading():
    check_op(lambda a, b: (a @ b).sum(), (1, 3, 4), (5, 4, 2))


def test_unary_chain():
    check_op(lambda a: (a.tanh() + a.softplus() + tape_erf(a)).sum(), (4, 3))


# The chains the fused GELU, layer norm and pseudo-inverse are tested against
# bitwise build erf, sqrt, mean and max from autodiff._node themselves; these
# check them.


def test_sqrt_grad():
    check_op(lambda a: tape_sqrt(a * a + 2.0).sum(), (6,))


def test_softmax_grad():
    check_op(lambda a: (a.softmax(axis=-1) * np.arange(5.0)).sum(), (3, 5))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    y = Tensor(rng.standard_normal((4, 7))).softmax()
    np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)


def test_reductions_and_max():
    check_op(lambda a: tape_mean(a, axis=0).sum() + tape_max(a, axis=1).sum(), (4, 5))


def test_reshape_transpose_slice():
    def f(a):
        b = tape_transpose(a.reshape(2, 6), 1, 0)
        return (b[2:5] * 3.0).sum() + b.sum()

    check_op(f, (3, 4))


def test_concat_and_take():
    def f(a, b):
        c = concat([a, b], axis=0)
        picked = c.take(np.array([0, 2, 2, 3]), axis=0)
        cols = c.take(np.array([1, 1]), axis=1)
        return picked.sum() + cols.sum()

    check_op(f, (2, 3), (3, 3))


def test_linear_recurrence_matches_loop():
    """The fused scan against a per-step loop of the zero-order-hold scan;
    one channel has A = 0, where bbar takes its limit delta * B."""
    d, s = 2, 3
    for n in SCAN_LENGTHS:
        rng = np.random.default_rng(n)
        delta = rng.uniform(0.01, 0.5, size=(n, d))
        a = -rng.uniform(0.1, 2.0, size=(d, s))
        a[1, 2] = 0.0
        b, c, u = (rng.standard_normal(shape) for shape in ((n, s), (n, s), (n, d)))
        y = linear_recurrence(*(Tensor(x) for x in (delta, a, b, c, u))).data
        assert y.shape == (n, d)
        h = np.zeros((d, s))
        for t in range(n):
            step = delta[t][:, None]
            bbar = np.where(a == 0.0, step, np.expm1(step * a) / np.where(a == 0.0, 1.0, a))
            h = np.exp(step * a) * h + bbar * b[t] * u[t][:, None]
            np.testing.assert_allclose(y[t], h @ c[t], rtol=1e-12, atol=1e-14, err_msg=f"n={n} t={t}")


def test_linear_recurrence_grad():
    """Finite differences through all five operands, across chunk boundaries."""
    def scan(delta, a, b, c, u):
        # positive steps and decaying state keep long scans bounded
        return (linear_recurrence(delta.softplus() * 0.2, -(a * a) + (-0.1), b, c, u) * 0.5).sum()

    for n in SCAN_LENGTHS:
        check_op(scan, (n, 2), (2, 3), (n, 3), (n, 3), (n, 2), seed=n)


# state sizes below, at and above numpy's 8 pairwise accumulators, and above its
# 128-element block, where the pairwise sum splits in halves
SCAN_STATES = (1, 4, 6, 7, 8, 9, 16, 17, 130)


def scan_bits(scan, operands, g):
    """y and the five adjoints of ``scan`` with output adjoint ``g``."""
    tensors = [Tensor(x.copy()) for x in operands]
    y = scan(*tensors)
    y.backward(g)
    return [y.data] + [t.grad for t in tensors]


@pytest.mark.parametrize("a_zero", [True, False], ids=["series", "no-series"])
@pytest.mark.parametrize("lead", [(), (2, 3)], ids=["one", "stack"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_recurrence_is_bitwise_the_state_last_scan(dtype, lead, a_zero):
    """Output and all five adjoints against the scan held (..., d, s); with
    ``a_zero`` one entry of A is 0, so expm1(z)/z takes its series there."""
    d = 5
    for n in SCAN_LENGTHS:
        for s in SCAN_STATES:
            rng = np.random.default_rng(1000 * n + s)
            delta = rng.uniform(0.01, 0.5, size=(*lead, n, d)).astype(dtype)
            a = -rng.uniform(0.1, 2.0, size=(d, s)).astype(dtype)
            if a_zero:
                a[1, s // 2] = 0.0
            b, c = (rng.standard_normal((*lead, n, s)).astype(dtype) for _ in range(2))
            u, g = (rng.standard_normal((*lead, n, d)).astype(dtype) for _ in range(2))
            got = scan_bits(linear_recurrence, (delta, a, b, c, u), g)
            want = scan_bits(state_last_linear_recurrence, (delta, a, b, c, u), g)
            for name, x, w in zip(("y", "delta", "a", "b", "c", "u"), got, want):
                assert (x.dtype, x.shape) == (w.dtype, w.shape), (n, s, name)
                assert x.tobytes() == w.tobytes(), (n, s, name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_state_sum_is_bitwise_add_reduce(dtype):
    """The readout's row sum against np.add.reduce over a contiguous last
    axis, for 1 to 140 rows, with +0.0, -0.0, +inf, -inf and NaN entries.
    Where two NaNs meet, the hardware add picks which one survives, so a
    NaN is compared by position, every other entry bit for bit."""
    for s in range(1, 141):
        rng = np.random.default_rng(s)
        x = rng.standard_normal((3, s, 7)).astype(dtype)
        for value, share in ((0.0, 0.1), (-0.0, 0.1), (np.inf, 0.03), (-np.inf, 0.03), (np.nan, 0.02)):
            x[rng.random(x.shape) < share] = value
        x[0, :, 0] = -0.0
        x[0, :, 1] = 0.0
        got = np.empty((3, 7), dtype=dtype)
        with np.errstate(invalid="ignore"):
            autodiff._state_sum(x, out=got)
            want = np.add.reduce(np.ascontiguousarray(x.swapaxes(-1, -2)), axis=-1)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan, err_msg=f"s={s}")
        assert got[~nan].tobytes() == want[~nan].tobytes(), s
        assert not np.signbit(got[0, :2]).any(), s


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axis", [0, 1, -2])
def test_take_by_a_permutation_has_the_add_at_adjoint(dtype, axis):
    """A permutation's adjoint gathers by the inverse permutation; it must
    give np.add.at's bits onto zeros, a -0.0 adjoint coming out +0.0."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 9, 4)).astype(dtype)
    n = x.shape[axis]
    for idx in (rng.permutation(n), np.arange(n), rng.permutation(n) - n):
        g = rng.standard_normal(x.shape).astype(dtype)
        g[rng.random(g.shape) < 0.2] = -0.0
        t = Tensor(x.copy())
        out = t.take(idx, axis=axis)
        out.backward(g)
        want = np.zeros_like(x)
        np.add.at(np.moveaxis(want, axis, 0), idx, np.moveaxis(g, axis, 0))
        assert t.grad.dtype == want.dtype
        assert t.grad.tobytes() == want.tobytes()
        assert not np.signbit(t.grad[t.grad == 0.0]).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axis", [0, 1, 2, -1])
def test_take_with_repeated_or_skipped_positions_has_the_add_at_adjoint(dtype, axis):
    """Cycle-pad and nearest-grid indices take positions more than once or
    not at all; the adjoint's occurrence rounds must give np.add.at's bits
    onto zeros, with -0.0 adjoints and positions that are never taken."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 9, 16)).astype(dtype)
    n = x.shape[axis]
    stored = math.isqrt(n)
    cases = [np.arange(m) % n for m in (n + 1, 2 * n + 3)]
    cases += [model._nearest_grid_index(side, stored) for side in (1, stored - 1, stored + 1, 3 * stored + 2)]
    cases += [rng.integers(0, n, size=3 * n), rng.integers(0, n, size=3 * n)[::-1].copy()]
    for idx in cases:
        shape = list(x.shape)
        shape[axis] = idx.size
        g = rng.standard_normal(shape).astype(dtype)
        g[rng.random(g.shape) < 0.2] = -0.0
        g[rng.random(g.shape) < 0.1] = 0.0
        t = Tensor(x.copy())
        t.take(idx, axis=axis).backward(g)
        want = np.zeros_like(x)
        np.add.at(np.moveaxis(want, axis, 0), idx, np.moveaxis(g, axis, 0))
        assert t.grad.dtype == want.dtype
        assert t.grad.tobytes() == want.tobytes(), idx
        missed = np.setdiff1d(np.arange(n), idx)
        assert not np.signbit(np.take(t.grad, missed, axis=axis)).any()


def test_dwconv2d_identity_kernel():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 5, 2))
    k = np.zeros((3, 3, 2))
    k[1, 1] = 1.0
    y = dwconv2d(Tensor(x), Tensor(k)).data
    np.testing.assert_allclose(y, x)


def test_dwconv2d_grad():
    check_op(lambda x, k: (dwconv2d(x, k) * 2.0).sum(), (4, 4, 2), (3, 3, 2))


def conv_case(side, ksize, channels, dtype, seed):
    """Input, kernel and output adjoint, with +0.0 and -0.0 among the input
    and adjoint entries."""
    rng = np.random.default_rng(seed)
    x, g = (rng.standard_normal((side, side, channels)).astype(dtype) for _ in range(2))
    for a in (x, g):
        a[rng.random(a.shape) < 0.1] = 0.0
        a[rng.random(a.shape) < 0.1] = -0.0
    return x, rng.standard_normal((ksize, ksize, channels)).astype(dtype), g


def conv_bits(conv, x, k, g):
    """y, dk and dx of ``conv`` with output adjoint ``g``."""
    xt, kt = Tensor(x.copy()), Tensor(k.copy())
    y = conv(xt, kt)
    y.backward(g)
    return y.data, kt.grad, xt.grad


def assert_conv_is_the_loop(x, k, g):
    for got, want, name in zip(conv_bits(dwconv2d, x, k, g), conv_bits(loop_dwconv2d, x, k, g), ("y", "dk", "dx")):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


# sides 1 and 2 lie below the 7x7 kernel's half-width
CONV_SIDES = (1, 2, 3, 4, 5, 9, 17)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels", [24, 256])
@pytest.mark.parametrize("ksize", [3, 5, 7])
def test_dwconv2d_is_bitwise_the_tap_loop(ksize, channels, dtype):
    for side in CONV_SIDES:
        assert_conv_is_the_loop(*conv_case(side, ksize, channels, dtype, seed=side))


# (side, kernel, block bytes) on float64 and 24 channels, where one tap's
# product is side^2 * 192 bytes and one output row's 49 taps' 9 * 49 * 192:
# 4 rows per block with a 1-row remainder and 3 kernel rows per dk block;
# one row per block and 3 taps per dk block; one row and one tap per block.
CONV_BLOCKS = [(9, 7, 4 * 9 * 49 * 192), (9, 7, 3 * 81 * 192), (9, 7, 1), (4, 5, 1), (1, 3, 1)]


@pytest.mark.parametrize("side, ksize, block", CONV_BLOCKS)
def test_dwconv2d_blocks_keep_the_tap_loop_bits(monkeypatch, side, ksize, block):
    monkeypatch.setattr(autodiff, "CONV_BLOCK_BYTES", block)
    assert_conv_is_the_loop(*conv_case(side, ksize, 24, np.float64, seed=block))


def test_dwconv2d_at_paper_width_is_bitwise_the_tap_loop():
    # 46^2 x 256 float32: one tap's product alone exceeds the block bytes
    assert 46 * 46 * 256 * 4 > autodiff.CONV_BLOCK_BYTES
    for ksize in (7, 3):
        assert_conv_is_the_loop(*conv_case(46, ksize, 256, np.float32, seed=ksize))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dwconv2d_sums_signed_zeros_from_plus_zero(dtype):
    """Channel 0 has a zero input and adjoint and a negative kernel, so every
    tap product of y and dx is -0.0; both sums start from +0.0, as the loop's
    np.zeros do, so both read +0.0."""
    x, k, g = conv_case(5, 7, 3, dtype, seed=0)
    x[..., 0] = 0.0
    g[..., 0] = 0.0
    k[..., 0] = -np.abs(k[..., 0]) - 0.5
    y, _, dx = conv_bits(dwconv2d, x, k, g)
    assert (y[..., 0] == 0.0).all() and not np.signbit(y[..., 0]).any()
    assert (dx[..., 0] == 0.0).all() and not np.signbit(dx[..., 0]).any()
    assert_conv_is_the_loop(x, k, g)


def test_backward_requires_scalar():
    t = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_grad_accumulates_over_reuse():
    x = Tensor(np.array([2.0]))
    y = x * x + x * 3.0
    y.backward(np.ones(1))
    np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])


# An array operand is a constant: the op records the tensor alone as its parent.
# Each case is (op, tensor shape, array shape); the tensor is broadcast in each.
CONSTANT_OPERAND_OPS = {
    "tensor-mul-array": (lambda t, c: t * c, (3, 1), (3, 4)),
    "tensor-add-array": (lambda t, c: t + c, (4,), (3, 4)),
    "array-matmul-tensor": (lambda t, c: c @ t, (4, 2), (2, 3, 4)),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_OPERAND_OPS))
def test_an_array_operand_is_a_constant(name):
    op, shape, const_shape = CONSTANT_OPERAND_OPS[name]
    const = np.random.default_rng(6).standard_normal(const_shape)
    check_op(lambda t: op(t, const).tanh().sum(), shape)
    t = Tensor(np.ones(shape))
    out = op(t, const)
    assert isinstance(out, Tensor) and out._parents == (t,)
    np.testing.assert_array_equal(out.data, op(t.data, const))


# every tape op, applied to operands drawn by ``operands`` below; sub, div,
# transpose and the Newton-Schulz chain are the tape functions of the
# composed oracles in tape_oracles.py
TAPE_OPS = {
    "add": lambda a, b: a + b,
    "add-scalar": lambda a, b: a + 2.0,
    "neg": lambda a, b: -a,
    "sub": lambda a, b: tape_sub(a, b),
    "mul": lambda a, b: a * b,
    "mul-scalar": lambda a, b: a * 2.0,
    "div": lambda a, b: tape_div(a, b * b + 1.0),
    "matmul": lambda a, b: a @ tape_transpose(b, 1, 0),
    "tanh": lambda a, b: a.tanh(),
    "softplus": lambda a, b: a.softplus(),
    "softmax": lambda a, b: a.softmax(axis=-1),
    "sum": lambda a, b: a.sum(axis=0),
    "gelu": lambda a, b: model.gelu(a),
    "layer_norm": lambda a, b: model.layer_norm(a, b[0], b[1]),
    "newton_schulz_pinv": lambda a, b: composed_newton_schulz_pinv(a[:, :3].softmax().reshape(1, 3, 3), 2),
    "reshape": lambda a, b: a.reshape(6, 2),
    "transpose": lambda a, b: tape_transpose(a, 1, 0),
    "getitem": lambda a, b: a[1:],
    "take": lambda a, b: a.take(np.array([2, 0, 2]), axis=1),
    "concat": lambda a, b: concat([a, b], axis=0),
    "linear_recurrence": lambda a, b: linear_recurrence(
        a.softplus(), -tape_transpose(b, 1, 0)[:, :2].softplus(), a[:, :2], b[:, 2:], a),
    "dwconv2d": lambda a, b: dwconv2d(a.reshape(2, 2, 3), b[:, :3].reshape(3, 1, 3)),
}


def operands():
    rng = np.random.default_rng(5)
    return Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4)))


@pytest.mark.parametrize("name", sorted(TAPE_OPS))
def test_no_grad_ops_record_no_parents_and_no_backward(name):
    """Inside no_grad() each op gives the recorded op's values as a bare tensor."""
    recorded = TAPE_OPS[name](*operands())
    assert recorded._parents and recorded._backward is not None
    with no_grad():
        bare = TAPE_OPS[name](*operands())
    assert bare._parents == () and bare._backward is None
    assert bare.dtype == recorded.dtype
    np.testing.assert_array_equal(bare.data, recorded.data)


def test_no_grad_nests_and_restores_after_an_exception():
    a, _ = operands()
    with no_grad():
        with no_grad():
            assert (a * 2.0)._parents == ()
        assert (a * 2.0)._parents == ()
        with pytest.raises(ZeroDivisionError):
            with no_grad():
                raise ZeroDivisionError
        assert (a * 2.0)._parents == ()
    assert (a * 2.0)._parents == (a,)
    with pytest.raises(ZeroDivisionError):
        with no_grad():
            raise ZeroDivisionError
    assert autodiff._recording
    assert (a * 2.0)._parents == (a,)


# -- freed and consumed adjoints ---------------------------------------------------


def matmul_operands():
    rng = np.random.default_rng(8)
    return Tensor(rng.standard_normal((5, 4))), Tensor(rng.standard_normal((4, 4)))


def test_a_consumed_graph_refuses_a_second_backward():
    """Backward consumes the graph: each node it ran lets go of its closure
    and its parents, and a later backward that reaches one raises before any
    closure runs, so no adjoint moves. A new forward backpropagates again."""
    x, w = matmul_operands()
    mid = (x @ w).tanh()
    loss = (mid * mid).sum()
    loss.backward()
    first = x.grad.copy(), w.grad.copy()
    assert loss._parents == () and mid._parents == ()
    for again in (loss, (mid * 2.0).sum()):
        with pytest.raises(RuntimeError, match="already been backpropagated"):
            again.backward()
    for got, want in zip((x.grad, w.grad), first):
        assert got.tobytes() == want.tobytes()
    x.grad = w.grad = None
    mid = (x @ w).tanh()
    (mid * mid).sum().backward()
    for got, want in zip((x.grad, w.grad), first):
        assert got.tobytes() == want.tobytes()


def test_backward_frees_every_adjoint_but_the_leaves_and_retained_ones():
    x, w = matmul_operands()
    mid = x @ w
    kept = mid.tanh()
    kept.retain_grad()
    loss = (kept * mid).sum()
    loss.backward()
    assert mid.grad is None and loss.grad is None
    assert kept.grad is not None and x.grad is not None and w.grad is not None
