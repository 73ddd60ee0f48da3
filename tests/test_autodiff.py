import numpy as np
import pytest

from tape_oracles import tape_div, tape_max, tape_mean, tape_sqrt, tape_sub
from tdam import autodiff, model
from tdam.autodiff import SCAN_CHUNK, Tensor, checkpoint, concat, dwconv2d, linear_recurrence, no_grad

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
    check_op(lambda a: (a.tanh() + a.softplus() + a.erf()).sum(), (4, 3))


# The chains the fused layer norm and pseudo-inverse are tested against bitwise
# build sqrt, mean and max from autodiff._node themselves; these check them.


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
        b = a.reshape(2, 6).transpose(1, 0)
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


def test_dwconv2d_identity_kernel():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 5, 2))
    k = np.zeros((3, 3, 2))
    k[1, 1] = 1.0
    y = dwconv2d(Tensor(x), Tensor(k)).data
    np.testing.assert_allclose(y, x)


def test_dwconv2d_grad():
    check_op(lambda x, k: (dwconv2d(x, k) * 2.0).sum(), (4, 4, 2), (3, 3, 2))


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


# every tape op, applied to operands drawn by ``operands`` below; sub and div
# are the tape functions of the composed oracles in tape_oracles.py
TAPE_OPS = {
    "add": lambda a, b: a + b,
    "add-scalar": lambda a, b: a + 2.0,
    "neg": lambda a, b: -a,
    "sub": lambda a, b: tape_sub(a, b),
    "mul": lambda a, b: a * b,
    "mul-scalar": lambda a, b: a * 2.0,
    "div": lambda a, b: tape_div(a, b * b + 1.0),
    "matmul": lambda a, b: a @ b.transpose(1, 0),
    "tanh": lambda a, b: a.tanh(),
    "erf": lambda a, b: a.erf(),
    "softplus": lambda a, b: a.softplus(),
    "softmax": lambda a, b: a.softmax(axis=-1),
    "sum": lambda a, b: a.sum(axis=0),
    "layer_norm": lambda a, b: model.layer_norm(a, b[0], b[1]),
    "newton_schulz_pinv": lambda a, b: model.newton_schulz_pinv(a[:, :3].softmax().reshape(1, 3, 3), 2),
    "reshape": lambda a, b: a.reshape(6, 2),
    "transpose": lambda a, b: a.transpose(1, 0),
    "getitem": lambda a, b: a[1:],
    "take": lambda a, b: a.take(np.array([2, 0, 2]), axis=1),
    "concat": lambda a, b: concat([a, b], axis=0),
    "linear_recurrence": lambda a, b: linear_recurrence(
        a.softplus(), -b.transpose(1, 0)[:, :2].softplus(), a[:, :2], b[:, 2:], a),
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


# -- freed adjoints and checkpoint ------------------------------------------------


def block(x, w):
    """A small sub-graph that reads both inputs more than once."""
    h = (x @ w).tanh()
    return (h * x + h.softmax(axis=-1)) @ w.transpose(1, 0)


def checkpoint_operands():
    rng = np.random.default_rng(8)
    return Tensor(rng.standard_normal((5, 4))), Tensor(rng.standard_normal((4, 4)))


def run_block(wrap, outer_no_grad=False):
    """Values and adjoints of ``block`` between an upstream and a downstream op."""
    x0, w = checkpoint_operands()
    x = x0 * 1.5
    y = checkpoint(block, x, w) if wrap else block(x, w)
    loss = (y * y).sum()
    if outer_no_grad:
        with no_grad():
            loss.backward()
    else:
        loss.backward()
    return y.data, x0.grad, w.grad


@pytest.mark.parametrize("outer_no_grad", [False, True], ids=["recording", "backward-in-no_grad"])
def test_checkpoint_is_bitwise_the_unwrapped_call(outer_no_grad):
    for got, want in zip(run_block(True, outer_no_grad), run_block(False)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_checkpoint_keeps_only_its_inputs_and_recomputes_in_backward():
    calls = []

    def counted(x, w):
        calls.append(autodiff._recording)
        return block(x, w)

    x, w = checkpoint_operands()
    y = checkpoint(counted, x, w)
    assert y._parents == (x, w) and calls == [False]
    loss = y.sum()
    with no_grad():
        loss.backward()
    assert calls == [False, True]
    assert x.grad is not None and w.grad is not None


def test_checkpoint_is_a_plain_call_under_no_grad():
    calls = []

    def counted(x, w):
        calls.append(True)
        return block(x, w)

    x, w = checkpoint_operands()
    with no_grad():
        bare = checkpoint(counted, x, w)
    assert bare._parents == () and bare._backward is None and len(calls) == 1
    np.testing.assert_array_equal(bare.data, block(x, w).data)


def test_backward_frees_every_adjoint_but_the_leaves_and_retained_ones():
    x, w = checkpoint_operands()
    mid = x @ w
    kept = mid.tanh()
    kept.retain_grad()
    loss = (kept * mid).sum()
    loss.backward()
    assert mid.grad is None and loss.grad is None
    assert kept.grad is not None and x.grad is not None and w.grad is not None
