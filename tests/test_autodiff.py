import numpy as np
import pytest

from tdam.autodiff import SCAN_CHUNK, Tensor, concat, dwconv2d, linear_recurrence

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
    out = ((t * 2.0 + 1.0) / 3.0 - 0.5).sum()
    assert out.dtype == np.float32


def test_matmul_batched():
    check_op(lambda a, b: (a @ b).sum(), (2, 3, 4), (2, 4, 5))


def test_matmul_broadcast_leading():
    check_op(lambda a, b: (a @ b).sum(), (1, 3, 4), (5, 4, 2))


def test_unary_chain():
    check_op(lambda a: (a.tanh() + a.softplus() + a.erf()).sum(), (4, 3))


def test_sqrt_grad():
    check_op(lambda a: (a * a + 2.0).sqrt().sum(), (6,))


def test_softmax_grad():
    check_op(lambda a: (a.softmax(axis=-1) * np.arange(5.0)).sum(), (3, 5))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    y = Tensor(rng.standard_normal((4, 7))).softmax()
    np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)


def test_reductions_and_max():
    check_op(lambda a: a.mean(axis=0).sum() + a.max(axis=1).sum(), (4, 5))


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
        return (linear_recurrence(delta.softplus() * 0.2, -(a * a) - 0.1, b, c, u) * 0.5).sum()

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
