import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_oracles
from tape_oracles import (chained_agent_attention, chained_from_heads, chained_gelu, chained_nystrom_core,
                          chained_ppeg_encode, chained_selective_scan, chained_to_heads, closure_layer_norm,
                          composed_layer_norm, composed_newton_schulz_pinv, loop_dwconv2d)
from tdam import explain, model, survival
from tdam.autodiff import SCAN_CHUNK, Tensor, _node, no_grad
from tdam.bags import FeatureBag, grid_coords
from tdam.errors import DataError, FormatError, ShapeError, TruncatedError

TINY = model.ModelConfig(
    d_in=6,
    d_model=8,
    n_heads=2,
    n_agents=2,
    n_landmarks=4,
    srmamba_layers=1,
    srmamba_rate=2,
    ssm_state_dim=2,
    dropout=0.25,
    agent_bias_side=3,
)


def tiny_params(seed=0, dtype=np.float64):
    return model.init_params(TINY, seed=seed, dtype=dtype)


def random_bag(n=5, d=6, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureBag("bag", rng.standard_normal((n, d)), grid_coords(n))


def softmax_np(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def layer_norm_np(x, g=None, b=None, eps=model.LN_EPS):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    out = (x - mu) / np.sqrt(var + eps)
    if g is not None:
        out = out * g
    if b is not None:
        out = out + b
    return out


# -- projection ----------------------------------------------------------------


def test_project_zero_weights_gives_zeros():
    params = tiny_params()
    params["proj.W"].data[:] = 0
    params["proj.b"].data[:] = 0
    out = model.project_input(Tensor(np.random.default_rng(0).standard_normal((4, 6))), params)
    np.testing.assert_array_equal(out.data, 0)


def test_gelu_reference_values():
    # identity weights: output is x * Phi(x) elementwise
    cfg = model.ModelConfig(d_in=1, d_model=1, n_heads=1, n_agents=1, n_landmarks=1,
                            srmamba_layers=0, ssm_state_dim=1, agent_bias_side=1)
    params = model.init_params(cfg, dtype=np.float64)
    params["proj.W"].data[:] = 1.0
    params["proj.b"].data[:] = 0.0
    out = model.project_input(Tensor(np.array([[1.0]])), params)
    assert out.data[0, 0] == pytest.approx(0.84134, abs=5e-6)
    out = model.project_input(Tensor(np.array([[-10.0]])), params)
    assert abs(out.data[0, 0]) < 1e-6


def test_project_shape_mismatch():
    with pytest.raises(ShapeError):
        model.project_input(Tensor(np.zeros((3, 5))), tiny_params())


# -- padding --------------------------------------------------------------------


def test_pad_square_with_class_counts():
    params = tiny_params()
    x = Tensor(np.random.default_rng(1).standard_normal((5, 8)))
    seq, n_prime = model.pad_square_with_class(x, params)
    assert n_prime == 9
    assert seq.shape == (10, 8)


def test_pad_square_already_square():
    params = tiny_params()
    x = Tensor(np.random.default_rng(2).standard_normal((9, 8)))
    seq, n_prime = model.pad_square_with_class(x, params)
    assert n_prime == 9
    np.testing.assert_array_equal(seq.data[1:], x.data)


def test_pad_square_cycles_from_start():
    params = tiny_params()
    x = Tensor(np.random.default_rng(3).standard_normal((5, 8)))
    seq, _ = model.pad_square_with_class(x, params)
    np.testing.assert_array_equal(seq.data[6:10], x.data[0:4])


# -- Nystrom attention -----------------------------------------------------------


def test_nystrom_identical_tokens():
    params = tiny_params(seed=4)
    row = np.random.default_rng(4).standard_normal(8)
    seq = Tensor(np.tile(row, (6, 1)))
    out = model.nystrom_attention_layer(seq, params, "attn1")
    # softmax over identical keys is uniform, so attention returns the value row
    x_ln = layer_norm_np(seq.data, params["attn1.ln_g"].data, params["attn1.ln_b"].data)
    expect = x_ln @ params["attn1.Wv"].data @ params["attn1.Wo"].data + seq.data
    np.testing.assert_allclose(out.data, expect, atol=1e-10)
    assert np.allclose(out.data, out.data[0])


def dense_attention_oracle(seq, params, which, cfg):
    x = layer_norm_np(seq, params[f"{which}.ln_g"].data, params[f"{which}.ln_b"].data)
    h, dh = cfg.n_heads, cfg.head_dim
    n = seq.shape[0]

    def heads(mat):
        return mat.reshape(n, h, dh).transpose(1, 0, 2)

    q = heads(x @ params[f"{which}.Wq"].data) / math.sqrt(dh)
    k = heads(x @ params[f"{which}.Wk"].data)
    v = heads(x @ params[f"{which}.Wv"].data)
    out = softmax_np(q @ k.transpose(0, 2, 1)) @ v
    merged = out.transpose(1, 0, 2).reshape(n, h * dh)
    return merged @ params[f"{which}.Wo"].data + seq


def test_nystrom_with_full_landmarks_matches_exact_attention():
    for seed in range(5):
        cfg = model.ModelConfig(**{**TINY.__dict__, "n_landmarks": 64})
        params = model.init_params(cfg, seed=seed, dtype=np.float64)
        n = 5 + seed
        seq = np.random.default_rng(seed).standard_normal((n, 8))
        got = model.nystrom_attention_layer(Tensor(seq.copy()), params, "attn1").data
        want = dense_attention_oracle(seq, params, "attn1", cfg)
        assert np.abs(got - want).max() < 1e-3


def nystrom_oracle(seq, params, which, cfg):
    """Straight-line numpy transcription of the three-factor formula."""
    x = layer_norm_np(seq, params[f"{which}.ln_g"].data, params[f"{which}.ln_b"].data)
    h, dh = cfg.n_heads, cfg.head_dim
    n = seq.shape[0]

    def heads(mat):
        return mat.reshape(n, h, dh).transpose(1, 0, 2)

    q = heads(x @ params[f"{which}.Wq"].data) / math.sqrt(dh)
    k = heads(x @ params[f"{which}.Wk"].data)
    v = heads(x @ params[f"{which}.Wv"].data)
    m = min(cfg.n_landmarks, n)
    seg = model._segment_mean_matrix(n, m, np.float64)
    qL, kL = seg @ q, seg @ k
    f = softmax_np(q @ kL.transpose(0, 2, 1))
    a = softmax_np(qL @ kL.transpose(0, 2, 1))
    b = softmax_np(qL @ k.transpose(0, 2, 1))
    z = a.transpose(0, 2, 1) / (
        a.sum(-2, keepdims=True).max(-1, keepdims=True) * a.sum(-1, keepdims=True).max(-2, keepdims=True)
    )
    eye = np.eye(m)
    for _ in range(cfg.pinv_iters):
        az = a @ z
        z = 0.25 * z @ (13 * eye - az @ (15 * eye - az @ (7 * eye - az)))
    out = f @ (z @ (b @ v))
    merged = out.transpose(1, 0, 2).reshape(n, h * dh)
    return merged @ params[f"{which}.Wo"].data + seq


def test_nystrom_three_factor_small_case():
    cfg = model.ModelConfig(**{**TINY.__dict__, "n_heads": 1, "n_landmarks": 2})
    params = model.init_params(cfg, seed=9, dtype=np.float64)
    seq = 0.3 * np.random.default_rng(9).standard_normal((4, 8))
    got = model.nystrom_attention_layer(Tensor(seq.copy()), params, "attn2").data
    want = nystrom_oracle(seq, params, "attn2", cfg)
    np.testing.assert_allclose(got, want, atol=1e-6)


# -- PPEG -------------------------------------------------------------------------


def test_ppeg_zero_kernels_is_identity():
    params = tiny_params()
    for k in (7, 5, 3):
        params[f"ppeg.K{k}"].data[:] = 0
    seq = Tensor(np.random.default_rng(5).standard_normal((10, 8)))
    out = model.ppeg_encode(seq, params)
    np.testing.assert_allclose(out.data, seq.data)


def test_ppeg_delta_kernel_doubles_grid():
    params = tiny_params()
    for k in (7, 5):
        params[f"ppeg.K{k}"].data[:] = 0
    params["ppeg.K3"].data[:] = 0
    params["ppeg.K3"].data[1, 1, :] = 1.0  # center-one delta = identity conv
    seq = Tensor(np.random.default_rng(6).standard_normal((10, 8)))
    out = model.ppeg_encode(seq, params)
    np.testing.assert_allclose(out.data[0], seq.data[0])  # class token bypasses
    np.testing.assert_allclose(out.data[1:], 2 * seq.data[1:], atol=1e-12)


def test_ppeg_zero_input_zero_output():
    params = tiny_params()
    out = model.ppeg_encode(Tensor(np.zeros((5, 8))), params)
    np.testing.assert_array_equal(out.data, 0)


def test_ppeg_requires_square_grid():
    with pytest.raises(ShapeError):
        model.ppeg_encode(Tensor(np.zeros((7, 8))), tiny_params())


# -- agent attention ---------------------------------------------------------------


CLASS_ROW = np.linspace(-1.0, 1.0, 8)


def with_class_row(grid):
    """A sequence of ``grid``'s rows behind a class row, as forward hands it to agent attention."""
    return Tensor(np.concatenate([CLASS_ROW[None], grid]))


def grid_rows(out):
    """Agent attention's output rows after the class row, which passes through unchanged."""
    assert out.data[0].tobytes() == CLASS_ROW.tobytes()
    return out.data[1:]


def test_agent_single_agent_identical_keys_averages_values():
    cfg = model.ModelConfig(**{**TINY.__dict__, "n_agents": 1, "n_heads": 1, "agent_bias_side": 2})
    params = model.init_params(cfg, seed=7, dtype=np.float64)
    params["agent.Wdw"].data[:] = 0
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 8))
    x_same_keys = x.copy()
    # identical K rows: make Wkv's K half map every row to the same vector
    params["agent.Wkv"].data[:, :8] = 0
    kv = x_same_keys @ params["agent.Wkv"].data
    v = kv[:, 8:]
    out = grid_rows(model.agent_attention(with_class_row(x_same_keys), params))
    # with one agent and uniform A2P, the agent equals mean(V); X' rows all equal it
    expect = (np.zeros_like(v) + v.mean(0)) @ params["agent.Wout"].data
    np.testing.assert_allclose(out, expect, atol=1e-10)
    assert np.allclose(out, out[0])


def test_agent_single_agent_rows_identical():
    cfg = model.ModelConfig(**{**TINY.__dict__, "n_agents": 1, "n_heads": 1, "agent_bias_side": 2})
    params = model.init_params(cfg, seed=8, dtype=np.float64)
    params["agent.Wdw"].data[:] = 0  # silence the local conv path
    x = np.random.default_rng(8).standard_normal((4, 8))
    out = grid_rows(model.agent_attention(with_class_row(x), params))
    assert np.allclose(out, out[0], atol=1e-12)


def test_agent_dense_two_stage_oracle():
    cfg = model.ModelConfig(**{**TINY.__dict__, "n_agents": 2, "n_heads": 1, "agent_bias_side": 2})
    params = model.init_params(cfg, seed=11, dtype=np.float64)
    params["agent.Wdw"].data[:] = 0
    x = np.random.default_rng(11).standard_normal((4, 8))
    got = grid_rows(model.agent_attention(with_class_row(x), params))
    dh = 8
    q = x @ params["agent.Wq"].data
    kv = x @ params["agent.Wkv"].data
    k, v = kv[:, :8], kv[:, 8:]
    p = params["agent.P_agent"].data
    a2p = softmax_np(p @ k.T / math.sqrt(dh))
    p2 = a2p @ v
    p2a = softmax_np(q @ p2.T / math.sqrt(dh))
    want = (p2a @ p2) @ params["agent.Wout"].data
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_agent_rejects_non_square_input():
    # forward hands agent attention the padded side x side grid; any other
    # token count is a caller error, as in ppeg_encode
    params = tiny_params(seed=12)
    x = np.random.default_rng(12).standard_normal((7, 8))
    with pytest.raises(ShapeError):
        model.agent_attention(with_class_row(x), params)


# -- reorder and scan ------------------------------------------------------------


def test_reorder_rate_one_is_identity():
    np.testing.assert_array_equal(model.srmamba_reorder(7, 1), np.arange(7))


def test_reorder_stride_two():
    np.testing.assert_array_equal(model.srmamba_reorder(6, 2), [0, 2, 4, 1, 3, 5])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64), rate=st.integers(1, 70))
def test_reorder_is_bijection(n, rate):
    order = model.srmamba_reorder(n, rate)
    np.testing.assert_array_equal(np.sort(order), np.arange(n))


def scan_toy_params():
    cfg = model.ModelConfig(
        d_in=1, d_model=1, n_heads=1, n_agents=1, n_landmarks=1,
        srmamba_layers=1, srmamba_rate=1, ssm_state_dim=1, agent_bias_side=1,
    )
    params = model.init_params(cfg, dtype=np.float64)
    params["srmamba0.W_delta"].data[:] = 0.0
    params["srmamba0.b_delta"].data[:] = math.log(math.expm1(1.0))  # softplus -> 1
    params["srmamba0.A"].data[:] = -1.0
    params["srmamba0.W_B"].data[:] = 1.0
    params["srmamba0.W_C"].data[:] = 1.0
    params["srmamba0.D"].data[:] = 0.0
    return params


def test_scan_zero_input_zero_output():
    params = scan_toy_params()
    out = model.selective_scan(Tensor(np.zeros((3, 1))), params, 0)
    np.testing.assert_array_equal(out.data, 0)


def test_scan_toy_single_step():
    # bbar = (e^-1 - 1)/(-1), h1 = bbar, y1 = 0.63212...
    params = scan_toy_params()
    out = model.selective_scan(Tensor(np.ones((1, 1))), params, 0)
    y1 = 1.0 - math.exp(-1.0)
    assert out.data[0, 0] == pytest.approx(y1, abs=1e-6)
    assert round(y1, 5) == 0.63212


def test_scan_toy_two_steps():
    # h2 = e^-1 * h1 + bbar, y2 = 0.86466...
    params = scan_toy_params()
    out = model.selective_scan(Tensor(np.ones((2, 1))), params, 0)
    bbar = 1.0 - math.exp(-1.0)
    y2 = math.exp(-1.0) * bbar + bbar
    assert out.data[0, 0] == pytest.approx(bbar, abs=1e-6)
    assert out.data[1, 0] == pytest.approx(y2, abs=1e-6)
    assert round(y2, 5) == 0.86466


def _exp(x):
    """exp as a tape op of its own, as the scan composed it."""
    y = np.exp(x.data)
    out = Tensor(y, (x,))
    out._backward = lambda g: x._accum(g * y)
    return out


def _expm1x(x):
    """expm1(x)/x as a tape op of its own, with the series below |x| = 1e-5."""
    z = x.data
    small = np.abs(z) < 1e-5
    safe = np.where(small, 1.0, z)
    y = np.where(small, 1.0 + z * 0.5 + z * z / 6.0, np.expm1(z) / safe)
    out = Tensor(y.astype(z.dtype), (x,))

    def bw(g):
        deriv = np.where(
            small,
            0.5 + z / 3.0 + z * z / 8.0,
            (np.exp(z) * (z - 1.0) + 1.0) / (safe * safe),
        )
        x._accum(g * deriv)

    out._backward = bw
    return out


def _recurrence(abar, c):
    """h[t] = abar[t] * h[t-1] + c[t] over the whole sequence, as one tape op."""
    a, cv = abar.data, c.data
    h = np.empty_like(cv)
    acc = np.zeros_like(cv[0])
    for t in range(cv.shape[0]):
        acc = a[t] * acc + cv[t]
        h[t] = acc
    out = Tensor(h, (abar, c))

    def bw(g):
        dc = np.empty_like(g)
        da = np.empty_like(g)
        carry = np.zeros_like(g[0])
        for t in range(cv.shape[0] - 1, -1, -1):
            carry = g[t] + carry
            dc[t] = carry
            da[t] = carry * (h[t - 1] if t > 0 else 0.0)
            carry = carry * a[t]
        abar._accum(da)
        c._accum(dc)

    out._backward = bw
    return out


def composed_selective_scan(x, params, layer):
    """The scan as a chain of tape ops (exp, expm1x, a whole-sequence
    recurrence, multiply and sum): the reference for the fused op."""
    p = f"srmamba{layer}"
    cfg = params.config
    n = x.shape[0]
    perm = model.srmamba_reorder(n, cfg.srmamba_rate)
    u = x.take(perm, axis=0) if cfg.srmamba_rate > 1 else x
    a = params[f"{p}.A"]
    delta = (u @ params[f"{p}.W_delta"] + params[f"{p}.b_delta"]).softplus()
    b_in = u @ params[f"{p}.W_B"]
    c_out = u @ params[f"{p}.W_C"]
    s = cfg.ssm_state_dim
    dm = cfg.d_model
    da = delta.reshape(n, dm, 1) * a
    abar = _exp(da)
    phi = delta.reshape(n, dm, 1) * _expm1x(da)
    contrib = phi * b_in.reshape(n, 1, s) * u.reshape(n, dm, 1)
    h = _recurrence(abar, contrib)
    y = (h * c_out.reshape(n, 1, s)).sum(axis=2) + u * params[f"{p}.D"]
    if cfg.srmamba_rate > 1:
        y = y.take(np.argsort(perm), axis=0)
    return y


@pytest.mark.parametrize("rate", [1, 5])
def test_fused_scan_matches_composed_chain(rate):
    """float64: output and every gradient within 1e-10 of the largest entry;
    float32: the output is bitwise the composed chain's. The scaled-down A
    puts delta * A inside the series branch of expm1(z)/z."""
    cfg = dataclasses.replace(TINY, d_model=8, ssm_state_dim=4, srmamba_rate=rate)
    for n in (1, SCAN_CHUNK - 1, SCAN_CHUNK + 1, 3 * SCAN_CHUNK + 5):
        for a_scale in (1.0, 1e-6):
            rng = np.random.default_rng(n)
            x = rng.standard_normal((n, cfg.d_model))
            weights = rng.standard_normal((n, cfg.d_model))
            results = []
            for scan in (model.selective_scan, composed_selective_scan):
                params = model.init_params(cfg, seed=n, dtype=np.float64)
                params["srmamba0.A"].data *= a_scale
                xt = Tensor(x.copy())
                out = scan(xt, params, 0)
                (out * weights).sum().backward()
                grads = {name: params[f"srmamba0.{name}"].grad for name in ("A", "W_delta", "b_delta", "W_B", "W_C", "D")}
                grads["x"] = xt.grad
                results.append((out.data, grads))
            (got, got_grads), (want, want_grads) = results
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
            for name, want_g in want_grads.items():
                err = np.abs(got_grads[name] - want_g).max()
                assert err <= 1e-10 * np.abs(want_g).max(), (n, a_scale, name, err)

            params = model.init_params(cfg, seed=n, dtype=np.float32)
            params["srmamba0.A"].data *= np.float32(a_scale)
            x32 = Tensor(x.astype(np.float32))
            fused = model.selective_scan(x32, params, 0).data
            composed = composed_selective_scan(x32, params, 0).data
            assert fused.dtype == composed.dtype == np.float32
            assert np.array_equal(fused, composed), (n, a_scale)


# -- pooling -----------------------------------------------------------------------


def test_pool_equal_scores_gives_mean():
    params = tiny_params(seed=13)
    params["pool.W1"].data[:] = 0  # constant scores
    z = np.random.default_rng(13).standard_normal((5, 8))
    pooled, weights, z_norm = model.attention_pool(Tensor(z.copy()), params)
    np.testing.assert_allclose(z_norm.data, layer_norm_np(z), atol=1e-10)
    np.testing.assert_allclose(weights.data, 0.2, atol=1e-12)
    np.testing.assert_allclose(pooled.data[0], layer_norm_np(z).mean(0), atol=1e-10)


def test_pool_softmax_arithmetic():
    cfg = model.ModelConfig(
        d_in=2, d_model=2, n_heads=1, n_agents=1, n_landmarks=1,
        srmamba_layers=0, ssm_state_dim=1, agent_bias_side=1, pool_hidden=1,
    )
    params = model.init_params(cfg, dtype=np.float64)
    v = 1000.0
    z = np.array([[v, -v], [-v, v]])
    params["pool.W1"].data[:] = np.array([[1.0], [0.0]])
    params["pool.b1"].data[:] = 0.0
    params["pool.W2"].data[:] = math.log(3.0) / (2.0 * math.tanh(1.0))
    params["pool.b2"].data[:] = 0.0
    _, weights, _ = model.attention_pool(Tensor(z), params)
    np.testing.assert_allclose(weights.data, [0.75, 0.25], atol=1e-5)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 10**6))
def test_pool_weights_are_a_distribution(n, seed):
    params = tiny_params(seed=1)
    z = np.random.default_rng(seed).standard_normal((n, 8))
    _, weights, _ = model.attention_pool(Tensor(z), params)
    assert (weights.data >= 0).all()
    assert weights.data.sum() == pytest.approx(1.0, abs=1e-9)


# -- forward ------------------------------------------------------------------------


def test_forward_contract():
    params = tiny_params(seed=14)
    logits, trace = model.forward(random_bag(n=5, seed=14), params)
    assert logits.shape == (4,)
    assert np.isfinite(logits).all()
    assert trace.n_prime == 9
    assert trace.pool_weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert (trace.pool_weights >= 0).all()


def test_forward_eval_deterministic():
    params = tiny_params(seed=15)
    bag = random_bag(n=6, seed=15)
    a, _ = model.forward(bag, params)
    b, _ = model.forward(bag, params)
    np.testing.assert_array_equal(a, b)


def test_forward_train_dropout_seeded():
    params = tiny_params(seed=16)
    bag = random_bag(n=6, seed=16)
    a, _ = model.forward(bag, params, mode="train", seed=1)
    b, _ = model.forward(bag, params, mode="train", seed=1)
    c, _ = model.forward(bag, params, mode="train", seed=2)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_forward_under_no_grad_gives_the_same_logits_and_no_graph():
    """float32 eval logits are bitwise those of a recorded forward, and a
    backward from them reaches no parameter."""
    params = tiny_params(seed=18, dtype=np.float32)
    bag = random_bag(n=7, seed=18)
    _, recorded = model.forward(bag, params)
    with no_grad():
        _, trace = model.forward(bag, params)
    bare = trace.tensors["logits"]
    assert bare.dtype == np.float32
    np.testing.assert_array_equal(bare.data, recorded.tensors["logits"].data)
    params.clear_grads()
    bare.backward(np.ones_like(bare.data))
    assert all(params[name].grad is None for name in params.names())


def test_forward_ablations_change_logits_but_not_shapes():
    params = tiny_params(seed=17)
    bag = random_bag(n=5, seed=17)
    full, trace_full = model.forward(bag, params)
    for ablation in ("no_transformer", "no_agent", "no_srmamba"):
        logits, trace = model.forward(bag, model.ModelParams(TINY.with_ablation(ablation), params.flat))
        assert logits.shape == (4,)
        assert trace.z_norm.shape == trace_full.z_norm.shape
        assert not np.allclose(logits, full)


STAGE_FUNCTIONS = {
    "transformer": {"nystrom_attention_layer": 2, "ppeg_encode": 1},
    "agent": {"agent_attention": 1},
    "scan": {"selective_scan": 2},  # one call per scan layer
}


@pytest.mark.parametrize("ablation", model.ABLATIONS)
def test_each_variant_runs_exactly_the_stages_of_its_row(monkeypatch, ablation):
    cfg = dataclasses.replace(TINY, srmamba_layers=2, ablation=ablation)
    calls = {}
    for name in (name for group in STAGE_FUNCTIONS.values() for name in group):
        def counted(*args, _name=name, _stage=getattr(model, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _stage(*args)
        monkeypatch.setattr(model, name, counted)
    model.forward(random_bag(n=5, seed=40), model.init_params(cfg, seed=40), mode="train", seed=1)
    expected = {}
    for group in model.STAGES[ablation]:
        expected.update(STAGE_FUNCTIONS[group])
    assert calls == expected


def test_forward_takes_dropout_from_the_params_config():
    """At dropout 0 a train forward draws no mask and gives the eval logits
    bit for bit; at the config's dropout it does not."""
    params = tiny_params(seed=41)
    bag = random_bag(n=6, seed=41)
    eval_logits, _ = model.forward(bag, params)
    undropped = model.ModelParams(dataclasses.replace(TINY, dropout=0.0), params.flat)
    train_logits, _ = model.forward(bag, undropped, mode="train", seed=1)
    assert train_logits.tobytes() == eval_logits.tobytes()
    dropped, _ = model.forward(bag, params, mode="train", seed=1)
    assert not np.array_equal(dropped, eval_logits)


# -- grouped eval forward -----------------------------------------------------------


# Groups of one padded grid size n'. At TINY's 4 landmarks, n' = 1 (2 tokens)
# takes exact attention and every larger n' the landmarks and the pinv; each
# group but the first mixes a bag with n = n' and cycle-padded ones, n' = 9
# matches the stored agent-bias grid and n' = 64 (65 tokens) runs two scan
# chunks.
GROUPS = ([1, 1, 1], [4, 2, 3], [9, 5, 7, 8, 9], [16, 10, 13], [64, 50])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ablation", model.ABLATIONS)
def test_grouped_forward_gives_each_bag_the_bits_of_its_own_forward(ablation, dtype):
    assert SCAN_CHUNK < 65 <= 1 + max(map(max, GROUPS))
    params = model.init_params(TINY.with_ablation(ablation), seed=33, dtype=dtype)
    for sizes in GROUPS:
        bags = [random_bag(n=n, seed=100 * n + i) for i, n in enumerate(sizes)]
        with no_grad():
            many = model.forward(bags, params)
            assert many[0].shape == (len(bags), 4) and many[1].n_prime == model.padded_grid_size(sizes[0])
            for i, bag in enumerate(bags):
                want, want_trace = model.forward(bag, params)
                for (got, got_trace), j in ((many, i), (model.forward([bag], params), 0)):
                    assert_bitwise(got[j], want)
                    assert_bitwise(got_trace.pool_weights[j], want_trace.pool_weights)
                    assert_bitwise(got_trace.z_norm[j], want_trace.z_norm)


def test_grouped_forward_refuses_mixed_grid_sizes_and_no_bags():
    params = tiny_params(seed=34)
    with pytest.raises(ShapeError, match="one padded grid size"):
        model.forward([random_bag(n=4), random_bag(n=5)], params)
    with pytest.raises(ShapeError):
        model.forward([], params)


def test_padded_grid_size_is_the_least_square_at_or_above_n():
    assert [model.padded_grid_size(n) for n in range(1, 18)] == [1, 4, 4, 4, 9, 9, 9, 9, 9] + [16] * 7 + [25]
    with pytest.raises(ShapeError):
        model.padded_grid_size(0)


def test_stacked_backward_gives_each_bag_its_own_adjoints():
    """Stages take leading axes on the tape too: a stacked forward's adjoints
    of the stacked inputs are the per-bag ones, and the shared weights get
    the per-bag sum up to rounding."""
    params = tiny_params(seed=35)
    xs = [np.random.default_rng(i).standard_normal((10, TINY.d_model)) for i in range(3)]

    def stages(seq):
        seq = model.ppeg_encode(model.nystrom_attention_layer(seq, params, "attn1"), params)
        seq = model.agent_attention(seq, params)
        seq = seq + model.selective_scan(seq, params, 0)
        return model.attention_pool(seq, params)[0]

    singles = []
    for x in xs:
        params.clear_grads()
        leaf = Tensor(x)
        stages(leaf).sum().backward()
        singles.append((leaf.grad, {n: params[n].grad for n in params.names()}))
    params.clear_grads()
    stacked = Tensor(np.stack(xs))
    stages(stacked).sum().backward()
    for i, (g_x, _) in enumerate(singles):
        assert_bitwise(stacked.grad[i], g_x)
    for name in params.names():
        per_bag = [g[name] for _, g in singles]
        if per_bag[0] is None:
            assert params[name].grad is None, name
        else:
            np.testing.assert_allclose(params[name].grad, sum(per_bag), rtol=1e-12, atol=1e-14, err_msg=name)


# -- fused ops against the tape chains they replace --------------------------------


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def helper_pinv(a: Tensor, iters: int) -> Tensor:
    """The Nystrom core's pseudo-inverse helpers as one tape op."""
    z, saved = model._pinv(a.data, iters)
    return _node(z, (a,), lambda g: a._accum(model._pinv_adjoint(g, a.data, saved)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 9, 9), (1, 2, 2), (8, 64, 64)], ids=["4x9x9", "1x2x2", "8x64x64"])
def test_fused_pinv_is_bitwise_the_composed_chain(shape, dtype):
    rng = np.random.default_rng(shape[-1])
    kernel = softmax_np(rng.standard_normal(shape)).astype(dtype)  # row-stochastic, as in attention
    weight = Tensor(rng.standard_normal(shape).astype(dtype))
    results = []
    for pinv in (helper_pinv, composed_newton_schulz_pinv):
        a = Tensor(kernel.copy())
        out = pinv(a, TINY.pinv_iters)
        (out * weight).sum().backward()
        results.append((out.data, a.grad))
    for fused, composed in zip(*results):
        assert_bitwise(fused, composed)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("affine", [True, False], ids=["gain-bias", "plain"])
def test_fused_layer_norm_is_bitwise_the_composed_chain(affine, dtype):
    rng = np.random.default_rng(21)
    xv, weight = (rng.standard_normal((17, 24)).astype(dtype) for _ in range(2))
    gv, bv = (rng.standard_normal(24).astype(dtype) for _ in range(2))
    results = []
    for ln in (model.layer_norm, composed_layer_norm):
        x, gain, bias = Tensor(xv.copy()), Tensor(gv.copy()), Tensor(bv.copy())
        y = ln(x, gain, bias) if affine else ln(x)
        # x also feeds a residual, so its adjoint arrives in several accumulations
        (y * Tensor(weight) + x).tanh().sum().backward()
        results.append((y.data, x.grad) + ((gain.grad, bias.grad) if affine else ()))
    for fused, composed in zip(*results):
        assert_bitwise(fused, composed)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ablation", model.ABLATIONS)
def test_train_step_is_bitwise_that_of_the_composed_ops(monkeypatch, ablation, dtype):
    cfg = TINY.with_ablation(ablation)
    bag = random_bag(n=11, seed=22)  # 17 tokens, more than the 4 landmarks: the pinv runs

    def train_step():
        params = model.init_params(cfg, seed=22, dtype=dtype)
        _, trace = model.forward(bag, params, mode="train", seed=3)
        survival.nll_graph(trace.tensors["logits"], 1, 0).backward()
        return trace, params

    fused_trace, fused = train_step()
    monkeypatch.setattr(model, "layer_norm", composed_layer_norm)
    chain_the_attention_cores(monkeypatch)  # their pseudo-inverse is the composed chain
    composed_trace, composed = train_step()
    assert_bitwise(fused_trace.logits, composed_trace.logits)
    assert_bitwise(fused_trace.z_norm, composed_trace.z_norm)
    for name in fused.names():
        if composed[name].grad is None:
            assert fused[name].grad is None, name
        else:
            assert_bitwise(fused[name].grad, composed[name].grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_gelu_is_bitwise_the_chain(dtype):
    rng = np.random.default_rng(23)
    xv, weight = (rng.standard_normal((17, 24)).astype(dtype) * 3.0 for _ in range(2))
    xv[0, :4] = (0.0, -0.0, 40.0, -40.0)
    results = []
    for gelu in (model.gelu, chained_gelu):
        x = Tensor(xv.copy())
        y = gelu(x)
        # x also feeds a residual, so its adjoint arrives in several accumulations
        (y * Tensor(weight) + x).tanh().sum().backward()
        results.append((y.data, x.grad))
    for fused, chained in zip(*results):
        assert_bitwise(fused, chained)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "stack"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_ppeg_is_bitwise_the_chain(dtype, lead):
    """Output and the adjoints of seq and the three kernels; seq also feeds a
    residual, so its adjoint arrives in several accumulations."""
    for n_grid in (1, 9, 64):
        rng = np.random.default_rng(n_grid)
        xv, weight = (rng.standard_normal((*lead, 1 + n_grid, TINY.d_model)).astype(dtype) for _ in range(2))
        results = []
        for ppeg in (model.ppeg_encode, chained_ppeg_encode):
            params = model.init_params(TINY, seed=n_grid, dtype=dtype)
            seq = Tensor(xv.copy())
            y = ppeg(seq, params)
            (y * Tensor(weight) + seq).tanh().sum().backward()
            results.append([y.data, seq.grad] + [params[f"ppeg.K{k}"].grad for k in (7, 5, 3)])
        for fused, chained in zip(*results):
            assert_bitwise(fused, chained)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "stack"])
@pytest.mark.parametrize("rate", [1, 2, 5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_scan_layer_is_bitwise_the_chain(dtype, rate, lead):
    """Output and the adjoints of x and all six weights; x also feeds a
    residual, as in a stack of stages without the layer norm."""
    cfg = dataclasses.replace(TINY, d_model=8, ssm_state_dim=4, srmamba_rate=rate)
    for n in (1, 5, SCAN_CHUNK + 1):
        rng = np.random.default_rng(n)
        xv, weight = (rng.standard_normal((*lead, n, cfg.d_model)).astype(dtype) for _ in range(2))
        results = []
        for scan in (model.selective_scan, chained_selective_scan):
            params = model.init_params(cfg, seed=n, dtype=dtype)
            x = Tensor(xv.copy())
            y = scan(x, params, 0)
            (y * Tensor(weight) + x).tanh().sum().backward()
            results.append([y.data, x.grad] + [params[f"srmamba0.{w}"].grad for w in model.SCAN_WEIGHTS])
        for fused, chained in zip(*results):
            assert_bitwise(fused, chained)


def chain_the_fused_ops(monkeypatch):
    monkeypatch.setattr(model, "gelu", chained_gelu)
    monkeypatch.setattr(model, "layer_norm", closure_layer_norm)
    monkeypatch.setattr(model, "selective_scan", chained_selective_scan)
    monkeypatch.setattr(model, "ppeg_encode", chained_ppeg_encode)


@pytest.mark.parametrize("n", [1, 5, 30])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ablation", model.ABLATIONS)
def test_train_step_is_bitwise_that_of_the_chained_gelu_layer_norm_ppeg_and_scan(monkeypatch, ablation, dtype, n):
    cfg = dataclasses.replace(TINY.with_ablation(ablation), srmamba_layers=2)
    fused = step_bits(cfg, n, dtype)
    chain_the_fused_ops(monkeypatch)
    assert step_bits(cfg, n, dtype) == fused


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ablation", model.ABLATIONS)
def test_grouped_train_step_is_bitwise_that_of_the_chained_gelu_layer_norm_ppeg_and_scan(monkeypatch, ablation, dtype):
    cfg = dataclasses.replace(TINY.with_ablation(ablation), srmamba_layers=2)

    def group_bits():
        out = []
        for sizes in GROUPS:
            params = model.init_params(cfg, seed=37, dtype=dtype)
            bags = [random_bag(n=n, seed=100 * n + i) for i, n in enumerate(sizes)]
            _, trace = model.forward(bags, params, mode="train", seed=5)
            logits = trace.tensors["logits"]
            weight = np.random.default_rng(len(sizes)).standard_normal(logits.shape).astype(dtype)
            (logits * weight).sum().backward()
            grads = [params[name].grad for name in params.names()]
            out.append((logits.data.tobytes(), [None if g is None else g.tobytes() for g in grads]))
        return out

    fused = group_bits()
    chain_the_fused_ops(monkeypatch)
    assert group_bits() == fused


# -- the fused attention cores against their tape chains ------------------------------


def chain_the_attention_cores(monkeypatch):
    """Run the Nystrom cores and agent attention as the tape chains they
    fuse, recomputed through checkpoint from 256 tokens on."""
    monkeypatch.setattr(model, "_nystrom_core", chained_nystrom_core)
    monkeypatch.setattr(model, "agent_attention", chained_agent_attention)


def tape_nodes(root: Tensor) -> list[Tensor]:
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def step_bits(cfg, n, dtype, mode="train"):
    """Logits and every parameter gradient of one step, as bytes."""
    params = model.init_params(cfg, seed=31, dtype=dtype)
    _, trace = model.forward(random_bag(n=n, seed=31), params, mode=mode, seed=4)
    survival.nll_graph(trace.tensors["logits"], 2, 0).backward()
    grads = {name: None if params[name].grad is None else params[name].grad.tobytes() for name in params.names()}
    return trace.tensors["logits"].data.tobytes(), grads


@pytest.mark.parametrize("n", [1, 5, 30])  # 2 tokens take exact attention, 10 and 37 the pinv
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ablation", model.ABLATIONS)
def test_recomputed_cores_give_bitwise_the_recorded_step(monkeypatch, ablation, dtype, n):
    """The fused cores recompute their products in backward; the chains
    below 256 tokens keep every intermediate on the tape."""
    cfg = TINY.with_ablation(ablation)
    fused = step_bits(cfg, n, dtype)
    chain_the_attention_cores(monkeypatch)
    assert step_bits(cfg, n, dtype) == fused


# (bag sizes, config changes): the exact branch (tokens <= landmarks) and the
# landmark branch, agent biases on their stored 3 x 3 grid and resized to
# another side, one bag and a stack, below and above 256 tokens
CORE_CASES = {
    "exact-resized": ([1], {}),
    "landmarks-stored-side": ([9], {}),
    "landmarks-resized": ([11], {}),
    "stack-stored-side": ([9, 7, 5], {}),
    "stack-resized": ([16, 10, 13], {}),
    "landmarks-resized-325-tokens": ([300], {}),
    "exact-stored-side-325-tokens": ([300], {"n_landmarks": 400, "agent_bias_side": 18}),
    "stack-resized-325-tokens": ([290, 300], {}),
}


def core_bits(cfg, sizes, dtype):
    """Logits and every parameter gradient of a train step on one bag or a
    stack, the ERF map of a single bag, as bytes."""
    params = model.init_params(cfg, seed=39, dtype=dtype)
    bags = [random_bag(n=n, seed=100 * n + i) for i, n in enumerate(sizes)]
    _, trace = model.forward(bags[0] if len(bags) == 1 else bags, params, mode="train", seed=6)
    logits = trace.tensors["logits"]
    weight = np.random.default_rng(len(sizes)).standard_normal(logits.shape).astype(dtype)
    (logits * weight).sum().backward()
    grads = [None if params[name].grad is None else params[name].grad.tobytes() for name in params.names()]
    erf = explain.erf_map(bags[0], params).raw.tobytes() if len(bags) == 1 else None
    return logits.data.tobytes(), grads, erf


@pytest.mark.parametrize("case", CORE_CASES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ablation", model.ABLATIONS)
def test_fused_attention_cores_are_bitwise_their_chains(monkeypatch, ablation, dtype, case):
    sizes, changes = CORE_CASES[case]
    cfg = dataclasses.replace(TINY.with_ablation(ablation), **changes)
    assert (model.padded_grid_size(sizes[0]) + 1 <= cfg.n_landmarks) == case.startswith("exact")
    assert (math.isqrt(model.padded_grid_size(sizes[0])) == cfg.agent_bias_side) == ("stored-side" in case)
    fused = core_bits(cfg, sizes, dtype)
    chain_the_attention_cores(monkeypatch)
    assert core_bits(cfg, sizes, dtype) == fused


@pytest.mark.parametrize("n", [5, 30])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ablation", model.ABLATIONS)
def test_train_step_is_bitwise_that_of_the_tap_loop_and_the_chained_head_split(monkeypatch, ablation, dtype, n):
    cfg = TINY.with_ablation(ablation)
    windowed = step_bits(cfg, n, dtype)
    chain_the_attention_cores(monkeypatch)
    for owner in (model, tape_oracles):
        monkeypatch.setattr(owner, "dwconv2d", loop_dwconv2d)
    monkeypatch.setattr(tape_oracles, "_to_heads", chained_to_heads)
    monkeypatch.setattr(tape_oracles, "_from_heads", chained_from_heads)
    assert step_bits(cfg, n, dtype) == windowed


CORE_WEIGHTS = {
    "attn1": ("attn1.Wq", "attn1.Wk", "attn1.Wv", "attn1.Wo"),
    "attn2": ("attn2.Wq", "attn2.Wk", "attn2.Wv", "attn2.Wo"),
    "agent": tuple(f"agent.{w}" for w in model._AGENT_WEIGHTS),
}


@pytest.mark.parametrize("n", [5, 30])
def test_a_recording_eval_forward_holds_one_node_per_wrapped_core(monkeypatch, n):
    params = tiny_params(seed=32)
    bag = random_bag(n=n, seed=32)
    _, fused = model.forward(bag, params)
    nodes = tape_nodes(fused.tensors["logits"])
    for core, names in CORE_WEIGHTS.items():
        weights = tuple(params[name] for name in names)
        holders = [t for t in nodes if any(p is w for p in t._parents for w in weights)]
        assert len(holders) == 1, core
        assert holders[0]._parents[1:] == weights, core
    chain_the_attention_cores(monkeypatch)
    _, chained = model.forward(bag, params)
    assert len(nodes) < len(tape_nodes(chained.tensors["logits"]))


@pytest.mark.parametrize("n", [5, 30])
def test_a_recording_forward_holds_one_node_per_scan_layer_and_one_for_ppeg(n):
    cfg = dataclasses.replace(TINY, srmamba_layers=2)
    params = model.init_params(cfg, seed=38)
    _, trace = model.forward(random_bag(n=n, seed=38), params)
    nodes = tape_nodes(trace.tensors["logits"])
    for layer in range(cfg.srmamba_layers):
        weights = tuple(params[f"srmamba{layer}.{w}"] for w in model.SCAN_WEIGHTS)
        holders = [t for t in nodes if any(p is w for p in t._parents for w in weights)]
        assert len(holders) == 1, layer
        x, *rest = holders[0]._parents
        assert tuple(rest) == weights, layer
        # x is the output of the layer's own layer norm
        assert x._parents[1:] == (params[f"srmamba{layer}.ln_g"], params[f"srmamba{layer}.ln_b"])
    kernels = tuple(params[f"ppeg.K{k}"] for k in (7, 5, 3))
    holders = [t for t in nodes if any(p is k for p in t._parents for k in kernels)]
    assert len(holders) == 1 and holders[0]._parents[1:] == kernels


def test_after_backward_only_leaves_hold_adjoints(monkeypatch):
    """Backward consumes the tape and clears each node's closure, so the
    tensors made with a backward (the non-leaves) are noted as they are made."""
    made = []  # (tensor, whether it was made with a backward)
    init = Tensor.__init__

    def recording_init(self, data, parents=(), backward=None):
        init(self, data, parents, backward)
        made.append((self, backward is not None))

    params = tiny_params(seed=33)
    monkeypatch.setattr(Tensor, "__init__", recording_init)
    _, trace = model.forward(random_bag(n=5, seed=33), params, mode="train", seed=1)
    survival.nll_graph(trace.tensors["logits"], 2, 0).backward()
    monkeypatch.undo()
    assert any(with_backward for _, with_backward in made)
    assert all(t.grad is None for t, with_backward in made if with_backward)
    assert all(params[name].grad is not None for name in params.names())


def test_a_train_step_backpropagates_once(monkeypatch):
    """The step's tape is consumed by its backward: a second backward raises
    and leaves every parameter's adjoint as the first one left it."""
    params = tiny_params(seed=36)
    _, trace = model.forward(random_bag(n=5, seed=36), params, mode="train", seed=1)
    loss = survival.nll_graph(trace.tensors["logits"], 2, 0)
    loss.backward()
    grads = {name: params[name].grad.copy() for name in params.names()}
    with pytest.raises(RuntimeError, match="already been backpropagated"):
        loss.backward()
    with pytest.raises(RuntimeError, match="already been backpropagated"):
        trace.tensors["final_seq"].sum().backward()
    for name in params.names():
        assert_bitwise(params[name].grad, grads[name])


# Bytes that a recording paper-width eval forward on one 1,024-patch bag keeps
# live (tracemalloc) on the tape whose scan layer was nine nodes, whose GELU
# was four, whose layer norm kept its normalized rows and whose convolutions
# each kept a padded copy of their input.
CHAINED_TAPE_BYTES_1024 = 72_683_000


def test_a_recording_paper_width_forward_keeps_at_most_three_quarters_of_the_chained_tape():
    cfg = model.ModelConfig()
    params = model.init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    bag = FeatureBag("probe", rng.standard_normal((1024, cfg.d_in), dtype=np.float32), grid_coords(1024))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, trace = model.forward(bag, params)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert trace.tensors["logits"]._parents
    assert held <= 0.75 * CHAINED_TAPE_BYTES_1024, held


def test_memory_probe_script_prints_one_line_per_mode():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(root / "scripts" / "run_memory_probe.py"), "--patches", "64"],
                          env=env, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["patches"], r["mode"]) for r in rows] == [
        (64, "eval_no_grad"), (64, "eval_recording"), (64, "fwd_bwd")]
    assert all(r["seconds"] > 0 and r["peak_rss_mb"] > 0 for r in rows)


ACCEPT_MODEL = model.ModelConfig(
    d_in=16, d_model=24, n_heads=4, n_agents=4, n_landmarks=9,
    srmamba_layers=1, srmamba_rate=5, ssm_state_dim=6, dropout=0.25, agent_bias_side=4,
)
# Tape nodes of one acceptance-scale train step (forward and loss) on a
# 16-patch bag, with the fused GELU, layer norm, PPEG, scan layer, Nystrom
# cores and agent attention one node each.
MAX_TAPE_NODES_PER_STEP = 38


def test_acceptance_scale_train_step_tape_does_not_regrow(monkeypatch):
    recorded = []
    init = Tensor.__init__

    def counting_init(self, data, parents=(), backward=None):
        recorded.append(bool(parents))
        init(self, data, parents, backward)

    params = model.init_params(ACCEPT_MODEL, seed=0, dtype=np.float32)
    bag = FeatureBag("bag", np.random.default_rng(0).standard_normal((16, 16)), grid_coords(16))
    monkeypatch.setattr(Tensor, "__init__", counting_init)
    _, trace = model.forward(bag, params, mode="train", seed=1)
    survival.nll_graph(trace.tensors["logits"], 2, 0).backward()
    monkeypatch.undo()
    assert all(params[name].grad is not None for name in params.names())
    assert 0 < sum(recorded) <= MAX_TAPE_NODES_PER_STEP


def test_acceptance_scale_train_step_gives_adjoints_only_to_parameters(monkeypatch):
    """The bag features, the dropout masks and the segment-mean matrices are
    arrays, constants on the tape: after backward only the parameters, all
    made before the step, hold adjoints."""
    made = []
    init = Tensor.__init__

    def recording_init(self, data, parents=(), backward=None):
        init(self, data, parents, backward)
        made.append(self)

    params = model.init_params(ACCEPT_MODEL, seed=0, dtype=np.float32)
    bag = FeatureBag("bag", np.random.default_rng(0).standard_normal((16, 16)), grid_coords(16))
    monkeypatch.setattr(Tensor, "__init__", recording_init)
    _, trace = model.forward(bag, params, mode="train", seed=1)
    survival.nll_graph(trace.tensors["logits"], 2, 0).backward()
    monkeypatch.undo()
    assert made and all(params[name].grad is not None for name in params.names())
    assert [t.shape for t in made if t.grad is not None] == []


# -- gradient checking ---------------------------------------------------------------


def test_affine_map_finite_difference_exact():
    # central differences are exact for affine maps up to roundoff
    rng = np.random.default_rng(19)
    w = Tensor(rng.standard_normal((4, 3)))
    b = Tensor(rng.standard_normal(3))
    x = rng.standard_normal((2, 4))
    loss = ((Tensor(x) @ w + b) * 0.5).sum()
    loss.backward()
    h = 1e-5
    flat = w.data.reshape(-1)
    gflat = w.grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = ((x @ w.data + b.data) * 0.5).sum()
        flat[i] = orig - h
        lo = ((x @ w.data + b.data) * 0.5).sum()
        flat[i] = orig
        fd = (hi - lo) / (2 * h)
        assert abs(fd - gflat[i]) / max(abs(gflat[i]), 1e-8) < 1e-8


def test_grad_check_full_tiny_model():
    report = model.grad_check(TINY, n_patches=5, seed=0)
    assert report.max_rel_err < 1e-4, report.per_tensor


def test_grad_check_detects_corrupted_backward(monkeypatch):
    """A backward that negates the adjoint of ``ppeg.K3`` alone is flagged
    there, and only there."""
    made = []
    init_params, dwconv_adjoints = model.init_params, model._dwconv_adjoints

    def recording_init(*args, **kwargs):
        made.append(init_params(*args, **kwargs))
        return made[-1]

    def corrupted(g, xv, kv):
        g_x, g_k = dwconv_adjoints(g, xv, kv)
        return g_x, -g_k if kv is made[-1]["ppeg.K3"].data else g_k

    monkeypatch.setattr(model, "init_params", recording_init)
    monkeypatch.setattr(model, "_dwconv_adjoints", corrupted)
    report = model.grad_check(TINY, n_patches=5, seed=0)
    assert report.per_tensor.pop("ppeg.K3") > 1e-2
    assert max(report.per_tensor.values()) < 1e-4


def test_grad_check_rejects_large_configs():
    with pytest.raises(DataError):
        model.grad_check(model.ModelConfig(), n_patches=5)


# -- checkpoints -----------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    params = model.init_params(TINY, seed=3, dtype=np.float32)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path, params, seed=42)
    loaded, cfg, seed = model.load_checkpoint(path)
    assert seed == 42
    assert cfg == TINY
    for name in params.names():
        np.testing.assert_array_equal(loaded[name].data, params[name].data)
    bag = random_bag(n=5, seed=3)
    a, _ = model.forward(bag, params)
    b, _ = model.forward(bag, loaded)
    np.testing.assert_array_equal(a, b)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"NOTACKPT0" + b"\0" * 32)
    with pytest.raises(FormatError):
        model.load_checkpoint(p)


def test_checkpoint_truncated(tmp_path):
    params = model.init_params(TINY, seed=3, dtype=np.float32)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path, params, seed=1)
    raw = path.read_bytes()
    path.write_bytes(raw[:-64])
    with pytest.raises(TruncatedError):
        model.load_checkpoint(path)


def test_every_tensor_is_a_view_of_the_flat_vector(tmp_path):
    params = model.init_params(TINY, seed=3, dtype=np.float32)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path, params)
    loaded = model.load_checkpoint(path)[0]
    for p in (params, params.copy(), loaded, pickle.loads(pickle.dumps(params))):
        assert p.names() == [name for name, _, _ in model.param_layout(TINY)]
        for name in p.names():
            assert np.shares_memory(p[name].data, p.flat), name
        assert p.flat.size == sum(p[name].data.size for name in p.names())
        p.flat[:] = 0.5
        assert all((p[name].data == 0.5).all() for name in p.names())
    assert not np.shares_memory(params.copy().flat, params.flat)
