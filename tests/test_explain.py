import numpy as np
import pytest

from tape_oracles import chained_agent_attention, chained_nystrom_core
from tdam import explain, model
from tdam.autodiff import Tensor, no_grad
from tdam.bags import FeatureBag, grid_coords
from tdam.errors import DataError

CFG = model.ModelConfig(
    d_in=6, d_model=8, n_heads=2, n_agents=2, n_landmarks=4,
    srmamba_layers=1, srmamba_rate=2, ssm_state_dim=2, dropout=0.25, agent_bias_side=3,
)


def bag_of(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureBag("b", rng.standard_normal((n, 6)), grid_coords(n))


def trained_like_params(seed=0):
    return model.init_params(CFG, seed=seed, dtype=np.float64)


# -- heatmaps -------------------------------------------------------------------


def test_heatmap_shape_and_coords_order():
    bag = bag_of(n=5, seed=1)
    table = explain.attention_heatmap(bag, trained_like_params(1))
    assert table.weights.shape == (5, 4)  # one row per patch, four bins
    np.testing.assert_array_equal(table.coords, bag.coords)
    assert ((table.weights >= 0) & (table.weights <= 1)).all()


def test_heatmap_minmax_normalization():
    vals = np.array([[0.2, 0.5], [0.8, 0.5]])
    out = explain._minmax_per_column(vals)
    np.testing.assert_allclose(out[:, 0], [0.0, 1.0])
    np.testing.assert_allclose(out[:, 1], [0.0, 0.0])  # constant column -> zeros


def test_heatmap_padding_dropped():
    bag = bag_of(n=5, seed=2)  # grid pads to 9 tokens
    table = explain.attention_heatmap(bag, trained_like_params(2))
    assert table.coords.shape[0] == 5


def test_heatmap_rejects_nan_params():
    params = trained_like_params(3)
    params["clf.W"].data[0, 0] = np.nan
    with pytest.raises(DataError):
        explain.attention_heatmap(bag_of(), params)


def test_heatmap_each_bin_spans_unit_interval():
    table = explain.attention_heatmap(bag_of(n=9, seed=4), trained_like_params(4))
    for b in range(4):
        col = table.weights[:, b]
        assert col.min() == 0.0
        assert col.max() == pytest.approx(1.0)


# -- ERF -------------------------------------------------------------------------


def test_erf_affine_readout_is_uniform():
    # a single affine layer has a constant Jacobian, so the intensity
    # reduction yields the same value at every grid position
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((9, 4)))
    w = Tensor(rng.standard_normal((4, 3)))
    y = (x @ w).sum()
    y.backward()
    intensity = explain.token_intensity(x.grad)
    assert np.allclose(intensity, intensity[0])


def test_erf_nonzero_for_random_params():
    erf = explain.erf_map(None, trained_like_params(6), side=3, seed=1)
    assert erf.grid.shape == (3, 3)
    assert np.isfinite(erf.grid).all()
    assert erf.raw.sum() > 0


def test_erf_after_no_grad_still_backpropagates():
    """ERF maps need eval-mode gradients: after a no_grad() scope has closed,
    erf_map gets the same nonzero map as before it, and inside one it refuses
    to run instead of returning a zero map."""
    params = trained_like_params(6)
    before = explain.erf_map(None, params, side=3, seed=1)
    with no_grad():
        explain.attention_heatmap(bag_of(n=5, seed=6), params)
    after = explain.erf_map(None, params, side=3, seed=1)
    assert after.raw.sum() > 0
    np.testing.assert_array_equal(after.raw, before.raw)
    with no_grad(), pytest.raises(RuntimeError, match="no_grad"):
        explain.erf_map(None, params, side=3, seed=1)


def test_erf_is_bitwise_unchanged_by_freed_adjoints_and_recompute(monkeypatch):
    """The map is the same with every adjoint kept, with the attention cores
    as the tape chains they fuse, and with neither."""
    params = trained_like_params(10)
    bag = bag_of(n=30, seed=10)
    base = explain.erf_map(bag, params)
    monkeypatch.setattr(model, "_nystrom_core", chained_nystrom_core)
    monkeypatch.setattr(model, "agent_attention", chained_agent_attention)
    recomputed = explain.erf_map(bag, params)
    monkeypatch.undo()
    init = Tensor.__init__

    def retaining_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.retain_grad()

    monkeypatch.setattr(Tensor, "__init__", retaining_init)
    kept = explain.erf_map(bag, params)
    monkeypatch.undo()
    for other in (recomputed, kept):
        assert other.raw.tobytes() == base.raw.tobytes()
        assert other.grid.tobytes() == base.grid.tobytes()


def test_erf_zero_params_gives_zero_map():
    params = trained_like_params(7)
    for name in params.names():
        params[name].data[:] = 0.0
    erf = explain.erf_map(None, params, side=3, seed=1)
    assert erf.raw.sum() == 0.0


def test_erf_full_vs_no_transformer_differ():
    params = trained_like_params(8)
    bag = bag_of(n=9, seed=8)
    full = explain.erf_map(bag, params)
    ablated = explain.erf_map(bag, model.ModelParams(CFG.with_ablation("no_transformer"), params.flat))
    diff = np.abs(full.grid - ablated.grid) > 1e-6
    assert diff.mean() >= 0.01


def test_erf_deterministic_synthetic_grid():
    params = trained_like_params(9)
    a = explain.erf_map(None, params, side=4, seed=3)
    b = explain.erf_map(None, params, side=4, seed=3)
    np.testing.assert_array_equal(a.grid, b.grid)


def neutral_spatial_params(seed):
    """Parameters whose spatial/order-sensitive paths are zeroed, leaving a
    permutation-equivariant network: grid convs, agent local conv, and the
    scan's state readout silenced; landmark count set high enough that the
    attention layers run the exact (order-free) softmax path."""
    cfg = model.ModelConfig(**{**CFG.__dict__, "n_landmarks": 64})
    params = model.init_params(cfg, seed=seed, dtype=np.float64)
    for k in (7, 5, 3):
        params[f"ppeg.K{k}"].data[:] = 0.0
    params["agent.Wdw"].data[:] = 0.0
    params["srmamba0.W_C"].data[:] = 0.0
    return params


def test_erf_permutation_equivariance_with_neutral_spatial_paths():
    # coords travel with features; intensities keyed by coordinate must match
    params = neutral_spatial_params(10)
    rng = np.random.default_rng(10)
    n = 16  # perfect square: no cycling pad
    feats = rng.standard_normal((n, 6))
    coords = grid_coords(n)
    bag = FeatureBag("a", feats, coords)
    perm = rng.permutation(n)
    bag_p = FeatureBag("b", feats[perm], coords[perm])
    erf_a = explain.erf_map(bag, params)
    erf_b = explain.erf_map(bag_p, params)
    flat_a = erf_a.raw.reshape(-1)
    flat_b = erf_b.raw.reshape(-1)
    by_coord_a = {tuple(c): v for c, v in zip(coords, flat_a)}
    by_coord_b = {tuple(c): v for c, v in zip(coords[perm], flat_b)}
    for key in by_coord_a:
        assert by_coord_a[key] == pytest.approx(by_coord_b[key], abs=1e-10)


def test_heatmap_permutation_equivariance_with_neutral_spatial_paths():
    params = neutral_spatial_params(11)
    rng = np.random.default_rng(11)
    n = 9
    feats = rng.standard_normal((n, 6))
    coords = grid_coords(n)
    perm = rng.permutation(n)
    t_a = explain.attention_heatmap(FeatureBag("a", feats, coords), params)
    t_b = explain.attention_heatmap(FeatureBag("b", feats[perm], coords[perm]), params)
    rows_a = {(x, y): w for x, y, *w in t_a.rows()}
    rows_b = {(x, y): w for x, y, *w in t_b.rows()}
    for key in rows_a:
        np.testing.assert_allclose(rows_a[key], rows_b[key], atol=1e-10)


# -- rasters ----------------------------------------------------------------------


def test_erf_pgm_format():
    erf = explain.erf_map(None, trained_like_params(12), side=3, seed=2)
    pgm = explain.erf_to_pgm(erf)
    lines = pgm.strip().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "3 3"
    assert lines[2] == "255"
    assert len(lines) == 3 + 3


def test_heatmap_pgm_format():
    table = explain.attention_heatmap(bag_of(n=9, seed=13), trained_like_params(13))
    pgm = explain.heatmap_to_pgm(table, bin_index=0)
    lines = pgm.strip().splitlines()
    assert lines[0] == "P2"
    side = int(lines[1].split()[0])
    assert len(lines) == 3 + side
