from dataclasses import dataclass, field

import numpy as np
import pytest

from tdam import autodiff, explain, model, trainer
from tdam import bags as bagmod
from tdam.autodiff import Tensor
from tdam.bags import Cohort, FeatureBag, SurvivalRecord
from tdam.errors import DataError, GradError, NonFiniteError
from tdam.model import ABLATIONS, ModelConfig, ModelParams, forward, init_params
from tdam.survival import concordance_index, nll_graph, risk_score

SMALL_MODEL = ModelConfig(
    d_in=8, d_model=8, n_heads=2, n_agents=2, n_landmarks=4,
    srmamba_layers=1, srmamba_rate=2, ssm_state_dim=2, dropout=0.25, agent_bias_side=3,
)


def synthetic(n=24, seed=0, censor=0.3):
    return bagmod.synth_cohort(n, (4, 9), d=8, censor_rate=censor, seed=seed)


def make_cohort(times, events):
    recs = [SurvivalRecord(f"P{i}", float(t), int(e)) for i, (t, e) in enumerate(zip(times, events))]
    return Cohort(records=recs)


# -- folds ----------------------------------------------------------------------


def test_kfold_sizes_581():
    rng = np.random.default_rng(0)
    cohort = make_cohort(rng.exponential(10, 581) + 0.1, rng.integers(0, 2, 581))
    folds = trainer.kfold_split(cohort, 5, seed=1)
    assert sorted(len(f) for f in folds) == [116, 116, 116, 116, 117]


def test_kfold_partition_and_determinism():
    sc = synthetic(27, seed=3)
    a = trainer.kfold_split(sc.cohort, 5, seed=9)
    b = trainer.kfold_split(sc.cohort, 5, seed=9)
    assert a == b
    flat = [p for f in a for p in f]
    assert sorted(flat) == sorted(r.patient_id for r in sc.cohort.records)
    assert len(set(flat)) == len(flat)
    c = trainer.kfold_split(sc.cohort, 5, seed=10)
    assert a != c


def test_kfold_stratifies_events():
    rng = np.random.default_rng(4)
    n, k = 100, 5
    cohort = make_cohort(rng.exponential(10, n) + 0.1, [1] * 40 + [0] * 60)
    folds = trainer.kfold_split(cohort, k, seed=2)
    by_id = {r.patient_id: r.event for r in cohort.records}
    rates = [sum(by_id[p] for p in fold) for fold in folds]
    assert max(rates) - min(rates) <= 1  # 8 events per fold expected


def test_kfold_too_small():
    sc = synthetic(10, seed=1)
    with pytest.raises(DataError):
        trainer.kfold_split(sc.cohort, 11)


# -- adam -------------------------------------------------------------------------


def scalar_params():
    cfg = ModelConfig(d_in=1, d_model=1, n_heads=1, n_agents=1, n_landmarks=1,
                      srmamba_layers=0, ssm_state_dim=1, agent_bias_side=1)
    return init_params(cfg, seed=0, dtype=np.float64)


def test_adam_first_step_magnitude():
    params = scalar_params()
    before = params["proj.W"].data.copy()
    cfg = trainer.TrainConfig(lr=2e-4)
    params["proj.W"].grad = np.ones_like(before)
    trainer.adam_step(params, trainer.AdamState(), 1, cfg)
    delta = params["proj.W"].data - before
    assert delta[0, 0] == pytest.approx(-2e-4, rel=1e-6)


def test_adam_zero_grad_is_noop():
    params = scalar_params()
    before = {n: params[n].data.copy() for n in params.names()}
    for n in params.names():
        params[n].grad = np.zeros_like(params[n].data)
    trainer.adam_step(params, trainer.AdamState(), 1, trainer.TrainConfig())
    for n in params.names():
        np.testing.assert_array_equal(params[n].data, before[n])


def test_adam_purity():
    cfg = trainer.TrainConfig(lr=1e-3)
    rng = np.random.default_rng(5)
    grads = {"proj.W": rng.standard_normal((1, 1))}
    outs = []
    for _ in range(2):
        params = scalar_params()
        state = trainer.AdamState()
        for t in range(1, 4):
            params["proj.W"].grad = grads["proj.W"].copy()
            trainer.adam_step(params, state, t, cfg)
        outs.append(params["proj.W"].data.copy())
    np.testing.assert_array_equal(outs[0], outs[1])


def test_adam_rejects_nonfinite():
    params = scalar_params()
    params["proj.W"].grad = np.array([[np.nan]])
    with pytest.raises(GradError):
        trainer.adam_step(params, trainer.AdamState(), 1, trainer.TrainConfig())



def test_adam_names_the_non_finite_tensor_before_any_update():
    params = init_params(SMALL_MODEL, seed=0)
    for n in params.names():
        params[n].grad = np.ones_like(params[n].data)
    params["pool.W1"].grad[0, 0] = np.inf
    before = params.flat.copy()
    with pytest.raises(GradError, match="pool.W1"):
        trainer.adam_step(params, trainer.AdamState(), 1, trainer.TrainConfig())
    assert params.flat.tobytes() == before.tobytes()


@dataclass
class PerTensorAdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def per_tensor_adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: PerTensorAdamState,
    t: int,
    cfg: trainer.TrainConfig,
) -> None:
    """The oracle: Adam as it ran tensor by tensor, skipping a tensor whose
    gradient is None."""
    if t < 1:
        raise ValueError("Adam step counter starts at 1")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise GradError(f"non-finite gradient for {name}")
        theta = params[name].data
        if g.shape != theta.shape:
            raise DataError(f"gradient shape {g.shape} != parameter shape {theta.shape} for {name}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(theta)
            state.v[name] = np.zeros_like(theta)
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
        theta -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_flat_adam_is_bitwise_the_per_tensor_oracle(ablation, dtype):
    """Five steps on real tape gradients: the one-vector update and the
    per-tensor oracle leave the same parameter bits."""
    cfg = SMALL_MODEL.with_ablation(ablation)
    train_cfg = trainer.TrainConfig(lr=1e-2)
    flat = init_params(cfg, seed=4, dtype=dtype)
    oracle = flat.copy()
    state, oracle_state = trainer.AdamState(), PerTensorAdamState()
    sc = synthetic(10, seed=2)
    for t, bag in enumerate(list(sc.bags.values())[:5], start=1):
        bag = FeatureBag(bag.slide_id, bag.features.astype(dtype), bag.coords)
        for params in (flat, oracle):
            params.clear_grads()
            _, trace = forward(bag, params, mode="train", seed=t)
            nll_graph(trace.tensors["logits"], t % 4, t % 2).backward()
        trainer.adam_step(flat, state, t, train_cfg)
        grads = {n: oracle[n].grad for n in oracle.names() if oracle[n].grad is not None}
        per_tensor_adam_step(oracle, grads, oracle_state, t, train_cfg)
        assert flat.flat.tobytes() == oracle.flat.tobytes(), t
    assert flat.flat.dtype == dtype


def test_no_agent_fold_leaves_agent_tensors_at_their_initial_bits():
    sc = synthetic(12, seed=13)
    ids = [r.patient_id for r in sc.cohort.records]
    model_cfg = SMALL_MODEL.with_ablation("no_agent")
    cfg = trainer.TrainConfig(lr=1e-3, max_epochs=2, warmup_epochs=0, folds=2, seed=3)
    res = trainer.train_fold(0, ids[:8], ids[8:], sc.cohort, sc.bags, model_cfg, cfg)
    init = init_params(model_cfg, seed=trainer._fold_seed(cfg.seed, 0))
    agent = [n for n in init.names() if n.startswith("agent.")]
    assert agent
    for name in agent:
        assert res.params[name].data.tobytes() == init[name].data.tobytes(), name
    assert res.params["proj.W"].data.tobytes() != init["proj.W"].data.tobytes()


# -- early stopping ------------------------------------------------------------------


def reference_stop_epoch(trace, warmup=5, patience=30, min_epochs=50, max_epochs=100):
    """Straight transcription of the quoted stopping rule."""
    best = -np.inf
    counter = 0
    for epoch, val in enumerate(trace, start=1):
        if val > best + trainer.IMPROVE_TOL:
            best = val
            counter = 0
        elif epoch > warmup:
            counter += 1
        if epoch <= warmup:
            counter = 0
        if (counter >= patience and epoch > min_epochs) or epoch >= max_epochs:
            return epoch
    return None


def run_state_machine(trace, cfg):
    state = trainer.EarlyStopState()
    for epoch, val in enumerate(trace, start=1):
        state = trainer.early_stop_update(state, epoch, val, cfg)
        if state.stopped:
            return epoch, state
    return None, state


def test_early_stop_improvement_resets_counter():
    cfg = trainer.TrainConfig()
    state = trainer.EarlyStopState(best_cindex=0.6, best_epoch=6, epochs_since_improve=3)
    state = trainer.early_stop_update(state, 10, 0.7, cfg)
    assert state.epochs_since_improve == 0 and state.best_epoch == 10


def test_early_stop_not_before_epoch_50():
    cfg = trainer.TrainConfig()
    # improvement only at epoch 15, then flat: counter hits 30 at epoch 45
    trace = [0.5] * 14 + [0.8] + [0.6] * 85
    stop_epoch, state = run_state_machine(trace, cfg)
    assert stop_epoch == 51  # counter >= 30 from epoch 45 on, but needs epoch > 50
    assert state.best_epoch == 15


def test_early_stop_counter_30_at_60():
    cfg = trainer.TrainConfig()
    trace = [0.5] * 29 + [0.8] + [0.6] * 70  # best at 30, counter 30 at epoch 60
    stop_epoch, state = run_state_machine(trace, cfg)
    assert stop_epoch == 60
    assert state.best_epoch == 30 and state.best_cindex == 0.8


def test_early_stop_cap_at_max_epochs():
    cfg = trainer.TrainConfig()
    trace = list(np.linspace(0.5, 0.9, 100))  # keeps improving: only the cap stops it
    stop_epoch, state = run_state_machine(trace, cfg)
    assert stop_epoch == 100


def test_early_stop_exhaustive_state_machine():
    cfg = trainer.TrainConfig()
    rng = np.random.default_rng(8)
    for trial in range(300):
        kind = trial % 3
        if kind == 0:
            trace = rng.uniform(0.4, 0.9, size=100)
        elif kind == 1:  # plateaus with occasional jumps
            trace = np.repeat(rng.uniform(0.4, 0.9, size=10), 10)
        else:  # early peak then flat
            peak = int(rng.integers(1, 60))
            trace = np.concatenate([rng.uniform(0.4, 0.9, size=peak), np.full(100 - peak, 0.3)])
        got, _ = run_state_machine(list(trace), cfg)
        want = reference_stop_epoch(list(trace))
        assert got == want, (got, want)


# -- training loop ----------------------------------------------------------------------


def test_train_smoke_and_determinism(tmp_path):
    sc = synthetic(20, seed=6)
    cfg = trainer.TrainConfig(lr=1e-3, max_epochs=2, warmup_epochs=1, folds=2, seed=3)
    res1 = trainer.train(sc.cohort, sc.bags, SMALL_MODEL, cfg, out_dir=tmp_path / "a")
    res2 = trainer.train(sc.cohort, sc.bags, SMALL_MODEL, cfg, out_dir=tmp_path / "b")
    assert res1.mean_cindex == res2.mean_cindex
    for f1, f2 in zip(res1.folds, res2.folds):
        assert f1.train_losses == f2.train_losses
        for name in f1.params.names():
            np.testing.assert_array_equal(f1.params[name].data, f2.params[name].data)
    a = (tmp_path / "a" / "fold0.ckpt").read_bytes()
    b = (tmp_path / "b" / "fold0.ckpt").read_bytes()
    assert a == b  # bitwise-identical checkpoints
    report = res1.report()
    assert set(report) == {"folds", "mean", "std", "mean_cindex"}


def test_train_loss_decreases_on_tiny_batch():
    # fixed tiny batch, paper learning rate, dropout silenced so the epoch
    # losses are comparable: mean loss strictly decreases over 10 epochs
    sc = synthetic(12, seed=41, censor=0.0)
    ids = [r.patient_id for r in sc.cohort.records]
    model_cfg = ModelConfig(**{**SMALL_MODEL.__dict__, "dropout": 0.0})
    cfg = trainer.TrainConfig(lr=2e-4, max_epochs=10, warmup_epochs=1, folds=2, seed=11)
    res = trainer.train_fold(0, ids[:8], ids[8:], sc.cohort, sc.bags, model_cfg, cfg)
    losses = res.train_losses
    assert len(losses) == 10
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_train_parallel_folds_match_serial(tmp_path):
    sc = synthetic(16, seed=6)
    cfg = trainer.TrainConfig(lr=1e-3, max_epochs=2, warmup_epochs=1, folds=2, seed=3)
    serial = trainer.train(sc.cohort, sc.bags, SMALL_MODEL, cfg, jobs=1)
    parallel = trainer.train(sc.cohort, sc.bags, SMALL_MODEL, cfg, jobs=2)
    assert serial.mean_cindex == parallel.mean_cindex
    for a, b in zip(serial.folds, parallel.folds):
        assert a.train_losses == b.train_losses
        for name in a.params.names():
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)


def test_train_starts_no_more_workers_than_folds(monkeypatch):
    asked = []
    pool = trainer.ProcessPoolExecutor

    def spy(max_workers=None, **kwargs):
        asked.append(max_workers)
        return pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(trainer, "ProcessPoolExecutor", spy)
    sc = synthetic(16, seed=6)
    cfg = trainer.TrainConfig(lr=1e-3, max_epochs=2, warmup_epochs=1, folds=2, seed=3)
    trainer.train(sc.cohort, sc.bags, SMALL_MODEL, cfg, jobs=4)
    assert asked == [2]


def test_train_missing_bags():
    sc = synthetic(12, seed=2)
    cfg = trainer.TrainConfig(max_epochs=6, folds=2)
    bags = dict(list(sc.bags.items())[:-1])
    with pytest.raises(DataError):
        trainer.train(sc.cohort, bags, SMALL_MODEL, cfg)


def test_predict_risks_in_range():
    sc = synthetic(12, seed=13)
    params = init_params(SMALL_MODEL, seed=0)
    risks = trainer.predict_risks(sc.bags, params)
    assert set(risks) == set(sc.bags)
    assert all(-4 < v < 0 for v in risks.values())


def single_bag_risks(bags, params, ids):
    with autodiff.no_grad():
        return [risk_score(forward(bags[pid], params)[0]) for pid in ids]


@pytest.mark.parametrize("budget, run", [(trainer.EVAL_GROUP_BYTES, {4: 99, 9: 99}), (1300, {4: 4, 9: 2}),
                                         (1, {4: 1, 9: 1})])
def test_predict_risks_scores_groups_with_the_bits_of_single_bags(monkeypatch, budget, run):
    """SMALL_MODEL holds (1 + n') x 8 x 2 float32 scan states per bag: 320
    bytes at n' = 4 and 640 at n' = 9, so 1300 bytes make runs of 4 and 2
    bags; ``run`` is the longest run per n'."""
    sc = synthetic(15, seed=21)
    params = init_params(SMALL_MODEL, seed=2)
    ids = [r.patient_id for r in sc.cohort.records][::-1]
    calls = []

    def spy(bag, params, **kwargs):
        calls.append(len(bag))
        return forward(bag, params, **kwargs)

    monkeypatch.setattr(trainer, "EVAL_GROUP_BYTES", budget)
    monkeypatch.setattr(trainer, "forward", spy)
    risks = trainer.predict_risks(sc.bags, params, ids)
    assert list(risks) == ids
    assert [np.float64(v).tobytes() for v in risks.values()] == [
        np.float64(v).tobytes() for v in single_bag_risks(sc.bags, params, ids)]
    counts = {}
    for pid in ids:
        n_prime = model.padded_grid_size(sc.bags[pid].n_patches)
        counts[n_prime] = counts.get(n_prime, 0) + 1
    assert counts.keys() == {4, 9} and min(counts.values()) > 2
    expected = [min(run[n], count - lo) for n, count in counts.items() for lo in range(0, count, run[n])]
    assert sorted(calls) == sorted(expected)


def test_validation_pass_scores_with_the_bits_of_single_bags():
    sc = synthetic(12, seed=13)
    ids = [r.patient_id for r in sc.cohort.records]
    cfg = trainer.TrainConfig(lr=1e-3, max_epochs=1, warmup_epochs=0, folds=2, seed=3)
    res = trainer.train_fold(0, ids[:8], ids[8:], sc.cohort, sc.bags, SMALL_MODEL, cfg)
    times = np.array([r.time for r in sc.cohort.records[8:]])
    events = np.array([r.event for r in sc.cohort.records[8:]])
    want = concordance_index(np.array(single_bag_risks(sc.bags, res.params, ids[8:])), times, events)
    assert res.val_cindices == [want]


def test_a_non_finite_bag_fails_its_whole_group():
    sc = synthetic(12, seed=13)
    params = init_params(SMALL_MODEL, seed=0)
    pid = next(iter(sc.bags))
    sc.bags[pid].features[:] = 3e38  # finite, but the projection overflows
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        trainer.predict_risks(sc.bags, params)


def test_inference_forwards_record_no_tape(monkeypatch):
    """Validation, predict_risks and heatmap forwards make no tape node;
    training forwards make some. Counts bags, as eval scoring passes
    several bags of one grid size to one forward."""
    nodes = [0]  # tensors made with parents
    init = autodiff.Tensor.__init__

    def counting_init(self, data, parents=(), backward=None):
        init(self, data, parents, backward)
        nodes[0] += bool(parents)

    seen = []

    def spy(real):
        def forward(bag, params, *args, mode="eval", **kwargs):
            before = nodes[0]
            out = real(bag, params, *args, mode=mode, **kwargs)
            n_bags = 1 if isinstance(bag, FeatureBag) else len(bag)
            seen.extend([(mode, nodes[0] - before > 0)] * n_bags)
            return out
        return forward

    monkeypatch.setattr(autodiff.Tensor, "__init__", counting_init)
    monkeypatch.setattr(trainer, "forward", spy(trainer.forward))
    monkeypatch.setattr(explain, "forward", spy(explain.forward))
    sc = synthetic(12, seed=13)
    ids = [r.patient_id for r in sc.cohort.records]
    cfg = trainer.TrainConfig(lr=1e-3, max_epochs=1, warmup_epochs=0, folds=2, seed=3)
    res = trainer.train_fold(0, ids[:8], ids[8:], sc.cohort, sc.bags, SMALL_MODEL, cfg)
    trainer.predict_risks(sc.bags, res.params, ids[:3])
    explain.attention_heatmap(sc.bags[ids[0]], res.params)
    assert sorted(set(seen)) == [("eval", False), ("train", True)]
    assert seen.count(("eval", False)) == 4 + 3 + 1
