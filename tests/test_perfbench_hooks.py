"""The benchmark's tracer (perfbench/layers.py) rebinds program names by
attribute lookup. A renamed or deleted hook target, or a changed call shape,
must fail here rather than only in a ``--trace 1`` benchmark run."""

from pathlib import Path

import numpy as np

from tdam import autodiff, bags, model, netlink, survival, survstats, trainer
from tdam.bags import FeatureBag, grid_coords

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (autodiff.Tensor, bags, model, netlink, survival, survstats, trainer)
TINY = model.ModelConfig(d_in=6, d_model=8, n_heads=2, n_agents=2, n_landmarks=4,
                         srmamba_layers=1, srmamba_rate=2, ssm_state_dim=2, agent_bias_side=3)


def eval_and_train_step(n=5):
    params = model.init_params(TINY, seed=1, dtype=np.float64)
    bag = FeatureBag("b", np.random.default_rng(1).standard_normal((n, 6)), grid_coords(n))
    model.forward(bag, params, mode="eval", seed=0)
    _, trace = model.forward(bag, params, mode="train", seed=1)
    survival.nll_graph(trace.tensors["logits"], 1, 0).backward()


def test_trace_hooks_install_run_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    before = [dict(vars(owner)) for owner in OWNERS]
    t = Tracer()
    try:
        layers.install(t)
        rebound = {
            (owner.__name__, name)
            for owner, snap in zip(OWNERS, before)
            for name, value in vars(owner).items()
            if snap.get(name) is not value
        }
        for attr, _ in layers.STAGES:
            assert ("tdam.model", attr) in rebound
        for name in ("forward", "train", "predict_risks", "adam_step", "nll_graph", "concordance_index"):
            assert ("tdam.trainer", name) in rebound
        assert {("tdam.model", "linear_recurrence"), ("tdam.model", "dwconv2d"),
                ("tdam.model", "forward"), ("Tensor", "backward")} <= rebound

        eval_and_train_step()
    finally:
        t.restore()

    for owner, snap in zip(OWNERS, before):
        now = dict(vars(owner))
        assert now.keys() == snap.keys()
        assert all(now[name] is snap[name] for name in snap), owner.__name__
    spans = t.self_times()
    for mode in layers.MODES:
        for _, stage in layers.STAGES:
            assert f"model.{stage}.{mode}" in spans
    assert {"autodiff.linear_recurrence", "autodiff.dwconv2d", "autodiff.backward"} <= spans.keys()
    assert t.counts["forwards.eval"] == 1 and t.counts["forwards.train"] == 1
    assert t.counts["nodes.eval"] == 0 and t.counts["nodes.train"] > 0


def test_traced_backward_recomputes_the_attention_cores(monkeypatch):
    """The fused attention cores recompute in backward, outside any forward:
    on a bag of 256 tokens and more they must call no stage whose span is
    named after the forward's mode."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    t = Tracer()
    try:
        layers.install(t)
        eval_and_train_step(n=300)
    finally:
        t.restore()
    spans = t.self_times()
    for mode in layers.MODES:
        for _, stage in layers.STAGES:
            assert f"model.{stage}.{mode}" in spans
    assert {"autodiff.dwconv2d", "autodiff.backward"} <= spans.keys()
    assert t.counts["nodes.eval"] == 0 and t.counts["nodes.train"] > 0


def test_traced_grouped_scoring_runs_every_stage_in_eval_and_records_no_tape(monkeypatch):
    """Grouped eval scoring enters the model through ``forward``, whose
    wrapper pushes the mode that every stage span is named after."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    sc = bags.synth_cohort(12, (2, 9), d=TINY.d_in, censor_rate=0.3, seed=5)
    ids = [r.patient_id for r in sc.cohort.records]
    assert len({model.padded_grid_size(b.n_patches) for b in sc.bags.values()}) >= 2
    cfg = trainer.TrainConfig(lr=1e-3, max_epochs=1, warmup_epochs=0, folds=2, seed=3)
    t = Tracer()
    try:
        layers.install(t)
        res = trainer.train_fold(0, ids[:8], ids[8:], sc.cohort, sc.bags, TINY, cfg)
        risks = trainer.predict_risks(sc.bags, res.params)
    finally:
        t.restore()
    assert len(risks) == len(sc.bags) and np.isfinite(list(risks.values())).all()
    spans = t.self_times()
    for _, stage in layers.STAGES:
        assert f"model.{stage}.eval" in spans
    assert {"trainer.val_forward", "trainer.predict_forward"} <= spans.keys()
    assert t.counts["nodes.eval"] == 0 and t.counts["nodes.train"] > 0
