"""Where the traced run draws its layer boundaries, and the per-layer metrics.

:func:`install` rebinds each public name where its caller looks it up, so no
file of the program changes: the stages of ``model.forward`` are looked up in
``tdam.model``, the trainer's calls in ``tdam.trainer``, ``build_network``'s
in ``tdam.netlink``. Span names are ``<layer>.<what>``; model stages carry
the mode (``eval``/``train``) of the forward pass around them. The code of
``forward`` outside its stages is charged to the forward span, which is
named after its caller: ``trainer.train_forward``/``val_forward``/
``predict_forward`` under the trainer, ``model.forward.<mode>`` when the
benchmark calls it directly.
"""

from __future__ import annotations

import os

from tdam import autodiff, bags, model, netlink, survival, survstats, trainer

STAGES = (
    ("project_input", "project"),
    ("nystrom_attention_layer", "nystrom"),
    ("ppeg_encode", "ppeg"),
    ("agent_attention", "agent"),
    ("selective_scan", "scan"),
    ("attention_pool", "pool"),
    ("layer_norm", "layer_norm"),
)
MODES = ("eval", "train")

# Self time in seconds per traced round, by span name.
SPAN_METRICS = {
    "autodiff.backward_s": "autodiff.backward",
    "autodiff.linear_recurrence_s": "autodiff.linear_recurrence",
    "autodiff.dwconv2d_s": "autodiff.dwconv2d",
    **{f"model.{stage}_s.{mode}": f"model.{stage}.{mode}" for _, stage in STAGES for mode in MODES},
    **{f"model.forward_s.{mode}": f"model.forward.{mode}" for mode in MODES},
    "trainer.train_forward_s": "trainer.train_forward",
    "trainer.val_forward_s": "trainer.val_forward",
    "trainer.predict_forward_s": "trainer.predict_forward",
    "trainer.adam_s": "trainer.adam",
    "trainer.loop_s": "trainer.loop",
    "trainer.predict_s": "trainer.predict",
    "survival.nll_s": "survival.nll",
    "survival.cindex_s": "survival.cindex",
    "bags.load_s": "bags.load",
    "survstats.km_s": "survstats.km",
    "survstats.logrank_s": "survstats.logrank",
    "survstats.cox_s": "survstats.cox",
    "survstats.timeroc_s": "survstats.timeroc",
    "survstats.rmst_s": "survstats.rmst",
    "survstats.calib_s": "survstats.calib",
    "survstats.dca_s": "survstats.dca",
    "survstats.boot_s": "survstats.boot",
    "netlink.spearman_s": "netlink.spearman",
    "netlink.enet_s": "netlink.enet",
    "netlink.gene_cox_s": "netlink.gene_cox",
    "netlink.centrality_s": "netlink.centrality",
    "netlink.assemble_s": "netlink.assemble",
}
# Counts per traced round, by counter name.
COUNT_METRICS = {
    "bags.bytes_read": "bags.bytes",
    "survstats.km_calls": "survstats.km_calls",
    "survstats.cox_iterations": "survstats.cox_iterations",
    "survstats.boot_redraws": "survstats.boot_redrawn",
    "survstats.boot_attempts": "survstats.boot_attempts",
}


def _mode(args, kwargs) -> str:
    """The ``mode`` argument of ``model.forward(bag, params, config, mode, ...)``."""
    return kwargs.get("mode", args[3] if len(args) > 3 else "eval")


def _count(key: str, amount=lambda args, kwargs, result: 1):
    def on_return(tracer, args, kwargs, result):
        tracer.counts[key] += amount(args, kwargs, result)
    return on_return


def _file_bytes(path) -> int:
    sidecar = f"{path}.json"
    return os.path.getsize(path) + (os.path.getsize(sidecar) if os.path.exists(sidecar) else 0)


def install(t) -> None:
    """Rebind every traced name on tracer ``t``; ``t.restore()`` undoes it."""
    t.wrap(autodiff.Tensor, "backward", "autodiff.backward")
    t.wrap(model, "linear_recurrence", "autodiff.linear_recurrence")
    t.wrap(model, "dwconv2d", "autodiff.dwconv2d")

    def count_node(tracer, args, kwargs):
        parents = args[2] if len(args) > 2 else kwargs.get("parents", ())
        if parents and tracer.context:
            tracer.counts[f"nodes.{tracer.context[-1]}"] += 1

    t.wrap_plain(autodiff.Tensor, "__init__", count_node)

    for attr, stage in STAGES:
        t.wrap(model, attr, lambda tr, a, k, stage=stage: f"model.{stage}.{tr.context[-1]}")

    def count_forward(tracer, args, kwargs, result):
        tracer.counts[f"forwards.{_mode(args, kwargs)}"] += 1

    t.wrap(model, "forward", lambda tr, a, k: f"model.forward.{_mode(a, k)}",
           on_return=count_forward, scope=_mode)

    def trainer_forward(tr, a, k):
        if _mode(a, k) == "train":
            return "trainer.train_forward"
        return "trainer.predict_forward" if tr.inside("trainer.predict") else "trainer.val_forward"

    t.wrap(trainer, "forward", trainer_forward, on_return=count_forward, scope=_mode)
    t.wrap(trainer, "train", "trainer.loop")
    t.wrap(trainer, "predict_risks", "trainer.predict")
    t.wrap(trainer, "adam_step", "trainer.adam")
    # the loss is part of a training step, so its tape nodes count as "train"
    for owner in (trainer, survival):
        t.wrap(owner, "nll_graph", "survival.nll", scope=lambda a, k: "train")
    t.wrap(trainer, "concordance_index", "survival.cindex")

    t.wrap(bags, "load_bag", "bags.load",
           on_return=_count("bags.bytes", lambda a, k, r: _file_bytes(a[0] if a else k["path"])))

    t.wrap(survstats, "km_fit", "survstats.km", on_return=_count("survstats.km_calls"))
    t.wrap(survstats, "logrank_test", "survstats.logrank")
    t.wrap(survstats, "coxph_fit", "survstats.cox",
           on_return=_count("survstats.cox_iterations", lambda a, k, r: r.n_iter))
    t.wrap(survstats, "timeroc_auc", "survstats.timeroc")
    t.wrap(survstats, "rmst", "survstats.rmst")
    t.wrap(survstats, "rmst_compare", "survstats.rmst")
    t.wrap(survstats, "calibration_curve", "survstats.calib")
    t.wrap(survstats, "dca_curve", "survstats.dca")

    def count_boot(tracer, args, kwargs, result):
        tracer.counts["survstats.boot_redrawn"] += result.n_redrawn
        tracer.counts["survstats.boot_attempts"] += result.n_boot + result.n_redrawn

    t.wrap(survstats, "bootstrap_auc_compare", "survstats.boot", on_return=count_boot)

    t.wrap(netlink, "build_network", "netlink.assemble")
    t.wrap(netlink, "spearman_matrix", "netlink.spearman")
    t.wrap(netlink, "elastic_net_fit", "netlink.enet")
    t.wrap(netlink, "coxph_fit", "netlink.gene_cox")
    t.wrap(netlink, "eigenvector_centrality", "netlink.centrality")


def metrics(t, rounds: int, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics per traced round, in the order BENCHMARK.json lists them."""
    self_s = t.self_times()
    c = t.counts
    out = {m: self_s.get(span, 0.0) / rounds for m, span in SPAN_METRICS.items()}
    out.update({m: c.get(key, 0.0) / rounds for m, key in COUNT_METRICS.items()})
    out["autodiff.tape_nodes_per_step"] = _ratio(c.get("nodes.train", 0), c.get("forwards.train", 0))
    out["autodiff.tape_nodes_per_eval_bag"] = _ratio(c.get("nodes.eval", 0), c.get("forwards.eval", 0))
    load_s = self_s.get("bags.load", 0.0)
    out["bags.load_mb_per_s"] = _ratio(c.get("bags.bytes", 0) / 1e6, load_s)
    attempts = c.get("survstats.boot_attempts", 0)
    out["survstats.boot_redraw_ratio"] = _ratio(c.get("survstats.boot_redrawn", 0), attempts)
    out["trace_overhead_pct"] = overhead_pct
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


UNITS = {
    **{m: "s" for m in SPAN_METRICS},
    "bags.bytes_read": "bytes",
    "survstats.km_calls": "count",
    "survstats.cox_iterations": "count",
    "survstats.boot_redraws": "count",
    "survstats.boot_attempts": "count",
    "autodiff.tape_nodes_per_step": "count",
    "autodiff.tape_nodes_per_eval_bag": "count",
    "bags.load_mb_per_s": "MB/s",
    "survstats.boot_redraw_ratio": "ratio",
    "trace_overhead_pct": "%",
}
