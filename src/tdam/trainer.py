"""Cross-validated training: Adam on the per-bag survival loss, stratified
5-fold splits, and C-index early stopping with a warm-up and a hard cap."""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .bags import Cohort, FeatureBag
from .errors import ConvergenceError, DataError, GradError, NonFiniteError, UndefinedError
from .model import (ModelConfig, ModelParams, dataclass_from_dict, forward, init_params, padded_grid_size,
                    save_checkpoint)
from .rng import substream
from .survival import assign_bin, compute_bin_edges, concordance_index, nll_graph, risk_score

log = logging.getLogger(__name__)

IMPROVE_TOL = 1e-6  # float-noise guard on "strictly better" validation C-index

# Bytes of scan state, (1 + n') x d_model x ssm_state_dim per bag, that one
# grouped eval forward may hold: about 25 acceptance-scale bags (d_model 24)
# per forward, while a paper-width bag (d_model 256, 16 states) of more than
# 4 patches is scored alone. At acceptance scale the time per bag is flat
# from 2**18 to 2**20 bytes, and a forward's transient memory grows with it
# (the scan's four work buffers and the pseudo-inverse's iterates).
EVAL_GROUP_BYTES = 1 << 18


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_epochs: int = 100
    warmup_epochs: int = 5
    patience: int = 30
    min_epochs_for_stop: int = 50
    folds: int = 5
    seed: int = 0

    def validate(self) -> None:
        for name, low in (("patience", 1), ("folds", 2), ("seed", 0)):
            if getattr(self, name) < low:
                raise DataError(f"{name} must be >= {low}")
        if not (0 <= self.warmup_epochs < self.max_epochs):
            raise DataError("need 0 <= warmup_epochs < max_epochs")
        if self.lr <= 0:
            raise DataError("lr must be positive")
        # Adam's bias correction divides by 1 - beta**t, and its step by sqrt(v) + eps
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise DataError(f"{name} must be in [0, 1)")
        if self.eps <= 0:
            raise DataError("eps must be positive")


def train_config_from_dict(d: dict) -> TrainConfig:
    return dataclass_from_dict(TrainConfig, d, "train")


# -- folds ----------------------------------------------------------------------


def kfold_split(cohort: Cohort, k: int = 5, seed: int = 0) -> list[list[str]]:
    """Disjoint folds stratified by event indicator, sizes differing by <= 1.

    Both strata are shuffled and dealt round-robin; the censored stratum
    continues the deal where the event stratum stopped, which keeps the
    per-fold event counts within one of proportional and the totals balanced.
    """
    n = len(cohort)
    if n < k:
        raise DataError(f"cannot split {n} patients into {k} folds")
    rng = substream(seed, "folds")
    events = [r.patient_id for r in cohort.records if r.event == 1]
    censored = [r.patient_id for r in cohort.records if r.event == 0]
    dealt = [events[i] for i in rng.permutation(len(events))]
    dealt += [censored[i] for i in rng.permutation(len(censored))]
    folds: list[list[str]] = [[] for _ in range(k)]
    for i, pid in enumerate(dealt):
        folds[i % k].append(pid)
    return folds


# -- Adam -----------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam's moments, laid out like ``ModelParams.flat``; None before the first step."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(params: ModelParams, state: AdamState, t: int, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update of ``params.flat`` from the tensors' ``.grad``.

    A tensor the loss does not reach (``.grad`` is None) gets zeros. The
    ablation fixes which tensors those are, as ``forward`` takes the same
    stages for every bag, so their moments stay 0 and ``theta - 0.0`` keeps
    their bits, as skipping them would."""
    if t < 1:
        raise ValueError("Adam step counter starts at 1")
    tensors = params.tensors.items()
    g = np.concatenate([np.zeros(p.data.size, p.data.dtype) if p.grad is None else p.grad.ravel() for _, p in tensors])
    if not np.isfinite(g).all():
        name = next(n for n, p in tensors if p.grad is not None and not np.isfinite(p.grad).all())
        raise GradError(f"non-finite gradient for {name}")
    if state.m is None:
        state.m, state.v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    m, v, theta = state.m, state.v, params.flat
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * g * g
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    theta -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


# -- early stopping ---------------------------------------------------------------


@dataclass(frozen=True)
class EarlyStopState:
    best_cindex: float = -np.inf
    best_epoch: int = 0
    epochs_since_improve: int = 0
    stopped: bool = False


def early_stop_update(state: EarlyStopState, epoch: int, val_cindex: float, cfg: TrainConfig) -> EarlyStopState:
    """Apply the stopping rule for one epoch's validation C-index.

    Improvements (strict, with a float-noise guard) reset the counter; epochs
    inside the warm-up never count toward patience; stopping requires both a
    full patience window and more than ``min_epochs_for_stop`` total epochs;
    the final epoch is always terminal.
    """
    improved = val_cindex > state.best_cindex + IMPROVE_TOL
    best = val_cindex if improved else state.best_cindex
    best_epoch = epoch if improved else state.best_epoch
    if epoch <= cfg.warmup_epochs:
        counter = 0
    elif improved:
        counter = 0
    else:
        counter = state.epochs_since_improve + 1
    stopped = (counter >= cfg.patience and epoch > cfg.min_epochs_for_stop) or epoch >= cfg.max_epochs
    return EarlyStopState(best, best_epoch, counter, stopped)


# -- training ---------------------------------------------------------------------


@dataclass
class FoldResult:
    fold: int
    best_epoch: int
    best_cindex: float
    epochs_run: int
    train_losses: list[float]
    val_cindices: list[float]
    val_ids: list[str]
    params: ModelParams


@dataclass
class TrainResult:
    folds: list[FoldResult]
    mean_cindex: float
    std_cindex: float

    def formatted(self) -> str:
        return f"{self.mean_cindex:.3f} ± {self.std_cindex:.3f}"

    def report(self) -> dict:
        return {
            "folds": {
                str(f.fold): {"best_epoch": f.best_epoch, "best_cindex": f.best_cindex}
                for f in self.folds
            },
            "mean": self.mean_cindex,
            "std": self.std_cindex,
            "mean_cindex": self.formatted(),
        }


def _fold_seed(seed: int, fold: int) -> int:
    return (int(seed) * 1000003 + fold + 1) % (2**63)


def train_fold(
    fold: int,
    train_ids: list[str],
    val_ids: list[str],
    cohort: Cohort,
    bags: dict[str, FeatureBag],
    model_cfg: ModelConfig,
    cfg: TrainConfig,
) -> FoldResult:
    by_id = {r.patient_id: r for r in cohort.records}
    train_cohort = Cohort(records=[by_id[p] for p in train_ids])
    edges = compute_bin_edges(train_cohort)
    bins = {p: assign_bin(by_id[p].time, edges) for p in train_ids}
    val_times = np.array([by_id[p].time for p in val_ids])
    val_events = np.array([by_id[p].event for p in val_ids])

    params = init_params(model_cfg, seed=_fold_seed(cfg.seed, fold))
    adam = AdamState()
    stop = EarlyStopState()
    best_params = params.copy()
    step = 0
    train_losses: list[float] = []
    val_curve: list[float] = []
    try:
        # a diverging run overflows; it is reported below, not warned about step by step
        with np.errstate(all="ignore"):
            for epoch in range(1, cfg.max_epochs + 1):
                rng = substream(cfg.seed, "shuffle", fold, epoch)
                order = [train_ids[i] for i in rng.permutation(len(train_ids))]
                drop_rng = substream(cfg.seed, "dropout", fold, epoch)
                drop_seeds = drop_rng.integers(0, 2**62, size=len(order))
                epoch_loss = 0.0
                for pid, drop_seed in zip(order, drop_seeds):
                    step += 1
                    record = by_id[pid]
                    params.clear_grads()
                    _, trace = forward(bags[pid], params, mode="train", seed=int(drop_seed))
                    loss = nll_graph(trace.tensors["logits"], bins[pid], 1 - record.event)
                    loss.backward()
                    adam_step(params, adam, step, cfg)
                    epoch_loss += float(loss.data)
                train_losses.append(epoch_loss / len(order))

                risks = _score([bags[p] for p in val_ids], params)
                try:
                    val_c = concordance_index(risks, val_times, val_events)
                except UndefinedError:
                    log.warning("fold %d epoch %d: no comparable validation pairs", fold, epoch)
                    val_c = 0.5
                val_curve.append(val_c)
                stop = early_stop_update(stop, epoch, val_c, cfg)
                if stop.best_epoch == epoch:
                    best_params = params.copy()
                if stop.stopped:
                    break
    except (NonFiniteError, GradError) as exc:
        raise ConvergenceError(f"training diverged in fold {fold}, epoch {epoch}, step {step}: {exc}") from exc
    return FoldResult(
        fold=fold,
        best_epoch=stop.best_epoch,
        best_cindex=stop.best_cindex,
        epochs_run=len(train_losses),
        train_losses=train_losses,
        val_cindices=val_curve,
        val_ids=list(val_ids),
        params=best_params,
    )


def _train_fold_packed(args) -> FoldResult:
    return train_fold(*args)


def train(
    cohort: Cohort,
    bags: dict[str, FeatureBag],
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    out_dir=None,
    jobs: int = 1,
) -> TrainResult:
    """K-fold cross-validated training; returns per-fold best checkpoints.

    Fold RNG streams are disjoint, so results are identical whether folds run
    serially or in parallel worker processes.
    """
    model_cfg.validate()
    cfg.validate()
    cohort.validate()
    missing = [r.patient_id for r in cohort.records if r.patient_id not in bags]
    if missing:
        raise DataError(f"{len(missing)} patients lack bags (first: {missing[0]})")
    folds = kfold_split(cohort, cfg.folds, cfg.seed)
    all_ids = [r.patient_id for r in cohort.records]
    tasks = []
    for f, val_ids in enumerate(folds):
        held_out = set(val_ids)
        train_ids = [p for p in all_ids if p not in held_out]
        tasks.append((f, train_ids, val_ids, cohort, bags, model_cfg, cfg))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_train_fold_packed, tasks))
    else:
        results = [_train_fold_packed(t) for t in tasks]
    scores = np.array([r.best_cindex for r in results])
    out = TrainResult(
        folds=results,
        mean_cindex=float(scores.mean()),
        std_cindex=float(scores.std(ddof=1)),
    )
    if out_dir is not None:
        from pathlib import Path

        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for r in results:
            save_checkpoint(out_dir / f"fold{r.fold}.ckpt", r.params, seed=cfg.seed)
    return out


def _score(bag_list: list[FeatureBag], params: ModelParams) -> np.ndarray:
    """Eval-mode risk of each bag, in order, under no_grad().

    Bags are grouped by padded grid size n' and each group is cut into runs
    whose scan state fits EVAL_GROUP_BYTES; each run is one ``forward`` on
    the list of its bags. Every risk keeps the bits of its bag's own
    forward (see :func:`tdam.model.forward`)."""
    cfg = params.config
    groups: dict[int, list[int]] = {}
    for i, bag in enumerate(bag_list):
        groups.setdefault(padded_grid_size(bag.n_patches), []).append(i)
    risks = np.empty(len(bag_list))
    with no_grad():
        for n_prime, idx in groups.items():
            bag_bytes = (1 + n_prime) * cfg.d_model * cfg.ssm_state_dim * params.flat.itemsize
            size = max(1, EVAL_GROUP_BYTES // bag_bytes)
            for lo in range(0, len(idx), size):
                run = idx[lo:lo + size]
                logits, _ = forward([bag_list[i] for i in run], params)
                for i, row in zip(run, logits):
                    risks[i] = risk_score(row)
    return risks


def predict_risks(
    bags: dict[str, FeatureBag],
    params: ModelParams,
    ids: list[str] | None = None,
) -> dict[str, float]:
    """Eval-mode risk score per patient, in ``ids`` order, computed without a
    backward graph. Bags of one padded grid size are scored together, a run
    of them per ``forward`` call, with the bits each bag gets alone."""
    ids = list(bags) if ids is None else ids
    return dict(zip(ids, _score([bags[pid] for pid in ids], params).tolist()))
