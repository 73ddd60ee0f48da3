"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
the ``setup_s`` metric times) and then runs rounds: one round is one pass
over the workload's operations, the way a single user with one process
(``--jobs 1``) would issue them, each call waiting for the previous one.
Every round times two kinds of work, ``fit`` and ``eval``, and checks the
program's outputs; a failed check or an exception counts its operations as
failed. The checks hold for any correct implementation, so a faster
algorithm still passes them.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from scipy import optimize

import oracles
from tdam import bags, model, netlink, survival, survstats, trainer
from tdam.rng import substream

perf = time.perf_counter


class Round:
    """What one round measured: seconds and work units per kind, and outcomes."""

    def __init__(self):
        self.seconds = {"fit": 0.0, "eval": 0.0}
        self.units = {"fit": 0.0, "eval": 0.0}
        self.wall = 0.0  # time spent inside timed program calls
        self.attempted = 0
        self.failed = 0

    def add(self, kind: str, seconds: float, units: float) -> None:
        self.seconds[kind] += seconds
        self.units[kind] += units
        self.wall += seconds


def _report_failure(what: str) -> None:
    traceback.print_exc()
    print(f"perfbench: {what} failed", file=sys.stderr)


class Workload:
    """Shared plumbing: operation ids for the tracer and untraced checks."""

    name = ""
    tracer = None  # set by the runner for traced rounds

    def begin_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op += 1

    def warm_up(self) -> None:
        """Untimed work before the first round; nothing unless a workload needs it."""

    def checking(self):
        """The benchmark's own checks call the program without being traced."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()


# -- cv_train ------------------------------------------------------------------


class CvTrain(Workload):
    """Cross-validated training at acceptance scale, then scoring bags.

    fit: ms per Adam step over the wall time of ``trainer.train`` (per-epoch
    validation included). eval: ms per bag over ``predict_risks``, which
    scores the training cohort and an external cohort of TEST_PATIENTS with
    each fold's model. Scoring only the 80 training bags once takes about
    0.3 s, too short a window to read steadily on a shared machine.
    """

    name = "cv_train"
    N_PATIENTS = 80
    TEST_PATIENTS = 160
    FOLDS = 2
    EPOCHS = 4  # below min_epochs_for_stop, so early stopping cannot end a fold sooner
    MIN_CINDEX = 0.6
    MODEL = model.ModelConfig(
        d_in=16, d_model=24, n_heads=4, n_agents=4, n_landmarks=9,
        srmamba_layers=1, srmamba_rate=5, ssm_state_dim=6, dropout=0.25, agent_bias_side=4,
    )

    def __init__(self, seed: int, workdir: Path):
        self.root = workdir
        self.cohort = self._write_cohort(self.N_PATIENTS, seed, "train")
        test_seed = int(substream(seed, "perfbench-test-cohort").integers(2**62))
        self.test_cohort = self._write_cohort(self.TEST_PATIENTS, test_seed, "test")
        self.train_cfg = trainer.TrainConfig(
            lr=1e-3, max_epochs=self.EPOCHS, warmup_epochs=1, folds=self.FOLDS, seed=seed
        )
        self.expected_steps = self.EPOCHS * (self.FOLDS - 1) * self.N_PATIENTS
        self.expected_scores = self.FOLDS * (self.N_PATIENTS + self.TEST_PATIENTS)

    def _write_cohort(self, n: int, seed: int, prefix: str) -> bags.Cohort:
        sc = bags.synth_cohort(n, (9, 16), d=16, censor_rate=0.25, seed=seed)
        paths = {}
        for pid, bag in sc.bags.items():
            paths[pid] = f"{prefix}_{pid}.bag"
            bags.save_bag(bag, self.root / paths[pid])
        return bags.Cohort(records=sc.cohort.records, bag_paths=paths)

    def run_round(self, r: Round) -> None:
        self.begin_op()
        t0 = perf()
        loaded = bags.load_bags(self.cohort, self.root)
        test = bags.load_bags(self.test_cohort, self.root)
        r.wall += perf() - t0

        self.begin_op()
        r.attempted += self.expected_steps
        try:
            t0 = perf()
            result = trainer.train(self.cohort, loaded, self.MODEL, self.train_cfg)
            dt = perf() - t0
        except Exception:
            _report_failure("cv_train: trainer.train")
            r.failed += self.expected_steps + self.expected_scores
            r.attempted += self.expected_scores
            return
        steps = sum(f.epochs_run * (self.N_PATIENTS - len(f.val_ids)) for f in result.folds)
        r.add("fit", dt, steps)
        losses = np.concatenate([f.train_losses for f in result.folds])
        if steps != self.expected_steps or not np.isfinite(losses).all() or not (
            result.mean_cindex >= self.MIN_CINDEX
        ):
            print(f"perfbench: cv_train check failed: {steps} steps, mean C "
                  f"{result.mean_cindex:.3f}, finite losses {np.isfinite(losses).all()}",
                  file=sys.stderr)
            r.failed += self.expected_steps

        for fold in result.folds:
            for cohort_bags in (loaded, test):
                self.begin_op()
                r.attempted += len(cohort_bags)
                try:
                    t0 = perf()
                    risks = trainer.predict_risks(cohort_bags, fold.params)
                    dt = perf() - t0
                except Exception:
                    _report_failure("cv_train: predict_risks")
                    r.failed += len(cohort_bags)
                    continue
                r.add("eval", dt, len(risks))
                values = np.array(list(risks.values()))
                r.failed += int(len(cohort_bags) - np.isfinite(values).sum())


# -- wsi_bag ---------------------------------------------------------------------


class WsiBag(Workload):
    """Whole-slide bags at the paper's default width, read from bag files.

    eval: ms per 1000 patches of load_bag + eval forward over the eval set.
    fit: ms per 1000 patches of load_bag + train forward + loss + backward.
    49 < 64 landmarks takes the exact-attention path; 1000 is not a square,
    so it takes the cycle-pad. Forward+backward stops at 2048 patches
    because the tape's memory grows steeply with the bag.
    """

    name = "wsi_bag"
    EVAL_SIZES = (49, 1000, 2048, 4096)
    TRAIN_SIZES = (256, 1000, 2048)
    # Later rounds compare every bag's logits with the first round's; the
    # first round scores the bags up to this size twice, which covers both
    # attention paths without doubling the round.
    RESCORE_MAX = 1000

    def __init__(self, seed: int, workdir: Path):
        cfg = model.ModelConfig()
        self.params = model.init_params(cfg, seed=seed)
        rng = substream(seed, "perfbench-wsi")
        self.eval_set = []
        self.train_set = []
        for kind, sizes in (("eval", self.EVAL_SIZES), ("train", self.TRAIN_SIZES)):
            for n in sizes:
                path = workdir / f"{kind}_{n}.bag"
                features = rng.standard_normal((n, cfg.d_in), dtype=np.float32)
                bags.save_bag(
                    bags.FeatureBag(slide_id=f"{kind}_{n}", features=features,
                                    coords=bags.grid_coords(n)),
                    path,
                )
                if kind == "eval":
                    self.eval_set.append((path, n))
                else:
                    label = (int(rng.integers(0, survival.N_BINS)), int(rng.integers(0, 2)),
                             int(rng.integers(0, 2**31)))
                    self.train_set.append((path, n) + label)
        self.reference: dict[str, np.ndarray] = {}

    def warm_up(self) -> None:
        """Score the largest bags once, untimed.

        The first large tape in a process is built on freshly mapped pages;
        later ones reuse the allocator's memory. Without this, the first
        round's eval read 40-85% slower than the second on a 2-vCPU VM.
        """
        self._eval(self.eval_set[-1][0])
        path, _, bin_index, censored, drop_seed = self.train_set[-1]
        self._fwdbwd(path, bin_index, censored, drop_seed)
        self.params.clear_grads()

    def _fwdbwd(self, path: Path, bin_index: int, censored: int, drop_seed: int):
        bag = bags.load_bag(path)
        self.params.clear_grads()
        logits, trace = model.forward(bag, self.params, mode="train", seed=drop_seed)
        loss = survival.nll_graph(trace.tensors["logits"], bin_index, censored)
        loss.backward()
        return logits, float(loss.data)

    def _eval(self, path: Path) -> np.ndarray:
        bag = bags.load_bag(path)
        logits, _ = model.forward(bag, self.params, mode="eval")
        return logits

    def run_round(self, r: Round) -> None:
        for path, n in self.eval_set:
            self.begin_op()
            r.attempted += 1
            try:
                t0 = perf()
                logits = self._eval(path)
                dt = perf() - t0
            except Exception:
                _report_failure(f"wsi_bag: eval forward on {n} patches")
                r.failed += 1
                continue
            r.add("eval", dt, n / 1000.0)
            if path.name not in self.reference:
                self.reference[path.name] = logits
                if n <= self.RESCORE_MAX:
                    with self.checking():
                        logits = self._eval(path)
            if not (np.isfinite(logits).all() and np.array_equal(logits, self.reference[path.name])):
                print(f"perfbench: wsi_bag eval logits on {n} patches are not finite "
                      "or not bit-identical across scorings", file=sys.stderr)
                r.failed += 1

        for path, n, bin_index, censored, drop_seed in self.train_set:
            self.begin_op()
            r.attempted += 1
            try:
                t0 = perf()
                logits, value = self._fwdbwd(path, bin_index, censored, drop_seed)
                dt = perf() - t0
            except Exception:
                _report_failure(f"wsi_bag: forward+backward on {n} patches")
                r.failed += 1
                continue
            r.add("fit", dt, n / 1000.0)
            grads_finite = all(
                t.grad is not None and np.isfinite(t.grad).all()
                for t in self.params.tensors.values()
            )
            if not (np.isfinite(logits).all() and math.isfinite(value) and grads_finite):
                print(f"perfbench: wsi_bag forward+backward on {n} patches gave a non-finite "
                      "logit, loss or gradient", file=sys.stderr)
                r.failed += 1
        self.params.clear_grads()


# -- survival_stats ------------------------------------------------------------------


def _stats_cohort(seed: int, n: int):
    """Risk plus two covariates; exponential times in whole days, 25% censored."""
    rng = substream(seed, "perfbench-stats")
    risk = rng.standard_normal(n)
    age = rng.normal(62.0, 9.0, n)
    stage = rng.integers(1, 5, n).astype(np.float64)
    hazard = np.exp(0.8 * risk + 0.03 * (age - 62.0) + 0.25 * (stage - 2.5)) / 2200.0
    rate_c = optimize.brentq(lambda c: np.mean(c / (c + hazard)) - 0.25, 1e-12, 1e3)
    t_event = rng.exponential(1.0 / hazard)
    t_cens = rng.exponential(1.0 / rate_c, n)
    times = np.maximum(1.0, np.round(np.minimum(t_event, t_cens)))
    events = (t_event <= t_cens).astype(np.int64)
    return risk, np.column_stack([risk, age, stage]), times, events


def _hub_data(rng: np.random.Generator):
    """Planted-hub network input at acceptance-test scale: Gene_0 tracks the
    latent factor that drives the risk score and eight of 25 features."""
    n = 120
    u = rng.standard_normal(n)
    features = rng.standard_normal((n, 25))
    for j in range(8):
        features[:, j] = 0.8 * u + 0.6 * rng.standard_normal(n)
    risk = u + 0.3 * rng.standard_normal(n)
    genes = rng.standard_normal((n, 10))
    genes[:, 0] = 0.9 * u + 0.45 * rng.standard_normal(n)
    times = rng.exponential(1.0 / (0.05 * np.exp(0.8 * risk))) + 1e-9
    events = (rng.random(n) < 0.85).astype(np.int64)
    return features, risk, genes, times, events


class SurvivalStats(Workload):
    """The statistics report on a scored 10,000-patient cohort, and the
    gene network.

    eval: ms per full statistics report. fit: ms per ``build_network``,
    averaged over NETWORKS planted-hub datasets so one slow-converging
    dataset does not set the figure.
    """

    name = "survival_stats"
    N_PATIENTS = 10_000
    BOOT_PATIENTS = 1_000
    N_BOOT = 500
    HORIZONS = (365.0, 730.0, 1095.0)
    TAU = 1825.0
    NETWORKS = 5
    ORACLE_PATIENTS = 500

    def __init__(self, seed: int, workdir: Path):
        self.risk, self.x, self.times, self.events = _stats_cohort(seed, self.N_PATIENTS)
        rng = substream(seed, "perfbench-boot")
        self.boot_idx = rng.choice(self.N_PATIENTS, self.BOOT_PATIENTS, replace=False)
        self.alt_marker = self.risk + 0.5 * rng.standard_normal(self.N_PATIENTS)
        self.networks = [_hub_data(substream(seed, "perfbench-hub", i)) for i in range(self.NETWORKS)]
        self.seed = seed
        self.checked = False
        self.cox_stats = {}  # score statistic by estimate: the loop oracle takes ~1 s

    def _report(self, r: Round) -> dict:
        """Run the report; returns the outputs the checks read."""
        t, e, risk = self.times, self.events, self.risk
        out = {}

        def call(key, fn, *args, **kwargs):
            self.begin_op()
            r.attempted += 1
            try:
                t0 = perf()
                out[key] = fn(*args, **kwargs)
                r.add("eval", perf() - t0, 0.0)
            except Exception:
                _report_failure(f"survival_stats: {key}")
                r.failed += 1

        high = risk > np.median(risk)
        quartile = np.searchsorted(np.quantile(risk, [0.25, 0.5, 0.75]), risk, side="right")
        call("km", survstats.km_fit, t, e)
        call("logrank2", survstats.logrank_test, [(t[high], e[high]), (t[~high], e[~high])])
        call("logrank4", survstats.logrank_test, [(t[quartile == q], e[quartile == q]) for q in range(4)])
        call("cox", survstats.coxph_fit, t, e, self.x, ["risk", "age", "stage"])
        for h in self.HORIZONS:
            call(f"timeroc@{h:g}", survstats.timeroc_auc, risk, t, e, h)
        call("rmst", survstats.rmst_compare, t[high], e[high], t[~high], e[~high], self.TAU)
        if "cox" in out:
            fit, h = out["cox"], self.HORIZONS[1]
            surv = np.exp(-fit.cumhaz_at(h) * np.exp(fit.linear_predictor(self.x)))
            call("calibration", survstats.calibration_curve, surv, t, e, h)
            call("dca", survstats.dca_curve, 1.0 - surv, t, e, h, np.arange(0.05, 0.96, 0.05))
        else:
            r.attempted += 2
            r.failed += 2
        b = self.boot_idx
        call("boot", survstats.bootstrap_auc_compare, risk[b], self.alt_marker[b], t[b], e[b],
             self.HORIZONS[1], n_boot=self.N_BOOT, seed=self.seed)
        r.units["eval"] += 1
        return out

    def _check_report(self, out: dict) -> int:
        """Number of report calls whose output is wrong."""
        failed = 0
        if "cox" in out:
            fit = out["cox"]
            key = fit.beta.tobytes()
            if key not in self.cox_stats:
                self.cox_stats[key] = oracles.cox_score_test(self.times, self.events, self.x,
                                                             fit.beta)
            stat = self.cox_stats[key]
            # within 1e-4 standard errors of the optimum in every direction
            if not (stat < 1e-8):
                print(f"perfbench: Cox score statistic {stat:.2e} at the estimate",
                      file=sys.stderr)
                failed += 1
        if "boot" in out:
            boot = out["boot"]
            if not (np.isfinite([boot.lci, boot.uci]).all() and boot.lci <= boot.uci):
                print("perfbench: bootstrap CI is not ordered", file=sys.stderr)
                failed += 1
        if not self.checked:
            failed += self._check_oracles()
            self.checked = True
        return failed

    def _check_oracles(self) -> int:
        """KM, log-rank and RMST against the loop oracles on a subsample."""
        m = self.ORACLE_PATIENTS
        t, e, risk = self.times[:m], self.events[:m], self.risk[:m]
        high = risk > np.median(risk)
        quartile = np.searchsorted(np.quantile(risk, [0.25, 0.5, 0.75]), risk, side="right")
        failed = 0
        with self.checking():
            km = survstats.km_fit(t, e)
            want = oracles.km(t, e)
            if not all(oracles.close(a, b) for a, b in
                       zip((km.times, km.surv, km.n_at_risk, km.n_events), want)):
                print("perfbench: km_fit disagrees with the loop oracle", file=sys.stderr)
                failed += 1
            for groups in ([(t[high], e[high]), (t[~high], e[~high])],
                           [(t[quartile == q], e[quartile == q]) for q in range(4)]):
                chi2, _ = survstats.logrank_test(groups)
                if not oracles.close(chi2, oracles.logrank_chi2(groups)):
                    print("perfbench: logrank_test disagrees with the loop oracle",
                          file=sys.stderr)
                    failed += 1
            res = survstats.rmst(t, e, self.TAU)
            if not oracles.close([res.value, res.var], oracles.rmst(t, e, self.TAU)):
                print("perfbench: rmst disagrees with the loop oracle", file=sys.stderr)
                failed += 1
        return failed

    def _network(self, r: Round, data) -> None:
        features, risk, genes, times, events = data
        self.begin_op()
        r.attempted += 1
        try:
            t0 = perf()
            result = netlink.build_network(features, risk, genes, times, events, seed=self.seed)
            r.add("fit", perf() - t0, 1.0)
        except Exception:
            _report_failure("survival_stats: build_network")
            r.failed += 1
            return
        names = [f"Feature_{i}" for i in range(features.shape[1])]
        cols = [names.index(f) for f in result.screened_features]
        x = features[:, cols]
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        kkt = oracles.enet_kkt(x, risk - risk.mean(), result.enet.beta, result.enet.lambda_,
                               result.enet.alpha)
        if not (kkt < 1e-6 and result.table[0].term == "Gene_0"):
            print(f"perfbench: network check failed: KKT {kkt:.2e}, top hub "
                  f"{result.table[0].term}", file=sys.stderr)
            r.failed += 1

    def run_round(self, r: Round) -> None:
        out = self._report(r)
        r.failed += self._check_report(out)
        for data in self.networks:
            self._network(r, data)


WORKLOADS = {w.name: w for w in (CvTrain, WsiBag, SurvivalStats)}
