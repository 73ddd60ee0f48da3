"""Command-line entry point.

Subcommands: synth, train, eval, predict, heatmap, erf, stats (km, logrank,
cox, timeroc, rmst, boot, calib, dca, nomogram), netlink, ablate. Each
accepts only the flags it reads: --jobs, --config and --opt belong to train
and ablate, and each statistic has its own flags. Every output artifact
embeds the tool version, the run seed, and a hash of the effective
configuration, either in a leading comment line (CSV) or a "meta" object
(JSON). A number in a CSV cell is written as the shortest text that reads
back as the same float. Exit codes: 0 success, 2 usage, 3 data error,
4 solver error.

The parser is built from two tables: FLAGS holds each flag's argparse
keywords, and COMMANDS each command's handler, help line, and the flags it
reads and requires (STATS does the same for each statistic).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, bags, explain, netlink, survival, survstats, trainer
from .errors import ConvergenceError, DataError, GradError, TdamError, UndefinedError
from .model import ABLATIONS, ModelConfig, ModelParams, config_from_dict, load_checkpoint


# -- config plumbing -----------------------------------------------------------


def _parse_value(raw: str):
    low = raw.strip()
    if low.lower() in ("true", "false"):
        return low.lower() == "true"
    for cast in (int, float):
        try:
            return cast(low)
        except ValueError:
            continue
    return low


def load_options(config_path: str | None, overrides: list[str]) -> dict:
    """key=value config file (# comments) with CLI --opt overrides winning."""
    opts: dict[str, object] = {}
    sources = []
    if config_path:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{config_path}: config file is not UTF-8 text") from exc
        sources += [ln for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    sources += overrides or []
    for item in sources:
        if "=" not in item:
            raise DataError(f"expected key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if not key.startswith(("model.", "train.")):
            raise DataError(f"option key {key!r} must start with model. or train.")
        opts[key] = _parse_value(raw)
    return opts


def training_configs(opts: dict, seed: int) -> tuple[ModelConfig, trainer.TrainConfig]:
    """The model and training configs that ``model.``/``train.`` options set;
    the run seed seeds training unless ``train.seed`` is given."""
    groups: dict[str, dict] = {"model": {}, "train": {"seed": seed}}
    for key, val in opts.items():
        group, name = key.split(".", 1)
        groups[group][name] = val
    return config_from_dict(groups["model"]), trainer.train_config_from_dict(groups["train"])


def config_hash(opts: dict, seed: int) -> str:
    canon = "\n".join(f"{k}={opts[k]}" for k in sorted(opts)) + f"\nseed={seed}"
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def meta_comment(seed: int, chash: str) -> str:
    return f"# tdam={__version__} seed={seed} config={chash}"


def write_csv(path: Path, header: list[str], rows, seed: int, chash: str) -> None:
    """A CSV with the meta comment first; a float cell (numpy's too) is
    written as the shortest repr that round-trips it, any other cell as is."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(meta_comment(seed, chash) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row] for row in rows)


def write_json(path: Path, payload: dict, seed: int, chash: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"meta": {"tdam": __version__, "seed": seed, "config": chash}, **payload}
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _finite(path: str, pid: str, cell: str) -> float:
    try:
        return bags.finite_float(cell)
    except ValueError:
        raise DataError(f"{path}: patient {pid} has value {cell!r}, not a finite number") from None


def _read_scores(path: str, cohort: bags.Cohort) -> np.ndarray:
    """The cohort-aligned score column of a per-patient CSV (``_read_matrix_csv``'s
    samples layout): ``risk``, or the first value column if there is none."""
    names, values = _read_matrix_csv(path, [r.patient_id for r in cohort.records], by_column=False)
    return values[:, names.index("risk") if "risk" in names else 0]


def _read_probabilities(path: str, cohort: bags.Cohort) -> np.ndarray:
    """``_read_scores``, refusing a predicted probability outside [0, 1] by
    file and patient."""
    pred = _read_scores(path, cohort)
    outside = np.flatnonzero((pred < 0.0) | (pred > 1.0))
    if outside.size:
        i = outside[0]
        raise DataError(f"{path}: patient {cohort.records[i].patient_id} has predicted probability "
                        f"{float(pred[i])!r}, outside [0, 1]")
    return pred


def _load_cohort_and_bags(cohort_path: str, bags_root: str | None):
    cohort = bags.load_cohort_manifest(cohort_path)
    root = bags_root if bags_root is not None else Path(cohort_path).parent
    return cohort, bags.load_bags(cohort, root)


# -- subcommands ------------------------------------------------------------------


def cmd_synth(args, opts, seed, chash) -> int:
    out = Path(args.out)
    sc = bags.synth_cohort(n_patients=args.n, n_patches_range=args.patches, d=args.dim,
                           signal_fraction_range=args.signal, censor_rate=args.censor, seed=seed)
    bag_dir = out / "bags"
    bag_dir.mkdir(parents=True, exist_ok=True)
    for pid, bag in sc.bags.items():
        rel = f"bags/{pid}.bag"
        bags.save_bag(bag, out / rel)
        sc.cohort.bag_paths[pid] = rel
    bags.write_cohort_csv(sc.cohort, out / "cohort.csv", header_comment=meta_comment(seed, chash)[2:])
    write_json(out / "manifest.json", {"generation": sc.manifest}, seed, chash)
    print(f"wrote {len(sc.bags)} bags under {out}")
    return 0


def cmd_train(args, opts, seed, chash) -> int:
    cohort, bag_map = _load_cohort_and_bags(args.cohort, args.bags_root)
    model_cfg, train_cfg = training_configs(opts, seed)
    result = trainer.train(cohort, bag_map, model_cfg, train_cfg, out_dir=args.out, jobs=args.jobs or 1)
    out = Path(args.out)
    write_json(out / "cv_report.json", result.report(), seed, chash)
    print(f"mean C-index {result.formatted()}")
    return 0


def _emit_risks(cohort, bag_map, params, out_csv: Path, seed, chash) -> np.ndarray:
    """Write and return the cohort's risks, in cohort order."""
    risks = trainer.predict_risks(bag_map, params, [r.patient_id for r in cohort.records])
    write_csv(out_csv, ["patient_id", "risk"], [[r.patient_id, risks[r.patient_id]] for r in cohort.records],
              seed, chash)
    return np.array([risks[r.patient_id] for r in cohort.records])


def cmd_eval(args, opts, seed, chash) -> int:
    cohort, bag_map = _load_cohort_and_bags(args.cohort, args.bags_root)
    params, _, _ = load_checkpoint(args.checkpoint)
    out = Path(args.out)
    risks = _emit_risks(cohort, bag_map, params, out / "risks.csv", seed, chash)
    cindex = survival.concordance_index(risks, cohort.times(), cohort.events())
    write_json(out / "metrics.json", {"cindex": cindex, "n": len(cohort)}, seed, chash)
    print(f"C-index {cindex:.4f} over {len(cohort)} patients")
    return 0


def cmd_predict(args, opts, seed, chash) -> int:
    cohort, bag_map = _load_cohort_and_bags(args.cohort, args.bags_root)
    params, _, _ = load_checkpoint(args.checkpoint)
    _emit_risks(cohort, bag_map, params, Path(args.out) / "risks.csv", seed, chash)
    print(f"wrote risks for {len(cohort)} patients")
    return 0


def cmd_heatmap(args, opts, seed, chash) -> int:
    params, _, _ = load_checkpoint(args.checkpoint)
    out = Path(args.out)
    targets: list[tuple[str, bags.FeatureBag]] = []
    if args.bag:
        for path in args.bag:
            bag = bags.load_bag(path)
            targets.append((bag.slide_id, bag))
    if args.cohort:
        cohort, bag_map = _load_cohort_and_bags(args.cohort, args.bags_root)
        targets += [(pid, bag_map[pid]) for pid in (r.patient_id for r in cohort.records)]
    if not targets:
        raise DataError("heatmap needs --bag or --cohort")
    repeated = [name for name, k in Counter(name for name, _ in targets).items() if k > 1]
    if repeated:  # both would write heatmap_<name>.csv
        raise DataError(f"two heatmap targets are named {repeated[0]!r}")
    for name, bag in targets:
        table = explain.attention_heatmap(bag, params)
        write_csv(out / f"heatmap_{name}.csv", ["x", "y", "bin0", "bin1", "bin2", "bin3"], table.rows(),
                  seed, chash)
        if args.pgm:
            (out / f"heatmap_{name}_bin{args.pgm_bin}.pgm").write_text(
                explain.heatmap_to_pgm(table, args.pgm_bin, comment=meta_comment(seed, chash)[2:]),
                encoding="utf-8",
            )
    print(f"wrote {len(targets)} heatmap tables under {out}")
    return 0


def cmd_erf(args, opts, seed, chash) -> int:
    # --bag repeats for heatmap, but an ERF map is of one bag
    if args.bag and len(args.bag) > 1:
        raise DataError(f"erf maps one bag, but --bag was given {len(args.bag)} times")
    params, config, _ = load_checkpoint(args.checkpoint)
    params = ModelParams(config.with_ablation(args.ablation or config.ablation), params.flat)
    bag = bags.load_bag(args.bag[0]) if args.bag else None
    erf = explain.erf_map(bag, params, side=args.side, seed=seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    matrix = "\n".join(" ".join(f"{v:.6g}" for v in row) for row in erf.grid)
    (out / "erf.txt").write_text(meta_comment(seed, chash) + "\n" + matrix + "\n", encoding="utf-8")
    (out / "erf.pgm").write_text(
        explain.erf_to_pgm(erf, comment=meta_comment(seed, chash)[2:]), encoding="utf-8"
    )
    print(f"wrote ERF grid ({erf.side}x{erf.side}) under {out}")
    return 0


def _high_risk(path, cohort) -> np.ndarray:
    return survstats.median_stratify(_read_scores(path, cohort)) == "high"


# Each stats handler maps (args, cohort, times, events) to {file name:
# payload}, where a payload is a dict for .json and (header, rows) for .csv.


def _stats_km(args, cohort, times, events):
    if args.risks:
        hi = _high_risk(args.risks, cohort)
        groups = [("high", times[hi], events[hi]), ("low", times[~hi], events[~hi])]
    else:
        groups = [("all", times, events)]
    rows = []
    for name, t, e in groups:
        km = survstats.km_fit(t, e)
        rows += [[name, time, surv, int(at_risk), int(n_events), var]
                 for time, surv, at_risk, n_events, var in zip(km.times, km.surv, km.n_at_risk, km.n_events, km.var)]
    return {"km.csv": (["group", "time", "surv", "at_risk", "events", "greenwood_var"], rows)}


def _stats_logrank(args, cohort, times, events):
    hi = _high_risk(args.risks, cohort)
    chi2, p = survstats.logrank_test([(times[hi], events[hi]), (times[~hi], events[~hi])])
    return {"logrank.json": {"chi2": chi2, "p": p}}


def _stats_cox(args, cohort, times, events):
    rows, joint = survstats.multivariable_pipeline(times, events, _collect_variables(args, cohort))
    joint_rows = [] if joint is None else list(zip(joint.names, joint.beta, joint.hr, joint.se, joint.wald_p))
    return {
        "cox_univariable.csv": (
            ["variable", "beta", "hr", "se", "p", "error"],
            [[r.name, r.beta, r.hr, r.se, r.p, r.error or ""] for r in rows],
        ),
        "cox_multivariable.csv": (["variable", "beta", "hr", "se", "p"], joint_rows),
        # the joint fit's solver diagnostics; null without a joint fit
        "cox_fit.json": {k: None if joint is None else getattr(joint, k)
                         for k in ("n_iter", "score_norm", "loglik", "loglik_null")},
    }


def _stats_timeroc(args, cohort, times, events):
    aligned = _read_scores(args.risks, cohort)
    rows = []
    for h in args.horizons:
        try:
            auc = survstats.timeroc_auc(aligned, times, events, h)
            rows.append([h, auc, ""])
        except UndefinedError as exc:
            rows.append([h, "", str(exc)])
    return {"timeroc.csv": (["horizon", "auc", "note"], rows)}


def _stats_rmst(args, cohort, times, events):
    hi = _high_risk(args.risks, cohort)
    # a row at each whole year below tau, then one at tau itself
    last = args.tau / 12
    marks = [(y, 12.0 * y) for y in range(1, int(np.ceil(last)))]
    rows = []
    for year, tau in marks + [(int(last) if last.is_integer() else last, args.tau)]:
        cmp = survstats.rmst_compare(times[hi], events[hi], times[~hi], events[~hi], tau)
        rows.append([year, cmp.rmst_a.value, cmp.rmst_b.value, cmp.diff, cmp.lci, cmp.uci, cmp.p])
    return {"rmst.csv": (["Year", "RMST (high)", "RMST (low)", "Estimation", "LCI", "UCI", "p-value"], rows)}


def _stats_boot(args, cohort, times, events):
    a = _read_scores(args.risks, cohort)
    b = _read_scores(args.risks_b, cohort)
    res = survstats.bootstrap_auc_compare(a, b, times, events, args.horizon,
                                          n_boot=args.n_boot, seed=args.seed)
    return {"bootstrap.json": {
        "delta_auc": res.delta, "lci": res.lci, "uci": res.uci,
        "auc_a": res.auc_a, "auc_b": res.auc_b,
        "n_boot": res.n_boot, "n_redrawn": res.n_redrawn,
    }}


def _stats_calib(args, cohort, times, events):
    pred = _read_probabilities(args.pred, cohort)
    points, _ = survstats.calibration_curve(pred, times, events, args.horizon)
    return {"calibration.csv": (
        ["mean_predicted", "observed", "lci", "uci", "n"],
        [[p.mean_predicted, p.observed, p.lci, p.uci, p.n] for p in points],
    )}


def _stats_dca(args, cohort, times, events):
    pred = _read_probabilities(args.pred, cohort)
    rows = survstats.dca_curve(pred, times, events, args.horizon, args.thresholds)
    return {"dca.csv": (
        ["threshold", "net_benefit", "treat_all", "treat_none"],
        [[r.threshold, r.net_benefit, r.treat_all, r.treat_none] for r in rows],
    )}


def _stats_nomogram(args, cohort, times, events):
    variables = _collect_variables(args, cohort)
    xmat = np.column_stack([variables[n] for n in variables])
    fit = survstats.coxph_fit(times, events, xmat, list(variables))
    ranges = {n: (float(np.min(v)), float(np.max(v))) for n, v in variables.items()}
    model = survstats.nomogram_build(fit, ranges)
    rows = [[r["total_points"]] + [r[f"s@{h}"] for h in args.horizons] for r in model.points_table(args.horizons)]
    return {
        "nomogram_points.csv": (["total_points"] + [f"surv@{h}" for h in args.horizons], rows),
        "nomogram.json": {
            "names": model.names,
            "beta": [float(b) for b in model.beta],
            "refs": [float(r) for r in model.refs],
            "ranges": {k: list(v) for k, v in model.ranges.items()},
            "scale": model.scale,
        },
    }


def _check_stat_bounds(args) -> None:
    """Refuse what argparse's finite-number types let through: a horizon
    that is not > 0, or a decision threshold outside (0, 1)."""
    for h in [*getattr(args, "horizons", []), *([args.horizon] if hasattr(args, "horizon") else [])]:
        if not h > 0:
            raise DataError(f"horizon {h!r} must be > 0")
    for t in getattr(args, "thresholds", []):
        if not 0 < t < 1:
            raise DataError(f"threshold {t!r} must lie in (0, 1)")


def cmd_stats(args, opts, seed, chash) -> int:
    _check_stat_bounds(args)
    out = Path(args.out)
    cohort = bags.load_cohort_manifest(args.cohort)
    handler = STATS[args.stat][0]
    for name, payload in handler(args, cohort, cohort.times(), cohort.events()).items():
        if name.endswith(".json"):
            write_json(out / name, payload, seed, chash)
        else:
            write_csv(out / name, *payload, seed, chash)
    print(f"wrote stats/{args.stat} outputs under {out}")
    return 0


def _collect_variables(args, cohort) -> dict[str, np.ndarray]:
    variables: dict[str, np.ndarray] = {}
    if args.risks:
        variables["risk_score"] = _read_scores(args.risks, cohort)
    for name in (args.vars.split(",") if args.vars else []):
        name = name.strip()
        if not name:
            continue
        vals = []
        for r in cohort.records:
            v = r.covariates.get(name)
            if v is None:
                raise DataError(f"covariate {name} missing for {r.patient_id}")
            vals.append(v)
        variables[name] = np.array(vals, dtype=np.float64)
    if not variables:
        raise DataError("no variables: pass --risks and/or --vars")
    return variables


def cmd_netlink(args, opts, seed, chash) -> int:
    cohort = bags.load_cohort_manifest(args.cohort)
    ids = [r.patient_id for r in cohort.records]
    if args.features:
        feat_names, feats = _read_matrix_csv(args.features, ids, by_column=False)
    else:
        _, bag_map = _load_cohort_and_bags(args.cohort, args.bags_root)
        feats = np.stack([bag_map[pid].features.mean(axis=0) for pid in ids])
        feat_names = [f"Feature_{i}" for i in range(feats.shape[1])]
    gene_names, genes = _read_matrix_csv(args.genes, ids, by_column=args.genes_orientation == "genes")
    risks = _read_scores(args.risks, cohort)
    result = netlink.build_network(
        feats, risks, genes, cohort.times(), cohort.events(),
        feature_names=feat_names, gene_names=gene_names,
        binary_adjacency=args.binary_adjacency, seed=seed,
    )
    out = Path(args.out)
    write_csv(out / "edges.csv", ["node_a", "node_b", "rho", "p", "q"],
              [[e.node_a, e.node_b, e.rho, e.p, e.q] for e in result.feature_risk_edges + result.cross_edges],
              seed, chash)
    write_csv(out / "centrality.csv", ["Term", "Group", "Degree", "Eigenvector Centrality"],
              [[r.term, r.group, r.degree, f"{r.centrality:.3f}"] for r in result.table],
              seed, chash)
    enet = result.enet
    write_csv(out / "enet_path.csv", ["lambda", "cv_mse", "selected"],
              [[lam, mse, int(lam == enet.lambda_)] for lam, mse in zip(enet.lambdas, enet.cv_mse)],
              seed, chash)
    print(f"network: {len(result.cross_edges)} feature-gene edges, top hub {result.table[0].term}")
    return 0


def _read_matrix_csv(path: str, ids: list[str], by_column: bool) -> tuple[list[str], np.ndarray]:
    """(names, values with one row per patient in ``ids`` order) of a matrix
    CSV. Samples layout: header patient_id,<name>,...; one row per patient.
    Genes layout (``by_column``): header gene_id,<patient>,...; one row per
    gene, read as its transpose. The names must be distinct, there must be at
    least one, and every value is a finite number."""
    rows = bags.read_csv_rows(path)
    if len(rows) < 2 or not (by_column or rows[0][0] == "patient_id"):
        raise DataError(f"{path}: needs a header{'' if by_column else ' starting with patient_id'} "
                        "and at least one row")
    if by_column:
        for r in rows[1:]:
            if len(r) < len(rows[0]):
                raise DataError(f"{path}: gene row {r[0]!r} ends before patient {rows[0][len(r)]}")
            if len(r) > len(rows[0]):
                raise DataError(f"{path}: gene row {r[0]!r} has {len(r)} cells, the header has {len(rows[0])}")
        rows = [list(column) for column in zip(*rows)]
    header = rows[0]
    if len(header) < 2:
        raise DataError(f"{path}: the header names no value column next to patient_id")
    repeated = [name for name, k in Counter(header).items() if k > 1]
    if repeated:
        raise DataError(f"{path}: the name {repeated[0]!r} appears more than once")
    by_id: dict[str, list[float]] = {}
    for r in rows[1:]:
        pid = r[0]
        if pid in by_id:
            raise DataError(f"{path}: duplicate patient_id {pid!r}")
        if len(r) != len(header):
            raise DataError(f"{path}: patient {pid} has {len(r)} cells, the header has {len(header)}")
        by_id[pid] = [_finite(path, pid, v) for v in r[1:]]
    missing = [pid for pid in ids if pid not in by_id]
    if missing:
        raise DataError(f"{path}: values missing for {len(missing)} patients (first: {missing[0]})")
    return header[1:], np.array([by_id[pid] for pid in ids], dtype=np.float64)


def cmd_ablate(args, opts, seed, chash) -> int:
    cohort, bag_map = _load_cohort_and_bags(args.cohort, args.bags_root)
    base_cfg, train_cfg = training_configs(opts, seed)
    out = Path(args.out)
    rows = []
    for ablation in ABLATIONS:
        cfg = base_cfg.with_ablation(ablation)
        result = trainer.train(cohort, bag_map, cfg, train_cfg,
                               out_dir=out / ablation, jobs=args.jobs or 1)
        write_json(out / ablation / "cv_report.json", result.report(), seed, chash)
        rows.append([ablation, result.mean_cindex, result.std_cindex, result.formatted()])
    write_csv(out / "ablation.csv", ["variant", "mean_cindex", "std_cindex", "formatted"],
              rows, seed, chash)
    print(f"wrote ablation table under {out}")
    return 0


# -- parser ------------------------------------------------------------------------


# argparse types: argparse reports their ValueError as a usage error (exit 2)


def finite_floats(text: str) -> list[float]:
    return [bags.finite_float(v) for v in text.split(",")]


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is not a positive integer")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"{text!r} is not a non-negative integer")
    return value


def span_of(cast):
    """The argparse type of a ``LO:HI`` pair whose ends ``cast`` parses."""

    def span(text: str) -> tuple:
        lo, _, hi = text.partition(":")
        return cast(lo), cast(hi)

    return span


# each flag's argparse keywords; a command's parser declares only the flags it reads
FLAGS = {
    # a command also accepts the global flags it reads after its name
    "--seed": {"type": non_negative_int, "default": argparse.SUPPRESS},
    "--jobs": {"type": positive_int, "default": argparse.SUPPRESS},
    "--config": {"default": argparse.SUPPRESS},
    # kept apart from the top-level --opt, which a sub-parser's list would replace; run() joins them
    "--opt": {"action": "append", "dest": "command_opt", "default": argparse.SUPPRESS, "metavar": "K=V"},
    "--out": {},
    "--cohort": {},
    "--bags-root": {},
    "--checkpoint": {},
    "--bag": {"action": "append"},
    "--n": {"type": int},
    "--patches": {"type": span_of(positive_int), "default": "9:16", "help": "LO:HI patches per bag"},
    "--dim": {"type": positive_int, "default": 512},
    "--signal": {"type": span_of(bags.finite_float), "default": "0:1", "help": "LO:HI planted signal fraction"},
    "--censor": {"type": float, "default": 0.25},
    "--pgm": {"action": "store_true", "help": "also write a PGM raster"},
    "--pgm-bin": {"type": int, "default": 3, "choices": (0, 1, 2, 3)},
    "--side": {"type": positive_int, "default": 8, "help": "synthetic grid side when no bag is given"},
    "--ablation": {"choices": ABLATIONS, "help": "stages to run (default: the checkpoint's own ablation)"},
    "--risks": {"help": "risk CSV (patient_id,risk)"},
    "--risks-b": {"help": "second marker CSV"},
    "--pred": {"help": "prediction CSV"},
    "--vars": {"help": "comma-separated covariate columns"},
    "--horizon": {"type": bags.finite_float, "default": 36.0},
    "--horizons": {"type": finite_floats, "default": "12,36,60"},
    "--tau": {"type": bags.finite_float, "default": 60.0},
    "--thresholds": {"type": finite_floats, "default": "0.1,0.2,0.3,0.4,0.5"},
    "--n-boot": {"type": positive_int, "default": 500},
    "--features": {"help": "patient_id x feature CSV (default: mean bag features)"},
    "--genes": {"help": "expression CSV"},
    "--genes-orientation": {"default": "samples", "choices": ("samples", "genes"),
                            "help": "'samples': patient rows x gene columns; 'genes': gene rows x patient columns"},
    "--binary-adjacency": {"action": "store_true"},
}

# statistic -> (handler, flags it reads, flags it cannot run without)
STATS = {
    "km": (_stats_km, ("--cohort", "--risks"), ("--cohort",)),
    "logrank": (_stats_logrank, ("--cohort", "--risks"), ("--cohort", "--risks")),
    "cox": (_stats_cox, ("--cohort", "--risks", "--vars"), ("--cohort",)),
    "timeroc": (_stats_timeroc, ("--cohort", "--risks", "--horizons"), ("--cohort", "--risks")),
    "rmst": (_stats_rmst, ("--cohort", "--risks", "--tau"), ("--cohort", "--risks")),
    "boot": (_stats_boot, ("--cohort", "--risks", "--risks-b", "--horizon", "--n-boot"),
             ("--cohort", "--risks", "--risks-b")),
    "calib": (_stats_calib, ("--cohort", "--pred", "--horizon"), ("--cohort", "--pred")),
    "dca": (_stats_dca, ("--cohort", "--pred", "--horizon", "--thresholds"), ("--cohort", "--pred")),
    "nomogram": (_stats_nomogram, ("--cohort", "--risks", "--vars", "--horizons"), ("--cohort",)),
}

# command -> (handler, help, flags it reads, flags it cannot run without);
# every command also reads --seed and writes under the required --out, and
# stats reads a statistic's name and then that row of STATS
_TRAINING = ("--jobs", "--config", "--opt", "--cohort", "--bags-root")
_SCORING = ("--cohort", "--bags-root", "--checkpoint")
COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic cohort with bags",
              ("--n", "--patches", "--dim", "--signal", "--censor"), ("--n",)),
    "train": (cmd_train, "5-fold cross-validated training", _TRAINING, ("--cohort",)),
    "eval": (cmd_eval, "risk scores + C-index for a cohort", _SCORING, ("--cohort", "--checkpoint")),
    "predict": (cmd_predict, "per-patient risk CSV", _SCORING, ("--cohort", "--checkpoint")),
    "heatmap": (cmd_heatmap, "per-bin attention heatmap CSVs",
                ("--checkpoint", "--bag", "--cohort", "--bags-root", "--pgm", "--pgm-bin"), ("--checkpoint",)),
    "erf": (cmd_erf, "effective-receptive-field map", ("--checkpoint", "--bag", "--side", "--ablation"),
            ("--checkpoint",)),
    "stats": (cmd_stats, "survival statistics on cohort + score files", STATS, ()),
    "netlink": (cmd_netlink, "feature/gene network + centrality table",
                ("--cohort", "--bags-root", "--features", "--genes", "--genes-orientation", "--risks",
                 "--binary-adjacency"), ("--cohort", "--genes", "--risks")),
    "ablate": (cmd_ablate, "train all ablation variants and compare", _TRAINING, ("--cohort",)),
}


def _leaf_parsers(subs):
    """Add a parser per COMMANDS row to ``subs`` and yield (parser, flags it
    reads, flags it requires) for every entry point: a command, or under
    stats each statistic."""
    for name, (handler, help_text, flags, required) in COMMANDS.items():
        p = subs.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(func=handler)
        if flags is not STATS:
            yield p, flags, required
            continue
        stat_subs = p.add_subparsers(dest="stat", required=True)
        for stat, (_, stat_flags, stat_required) in STATS.items():
            yield stat_subs.add_parser(stat, allow_abbrev=False), stat_flags, stat_required


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: a flag a command does not declare is an error
    parser = argparse.ArgumentParser(prog="tdam", description=__doc__, allow_abbrev=False)
    # only train and ablate read the last three; run() rejects them before any other command
    for flag, default, help_text in (
        ("--seed", 0, "run seed; all randomness derives from it"),
        ("--jobs", None, "parallel workers (folds); 1 (default) = bitwise deterministic"),
        ("--config", None, "key=value config file"),
        ("--opt", None, "config override (repeatable), e.g. model.d_model=64"),
    ):
        parser.add_argument(flag, **{**FLAGS[flag], "dest": flag[2:], "default": default, "help": help_text})
    for p, flags, required in _leaf_parsers(parser.add_subparsers(dest="command", required=True)):
        for flag in ("--seed", *flags, "--out"):
            p.add_argument(flag, required=flag == "--out" or flag in required, **FLAGS[flag])
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        stray = [f"--{flag}" for flag in ("jobs", "config", "opt") if getattr(args, flag) is not None]
        if stray and args.func not in (cmd_train, cmd_ablate):
            parser.error(f"{args.command} does not take {', '.join(stray)}; only train and ablate do")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = load_options(args.config, (args.opt or []) + getattr(args, "command_opt", []))
        return args.func(args, opts, args.seed, config_hash(opts, args.seed))
    except (ConvergenceError, GradError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 4
    except TdamError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(json.dumps({"error": "FileNotFound", "message": str(exc)}), file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
