"""Command-line entry point.

Subcommands: synth, train, eval, predict, heatmap, erf, stats (km, logrank,
cox, timeroc, rmst, boot, calib, dca, nomogram), netlink, ablate. Each
accepts only the flags it reads: --jobs, --config and --opt belong to train
and ablate, and each statistic has its own flags. Every output artifact
embeds the tool version, the run seed, and a hash of the effective
configuration, either in a leading comment line (CSV) or a "meta" object
(JSON). Exit codes: 0 success, 2 usage, 3 data error, 4 solver error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
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
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(meta_comment(seed, chash) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: Path, payload: dict, seed: int, chash: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"meta": {"tdam": __version__, "seed": seed, "config": chash}, **payload}
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _finite(path: str, pid: str, cell: str, what: str) -> float:
    try:
        return bags.finite_float(cell)
    except ValueError:
        raise DataError(f"{path}: patient {pid} has {what} {cell!r}, not a finite number") from None


def read_score_csv(path: str) -> dict[str, float]:
    """patient_id -> score from a CSV with a patient_id column and a score
    column (``risk`` if present, else the first other column)."""
    rows = bags.read_csv_rows(path)
    if not rows:
        raise DataError(f"{path}: empty score file")
    header = rows[0]
    if "patient_id" not in header:
        raise DataError(f"{path}: missing patient_id column")
    if len(header) < 2:
        raise DataError(f"{path}: no score column next to patient_id")
    pid_col = header.index("patient_id")
    val_col = header.index("risk") if "risk" in header else (1 if pid_col == 0 else 0)
    scores: dict[str, float] = {}
    for row in rows[1:]:
        if len(row) < len(header):
            raise DataError(f"{path}: row {','.join(row)!r} has fewer cells than the header")
        pid = row[pid_col]
        if pid in scores:
            raise DataError(f"{path}: duplicate patient_id {pid!r}")
        scores[pid] = _finite(path, pid, row[val_col], "score")
    return scores


def _aligned_scores(cohort: bags.Cohort, scores: dict[str, float]) -> np.ndarray:
    missing = [r.patient_id for r in cohort.records if r.patient_id not in scores]
    if missing:
        raise DataError(f"scores missing for {len(missing)} patients (first: {missing[0]})")
    return np.array([scores[r.patient_id] for r in cohort.records])


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


def _emit_risks(cohort, bag_map, params, out_csv: Path, seed, chash) -> dict[str, float]:
    risks = trainer.predict_risks(bag_map, params, [r.patient_id for r in cohort.records])
    write_csv(
        out_csv, ["patient_id", "risk"],
        [[pid, repr(risks[pid])] for pid in (r.patient_id for r in cohort.records)],
        seed, chash,
    )
    return risks


def cmd_eval(args, opts, seed, chash) -> int:
    cohort, bag_map = _load_cohort_and_bags(args.cohort, args.bags_root)
    params, _, _ = load_checkpoint(args.checkpoint)
    out = Path(args.out)
    risks = _emit_risks(cohort, bag_map, params, out / "risks.csv", seed, chash)
    aligned = _aligned_scores(cohort, risks)
    cindex = survival.concordance_index(aligned, cohort.times(), cohort.events())
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
    for name, bag in targets:
        table = explain.attention_heatmap(bag, params)
        write_csv(
            out / f"heatmap_{name}.csv",
            ["x", "y", "bin0", "bin1", "bin2", "bin3"],
            [[x, y, repr(a), repr(b), repr(c), repr(d)] for x, y, a, b, c, d in table.rows()],
            seed, chash,
        )
        if args.pgm:
            (out / f"heatmap_{name}_bin{args.pgm_bin}.pgm").write_text(
                explain.heatmap_to_pgm(table, args.pgm_bin, comment=meta_comment(seed, chash)[2:]),
                encoding="utf-8",
            )
    print(f"wrote {len(targets)} heatmap tables under {out}")
    return 0


def cmd_erf(args, opts, seed, chash) -> int:
    params, config, _ = load_checkpoint(args.checkpoint)
    params = ModelParams(config.with_ablation(args.ablation or config.ablation), params.flat)
    bag = bags.load_bag(args.bag) if args.bag else None
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


def _high_risk(cohort, scores) -> np.ndarray:
    return survstats.median_stratify(_aligned_scores(cohort, scores)) == "high"


# Each stats handler maps (args, cohort, times, events) to {file name:
# payload}, where a payload is a dict for .json and (header, rows) for .csv.


def _stats_km(args, cohort, times, events):
    if args.risks:
        hi = _high_risk(cohort, read_score_csv(args.risks))
        groups = [("high", times[hi], events[hi]), ("low", times[~hi], events[~hi])]
    else:
        groups = [("all", times, events)]
    rows = []
    for name, t, e in groups:
        km = survstats.km_fit(t, e)
        for i in range(km.times.size):
            rows.append([name, repr(float(km.times[i])), repr(float(km.surv[i])),
                         int(km.n_at_risk[i]), int(km.n_events[i]), repr(float(km.var[i]))])
    return {"km.csv": (["group", "time", "surv", "at_risk", "events", "greenwood_var"], rows)}


def _stats_logrank(args, cohort, times, events):
    hi = _high_risk(cohort, read_score_csv(args.risks))
    chi2, p = survstats.logrank_test([(times[hi], events[hi]), (times[~hi], events[~hi])])
    return {"logrank.json": {"chi2": chi2, "p": p}}


def _stats_cox(args, cohort, times, events):
    rows, joint = survstats.multivariable_pipeline(times, events, _collect_variables(args, cohort))
    joint_rows = [] if joint is None else [
        [joint.names[i], repr(float(joint.beta[i])), repr(float(joint.hr[i])),
         repr(float(joint.se[i])), repr(float(joint.wald_p[i]))]
        for i in range(len(joint.names))
    ]
    return {
        "cox_univariable.csv": (
            ["variable", "beta", "hr", "se", "p", "error"],
            [[r.name, repr(r.beta), repr(r.hr), repr(r.se), repr(r.p), r.error or ""] for r in rows],
        ),
        "cox_multivariable.csv": (["variable", "beta", "hr", "se", "p"], joint_rows),
        # the joint fit's solver diagnostics; null without a joint fit
        "cox_fit.json": {k: None if joint is None else getattr(joint, k)
                         for k in ("n_iter", "score_norm", "loglik", "loglik_null")},
    }


def _stats_timeroc(args, cohort, times, events):
    aligned = _aligned_scores(cohort, read_score_csv(args.risks))
    rows = []
    for h in args.horizons:
        try:
            auc = survstats.timeroc_auc(aligned, times, events, h)
            rows.append([repr(h), repr(auc), ""])
        except UndefinedError as exc:
            rows.append([repr(h), "", str(exc)])
    return {"timeroc.csv": (["horizon", "auc", "note"], rows)}


def _stats_rmst(args, cohort, times, events):
    hi = _high_risk(cohort, read_score_csv(args.risks))
    rows = []
    for year in range(1, max(1, int(args.tau // 12)) + 1):
        tau = min(12.0 * year, args.tau)
        cmp = survstats.rmst_compare(times[hi], events[hi], times[~hi], events[~hi], tau)
        rows.append([year, repr(cmp.rmst_a.value), repr(cmp.rmst_b.value),
                     repr(cmp.diff), repr(cmp.lci), repr(cmp.uci), repr(cmp.p)])
    return {"rmst.csv": (["Year", "RMST (high)", "RMST (low)", "Estimation", "LCI", "UCI", "p-value"], rows)}


def _stats_boot(args, cohort, times, events):
    a = _aligned_scores(cohort, read_score_csv(args.risks))
    b = _aligned_scores(cohort, read_score_csv(args.risks_b))
    res = survstats.bootstrap_auc_compare(a, b, times, events, args.horizon,
                                          n_boot=args.n_boot, seed=args.seed)
    return {"bootstrap.json": {
        "delta_auc": res.delta, "lci": res.lci, "uci": res.uci,
        "auc_a": res.auc_a, "auc_b": res.auc_b,
        "n_boot": res.n_boot, "n_redrawn": res.n_redrawn,
    }}


def _stats_calib(args, cohort, times, events):
    pred = _aligned_scores(cohort, read_score_csv(args.pred))
    points, _ = survstats.calibration_curve(pred, times, events, args.horizon)
    return {"calibration.csv": (
        ["mean_predicted", "observed", "lci", "uci", "n"],
        [[repr(p.mean_predicted), repr(p.observed), repr(p.lci), repr(p.uci), p.n] for p in points],
    )}


def _stats_dca(args, cohort, times, events):
    pred = _aligned_scores(cohort, read_score_csv(args.pred))
    rows = survstats.dca_curve(pred, times, events, args.horizon, args.thresholds)
    return {"dca.csv": (
        ["threshold", "net_benefit", "treat_all", "treat_none"],
        [[repr(r.threshold), repr(r.net_benefit), repr(r.treat_all), repr(r.treat_none)] for r in rows],
    )}


def _stats_nomogram(args, cohort, times, events):
    variables = _collect_variables(args, cohort)
    xmat = np.column_stack([variables[n] for n in variables])
    fit = survstats.coxph_fit(times, events, xmat, list(variables))
    ranges = {n: (float(np.min(v)), float(np.max(v))) for n, v in variables.items()}
    model = survstats.nomogram_build(fit, ranges)
    rows = [[repr(r["total_points"])] + [repr(r[f"s@{h}"]) for h in args.horizons]
            for r in model.points_table(args.horizons)]
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


# each stats flag's argparse keywords; a statistic declares only the flags it reads
STAT_FLAGS = {
    "--risks": {"help": "risk CSV (patient_id,risk)"},
    "--risks-b": {"help": "second marker CSV"},
    "--pred": {"help": "prediction CSV"},
    "--vars": {"help": "comma-separated covariate columns"},
    "--horizon": {"type": bags.finite_float, "default": 36.0},
    "--horizons": {"type": finite_floats, "default": "12,36,60"},
    "--tau": {"type": bags.finite_float, "default": 60.0},
    "--thresholds": {"type": finite_floats, "default": "0.1,0.2,0.3,0.4,0.5"},
    "--n-boot": {"type": positive_int, "default": 500},
}

# statistic -> (handler, flags it reads, flags it cannot run without)
STATS = {
    "km": (_stats_km, ("--risks",), ()),
    "logrank": (_stats_logrank, ("--risks",), ("--risks",)),
    "cox": (_stats_cox, ("--risks", "--vars"), ()),
    "timeroc": (_stats_timeroc, ("--risks", "--horizons"), ("--risks",)),
    "rmst": (_stats_rmst, ("--risks", "--tau"), ("--risks",)),
    "boot": (_stats_boot, ("--risks", "--risks-b", "--horizon", "--n-boot"), ("--risks", "--risks-b")),
    "calib": (_stats_calib, ("--pred", "--horizon"), ("--pred",)),
    "dca": (_stats_dca, ("--pred", "--horizon", "--thresholds"), ("--pred",)),
    "nomogram": (_stats_nomogram, ("--risks", "--vars", "--horizons"), ()),
}


def cmd_stats(args, opts, seed, chash) -> int:
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
        variables["risk_score"] = _aligned_scores(cohort, read_score_csv(args.risks))
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
        feat_names, feats = _read_matrix_csv(args.features, ids)
    else:
        _, bag_map = _load_cohort_and_bags(args.cohort, args.bags_root)
        feats = np.stack([bag_map[pid].features.mean(axis=0) for pid in ids])
        feat_names = [f"Feature_{i}" for i in range(feats.shape[1])]
    if args.genes_orientation == "genes":
        gene_names, genes = _read_matrix_csv_transposed(args.genes, ids)
    else:
        gene_names, genes = _read_matrix_csv(args.genes, ids)
    risks = _aligned_scores(cohort, read_score_csv(args.risks))
    result = netlink.build_network(
        feats, risks, genes, cohort.times(), cohort.events(),
        feature_names=feat_names, gene_names=gene_names,
        binary_adjacency=args.binary_adjacency, seed=seed,
    )
    out = Path(args.out)
    write_csv(out / "edges.csv", ["node_a", "node_b", "rho", "p", "q"],
              [[e.node_a, e.node_b, repr(e.rho), repr(e.p), repr(e.q)]
               for e in result.feature_risk_edges + result.cross_edges],
              seed, chash)
    write_csv(out / "centrality.csv", ["Term", "Group", "Degree", "Eigenvector Centrality"],
              [[r.term, r.group, r.degree, f"{r.centrality:.3f}"] for r in result.table],
              seed, chash)
    enet = result.enet
    write_csv(out / "enet_path.csv", ["lambda", "cv_mse", "selected"],
              [[repr(float(lam)), repr(float(mse)), int(lam == enet.lambda_)]
               for lam, mse in zip(enet.lambdas, enet.cv_mse)],
              seed, chash)
    print(f"network: {len(result.cross_edges)} feature-gene edges, top hub {result.table[0].term}")
    return 0


def _read_matrix_csv(path: str, ids: list[str]) -> tuple[list[str], np.ndarray]:
    """samples x columns layout: header patient_id,<name>,...; one row per patient."""
    rows = bags.read_csv_rows(path)
    if len(rows) < 2 or rows[0][0] != "patient_id":
        raise DataError(f"{path}: needs a header starting with patient_id and at least one row")
    header = rows[0]
    by_id: dict[str, list[float]] = {}
    for r in rows[1:]:
        pid = r[0]
        if pid in by_id:
            raise DataError(f"{path}: duplicate patient_id {pid!r}")
        if len(r) != len(header):
            raise DataError(f"{path}: patient {pid} has {len(r)} cells, the header has {len(header)}")
        by_id[pid] = [_finite(path, pid, v, "value") for v in r[1:]]
    missing = [pid for pid in ids if pid not in by_id]
    if missing:
        raise DataError(f"{path}: rows missing for {len(missing)} patients (first: {missing[0]})")
    return header[1:], np.array([by_id[pid] for pid in ids], dtype=np.float64)


def _read_matrix_csv_transposed(path: str, ids: list[str]) -> tuple[list[str], np.ndarray]:
    """genes x samples layout: header gene_id,<patient>,...; one row per gene."""
    rows = bags.read_csv_rows(path)
    if len(rows) < 2:
        raise DataError(f"{path}: needs a header row and at least one gene row")
    header = rows[0]
    cols = {pid: i for i, pid in enumerate(header) if i > 0}
    if len(cols) != len(header) - 1:
        raise DataError(f"{path}: a patient column is repeated")
    missing = [pid for pid in ids if pid not in cols]
    if missing:
        raise DataError(f"{path}: columns missing for {len(missing)} patients (first: {missing[0]})")
    for r in rows[1:]:
        if len(r) < len(header):
            raise DataError(f"{path}: gene row {r[0]!r} ends before patient {header[len(r)]}")
    names = [r[0] for r in rows[1:]]
    data = np.array(
        [[_finite(path, pid, r[cols[pid]], "value") for r in rows[1:]] for pid in ids], dtype=np.float64
    )
    return names, data


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
        rows.append([ablation, repr(result.mean_cindex), repr(result.std_cindex), result.formatted()])
    write_csv(out / "ablation.csv", ["variant", "mean_cindex", "std_cindex", "formatted"],
              rows, seed, chash)
    print(f"wrote ablation table under {out}")
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: a flag a command does not declare is an error
    parser = argparse.ArgumentParser(prog="tdam", description=__doc__, allow_abbrev=False)
    parser.add_argument("--seed", type=non_negative_int, default=0, help="run seed; all randomness derives from it")
    # only train and ablate read these three; run() rejects them before any other command
    parser.add_argument("--jobs", type=positive_int, default=None,
                        help="parallel workers (folds); 1 (default) = bitwise deterministic")
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--opt", action="append", default=None, metavar="K=V",
                        help="config override (repeatable), e.g. model.d_model=64")
    # a command also accepts the global flags it reads after its name
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=non_negative_int, default=argparse.SUPPRESS)
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--jobs", type=positive_int, default=argparse.SUPPRESS)
    training.add_argument("--config", default=argparse.SUPPRESS)
    # kept apart from the top-level --opt, which a sub-parser's list would replace; run() joins them
    training.add_argument("--opt", action="append", dest="command_opt", default=argparse.SUPPRESS,
                          metavar="K=V")
    subs = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, *parents, **kwargs):
        return subs.add_parser(name, parents=[common, *parents], allow_abbrev=False, **kwargs)

    p = add_parser("synth", help="generate a synthetic cohort with bags")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--patches", type=span_of(positive_int), default="9:16", help="LO:HI patches per bag")
    p.add_argument("--dim", type=positive_int, default=512)
    p.add_argument("--signal", type=span_of(bags.finite_float), default="0:1",
                   help="LO:HI planted signal fraction")
    p.add_argument("--censor", type=float, default=0.25)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = add_parser("train", training, help="5-fold cross-validated training")
    p.add_argument("--cohort", required=True)
    p.add_argument("--bags-root", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = add_parser("eval", help="risk scores + C-index for a cohort")
    p.add_argument("--cohort", required=True)
    p.add_argument("--bags-root", default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = add_parser("predict", help="per-patient risk CSV")
    p.add_argument("--cohort", required=True)
    p.add_argument("--bags-root", default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = add_parser("heatmap", help="per-bin attention heatmap CSVs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bag", action="append", default=[])
    p.add_argument("--cohort", default=None)
    p.add_argument("--bags-root", default=None)
    p.add_argument("--pgm", action="store_true", help="also write a PGM raster")
    p.add_argument("--pgm-bin", type=int, default=3, choices=(0, 1, 2, 3))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_heatmap)

    p = add_parser("erf", help="effective-receptive-field map")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bag", default=None)
    p.add_argument("--side", type=positive_int, default=8, help="synthetic grid side when no bag is given")
    p.add_argument("--ablation", default=None, choices=ABLATIONS,
                   help="stages to run (default: the checkpoint's own ablation)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_erf)

    stats = subs.add_parser("stats", help="survival statistics on cohort + score files", allow_abbrev=False)
    stats.set_defaults(func=cmd_stats)
    stat_subs = stats.add_subparsers(dest="stat", required=True)
    for name, (_, flags, required) in STATS.items():
        p = stat_subs.add_parser(name, parents=[common], allow_abbrev=False)
        p.add_argument("--cohort", required=True)
        for flag in flags:
            p.add_argument(flag, required=flag in required, **STAT_FLAGS[flag])
        p.add_argument("--out", required=True)

    p = add_parser("netlink", help="feature/gene network + centrality table")
    p.add_argument("--cohort", required=True)
    p.add_argument("--bags-root", default=None)
    p.add_argument("--features", default=None, help="patient_id x feature CSV (default: mean bag features)")
    p.add_argument("--genes", required=True, help="expression CSV")
    p.add_argument("--genes-orientation", default="samples", choices=("samples", "genes"),
                   help="'samples': patient rows x gene columns; 'genes': gene rows x patient columns")
    p.add_argument("--risks", required=True)
    p.add_argument("--binary-adjacency", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_netlink)

    p = add_parser("ablate", training, help="train all ablation variants and compare")
    p.add_argument("--cohort", required=True)
    p.add_argument("--bags-root", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)
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
