import argparse
import contextlib
import csv
import hashlib
import io
import json
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdam import cli, explain, survstats
from tdam.bags import load_cohort_manifest
from tdam.model import CKPT_MAGIC, ModelConfig, ModelParams, init_params, load_checkpoint, save_checkpoint

TINY_OPTS = [
    "--opt", "model.d_in=8", "--opt", "model.d_model=8", "--opt", "model.n_heads=2",
    "--opt", "model.n_agents=2", "--opt", "model.n_landmarks=4", "--opt", "model.srmamba_layers=1",
    "--opt", "model.srmamba_rate=2", "--opt", "model.ssm_state_dim=2", "--opt", "model.agent_bias_side=3",
    "--opt", "train.max_epochs=2", "--opt", "train.warmup_epochs=1", "--opt", "train.folds=2",
    "--opt", "train.lr=0.001",
]


# the model TINY_OPTS configures, for a checkpoint made without training
TINY_CONFIG = ModelConfig(d_in=8, d_model=8, n_heads=2, n_agents=2, n_landmarks=4,
                          srmamba_layers=1, srmamba_rate=2, ssm_state_dim=2, agent_bias_side=3)


def tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def synth(tmp_path: Path, seed=7, n=12) -> Path:
    out = tmp_path / f"cohort{seed}"
    rc = cli.run(["--seed", str(seed), "synth", "--n", str(n), "--patches", "4:9",
                  "--dim", "8", "--censor", "0.2", "--out", str(out)])
    assert rc == 0
    return out


def read_csv_rows(path: Path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def test_synth_tree_deterministic(tmp_path):
    a = synth(tmp_path / "a")
    b = synth(tmp_path / "b")
    assert tree_hash(a) == tree_hash(b)
    c_dir = tmp_path / "c" / "cohort9"
    rc = cli.run(["--seed", "9", "synth", "--n", "12", "--patches", "4:9",
                  "--dim", "8", "--censor", "0.2", "--out", str(c_dir)])
    assert rc == 0
    assert tree_hash(a) != tree_hash(c_dir)


def test_synth_outputs_complete(tmp_path):
    out = synth(tmp_path)
    cohort = load_cohort_manifest(out / "cohort.csv")
    assert len(cohort) == 12
    assert len(cohort.bag_paths) == 12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["meta"]["seed"] == 7
    assert manifest["generation"]["rate_gain"] > 0


def test_calibration_csv_cells_are_plain_numbers(tmp_path):
    data = tmp_path / "data"
    assert cli.run(["--seed", "11", "synth", "--n", "200", "--patches", "4:9", "--dim", "8",
                    "--censor", "0.25", "--out", str(data)]) == 0
    cohort = load_cohort_manifest(data / "cohort.csv")
    pred = tmp_path / "pred.csv"
    with open(pred, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "risk"])
        for r in cohort.records:
            writer.writerow([r.patient_id, repr(1.0 / (1.0 + r.covariates["signal_fraction"]))])
    for horizon in ("0.2", "1", "40"):
        out = tmp_path / f"calib{horizon}"
        assert cli.run(["stats", "calib", "--cohort", str(data / "cohort.csv"), "--pred", str(pred),
                        "--horizon", horizon, "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "calibration.csv")
        assert header == ["mean_predicted", "observed", "lci", "uci", "n"] and rows
        for row in rows:
            lo, observed, hi = float(row[2]), float(row[1]), float(row[3])
            assert 0.0 <= lo <= observed <= hi <= 1.0
            assert all(np.isfinite(float(cell)) for cell in row)


def test_unknown_flag_exits_2(tmp_path, capsys):
    rc = cli.run(["--seed", "1", "synth", "--n", "12", "--frobnicate", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_file_reports_json_error(tmp_path, capsys):
    rc = cli.run(["stats", "km", "--cohort", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err.strip()
    payload = json.loads(err.splitlines()[-1])
    assert "message" in payload and "error" in payload


def trained(tmp_path) -> tuple[Path, Path]:
    data = synth(tmp_path, seed=7, n=12)
    out = tmp_path / "run"
    rc = cli.run(["--seed", "3", *TINY_OPTS, "train",
                  "--cohort", str(data / "cohort.csv"), "--out", str(out)])
    assert rc == 0
    return data, out


def test_train_eval_predict_flow(tmp_path):
    data, run_dir = trained(tmp_path)
    report = json.loads((run_dir / "cv_report.json").read_text())
    assert set(report["folds"]) == {"0", "1"}
    assert "±" in report["mean_cindex"]
    ckpt = run_dir / "fold0.ckpt"
    assert ckpt.exists()

    eval_dir = tmp_path / "eval"
    rc = cli.run(["--seed", "3", "eval", "--cohort", str(data / "cohort.csv"),
                  "--checkpoint", str(ckpt), "--out", str(eval_dir)])
    assert rc == 0
    header, rows = read_csv_rows(eval_dir / "risks.csv")
    assert header == ["patient_id", "risk"]
    assert len(rows) == 12
    assert all(-4.0 < float(r[1]) < 0.0 for r in rows)
    metrics = json.loads((eval_dir / "metrics.json").read_text())
    assert 0.0 <= metrics["cindex"] <= 1.0

    pred_dir = tmp_path / "pred"
    rc = cli.run(["--seed", "3", "predict", "--cohort", str(data / "cohort.csv"),
                  "--checkpoint", str(ckpt), "--out", str(pred_dir)])
    assert rc == 0
    assert (pred_dir / "risks.csv").read_bytes() == (eval_dir / "risks.csv").read_bytes()


def test_heatmap_and_erf_outputs(tmp_path):
    data, run_dir = trained(tmp_path)
    ckpt = run_dir / "fold0.ckpt"
    hm_dir = tmp_path / "hm"
    rc = cli.run(["--seed", "3", "heatmap", "--checkpoint", str(ckpt),
                  "--bag", str(data / "bags" / "P0000.bag"), "--pgm", "--out", str(hm_dir)])
    assert rc == 0
    header, rows = read_csv_rows(hm_dir / "heatmap_P0000.csv")
    assert header == ["x", "y", "bin0", "bin1", "bin2", "bin3"]
    assert all(0.0 <= float(v) <= 1.0 for r in rows for v in r[2:])
    assert (hm_dir / "heatmap_P0000_bin3.pgm").read_text().startswith("P2")

    erf_dir = tmp_path / "erf"
    rc = cli.run(["--seed", "3", "erf", "--checkpoint", str(ckpt), "--side", "3",
                  "--out", str(erf_dir)])
    assert rc == 0
    lines = (erf_dir / "erf.txt").read_text().splitlines()
    assert lines[0].startswith("# tdam=")
    assert len(lines) == 1 + 3
    assert (erf_dir / "erf.pgm").read_text().startswith("P2")


@pytest.mark.parametrize("second", ["bag", "cohort"])
def test_heatmap_refuses_two_targets_with_one_name(tmp_path, capsys, second):
    """A bag given twice, or a bag whose slide id is also a cohort patient,
    would write one heatmap_<name>.csv over the other."""
    data = synth(tmp_path, seed=7, n=12)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_params(TINY_CONFIG))
    bag = str(data / "bags" / "P0000.bag")
    capsys.readouterr()
    rc = cli.run(["heatmap", "--checkpoint", str(ckpt), "--bag", bag,
                  *(["--bag", bag] if second == "bag" else ["--cohort", str(data / "cohort.csv")]),
                  "--out", str(tmp_path / "hm")])
    assert rc == 3
    payload = single_json_error(capsys)
    assert payload["error"] == "DataError" and "'P0000'" in payload["message"]
    assert not (tmp_path / "hm").exists()


def test_erf_ablation_defaults_to_the_checkpoint_and_overrides_it(tmp_path):
    cfg = ModelConfig(d_in=8, d_model=8, n_heads=2, n_agents=2, n_landmarks=4, srmamba_layers=1,
                      srmamba_rate=2, ssm_state_dim=2, agent_bias_side=3, ablation="no_transformer")
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_params(cfg, seed=5))
    params, _, _ = load_checkpoint(ckpt)
    grids = {}
    for ablation in (None, "full"):
        out = tmp_path / f"erf_{ablation}"
        flag = [] if ablation is None else ["--ablation", ablation]
        assert cli.run(["--seed", "3", "erf", "--checkpoint", str(ckpt), "--side", "3", *flag,
                        "--out", str(out)]) == 0
        grids[ablation] = (out / "erf.txt").read_text().splitlines()[1:]
        ablated = ModelParams(params.config.with_ablation(ablation or "no_transformer"), params.flat)
        expected = explain.erf_map(None, ablated, side=3, seed=3).grid
        assert grids[ablation] == [" ".join(f"{v:.6g}" for v in row) for row in expected]
    assert grids[None] != grids["full"]


def write_risks_from_signal(data: Path, path: Path, jitter: float = 0.05) -> None:
    cohort = load_cohort_manifest(data / "cohort.csv")
    rng = np.random.default_rng(123)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "risk"])
        for r in cohort.records:
            noisy = r.covariates["signal_fraction"] + jitter * rng.standard_normal()
            writer.writerow([r.patient_id, repr(noisy)])


def test_stats_rmst_writes_each_whole_year_below_tau_then_tau_itself(tmp_path):
    data = synth(tmp_path, seed=11, n=60)
    risks = tmp_path / "risks.csv"
    write_risks_from_signal(data, risks)
    cohort = load_cohort_manifest(data / "cohort.csv")
    _, score_rows = read_csv_rows(risks)
    hi = survstats.median_stratify([float(r[1]) for r in score_rows]) == "high"
    times, events = cohort.times(), cohort.events()
    for tau, years in (("30", ["1", "2", "2.5"]), ("6", ["0.5"])):
        out = tmp_path / f"rmst{tau}"
        assert cli.run(["stats", "rmst", "--cohort", str(data / "cohort.csv"), "--risks", str(risks),
                        "--tau", tau, "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "rmst.csv")
        assert [r[0] for r in rows] == years
        cmp = survstats.rmst_compare(times[hi], events[hi], times[~hi], events[~hi], float(tau))
        want = (cmp.rmst_a.value, cmp.rmst_b.value, cmp.diff, cmp.lci, cmp.uci, cmp.p)
        assert rows[-1][1:] == [repr(float(v)) for v in want]


def test_stats_commands(tmp_path):
    data = synth(tmp_path, seed=11, n=60)
    risks = tmp_path / "risks.csv"
    write_risks_from_signal(data, risks)
    cohort_arg = str(data / "cohort.csv")

    km_dir = tmp_path / "km"
    assert cli.run(["stats", "km", "--cohort", cohort_arg, "--risks", str(risks),
                    "--out", str(km_dir)]) == 0
    header, rows = read_csv_rows(km_dir / "km.csv")
    assert header[0] == "group"
    assert {r[0] for r in rows} == {"high", "low"}

    lr_dir = tmp_path / "lr"
    assert cli.run(["stats", "logrank", "--cohort", cohort_arg, "--risks", str(risks),
                    "--out", str(lr_dir)]) == 0
    payload = json.loads((lr_dir / "logrank.json").read_text())
    assert payload["p"] < 0.05  # planted signal separates the groups

    rmst_dir = tmp_path / "rmst"
    assert cli.run(["stats", "rmst", "--cohort", cohort_arg, "--risks", str(risks),
                    "--tau", "60", "--out", str(rmst_dir)]) == 0
    header, rows = read_csv_rows(rmst_dir / "rmst.csv")
    assert header == ["Year", "RMST (high)", "RMST (low)", "Estimation", "LCI", "UCI", "p-value"]
    assert len(rows) == 5

    roc_dir = tmp_path / "roc"
    assert cli.run(["stats", "timeroc", "--cohort", cohort_arg, "--risks", str(risks),
                    "--horizons", "1,6", "--out", str(roc_dir)]) == 0
    header, rows = read_csv_rows(roc_dir / "timeroc.csv")
    aucs = [float(r[1]) for r in rows if r[1]]
    assert aucs and all(0.5 < a <= 1.0 for a in aucs)

    cox_dir = tmp_path / "cox"
    assert cli.run(["stats", "cox", "--cohort", cohort_arg, "--risks", str(risks),
                    "--vars", "signal_fraction", "--out", str(cox_dir)]) == 0
    header, rows = read_csv_rows(cox_dir / "cox_univariable.csv")
    assert [r[0] for r in rows] == ["risk_score", "signal_fraction"]

    boot_dir = tmp_path / "boot"
    assert cli.run(["--seed", "5", "stats", "boot", "--cohort", cohort_arg,
                    "--risks", str(risks), "--risks-b", str(risks),
                    "--horizon", "6", "--n-boot", "25", "--out", str(boot_dir)]) == 0
    payload = json.loads((boot_dir / "bootstrap.json").read_text())
    assert payload["lci"] <= 0.0 <= payload["uci"]

    # survival-probability style predictions for calib/dca
    pred = tmp_path / "pred.csv"
    cohort = load_cohort_manifest(data / "cohort.csv")
    with open(pred, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "risk"])
        for r in cohort.records:
            writer.writerow([r.patient_id, repr(1.0 / (1.0 + r.covariates["signal_fraction"]))])
    calib_dir = tmp_path / "calib"
    assert cli.run(["stats", "calib", "--cohort", cohort_arg, "--pred", str(pred),
                    "--horizon", "6", "--out", str(calib_dir)]) == 0
    assert (calib_dir / "calibration.csv").exists()

    dca_dir = tmp_path / "dca"
    assert cli.run(["stats", "dca", "--cohort", cohort_arg, "--pred", str(pred),
                    "--horizon", "6", "--thresholds", "0.1,0.3,0.5", "--out", str(dca_dir)]) == 0
    header, rows = read_csv_rows(dca_dir / "dca.csv")
    assert all(r[3] == "0.0" for r in rows)  # treat-none is identically zero

    nom_dir = tmp_path / "nom"
    assert cli.run(["stats", "nomogram", "--cohort", cohort_arg, "--risks", str(risks),
                    "--vars", "signal_fraction", "--horizons", "6,12", "--out", str(nom_dir)]) == 0
    payload = json.loads((nom_dir / "nomogram.json").read_text())
    assert payload["names"] == ["risk_score", "signal_fraction"]


def test_stats_cox_writes_the_joint_fit_diagnostics(tmp_path):
    data = synth(tmp_path, seed=11, n=60)
    risks = tmp_path / "risks.csv"
    write_risks_from_signal(data, risks)
    cohort = load_cohort_manifest(data / "cohort.csv")
    out = tmp_path / "cox"
    assert cli.run(["stats", "cox", "--cohort", str(data / "cohort.csv"), "--risks", str(risks),
                    "--vars", "signal_fraction", "--out", str(out)]) == 0
    payload = json.loads((out / "cox_fit.json").read_text())
    variables = {
        "risk_score": cli._read_scores(str(risks), cohort),
        "signal_fraction": np.array([r.covariates["signal_fraction"] for r in cohort.records]),
    }
    _, joint = survstats.multivariable_pipeline(cohort.times(), cohort.events(), variables)
    assert {k: payload[k] for k in ("n_iter", "score_norm", "loglik", "loglik_null")} == {
        "n_iter": joint.n_iter, "score_norm": joint.score_norm,
        "loglik": joint.loglik, "loglik_null": joint.loglik_null,
    }
    assert payload["n_iter"] >= 1 and payload["loglik"] > payload["loglik_null"]

    # a marker unrelated to survival is not promoted: no joint fit, null diagnostics
    rng = np.random.default_rng(5)
    with open(risks, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "risk"])
        for r in cohort.records:
            writer.writerow([r.patient_id, repr(rng.standard_normal())])
    assert cli.run(["stats", "cox", "--cohort", str(data / "cohort.csv"), "--risks", str(risks),
                    "--out", str(out)]) == 0
    _, rows = read_csv_rows(out / "cox_multivariable.csv")
    assert rows == []
    payload = json.loads((out / "cox_fit.json").read_text())
    assert [payload[k] for k in ("n_iter", "score_norm", "loglik", "loglik_null")] == [None] * 4


def single_json_error(capsys) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("stat,header,row,named", [
    pytest.param("timeroc", None, "{pid},nan", "{pid}", id="timeroc-nan"),
    pytest.param("logrank", None, "{pid},nan", "{pid}", id="logrank-nan"),
    pytest.param("logrank", None, "{pid},abc", "{pid}", id="logrank-abc"),
    pytest.param("logrank", None, "{pid}", "{pid}", id="logrank-short-row"),
    pytest.param("logrank", None, "{pid},0.5,999", "{pid}", id="logrank-long-row"),
    pytest.param("calib", None, "{pid},0.5,999", "{pid}", id="calib-long-row"),
    pytest.param("logrank", "patient_id,risk,risk", None, "'risk'", id="logrank-repeated-column"),
    pytest.param("logrank", "patient_id", None, "no value column", id="logrank-only-patient-id"),
    pytest.param("logrank", "patient_id,risk,age", "{pid},0.5,abc", "{pid}", id="logrank-text-second-column"),
    pytest.param("km", None, "{pid},0.5\n{pid},0.5", "{pid}", id="km-duplicate-id"),
    pytest.param("km", None, None, None, id="km-empty-file"),
])
def test_stats_rejects_bad_score(tmp_path, capsys, stat, header, row, named):
    """``header`` replaces the score file's header, each data row then
    carrying its score once per value column; ``row`` replaces one data row.
    With neither, the file is emptied. The one JSON error line names the file
    and ``named``."""
    data = synth(tmp_path, seed=11, n=30)
    risks = tmp_path / "risks.csv"
    write_risks_from_signal(data, risks)
    lines = risks.read_text().splitlines()
    pid = lines[5].split(",")[0]
    if header is not None:
        width = len(header.split(","))
        lines = [header] + [",".join([p] + [score] * (width - 1)) for p, score in (ln.split(",") for ln in lines[1:])]
    if row is not None:
        lines[5] = row.format(pid=pid)
    risks.write_text("\n".join(lines) + "\n" if header or row else "")
    capsys.readouterr()
    flag = "--pred" if stat == "calib" else "--risks"
    rc = cli.run(["stats", stat, "--cohort", str(data / "cohort.csv"), flag, str(risks),
                  "--out", str(tmp_path / "out")])
    assert rc == 3
    payload = single_json_error(capsys)
    assert payload["error"] == "DataError"
    assert str(risks) in payload["message"]
    assert named is None or named.format(pid=pid) in payload["message"]
    assert not (tmp_path / "out").exists()


def test_stats_rejects_a_cohort_with_a_repeated_column(tmp_path, capsys):
    data = synth(tmp_path, seed=11, n=12)
    cohort = data / "cohort.csv"
    _apply_csv_edit(cohort, ("cell", (0, 4, "signal_fraction")))  # bag_path renamed
    capsys.readouterr()
    assert cli.run(["stats", "km", "--cohort", str(cohort), "--out", str(tmp_path / "out")]) == 3
    payload = single_json_error(capsys)
    assert payload["error"] == "ParseError" and "'signal_fraction'" in payload["message"]


@pytest.mark.parametrize("stat,argv,named", [
    pytest.param("timeroc", ["--risks", "{risks}", "--horizons", "12,0"], "horizon 0.0", id="timeroc-horizon-0"),
    pytest.param("nomogram", ["--risks", "{risks}", "--horizons", "-6"], "horizon -6.0", id="nomogram-horizon-neg"),
    pytest.param("boot", ["--risks", "{risks}", "--risks-b", "{risks}", "--horizon", "-1"], "horizon -1.0",
                 id="boot-horizon-neg"),
    pytest.param("calib", ["--pred", "{pred}", "--horizon", "0"], "horizon 0.0", id="calib-horizon-0"),
    pytest.param("dca", ["--pred", "{pred}", "--thresholds", "0.1,1"], "threshold 1.0", id="dca-threshold-1"),
    pytest.param("dca", ["--pred", "{pred}", "--thresholds", "0"], "threshold 0.0", id="dca-threshold-0"),
    pytest.param("dca", ["--pred", "{bad_pred}"], "outside [0, 1]", id="dca-pred-above-1"),
    pytest.param("calib", ["--pred", "{bad_pred}"], "outside [0, 1]", id="calib-pred-above-1"),
])
def test_stats_rejects_out_of_range_numbers(tmp_path, capsys, stat, argv, named):
    """A horizon must be > 0, a threshold in (0, 1) and a calib or dca
    probability in [0, 1]; each is refused before any output is written, and
    a refused probability is named by file and patient."""
    data = synth(tmp_path, seed=11, n=30)
    risks = tmp_path / "risks.csv"
    write_risks_from_signal(data, risks)
    pred, bad_pred = tmp_path / "pred.csv", tmp_path / "bad_pred.csv"
    lines = risks.read_text().splitlines()
    pid = lines[5].split(",")[0]
    rows = [line for line in lines if not line.startswith("#")]
    pred.write_text("\n".join([rows[0]] + [f"{row.split(',')[0]},0.5" for row in rows[1:]]) + "\n")
    bad_pred.write_text(pred.read_text().replace(f"{pid},0.5", f"{pid},1.5"))
    paths = {"risks": risks, "pred": pred, "bad_pred": bad_pred}
    capsys.readouterr()
    rc = cli.run(["stats", stat, "--cohort", str(data / "cohort.csv"),
                  *(a.format(**paths) for a in argv), "--out", str(tmp_path / "out")])
    assert rc == 3
    payload = single_json_error(capsys)
    assert payload["error"] == "DataError" and named in payload["message"]
    if "{bad_pred}" in argv:
        assert str(bad_pred) in payload["message"]
        assert pid in payload["message"] and "1.5" in payload["message"]
    assert not (tmp_path / "out").exists()


def test_erf_refuses_a_second_bag(tmp_path, capsys):
    data = synth(tmp_path, seed=11, n=12)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_params(ModelConfig(d_in=8, d_model=8, n_heads=2, n_agents=2, n_landmarks=4,
                                                  srmamba_layers=1, srmamba_rate=2, ssm_state_dim=2,
                                                  agent_bias_side=3)))
    capsys.readouterr()
    rc = cli.run(["erf", "--checkpoint", str(ckpt), "--bag", str(data / "bags" / "P0000.bag"),
                  "--bag", str(data / "bags" / "P0001.bag"), "--out", str(tmp_path / "erf")])
    assert rc == 3
    payload = single_json_error(capsys)
    assert payload["error"] == "DataError" and "given 2 times" in payload["message"]
    assert not (tmp_path / "erf").exists()


@pytest.mark.parametrize("target", ["risks", "cohort", "config"])
def test_non_utf8_input_exits_3(tmp_path, capsys, target):
    data = synth(tmp_path, seed=11, n=30)
    risks = tmp_path / "risks.csv"
    write_risks_from_signal(data, risks)
    config = tmp_path / "run.cfg"
    config.write_text("train.lr=0.001\n")
    bad = {"risks": risks, "cohort": data / "cohort.csv", "config": config}[target]
    bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
    capsys.readouterr()
    cohort, out = str(data / "cohort.csv"), str(tmp_path / "out")
    if target == "config":
        argv = ["--config", str(config), "train", "--cohort", cohort, "--out", out]
    else:
        argv = ["stats", "logrank", "--cohort", cohort, "--risks", str(risks), "--out", out]
    assert cli.run(argv) == 3
    assert str(bad) in single_json_error(capsys)["message"]


@pytest.mark.parametrize("stat,given,needed", [
    ("boot", ["--risks"], "--risks-b"),
    ("calib", [], "--pred"),
    ("dca", [], "--pred"),
    ("logrank", [], "--risks"),
    ("timeroc", [], "--risks"),
    ("rmst", [], "--risks"),
])
def test_stats_missing_score_flag_exits_2(tmp_path, capsys, stat, given, needed):
    data = synth(tmp_path, seed=11, n=30)
    risks = tmp_path / "risks.csv"
    write_risks_from_signal(data, risks)
    capsys.readouterr()
    argv = ["stats", stat, "--cohort", str(data / "cohort.csv"), "--out", str(tmp_path / "out")]
    for flag in given:
        argv += [flag, str(risks)]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert "usage" in err and needed in err
    assert not (tmp_path / "out").exists()


# every entry point and the flags it accepts; each is a flag its handler reads
FLAG_SURFACE = {
    "synth": "--seed --n --patches --dim --signal --censor --out",
    "train": "--seed --jobs --config --opt --cohort --bags-root --out",
    "eval": "--seed --cohort --bags-root --checkpoint --out",
    "predict": "--seed --cohort --bags-root --checkpoint --out",
    "heatmap": "--seed --checkpoint --bag --cohort --bags-root --pgm --pgm-bin --out",
    "erf": "--seed --checkpoint --bag --side --ablation --out",
    "stats km": "--seed --cohort --risks --out",
    "stats logrank": "--seed --cohort --risks --out",
    "stats cox": "--seed --cohort --risks --vars --out",
    "stats timeroc": "--seed --cohort --risks --horizons --out",
    "stats rmst": "--seed --cohort --risks --tau --out",
    "stats boot": "--seed --cohort --risks --risks-b --horizon --n-boot --out",
    "stats calib": "--seed --cohort --pred --horizon --out",
    "stats dca": "--seed --cohort --pred --horizon --thresholds --out",
    "stats nomogram": "--seed --cohort --risks --vars --horizons --out",
    "netlink": "--seed --cohort --bags-root --features --genes --genes-orientation --risks "
               "--binary-adjacency --out",
    "ablate": "--seed --jobs --config --opt --cohort --bags-root --out",
}


def _entry_points(parser, prefix=""):
    """(command path, the long flags its innermost parser declares) for every leaf."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield prefix.strip(), {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
    for action in subs:
        for name, sub in action.choices.items():
            yield from _entry_points(sub, f"{prefix}{name} ")


def test_each_entry_point_accepts_only_the_flags_it_reads():
    parser = cli.build_parser()
    surface = dict(_entry_points(parser))
    assert surface == {name: set(flags.split()) for name, flags in FLAG_SURFACE.items()}
    assert sum(len(flags) for flags in surface.values()) == 101
    # the global flags; run() accepts the training ones only before train and ablate
    top = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
    assert top == {"--seed", "--jobs", "--config", "--opt"}


def test_every_flag_in_the_table_is_read_by_some_command():
    """FLAGS holds no flag that no command or statistic declares."""
    read = {"--seed", "--out"}
    for _, _, flags, _ in cli.COMMANDS.values():
        read.update(flags if flags is not cli.STATS else ())
    for _, flags, _ in cli.STATS.values():
        read.update(flags)
    assert read == set(cli.FLAGS)


@pytest.mark.parametrize("command", list(FLAG_SURFACE))
def test_each_entry_point_prints_its_help(capsys, command):
    """argparse formats the table's help strings only here, so a stray %
    in one would first fail a user's --help."""
    assert cli.run([*command.split(), "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: tdam {command} [-h] [--seed SEED]")


def test_write_csv_writes_every_float_as_its_repr(tmp_path):
    """numpy float cells are written as the Python float's repr, never as
    np.float64(...); int and str cells are written unchanged."""
    value = 0.1 + 0.2
    row = [np.float32(0.1), np.float64(value), value, np.int64(7), 3, "x", ""]
    cli.write_csv(tmp_path / "t.csv", list("abcdefg"), [row], seed=1, chash="0")
    _, rows = read_csv_rows(tmp_path / "t.csv")
    assert rows == [[repr(float(np.float32(0.1))), repr(value), repr(value), "7", "3", "x", ""]]


@pytest.mark.parametrize("argv", [
    pytest.param(["predict", "--opt", "model.ablation=no_agent", "--cohort", "{cohort}",
                  "--checkpoint", "{ckpt}", "--out", "{out}"], id="predict-opt"),
    pytest.param(["--jobs", "2", "eval", "--cohort", "{cohort}", "--checkpoint", "{ckpt}", "--out", "{out}"],
                 id="eval-jobs"),
    pytest.param(["stats", "km", "--cohort", "{cohort}", "--risks", "{risks}", "--tau", "5", "--out", "{out}"],
                 id="km-tau"),
    pytest.param(["stats", "calib", "--cohort", "{cohort}", "--risks", "{risks}", "--out", "{out}"],
                 id="calib-risks"),
    pytest.param(["--config", "{config}", "stats", "logrank", "--cohort", "{cohort}", "--risks", "{risks}",
                  "--out", "{out}"], id="logrank-config"),
    # a prefix of a declared flag is not that flag
    pytest.param(["stats", "timeroc", "--cohort", "{cohort}", "--risks", "{risks}", "--horizon", "6",
                  "--out", "{out}"], id="timeroc-horizons-prefix"),
    pytest.param(["stats", "km", "--coh", "{cohort}", "--out", "{out}"], id="km-cohort-prefix"),
    pytest.param(["--se", "3", "stats", "km", "--cohort", "{cohort}", "--out", "{out}"], id="seed-prefix"),
])
def test_unread_flag_exits_2(fuzz_base, tmp_path, capsys, argv):
    config = tmp_path / "run.cfg"
    config.write_text("model.ablation=no_agent\n")
    paths = {"cohort": fuzz_base / "cohort.csv", "ckpt": fuzz_base / "model.ckpt", "risks": fuzz_base / "risks.csv",
             "config": config, "out": tmp_path / "out"}
    capsys.readouterr()
    assert cli.run([arg.format(**paths) for arg in argv]) == 2
    assert "usage" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["synth", "--n", "12", "--patches", "9", "--out", "{out}"], id="synth-patches-one-end"),
    pytest.param(["synth", "--n", "12", "--signal", "a:b", "--out", "{out}"], id="synth-signal-not-numbers"),
    pytest.param(["stats", "timeroc", "--cohort", "{cohort}", "--risks", "{risks}", "--horizons", "abc",
                  "--out", "{out}"], id="timeroc-horizons-abc"),
    pytest.param(["stats", "timeroc", "--cohort", "{cohort}", "--risks", "{risks}", "--horizons", "12,nan",
                  "--out", "{out}"], id="timeroc-horizons-nan"),
    pytest.param(["stats", "nomogram", "--cohort", "{cohort}", "--vars", "signal_fraction",
                  "--horizons", "abc", "--out", "{out}"], id="nomogram-horizons-abc"),
    pytest.param(["stats", "dca", "--cohort", "{cohort}", "--pred", "{risks}", "--thresholds", "x",
                  "--out", "{out}"], id="dca-thresholds-x"),
    pytest.param(["stats", "rmst", "--cohort", "{cohort}", "--risks", "{risks}", "--tau", "nan",
                  "--out", "{out}"], id="rmst-tau-nan"),
    pytest.param(["stats", "rmst", "--cohort", "{cohort}", "--risks", "{risks}", "--tau", "inf",
                  "--out", "{out}"], id="rmst-tau-inf"),
    pytest.param(["stats", "boot", "--cohort", "{cohort}", "--risks", "{risks}", "--risks-b", "{risks}",
                  "--n-boot", "0", "--out", "{out}"], id="boot-n-boot-0"),
    pytest.param(["--seed", "-1", "synth", "--n", "12", "--out", "{out}"], id="seed-negative"),
    pytest.param(["synth", "--seed", "-1", "--n", "12", "--out", "{out}"], id="synth-seed-negative"),
    pytest.param(["synth", "--n", "12", "--dim", "-3", "--out", "{out}"], id="synth-dim-negative"),
    pytest.param(["erf", "--checkpoint", "{ckpt}", "--side", "-2", "--out", "{out}"], id="erf-side-negative"),
    pytest.param(["train", "--jobs", "0", "--cohort", "{cohort}", "--out", "{out}"], id="train-jobs-0"),
])
def test_malformed_number_flag_exits_2(fuzz_base, tmp_path, capsys, argv):
    paths = {"cohort": fuzz_base / "cohort.csv", "risks": fuzz_base / "risks.csv", "ckpt": fuzz_base / "model.ckpt",
             "out": tmp_path / "out"}
    capsys.readouterr()
    assert cli.run([arg.format(**paths) for arg in argv]) == 2
    assert "usage" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_opt_after_the_command_adds_to_those_before(tmp_path):
    """--opt before and after the command name merge in order, a later key
    winning; the run equals one with every --opt before the command."""
    data = synth(tmp_path, seed=7, n=12)
    cohort = str(data / "cohort.csv")
    split = TINY_OPTS.index("train.max_epochs=2") - 1
    assert cli.run(["--seed", "3", *TINY_OPTS, "train", "--cohort", cohort,
                    "--out", str(tmp_path / "a")]) == 0
    assert cli.run(["--seed", "3", *TINY_OPTS[:split], "--opt", "train.lr=0.5", "train", *TINY_OPTS[split:],
                    "--cohort", cohort, "--out", str(tmp_path / "b")]) == 0
    assert tree_hash(tmp_path / "a") == tree_hash(tmp_path / "b")


@pytest.mark.parametrize("opt", ["model.d_model=oops", "model.ssm_state_dim=2.5", "train.max_epochs=abc"])
def test_train_rejects_ill_typed_option(tmp_path, capsys, opt):
    data = synth(tmp_path, seed=7, n=12)
    capsys.readouterr()
    rc = cli.run(["--seed", "3", *TINY_OPTS, "--opt", opt, "train",
                  "--cohort", str(data / "cohort.csv"), "--out", str(tmp_path / "run")])
    assert rc == 3
    payload = single_json_error(capsys)
    assert payload["error"] == "DataError"
    assert opt.split(".")[1].split("=")[0] in payload["message"]


@pytest.mark.parametrize("opt", ["train.beta1=1.0", "train.beta1=-0.5", "train.beta2=1.0", "train.eps=0",
                                 "model.n_heads=0", "model.n_heads=-4", "model.pool_hidden=-3", "train.seed=-1"])
def test_train_rejects_adam_settings_that_cannot_converge(tmp_path, capsys, opt):
    """beta = 1 makes Adam's bias correction 0/0 and eps = 0 can divide by
    zero; both are refused before training, not reported as divergence. So
    are model and seed settings out of range, which would otherwise fail
    inside numpy (n_heads <= 0, a negative seed) or be silently replaced
    (a negative pool_hidden)."""
    data = synth(tmp_path, seed=7, n=12)
    capsys.readouterr()
    rc = cli.run(["--seed", "3", *TINY_OPTS, "--opt", opt, "train",
                  "--cohort", str(data / "cohort.csv"), "--out", str(tmp_path / "run")])
    assert rc == 3
    payload = single_json_error(capsys)
    assert payload["error"] == "DataError"
    assert opt.split(".")[1].split("=")[0] in payload["message"]
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("opt,rc,error", [
    pytest.param("train.lr=2.5", 4, "ConvergenceError", id="divergent-lr"),
    pytest.param("model.d_in=9", 3, "ShapeError", id="wrong-bag-width"),
])
def test_failed_training_prints_one_json_line(tmp_path, capsys, opt, rc, error):
    """A diverging run exits 4 naming where it diverged, with no numpy warning
    on the way; a bag that does not fit the model stays a data error."""
    data = synth(tmp_path, seed=7, n=12)
    capsys.readouterr()
    assert cli.run(["--seed", "3", *TINY_OPTS, "--opt", opt, "train",
                    "--cohort", str(data / "cohort.csv"), "--out", str(tmp_path / "run")]) == rc
    payload = single_json_error(capsys)
    assert payload["error"] == error
    if rc == 4:
        assert "fold" in payload["message"] and "epoch" in payload["message"]


def _rewrite_manifest(path: Path, edit) -> None:
    """Replace a checkpoint's manifest bytes by ``edit(manifest_dict)``."""
    raw = path.read_bytes()
    start = len(CKPT_MAGIC) + 8
    (size,) = struct.unpack_from("<Q", raw, len(CKPT_MAGIC))
    payload = edit(json.loads(raw[start:start + size]))
    path.write_bytes(CKPT_MAGIC + struct.pack("<Q", len(payload)) + payload + raw[start + size:])


def _edit_tensors(edit):
    """A manifest edit that rewrites the tensor list by ``edit(entries)``."""
    return lambda m: json.dumps({**m, "tensors": edit(m["tensors"])}).encode()


@pytest.mark.parametrize("edit, error", [
    pytest.param(lambda m: b"{not json", "FormatError", id="invalid-json"),
    pytest.param(lambda m: json.dumps({k: v for k, v in m.items() if k != "seed"}).encode(), "FormatError",
                 id="no-seed"),
    pytest.param(_edit_tensors(lambda ts: ts[1:]), "FormatError", id="missing-tensor"),
    pytest.param(_edit_tensors(lambda ts: ts + [{**ts[0], "name": "extra.W"}]), "FormatError", id="extra-tensor"),
    pytest.param(_edit_tensors(lambda ts: ts + [ts[0]]), "FormatError", id="repeated-tensor"),
    pytest.param(_edit_tensors(lambda ts: [{**ts[0], "shape": [8, 7]}] + ts[1:]), "FormatError", id="wrong-shape"),
    pytest.param(_edit_tensors(lambda ts: [{k: v for k, v in ts[0].items() if k != "shape"}] + ts[1:]),
                 "FormatError", id="no-shape"),
    pytest.param(_edit_tensors(lambda ts: [{k: v for k, v in ts[0].items() if k != "offset"}] + ts[1:]),
                 "FormatError", id="no-offset"),
    pytest.param(_edit_tensors(lambda ts: [{**ts[0], "offset": "0"}] + ts[1:]), "FormatError", id="bad-offset"),
    pytest.param(_edit_tensors(lambda ts: {"proj.W": ts[0]}), "FormatError", id="tensors-not-a-list"),
    # the list is the config's layout: in order, with contiguous offsets
    pytest.param(_edit_tensors(lambda ts: [ts[1], ts[0]] + ts[2:]), "FormatError", id="out-of-order"),
    pytest.param(_edit_tensors(lambda ts: ts[:-1] + [{**ts[-1], "offset": ts[-1]["offset"] + 4}]),
                 "FormatError", id="offset-gap"),
    pytest.param(_edit_tensors(lambda ts: [{**ts[0], "offset": False}] + ts[1:]), "FormatError",
                 id="offset-false"),
    # a config whose weights would not fit the file is refused before any is built
    pytest.param(lambda m: json.dumps({**m, "config": {**m["config"], "d_model": 65536, "n_heads": 1}}).encode(),
                 "TruncatedError", id="huge-d-model"),
    pytest.param(lambda m: json.dumps({**m, "config": {**m["config"], "srmamba_layers": 10**9}}).encode(),
                 "TruncatedError", id="huge-layer-count"),
])
def test_predict_rejects_bad_checkpoint_manifest(tmp_path, capsys, edit, error):
    data = synth(tmp_path, seed=7, n=12)
    ckpt = tmp_path / "model.ckpt"
    cfg = ModelConfig(d_in=8, d_model=8, n_heads=2, n_agents=2, n_landmarks=4,
                      srmamba_layers=1, srmamba_rate=2, ssm_state_dim=2, agent_bias_side=3)
    save_checkpoint(ckpt, init_params(cfg))
    _rewrite_manifest(ckpt, edit)
    capsys.readouterr()
    rc = cli.run(["predict", "--cohort", str(data / "cohort.csv"), "--checkpoint", str(ckpt),
                  "--out", str(tmp_path / "out")])
    assert rc == 3
    payload = single_json_error(capsys)
    assert payload["error"] == error
    assert str(ckpt) in payload["message"]


def test_netlink_command(tmp_path, monkeypatch):
    built = []
    build_network = cli.netlink.build_network

    def recorded(*args, **kwargs):
        built.append(build_network(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli.netlink, "build_network", recorded)
    data = synth(tmp_path, seed=21, n=60)
    risks = tmp_path / "risks.csv"
    write_risks_from_signal(data, risks)
    cohort = load_cohort_manifest(data / "cohort.csv")
    rng = np.random.default_rng(0)
    genes = tmp_path / "genes.csv"
    with open(genes, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "HUB1", "N1", "N2", "N3"])
        for r in cohort.records:
            s = r.covariates["signal_fraction"]
            writer.writerow([r.patient_id, repr(float(s + 0.15 * rng.standard_normal())),
                             *(repr(float(v)) for v in rng.standard_normal(3))])
    out = tmp_path / "net"
    rc = cli.run(["--seed", "2", "netlink", "--cohort", str(data / "cohort.csv"),
                  "--risks", str(risks), "--genes", str(genes), "--out", str(out)])
    assert rc == 0
    header, rows = read_csv_rows(out / "centrality.csv")
    assert header == ["Term", "Group", "Degree", "Eigenvector Centrality"]
    assert rows[0][3] == "1.000"
    assert any(r[0] == "HUB1" and r[1] == "Gene" for r in rows)
    assert (out / "edges.csv").exists()
    first_lines = {(out / name).read_text().splitlines()[0]
                   for name in ("centrality.csv", "edges.csv", "enet_path.csv")}
    assert len(first_lines) == 1 and first_lines.pop().startswith("# tdam=")
    header, rows = read_csv_rows(out / "enet_path.csv")
    assert header == ["lambda", "cv_mse", "selected"]
    assert len(rows) == 100
    assert [r[2] for r in rows].count("1") == 1 and {r[2] for r in rows} == {"0", "1"}
    chosen = next(r for r in rows if r[2] == "1")
    assert float(chosen[0]) == built[0].enet.lambda_
    assert float(chosen[1]) == min(float(r[1]) for r in rows)


def test_netlink_transposed_genes(tmp_path):
    data = synth(tmp_path, seed=21, n=60)
    risks = tmp_path / "risks.csv"
    write_risks_from_signal(data, risks)
    cohort = load_cohort_manifest(data / "cohort.csv")
    rng = np.random.default_rng(0)
    values = {}
    for r in cohort.records:
        s = r.covariates["signal_fraction"]
        values[r.patient_id] = [float(s + 0.15 * rng.standard_normal())] + [
            float(v) for v in rng.standard_normal(3)
        ]
    genes_t = tmp_path / "genes_t.csv"
    ids = [r.patient_id for r in cohort.records]
    with open(genes_t, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gene_id"] + ids)
        for g, name in enumerate(["HUB1", "N1", "N2", "N3"]):
            writer.writerow([name] + [repr(values[pid][g]) for pid in ids])
    out = tmp_path / "net_t"
    rc = cli.run(["--seed", "2", "netlink", "--cohort", str(data / "cohort.csv"),
                  "--risks", str(risks), "--genes", str(genes_t),
                  "--genes-orientation", "genes", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv_rows(out / "centrality.csv")
    assert any(r[0] == "HUB1" for r in rows)


def write_matrix(path: Path, ids: list[str], orientation: str) -> None:
    """A 3-gene expression CSV in either layout."""
    values = np.random.default_rng(0).standard_normal((len(ids), 3)).tolist()
    if orientation == "samples":
        rows = [["patient_id", "G0", "G1", "G2"]] + [[pid, *map(repr, v)] for pid, v in zip(ids, values)]
    else:
        rows = [["gene_id", *ids]] + [[f"G{g}", *(repr(v[g]) for v in values)] for g in range(3)]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("orientation,defect", [
    ("samples", "cell"), ("samples", "short-row"), ("genes", "cell"), ("genes", "short-row"),
    ("samples", "long-row"), ("genes", "long-row"),
])
def test_netlink_rejects_bad_matrix_csv(tmp_path, capsys, orientation, defect):
    """Both matrix readers name the file and the patient of a bad cell or a
    short row; a row longer than the header is refused, named by its patient
    or gene and its cell count."""
    data = synth(tmp_path, seed=21, n=12)
    risks = tmp_path / "risks.csv"
    write_risks_from_signal(data, risks)
    ids = [r.patient_id for r in load_cohort_manifest(data / "cohort.csv").records]
    genes = tmp_path / "genes.csv"
    write_matrix(genes, ids, orientation)
    # the cell of patient ids[3], gene G1, in either layout
    row, col = (4, 2) if orientation == "samples" else (2, 4)
    edit = {"cell": ("cell", (row, col, "x")), "short-row": ("short-row", (row, col)),
            "long-row": ("long-row", (row, ["999", "abc"]))}[defect]
    _apply_csv_edit(genes, edit)
    capsys.readouterr()
    rc = cli.run(["netlink", "--cohort", str(data / "cohort.csv"), "--risks", str(risks),
                  "--genes", str(genes), "--genes-orientation", orientation, "--out", str(tmp_path / "net")])
    assert rc == 3
    payload = single_json_error(capsys)
    assert payload["error"] == "DataError" and str(genes) in payload["message"]
    if defect != "long-row":
        assert ids[3] in payload["message"]
    else:
        named = ids[3] if orientation == "samples" else "'G1'"
        assert f"{named} has {len(ids) + 3 if orientation == 'genes' else 6} cells" in payload["message"]


def test_matrix_reader_reads_both_layouts_alike(tmp_path):
    """One matrix written in each layout reads to the same names and array,
    its rows in the order of the ids asked for."""
    ids = [f"P{i:04d}" for i in range(5)]
    read = {}
    for orientation in ("samples", "genes"):
        path = tmp_path / f"{orientation}.csv"
        write_matrix(path, ids, orientation)
        read[orientation] = cli._read_matrix_csv(str(path), ids[::-1], by_column=orientation == "genes")
    (names_s, values_s), (names_g, values_g) = read["samples"], read["genes"]
    assert names_s == names_g == ["G0", "G1", "G2"]
    assert values_s.shape == (5, 3)
    np.testing.assert_array_equal(values_s, values_g)
    np.testing.assert_array_equal(values_s, np.random.default_rng(0).standard_normal((5, 3))[::-1])


@pytest.mark.parametrize("orientation", ["samples", "genes"])
def test_netlink_rejects_a_repeated_gene_name(tmp_path, capsys, orientation):
    """Two gene columns named alike would merge into one network node."""
    data = synth(tmp_path, seed=21, n=12)
    risks = tmp_path / "risks.csv"
    write_risks_from_signal(data, risks)
    ids = [r.patient_id for r in load_cohort_manifest(data / "cohort.csv").records]
    genes = tmp_path / "genes.csv"
    write_matrix(genes, ids, orientation)
    # rename gene G1 to G0, in either layout
    _apply_csv_edit(genes, ("cell", (0, 2, "G0") if orientation == "samples" else (2, 0, "G0")))
    capsys.readouterr()
    rc = cli.run(["netlink", "--cohort", str(data / "cohort.csv"), "--risks", str(risks),
                  "--genes", str(genes), "--genes-orientation", orientation, "--out", str(tmp_path / "net")])
    assert rc == 3
    payload = single_json_error(capsys)
    assert payload["error"] == "DataError" and "'G0'" in payload["message"]


def test_ablate_command(tmp_path):
    data = synth(tmp_path, seed=7, n=12)
    out = tmp_path / "ablate"
    rc = cli.run(["--seed", "3", *TINY_OPTS, "ablate",
                  "--cohort", str(data / "cohort.csv"), "--out", str(out)])
    assert rc == 0
    header, rows = read_csv_rows(out / "ablation.csv")
    assert [r[0] for r in rows] == ["full", "no_transformer", "no_agent", "no_srmamba"]
    for variant in ("full", "no_transformer"):
        assert (out / variant / "cv_report.json").exists()


def test_outputs_embed_version_seed_confighash(tmp_path):
    data = synth(tmp_path, seed=7)
    first = (data / "cohort.csv").read_text().splitlines()[0]
    assert first.startswith("# tdam=") and "seed=7" in first and "config=" in first


# -- fuzz gate: every malformed input ends in exit 2/3/4 with one JSON line ------------

BAD_CELLS = ["", "abc", "nan", "-inf", "1e999", "0x1p3", "1,5"]
BAD_VALUES = ["oops", "2.5", "-3", "nan", "inf", "true", "", "frob"]
# every option here is invalid; train.lr=2.5 is valid (it diverges), so 2.5 is not offered to the float keys
BAD_OPTS = sorted(
    {f"{key}={value}" for key in ("model.d_model", "model.ssm_state_dim", "model.n_heads", "model.pool_hidden",
                                  "train.max_epochs", "train.folds", "train.seed", "model.frobnicate")
     for value in BAD_VALUES}
    | {f"{key}={value}" for key in ("model.dropout", "train.lr") for value in BAD_VALUES if value != "2.5"}
    | {f"model.ablation={value}" for value in BAD_VALUES}
    | {"model.d_model", "", "=", "d_model=8", "seed=3"}
)


def _is_json_object(raw: bytes) -> bool:
    try:
        return isinstance(json.loads(raw.decode("utf-8")), dict)
    except ValueError:
        return False


@st.composite
def csv_edits(draw, n_rows: int, n_cols: int, layout: str):
    """An edit that makes a CSV of a header plus ``n_rows`` rows of ``n_cols``
    cells malformed. A gene row may be dropped or repeated, and a gene named
    anything, so those edits are left out of the gene-rows layout."""
    kinds = ["cell", "short-row", "empty", "bytes"]
    if layout != "genes":
        kinds += ["drop-row", "duplicate-row"]
    kind = draw(st.sampled_from(kinds))
    if kind == "bytes":
        return kind, draw(st.binary(max_size=40))
    if kind == "cell":
        row = draw(st.integers(0 if layout == "genes" else 1, n_rows))
        return kind, (row, draw(st.integers(1, n_cols - 1)), draw(st.sampled_from(BAD_CELLS)))
    return kind, (draw(st.integers(1, n_rows)), draw(st.integers(1, n_cols - 1)))


def _apply_csv_edit(path: Path, edit) -> None:
    kind, arg = edit
    if kind == "bytes":
        path.write_bytes(arg)
        return
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if kind == "empty":
        rows = []
    elif kind == "cell":
        row, col, cell = arg
        rows[row][col] = cell
    elif kind == "short-row":
        row, keep = arg
        rows[row] = rows[row][:keep]
    elif kind == "long-row":
        row, extra = arg
        rows[row] = rows[row] + extra
    elif kind == "drop-row":
        del rows[arg[0]]
    elif kind == "drop-column":
        rows = [r[:arg] + r[arg + 1:] for r in rows]
    else:
        rows.append(rows[arg[0]])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@st.composite
def cohort_edits(draw):
    """An edit that makes a cohort manifest (header patient_id,time,event,
    signal_fraction,bag_path; P0000 first) malformed. A dropped row or a
    finite non-positive time is valid input, so neither is drawn."""
    kind = draw(st.sampled_from(["time", "event", "covariate", "repeat-id", "short-row", "drop-column"]))
    row = draw(st.integers(2, 12))
    if kind == "drop-column":
        return kind, draw(st.integers(0, 2))
    if kind == "short-row":
        return kind, (row, draw(st.integers(1, 4)))
    col, cells = {"time": (1, ["soon", "", "0x1p3", "nan", "inf", "-inf"]), "event": (2, ["2", "-1", "", "1.0"]),
                  "covariate": (3, ["inf", "-inf", "1e999"]), "repeat-id": (0, ["P0000"])}[kind]
    return "cell", (row, col, draw(st.sampled_from(cells)))


JUNK_SHAPES = [None, "8", [], [8, 7], [-1], [0.5]]
JUNK_OFFSETS = [None, -1, "0", 1.5, True, 10**12]


@st.composite
def manifest_edits(draw):
    """An edit that makes a checkpoint manifest malformed or inconsistent with its config."""
    kind = draw(st.sampled_from(["drop-key", "shape", "offset", "drop-entry", "repeat-entry",
                                 "rename-entry", "config", "text"]))
    if kind == "text":
        return kind, draw(st.text(max_size=30))
    if kind == "config":
        key = draw(st.sampled_from(["d_model", "n_heads", "pool_hidden", "ablation", "frob"]))
        return kind, (key, draw(st.sampled_from(BAD_VALUES)))
    index = draw(st.integers(0, 40))
    if kind == "drop-key":
        return kind, (index, draw(st.sampled_from(["name", "shape", "offset"])))
    if kind == "shape":
        return kind, (index, draw(st.sampled_from(JUNK_SHAPES)))
    if kind == "offset":
        return kind, (index, draw(st.sampled_from(JUNK_OFFSETS)))
    return kind, (index, None)


def _apply_manifest_edit(manifest: dict, edit) -> bytes:
    kind, arg = edit
    if kind == "text":
        return arg.encode()
    if kind == "config":
        key, value = arg
        manifest["config"][key] = cli._parse_value(value)
        return json.dumps(manifest).encode()
    index, value = arg
    entries = manifest["tensors"]
    entry = entries[index % len(entries)]
    if kind == "drop-key":
        del entry[value]
    elif kind in ("shape", "offset"):
        entry[kind] = value
    elif kind == "drop-entry":
        entries.remove(entry)
    elif kind == "repeat-entry":
        entries.append(entry)
    else:
        entry["name"] = entry["name"] + ".x"
    return json.dumps(manifest).encode()


FUZZ_CASES = st.one_of(
    st.tuples(st.just("score"), csv_edits(12, 2, "samples")),
    st.tuples(st.sampled_from(["genes", "features"]), csv_edits(12, 4, "samples")),
    st.tuples(st.just("genes-transposed"), csv_edits(3, 13, "genes")),
    st.tuples(st.just("sidecar"), st.binary(max_size=30).filter(lambda b: not _is_json_object(b))),
    st.tuples(st.just("checkpoint"), manifest_edits()),
    st.tuples(st.just("opt"), st.sampled_from(BAD_OPTS)),
    st.tuples(st.just("cohort"), cohort_edits()),
)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A 12-patient cohort, its risks, a samples x genes matrix and a tiny checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    data = synth(root, seed=7, n=12)
    write_risks_from_signal(data, data / "risks.csv")
    ids = [r.patient_id for r in load_cohort_manifest(data / "cohort.csv").records]
    write_matrix(data / "genes.csv", ids, "samples")
    write_matrix(data / "genes_t.csv", ids, "genes")
    save_checkpoint(data / "model.ckpt", init_params(TINY_CONFIG))
    return data


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=FUZZ_CASES)
def test_cli_fuzz_malformed_inputs_exit_cleanly(fuzz_base, case):
    """Malformed score, matrix, bag-sidecar, checkpoint-manifest, --opt and
    cohort-manifest inputs exit with 2, 3 or 4 and print exactly one JSON line
    on stderr."""
    kind, edit = case
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        shutil.copytree(fuzz_base, data)
        cohort, risks, genes = str(data / "cohort.csv"), str(data / "risks.csv"), str(data / "genes.csv")
        out = str(Path(tmp) / "out")
        predict = ["predict", "--cohort", cohort, "--checkpoint", str(data / "model.ckpt"), "--out", out]
        netlink = ["netlink", "--cohort", cohort, "--risks", risks, "--out", out]
        if kind == "score":
            _apply_csv_edit(data / "risks.csv", edit)
            argv = ["stats", "logrank", "--cohort", cohort, "--risks", risks, "--out", out]
        elif kind in ("genes", "features"):
            _apply_csv_edit(data / "genes.csv", edit)
            argv = netlink + (["--genes", genes] if kind == "genes" else ["--features", genes, "--genes", genes])
        elif kind == "genes-transposed":
            _apply_csv_edit(data / "genes_t.csv", edit)
            argv = netlink + ["--genes", str(data / "genes_t.csv"), "--genes-orientation", "genes"]
        elif kind == "sidecar":
            next(data.rglob("*.bag.json")).write_bytes(edit)
            argv = predict
        elif kind == "checkpoint":
            _rewrite_manifest(data / "model.ckpt", lambda m: _apply_manifest_edit(m, edit))
            argv = predict
        elif kind == "opt":
            argv = [*TINY_OPTS, "--opt", edit, "train", "--cohort", cohort, "--out", out]
        else:
            _apply_csv_edit(data / "cohort.csv", edit)
            argv = ["stats", "cox", "--cohort", cohort, "--vars", "signal_fraction", "--out", out]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    lines = err.getvalue().strip().splitlines()
    assert rc in (2, 3, 4), (kind, edit, rc)
    assert "Traceback" not in err.getvalue()
    if rc != 2:  # argparse prints its usage text for exit 2
        assert len(lines) == 1, lines
        assert {"error", "message"} <= json.loads(lines[0]).keys()
