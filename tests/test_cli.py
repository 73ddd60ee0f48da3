import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from tdam import cli
from tdam.bags import load_cohort_manifest
from tdam.model import CKPT_MAGIC, ModelConfig, init_params, save_checkpoint

TINY_OPTS = [
    "--opt", "model.d_in=8", "--opt", "model.d_model=8", "--opt", "model.n_heads=2",
    "--opt", "model.n_agents=2", "--opt", "model.n_landmarks=4", "--opt", "model.srmamba_layers=1",
    "--opt", "model.srmamba_rate=2", "--opt", "model.ssm_state_dim=2", "--opt", "model.agent_bias_side=3",
    "--opt", "train.max_epochs=2", "--opt", "train.warmup_epochs=1", "--opt", "train.folds=2",
    "--opt", "train.lr=0.001",
]


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


def write_risks_from_signal(data: Path, path: Path, jitter: float = 0.05) -> None:
    cohort = load_cohort_manifest(data / "cohort.csv")
    rng = np.random.default_rng(123)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "risk"])
        for r in cohort.records:
            noisy = r.covariates["signal_fraction"] + jitter * rng.standard_normal()
            writer.writerow([r.patient_id, repr(noisy)])


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


def single_json_error(capsys) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("stat,row", [
    pytest.param("timeroc", "{pid},nan", id="timeroc-nan"),
    pytest.param("logrank", "{pid},nan", id="logrank-nan"),
    pytest.param("logrank", "{pid},abc", id="logrank-abc"),
    pytest.param("logrank", "{pid}", id="logrank-short-row"),
    pytest.param("km", "{pid},0.5\n{pid},0.5", id="km-duplicate-id"),
    pytest.param("km", None, id="km-empty-file"),
])
def test_stats_rejects_bad_score(tmp_path, capsys, stat, row):
    """``row`` replaces one data row of the score file; None empties the file."""
    data = synth(tmp_path, seed=11, n=30)
    risks = tmp_path / "risks.csv"
    write_risks_from_signal(data, risks)
    lines = risks.read_text().splitlines()
    pid = lines[5].split(",")[0]
    if row is None:
        risks.write_text("")
    else:
        lines[5] = row.format(pid=pid)
        risks.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.run(["stats", stat, "--cohort", str(data / "cohort.csv"), "--risks", str(risks),
                  "--out", str(tmp_path / "out")])
    assert rc == 3
    payload = single_json_error(capsys)
    assert payload["error"] == "DataError"
    assert str(risks) in payload["message"]
    assert row is None or pid in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stat,given,needed", [
    ("boot", ["--risks"], "--risks-b"),
    ("calib", [], "--pred"),
    ("dca", [], "--pred"),
    ("logrank", [], "--risks"),
    ("timeroc", [], "--risks"),
    ("rmst", [], "--risks"),
])
def test_stats_missing_score_flag_exits_3(tmp_path, capsys, stat, given, needed):
    data = synth(tmp_path, seed=11, n=30)
    risks = tmp_path / "risks.csv"
    write_risks_from_signal(data, risks)
    capsys.readouterr()
    argv = ["stats", stat, "--cohort", str(data / "cohort.csv"), "--out", str(tmp_path / "out")]
    for flag in given:
        argv += [flag, str(risks)]
    assert cli.run(argv) == 3
    payload = single_json_error(capsys)
    assert payload["error"] == "DataError"
    assert needed in payload["message"]


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


def _rewrite_manifest(path: Path, edit) -> None:
    """Replace a checkpoint's manifest bytes by ``edit(manifest_dict)``."""
    raw = path.read_bytes()
    start = len(CKPT_MAGIC) + 8
    (size,) = struct.unpack_from("<Q", raw, len(CKPT_MAGIC))
    payload = edit(json.loads(raw[start:start + size]))
    path.write_bytes(CKPT_MAGIC + struct.pack("<Q", len(payload)) + payload + raw[start + size:])


@pytest.mark.parametrize("edit", [
    pytest.param(lambda m: b"{not json", id="invalid-json"),
    pytest.param(lambda m: json.dumps({k: v for k, v in m.items() if k != "seed"}).encode(), id="no-seed"),
])
def test_predict_rejects_bad_checkpoint_manifest(tmp_path, capsys, edit):
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
    assert payload["error"] == "FormatError"
    assert str(ckpt) in payload["message"]


def test_netlink_command(tmp_path):
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
