"""Benchmark launcher.

    python3 perfbench/run.py --workload cv_train --seed 1 --seconds 20 --trace 0

Run from the repository root. It pins the BLAS thread count, times the
workload's set-up in SETUP_PROBES fresh processes, then measures the workload
in one more fresh process (whose set-up is one more sample). It prints the
environment, every metric by name with its unit, and as the last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones
with ``--trace 1``). Full results and the spans of traced runs are written
under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cv_train", "wsi_bag", "survival_stats")
SETUP_PROBES = 2
BLAS_THREADS = "1"  # one client on one core (never more than nproc): the steadiest figures
DEADLINE_S = 170.0

# The names a user of each workload would give fit_ms and eval_ms, with the
# unit and the conversion from ms per unit of work.
USER_METRICS = {
    "cv_train": {
        "train_steps_per_s": ("fit", "steps/s", lambda ms: 1e3 / ms),
        "eval_bags_per_s": ("eval", "bags/s", lambda ms: 1e3 / ms),
    },
    "wsi_bag": {
        "fwdbwd_patches_per_s": ("fit", "patches/s", lambda ms: 1e6 / ms),
        "fwd_patches_per_s": ("eval", "patches/s", lambda ms: 1e6 / ms),
    },
    "survival_stats": {
        "network_s": ("fit", "s", lambda ms: ms / 1e3),
        "stats_report_s": ("eval", "s", lambda ms: ms / 1e3),
    },
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def run_worker(args, extra: list[str], timeout: float) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir),
           "--out", str(ROOT / ".perfbench_out"), *extra]
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def user_metrics(workload: str, e2e: dict) -> dict:
    return {
        name: (convert(e2e[f"{kind}_ms"]), unit)
        for name, (kind, unit, convert) in USER_METRICS[workload].items()
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (ROOT / "src" / "tdam" / "__init__.py").is_file():
        return fail(f"no program to measure: {ROOT / 'src' / 'tdam'} is missing")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    t_start = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - t_start)

    try:
        probes = 0 if args.trace else SETUP_PROBES  # set-up time is an end-to-end metric only
        setups = [run_worker(args, ["--setup-only"], left())["setup_s"] for _ in range(probes)]
        res = run_worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], left())
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        return fail(f"{args.workload}: {exc}")
    setups.append(res["setup_s"])

    print("env " + json.dumps(res["env"]))
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = res["per_layer"]
        for name, unit in units.items():
            print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {**res["end_to_end"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        named = user_metrics(args.workload, res["end_to_end"])
        named["setup_s"] = (values["setup_s"], "s")
        named["peak_rss_mb"] = (values["peak_rss_mb"], "MB")
        named["error_rate"] = (res["failed"] / res["attempted"], "failed/attempted")
        for name, (value, unit) in named.items():
            print(f"{args.workload} {name} = {value:.6g} {unit}")
    res["setup_samples_s"] = setups
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1) + "\n")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
