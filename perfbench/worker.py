"""One benchmark process: set up a workload, then measure it.

Started by ``run.py`` with the BLAS thread count already pinned in its
environment. The set-up time counts from the first line of this file, so it
includes importing numpy, scipy and the program. With ``--setup-only`` the
process stops after set-up and reports that time alone. The last line of
standard output is one JSON object.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

perf = time.perf_counter


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_reported": blas_threads(),
        "seed": seed,
    }


def run_for(seconds: float, wl, one_round) -> None:
    """Warm up, then call ``one_round()`` until the next call would end past
    ``seconds`` (counting the warm-up); always at least once."""
    t0 = perf()
    wl.warm_up()
    t1 = perf()
    n = 0
    while True:
        one_round()
        n += 1
        now = perf()
        if (now - t0) + (now - t1) / n > seconds:
            return


def play(wl) -> workloads.Round:
    r = workloads.Round()
    wl.run_round(r)
    return r


def measure(wl, seconds: float) -> list:
    """Untraced rounds for ``seconds``."""
    rounds = []
    run_for(seconds, wl, lambda: rounds.append(play(wl)))
    return rounds


def measure_traced(wl, seconds: float, spans_path: Path):
    """Alternate untraced and traced rounds; per-layer metrics from the traced ones."""
    plain, traced = [], []
    tracer = Tracer()

    def one_pair():
        plain.append(play(wl))
        wl.tracer = tracer
        layers.install(tracer)
        try:
            traced.append(play(wl))
        finally:
            tracer.restore()
            wl.tracer = None

    run_for(seconds, wl, one_pair)
    tracer.dump(spans_path)
    overhead = 100.0 * (sum(r.wall for r in traced) / sum(r.wall for r in plain) - 1.0)
    return plain + traced, layers.metrics(tracer, len(traced), overhead)


def end_to_end(rounds: list) -> dict:
    """ms per unit of fit and eval work over the whole run: total time over
    total units. The host alternates between a fast and a slow state every
    few seconds, in proportions that drift over minutes; the total uses every
    round's time, where the median of a run's 2-6 rounds rests on one or two
    and read with a wider spread across runs (e.g. cv_train fit: IQR/median
    0.23 against 0.27 over the same ten runs)."""
    return {
        f"{kind}_ms": 1000.0 * sum(r.seconds[kind] for r in rounds)
        / sum(r.units[kind] for r in rounds)
        for kind in ("fit", "eval")
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    args.workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        setup_s = perf() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = {"setup_s": setup_s, "env": environment(args.seed)}
        if args.trace:
            spans = args.out / f"spans-{args.workload}-seed{args.seed}.json"
            rounds, result["per_layer"] = measure_traced(wl, args.seconds, spans)
        else:
            rounds = measure(wl, args.seconds)
            result["end_to_end"] = end_to_end(rounds)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    result["rounds"] = [
        {"seconds": r.seconds, "units": r.units, "wall": r.wall,
         "attempted": r.attempted, "failed": r.failed}
        for r in rounds
    ]
    result["attempted"] = sum(r.attempted for r in rounds)
    result["failed"] = sum(r.failed for r in rounds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
