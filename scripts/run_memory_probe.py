#!/usr/bin/env python3
"""Peak memory and time of one bag at the paper's default width.

Each (patch count, mode) runs in a fresh interpreter with BLAS pinned to one
thread, so each peak RSS (``ru_maxrss``) belongs to that run alone. Modes:
``eval_no_grad`` is an eval forward under no_grad(), ``eval_recording`` the
same forward with the tape recording, and ``fwd_bwd`` a train forward, the
survival loss and its backward. Prints one JSON line per run.

    PYTHONPATH=src python3 scripts/run_memory_probe.py --patches 256 4096
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

MODES = ("eval_no_grad", "eval_recording", "fwd_bwd")
DEFAULT_PATCHES = (256, 1024, 4096, 16384)


SEED = 0


def probe(n: int, mode: str) -> dict:
    """Run one bag of ``n`` random patches through ``mode`` in this process."""
    import numpy as np

    from tdam import model, survival
    from tdam.autodiff import no_grad
    from tdam.bags import FeatureBag, grid_coords

    cfg = model.ModelConfig()
    params = model.init_params(cfg, seed=SEED)
    rng = np.random.default_rng(SEED)
    bag = FeatureBag(f"probe_{n}", rng.standard_normal((n, cfg.d_in), dtype=np.float32), grid_coords(n))
    t0 = time.perf_counter()
    if mode == "eval_no_grad":
        with no_grad():
            model.forward(bag, params, mode="eval")
    elif mode == "eval_recording":
        model.forward(bag, params, mode="eval")
    else:
        _, trace = model.forward(bag, params, mode="train", seed=SEED)
        survival.nll_graph(trace.tensors["logits"], 1, 0).backward()
    seconds = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"patches": n, "mode": mode, "seconds": round(seconds, 3), "peak_rss_mb": round(peak_mb, 1)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--patches", type=int, nargs="+", default=list(DEFAULT_PATCHES))
    ap.add_argument("--modes", nargs="+", choices=MODES, default=list(MODES))
    ap.add_argument("--one", nargs=2, metavar=("PATCHES", "MODE"), help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.one:
        print(json.dumps(probe(int(args.one[0]), args.one[1])))
        return 0
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for n in args.patches:
        for mode in args.modes:
            cmd = [sys.executable, __file__, "--one", str(n), mode]
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"memory probe failed on {n} patches, mode {mode}", file=sys.stderr)
                return 1
            print(proc.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
