#!/usr/bin/env python3
"""Peak memory and time of one bag at the paper's default width.

Each (patch count, mode) runs in a fresh interpreter (``fresh_process``), so
each peak RSS belongs to that run alone. Modes: ``eval`` is an eval
forward, which records no tape, and ``fwd_bwd`` a train forward, the
survival loss and its backward. Prints one JSON line per run.

    PYTHONPATH=src python3 scripts/run_memory_probe.py --patches 256 4096
"""

import argparse
import json
import sys
import time

from fresh_process import peak_rss_mb, run_each

MODES = ("eval", "fwd_bwd")
DEFAULT_PATCHES = (256, 1024, 4096, 16384)


SEED = 0


def probe(n: int, mode: str) -> dict:
    """Run one bag of ``n`` random patches through ``mode`` in this process."""
    import numpy as np

    from tdam import model, survival
    from tdam.bags import FeatureBag, grid_coords

    cfg = model.ModelConfig()
    params = model.init_params(cfg, seed=SEED)
    rng = np.random.default_rng(SEED)
    bag = FeatureBag(f"probe_{n}", rng.standard_normal((n, cfg.d_in), dtype=np.float32), grid_coords(n))
    t0 = time.perf_counter()
    if mode == "eval":
        model.forward(bag, params, mode="eval")
    else:
        _, trace = model.forward(bag, params, mode="train", seed=SEED)
        survival.nll_graph(trace.tensors["logits"], 1, 0).backward()
    seconds = time.perf_counter() - t0
    return {"patches": n, "mode": mode, "seconds": round(seconds, 3), "peak_rss_mb": peak_rss_mb()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--patches", type=int, nargs="+", default=list(DEFAULT_PATCHES))
    ap.add_argument("--modes", nargs="+", choices=MODES, default=list(MODES))
    ap.add_argument("--one", nargs=2, metavar=("PATCHES", "MODE"), help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.one:
        print(json.dumps(probe(int(args.one[0]), args.one[1])))
        return 0
    return run_each(__file__, [(n, mode) for n in args.patches for mode in args.modes],
                    "memory probe failed on {} patches, mode {}")


if __name__ == "__main__":
    sys.exit(main())
