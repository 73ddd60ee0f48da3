#!/usr/bin/env python3
"""Time and peak memory of ``build_network`` at transcriptome scale.

Each gene count runs in a fresh interpreter (``fresh_process``), so each
peak RSS belongs to that run alone. The input is a
planted-hub cohort: ``n`` patients, 25 extractor features of which eight
track a latent factor that drives the risk score and the survival times,
and ``genes`` gene columns of which the first tracks the same factor. Prints
one JSON line per gene count, with the seconds spent in the Spearman
screens, the elastic net, the gene screen and the centrality, the whole
``build_network`` call, and the peak RSS.

    PYTHONPATH=src python3 scripts/run_network_probe.py --genes 2000 20000
"""

import argparse
import json
import sys
import time

from fresh_process import peak_rss_mb, run_each

DEFAULT_GENES = (10, 2000, 20000)
N_PATIENTS = 581  # the paper's discovery cohort
N_FEATURES = 25
N_DRIVERS = 8
SEED = 0
STAGES = {"spearman_s": "spearman_matrix", "enet_s": "elastic_net_fit",
          "screen_s": "cox_screen", "centrality_s": "eigenvector_centrality"}


def hub_cohort(n: int, n_genes: int):
    import numpy as np

    rng = np.random.default_rng(SEED)
    u = rng.standard_normal(n)
    features = rng.standard_normal((n, N_FEATURES))
    features[:, :N_DRIVERS] = 0.8 * u[:, None] + 0.6 * rng.standard_normal((n, N_DRIVERS))
    risk = u + 0.3 * rng.standard_normal(n)
    genes = rng.standard_normal((n, n_genes))
    genes[:, 0] = 0.9 * u + 0.45 * rng.standard_normal(n)
    times = rng.exponential(1.0 / (0.05 * np.exp(0.8 * risk))) + 1e-9
    events = (rng.random(n) < 0.85).astype(np.int64)
    return features, risk, genes, times, events


def probe(n: int, n_genes: int) -> dict:
    """Build one network in this process, timing each stage."""
    from tdam import netlink

    seconds = dict.fromkeys(STAGES, 0.0)

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - t0
        return wrapper

    for key, attr in STAGES.items():
        setattr(netlink, attr, timed(key, getattr(netlink, attr)))
    data = hub_cohort(n, n_genes)
    t0 = time.perf_counter()
    result = netlink.build_network(*data, seed=SEED)
    total = time.perf_counter() - t0
    return {"n": n, "genes": n_genes, "features": N_FEATURES,
            **{k: round(v, 4) for k, v in seconds.items()}, "total_s": round(total, 4),
            "prognostic_genes": len(result.prognostic_genes), "top_hub": result.table[0].term,
            "peak_rss_mb": peak_rss_mb()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--genes", type=int, nargs="+", default=list(DEFAULT_GENES))
    ap.add_argument("--n", type=int, default=N_PATIENTS, help="patients")
    ap.add_argument("--one", nargs=2, type=int, metavar=("N", "GENES"), help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.one:
        print(json.dumps(probe(*args.one)))
        return 0
    return run_each(__file__, [(args.n, n_genes) for n_genes in args.genes],
                    "network probe failed at {} patients x {} genes")


if __name__ == "__main__":
    sys.exit(main())
