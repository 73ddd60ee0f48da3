"""The fresh-process loop the probe scripts share.

Each probe case runs in its own interpreter, started as ``<script> --one
<case...>``, with BLAS pinned to one thread, so each peak RSS
(``ru_maxrss``) belongs to that run alone. The child prints one JSON line,
which is passed on as it arrives.
"""

import os
import resource
import subprocess
import sys

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def run_each(script: str, cases, failure: str) -> int:
    """Run ``script --one *case`` for each case in turn and print its line.

    Stops at the first child that fails, printing ``failure`` formatted with
    that case to stderr, and returns 1; returns 0 when every case ran.
    """
    env = {**os.environ, **dict.fromkeys(BLAS_THREADS, "1")}
    for case in cases:
        cmd = [sys.executable, script, "--one", *(str(v) for v in case)]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(failure.format(*case), file=sys.stderr)
            return 1
        print(proc.stdout.strip(), flush=True)
    return 0
