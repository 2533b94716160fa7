"""Wall time, CPU time and peak RSS of one bootstrap_df call, split between
the calling process and the worker processes that refit the replicates.

    python3 bench/workers.py --n-boot 200 --seed 11
    taskset -c 0 python3 bench/workers.py --n-boot 200 --seed 11

The data are those of the boot_df benchmark workload: df_null (N=100,
p=10, K=4), sigma 1, the grid geomspace(0.3, 0.003, 20).  BLAS is pinned to
one thread.  Worker figures come from RUSAGE_CHILDREN, which counts the
workers once they are joined, at the end of the call; on one CPU the
replicates are refit in-process and the worker CPU time reads 0.  The
worker peak RSS is a maximum over every child reaped so far, not a
difference, so it also covers children reaped before the process exec'd
Python (a few MB).  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n-boot", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from plasso import SimSpec, bootstrap_df, generate

    sim = generate(SimSpec("df_null", seed=args.seed))
    grid = np.geomspace(0.3, 0.003, 20)
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    bootstrap_df(sim.truth.mu_train, 1.0, sim.train.X, sim.train.Z, grid,
                 n_boot=args.n_boot, seed=args.seed)
    wall = perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({
        "n_boot": args.n_boot, "seed": args.seed,
        "cpus": len(os.sched_getaffinity(0)),
        "wall_s": wall,
        "parent_cpu_s": cpu_s(self1) - cpu_s(self0),
        "worker_cpu_s": cpu_s(kids1) - cpu_s(kids0),
        "parent_peak_rss_mb": self1.ru_maxrss / 1024.0,
        "worker_peak_rss_mb": kids1.ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
