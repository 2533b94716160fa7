"""Block visits by move, per input of each benchmark workload, on one CPU.

    python3 bench/moves.py --seed 7 --ops 3
    python3 bench/moves.py --tiny --ops 1
    python3 bench/moves.py --root ../parent --seed 7 --ops 3

Runs operations 0 .. OPS-1 of each workload of perfbench/workloads.py
(stream 1 of the run seed, the measured stream) in this process, pinned to
one CPU, so bootstrap replicates and CV folds are refit here and not in
worker processes.  The references are not recomputed.  ``--root`` names the
source checkout whose ``src/`` and ``perfbench/`` are imported (default:
this one), so two commits can be compared with the same script.

Nothing under ``src/`` or ``perfbench/`` changes: ``solver._Fitter``'s
block visits and the solver functions behind their moves are wrapped from
outside for the run and put back after it.  Each K != 1 visit counts under
the move that set its block:

- ``exact``: ``_solve_on_support`` accepted a block;
- ``loop``: the joint prox loop (``_block_minimize``) ran;
- ``beta``: neither, and the block ends with beta_j != 0 and no theta row
  (the beta-only soft-threshold);
- ``zero``: neither, and the block ends all-zero: at K >= 2 the visit has
  no zero certificate of its own, so this is a beta-only move to zero.

Each K = 1 visit counts as ``k1``.  ``row_visits`` counts the visits to a
group that had a theta row, ``tries`` the calls of the exact solve, and
``hit_rate`` is exact / tries.  ``fits`` counts the single-level fits
(``_Fitter.run``), ``passes`` their passes and ``sweeps`` the sweeps of
pulls over all groups they take (calls of ``solver._pulls`` inside
``_Fitter.run``, not those of ``lambda_max``); ``visits`` is the sum of
the move counts, and ``passes_per_fit``, ``sweeps_per_fit`` and
``visits_per_fit`` are passes, sweeps and visits over fits.  Prints one JSON
object: per workload, one row per input and their total, each with the
count and share of every move and the pass, sweep and visit counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MOVES = ("exact", "beta", "loop", "zero", "k1")
COUNTS = MOVES + ("tries", "row_visits", "fits", "passes", "sweeps")
WORKLOADS = ("boot_df", "wide_path", "cli_cv_hte")


@contextlib.contextmanager
def counting(solver, counts):
    """Count every block visit, fit, pass and sweep of ``solver._Fitter``
    into ``counts`` while the block is active; the original attributes are
    restored after it."""
    fitter = solver._Fitter
    update, update_k1, run = fitter._update_group, fitter._update_k1, \
        fitter.run
    solve, loop, pulls = (solver._solve_on_support, solver._block_minimize,
                          solver._pulls)
    seen = {"exact": False, "loop": False, "run": False}

    def solve_traced(*args, **kwargs):
        counts["tries"] += 1
        g = solve(*args, **kwargs)
        seen["exact"] = g is not None
        return g

    def loop_traced(*args, **kwargs):
        seen["loop"] = True
        return loop(*args, **kwargs)

    def pulls_traced(*args, **kwargs):
        counts["sweeps"] += seen["run"]
        return pulls(*args, **kwargs)

    def update_traced(self, j):
        seen["exact"] = seen["loop"] = False
        counts["row_visits"] += bool(self.theta[j].any())
        update(self, j)
        if seen["exact"]:
            move = "exact"
        elif seen["loop"]:
            move = "loop"
        elif self.beta[j] != 0.0 or self.theta[j].any():
            move = "beta"
        else:
            move = "zero"
        counts[move] += 1

    def update_k1_traced(self, j):
        counts["k1"] += 1
        update_k1(self, j)

    def run_traced(self):
        seen["run"] = True
        try:
            return run(self)
        finally:
            seen["run"] = False
            counts["fits"] += 1
            counts["passes"] += self.n_passes

    fitter._update_group, fitter._update_k1 = update_traced, update_k1_traced
    fitter.run = run_traced
    solver._solve_on_support, solver._block_minimize, solver._pulls = \
        solve_traced, loop_traced, pulls_traced
    try:
        yield
    finally:
        fitter._update_group, fitter._update_k1 = update, update_k1
        fitter.run = run
        solver._solve_on_support, solver._block_minimize, solver._pulls = \
            solve, loop, pulls


def summary(counts) -> dict:
    """The counts with each move's share of all visits, the hit rate of
    the exact solve and the passes, sweeps and visits per fit (None where
    there was none)."""
    visits = sum(counts[m] for m in MOVES)
    out = dict(counts, visits=visits)
    for m in MOVES:
        out[f"{m}_share"] = counts[m] / visits if visits else None
    out["hit_rate"] = counts["exact"] / counts["tries"] if counts["tries"] \
        else None
    for key in ("passes", "sweeps", "visits"):
        out[f"{key}_per_fit"] = out[key] / counts["fits"] \
            if counts["fits"] else None
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--ops", type=int, default=3,
                    help="operations (inputs) per workload")
    ap.add_argument("--tiny", action="store_true",
                    help="the workloads' smoke-test sizes")
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="source checkout to import plasso and perfbench from")
    args = ap.parse_args(argv)
    if args.ops < 1:
        ap.error("--ops must be >= 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from plasso import solver

    report = {"seed": args.seed, "ops": args.ops, "tiny": args.tiny,
              "root": str(root), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="moves-") as tmp:
        for name in WORKLOADS:
            wl = workloads.WORKLOADS[name](args.seed, args.tiny, Path(tmp))
            wl.prepare()
            total = dict.fromkeys(COUNTS, 0)
            rows = []
            for i in range(args.ops):
                inp = wl.make_input(1, i)
                counts = dict.fromkeys(total, 0)
                with counting(solver, counts):
                    wl.run(inp)
                rows.append(summary(counts))
                for key, value in counts.items():
                    total[key] += value
            report["workloads"][name] = {"inputs": rows,
                                         "total": summary(total)}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
