"""Alternating parent/change pairs of the benchmark, summarized in one file.

    python3 bench/pairs.py --parent HEAD~1 --seed0 850 --label pr8 \
        --note "what changed"

The change is this checkout's working tree; the parent is ``--parent``,
exported with ``git archive`` into a temporary directory that is removed at
the end (set TMPDIR to choose where), so the repository's own git state is
never touched.
For each of the ``N_PAIRS`` pairs i = 0, 1, ... and each workload in turn,
both sides run

    python3 perfbench/run.py --workload W --seed SEED0+i --seconds S --trace 0

from their own root, with S the ``run_seconds`` of BENCHMARK.json, the
parent first in even pairs and the change first in odd ones, so slow drift
of the machine hits both sides alike.  Each side then makes one
``--trace 1`` run per workload, at seed SEED0, for the per-layer metrics.
The traced runs are pinned to one CPU: there bootstrap replicates and CV
folds are refit in the traced process itself, while with more CPUs they go
to worker processes whose spans the trace never sees.
The result goes to ``BENCH_<label>.json`` in this checkout: per workload
and end-to-end metric the median, quartiles and every run of each side, the
win counts and the relative change of the medians; failed and attempted
operations; the traced per-layer values of each side; and the environment
that run.py reports.  Run the pairs on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("boot_df", "wide_path", "cli_cv_hte")
# fewer pairs than this cannot show a gain in nine of ten pairs
N_PAIRS = 10


def summarize(parent, change, better):
    """Summary of one metric over paired runs (``parent[i]`` and
    ``change[i]`` ran as pair i).  Quartiles are numpy's linear-interpolation
    percentiles; a pair is a win for the side that is strictly better, so a
    tie counts for neither."""
    parent = [float(v) for v in parent]
    change = [float(v) for v in change]
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0

    def side(runs):
        q1, med, q3 = np.percentile(runs, [25, 50, 75]).tolist()
        return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
                "runs": runs}

    out = {"parent": side(parent), "change": side(change)}
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    out["change_wins"] = sum(d > 0 for d in diffs)
    out["parent_wins"] = sum(d < 0 for d in diffs)
    pm = out["parent"]["median"]
    out["median_rel_change"] = ((out["change"]["median"] - pm) / pm
                                if pm else None)
    return out


def run_bench(root, workload, seed, seconds, trace):
    """One run.py invocation from ``root``: (env, last-line JSON result).
    A traced run is pinned to the first CPU this process may use."""
    cpu = {min(os.sched_getaffinity(0))}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, cpu)) if trace else None)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {workload} seed {seed} in {root} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return env, json.loads(lines[-1])


def collect(sides, seed0, seconds, log):
    """Run the pairs, then the traced runs; returns (environment, raw
    results keyed by workload then side)."""
    raw = {w: {s: {"runs": [], "traced": None} for s in sides}
           for w in WORKLOADS}
    env = None
    for i in range(N_PAIRS):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for w in WORKLOADS:
            for s in order:
                env, res = run_bench(sides[s], w, seed0 + i, seconds, 0)
                raw[w][s]["runs"].append(res)
                log(f"pair {i} {w} {s}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                    + f" failed={res['failed']}")
    for w in WORKLOADS:
        for s in sides:
            _, res = run_bench(sides[s], w, seed0, seconds, 1)
            raw[w][s]["traced"] = res
            log(f"traced {w} {s}: failed={res['failed']}")
    return env, raw


def build_report(raw, spec, meta):
    """BENCH_<label>.json content from raw per-run results."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    workloads = {}
    for w, by_side in raw.items():
        runs = {s: by_side[s]["runs"] for s in ("parent", "change")}
        entry = {"pairs": len(runs["parent"])}
        for s in ("parent", "change"):
            entry[f"{s}_failed_ops"] = sum(r["failed"] for r in runs[s])
            entry[f"{s}_attempted_ops"] = sum(r["attempted"] for r in runs[s])
            entry[f"{s}_correct_runs"] = sum(r["correct"] for r in runs[s])
        for name, m in bounds.items():
            vals = {s: [r["metrics"][name]["value"] for r in runs[s]]
                    for s in ("parent", "change")}
            entry[name] = {"unit": m["unit"], "better": m["better"],
                           "bound": m["bound"],
                           **summarize(vals["parent"], vals["change"],
                                       m["better"])}
        traced = {s: by_side[s]["traced"] for s in ("parent", "change")}
        entry["per_layer"] = {
            name: {"unit": m["unit"], "better": m["better"],
                   **{s: traced[s]["metrics"][name]["value"]
                      for s in ("parent", "change")}}
            for name, m in layers.items()}
        entry["per_layer_failed_ops"] = {
            s: traced[s]["failed"] for s in ("parent", "change")}
        workloads[w] = entry
    return {**meta, "workloads": workloads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="parent commit, exported with git archive")
    ap.add_argument("--label", required=True)
    ap.add_argument("--note", default="", help="one line on the change")
    ap.add_argument("--seed0", type=int, required=True,
                    help="seed of pair 0; pair i runs at seed0 + i")
    args = ap.parse_args(argv)

    def git(*cmd, cwd=ROOT):
        return subprocess.run(["git", *cmd], cwd=cwd, check=True,
                              capture_output=True, text=True).stdout.strip()

    parent_commit = git("rev-parse", args.parent)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    def log(msg):
        print(msg, flush=True)

    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        parent_dir = Path(tmp) / "parent"
        parent_dir.mkdir()
        archive = subprocess.run(["git", "archive", parent_commit], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_dir)], input=archive,
                       check=True)
        env, raw = collect({"parent": parent_dir, "change": ROOT},
                           args.seed0, seconds, log)
    head = git("rev-parse", "HEAD")
    meta = {
        "label": args.label,
        "change": args.note,
        "parent_commit": parent_commit,
        "change_commit": head + (" + working tree"
                                 if git("status", "--porcelain") else ""),
        "method": (
            f"{N_PAIRS} alternating parent/change pairs per workload of "
            f"`python3 perfbench/run.py --workload W --seed S --seconds "
            f"{seconds:g} --trace 0`, seeds {args.seed0}-"
            f"{args.seed0 + N_PAIRS - 1} (pair i uses seed {args.seed0}+i "
            "on both sides); the parent runs first in even pairs, the change "
            "in odd pairs; pairs loop over the workloads in turn; the parent "
            "runs from a git archive export of its commit, the change from "
            "the working tree; BLAS pinned to one thread by run.py. Quartiles "
            "are numpy's linear-interpolation percentiles; a win is one side "
            "strictly better than the other in the same pair, so ties count "
            "for neither. per_layer holds one `--trace 1` run per side and "
            f"workload at seed {args.seed0}, pinned to one CPU."),
        "environment": env,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(build_report(raw, spec, meta), indent=1) + "\n")
    log(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
