"""Benchmark of the plasso fitter: one workload per invocation.

    python3 perfbench/run.py --workload boot_df --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with nothing
traced: set-up runs three times, then operations run in a closed loop of one
caller until their summed wall time reaches ``--seconds`` (rounded up to a
whole cycle of the workload's inputs).  ``--trace 1`` runs a fixed list of
operations three times, untraced and then twice with every layer function
wrapped (see tracing.py), and reports the per-layer metrics.  Inputs are
made and outputs checked outside the timed region (see workloads.py); an
operation that raises, fails its check or, when traced, differs from its
untraced output or repeats with other call counts counts as failed.

BLAS and OpenMP are pinned to one thread before numpy is imported; the run
refuses to report if that did not take effect.  Metric names and units come
from BENCHMARK.json.  Human-readable lines come first; the last line of
standard output is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run records and the spans of the last traced
pass go to ``.perfbench_runs/`` in the checkout.

``--tiny`` and ``--corrupt-reference`` exist for the smoke test
(test_smoke.py): tiny problem sizes, and a reference moved so that every
check must fail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_runs"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "BLIS_NUM_THREADS")
SETUP_REPEATS = 3

SPAN_STATS = ("calls", "busy_s", "self_s")


def pin_threads() -> bool:
    """Pin BLAS and OpenMP pools to one thread; False if numpy was already
    imported, so the setting may not have reached its thread pool."""
    preloaded = "numpy" in sys.modules
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return not preloaded


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if no OpenBLAS
    library is mapped into this process."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.rsplit("/", 1)[-1].lower()
                           and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_name, "blas_threads": _openblas_threads(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu}


def tail(durations):
    """(value, percentile) of the highest percentile with at least ten
    operations beyond it, by nearest rank; None with ten or fewer."""
    n = len(durations)
    if n <= 10:
        return None
    k = n - 11
    return sorted(durations)[k], 100.0 * (k + 1) / n


def run_op(wl, inp, ctx=None):
    """Time one operation, inside ``ctx`` if given; returns (output or
    None, seconds, error)."""
    with ctx or nullcontext():
        t0 = perf_counter()
        try:
            out, err = wl.run(inp), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"raised {exc!r}"
        seconds = perf_counter() - t0
    return out, seconds, err


def gate(wl, inp, out, err, corrupt):
    """Problems with one operation's output; empty when it is correct."""
    if err is not None:
        return [err]
    try:
        return wl.check(inp, out, corrupt)
    except Exception as exc:  # an output the check cannot read is wrong
        return [f"check raised {exc!r}"]


def end_to_end(wl, seconds, corrupt, import_s):
    setups = []
    for k in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.prepare()
        wl.run(wl.make_input(0, k))
        setups.append(import_s + perf_counter() - t0)
    durations, fits, failures = [], 0, {}
    timed = 0.0
    while not durations or timed < seconds or len(durations) % wl.cycle:
        i = len(durations)
        inp = wl.make_input(1, i)
        out, dt, err = run_op(wl, inp)
        durations.append(dt)
        timed += dt
        problems = gate(wl, inp, out, err, corrupt)
        if problems:
            failures[i] = problems
        else:
            fits += wl.n_fits(out)
    metrics = {"fits_per_s": fits / timed,
               "op_p50_s": statistics.median(durations),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    report = {"failed_frac": len(failures) / len(durations),
              "op_tail": tail(durations), "setups_s": setups,
              "durations_s": durations}
    return metrics, len(durations), failures, report


def traced(wl, corrupt, tracing, span_metrics):
    """One untraced and two traced passes over the same operations;
    ``span_metrics`` are the ``<layer>.<function>.<stat>`` names to report."""
    wl.prepare()
    wl.run(wl.make_input(0, 0))
    ops = range(wl.trace_ops)
    failures = {}

    def one_pass(tracer):
        digests, seconds, fits = [], 0.0, 0
        for i in ops:
            inp = wl.make_input(1, i)
            ctx = None
            if tracer is not None:
                tracer.op_id = i
                ctx = tracing.installed(tracer)
            out, dt, err = run_op(wl, inp, ctx)
            seconds += dt
            digests.append(None if out is None else wl.digest(out))
            if tracer is None:
                problems = gate(wl, inp, out, err, corrupt)
                if problems:
                    failures[i] = problems
                else:
                    fits += wl.n_fits(out)
        return digests, seconds, fits

    base, base_s, fits = one_pass(None)
    tracers = [tracing.Tracer(), tracing.Tracer()]
    passes = [one_pass(t) for t in tracers]
    left = tracing.installed_wrappers()
    if left:
        raise RuntimeError(f"span wrappers left installed: {left}")
    counts = [t.calls_per_op() for t in tracers]
    for i in ops:
        if any(p[0][i] != base[i] for p in passes):
            failures.setdefault(i, []).append("traced output differs")
        if {k: v for k, v in counts[0].items() if k[0] == i} != \
                {k: v for k, v in counts[1].items() if k[0] == i}:
            failures.setdefault(i, []).append("call counts differ between "
                                              "traced passes")
    reduced = [t.reduce() for t in tracers]
    metrics = {}
    for name in span_metrics:
        span, stat = name.rsplit(".", 1)
        vals = [r.get(span, {}).get(stat, 0) for r in reduced]
        metrics[name] = vals[0] if stat == "calls" else sum(vals) / len(vals)
    first = tracers[0]
    n_fits = max(len(first.fit_passes), 1)
    metrics["solver.prox_steps_per_fit"] = \
        reduced[0].get("solver.prox_group", {}).get("calls", 0) / n_fits
    metrics["solver.passes_per_fit"] = sum(first.fit_passes) / n_fits
    metrics["solver.kkt_max"] = max(first.fit_kkt, default=0.0)
    traced_s = sum(p[1] for p in passes) / len(passes)
    metrics["trace.overhead_frac"] = (traced_s - base_s) / traced_s
    OUT_DIR.mkdir(exist_ok=True)
    tracers[-1].save(OUT_DIR / f"{wl.name}-spans.npz")
    report = {"ops": len(ops), "untraced_s": base_s, "traced_s": traced_s,
              "fits": fits}
    return metrics, len(ops), failures, report


def main(argv=None) -> int:
    pinned = pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("boot_df", "wide_path", "cli_cv_hte"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes (smoke test)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="move every reference value (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    t0 = perf_counter()
    import numpy
    import_s = perf_counter() - t0
    env = environment(numpy)
    if not pinned or env["blas_threads"] not in (None, 1):
        print(f"perfbench: BLAS threads are not pinned to 1 (numpy imported "
              f"first: {not pinned}, BLAS reports {env['blas_threads']}); "
              "refusing to report", file=sys.stderr)
        return 3

    t0 = perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    try:
        import plasso
    except ImportError as exc:
        print(f"perfbench: cannot import plasso from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(plasso.__file__).resolve().parent != ROOT / "src" / "plasso":
        print(f"perfbench: plasso was imported from {plasso.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    import_s += perf_counter() - t0
    print("env " + json.dumps(env, sort_keys=True))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, attempted, failures, report = traced(
                wl, args.corrupt_reference, tracing,
                [n for n in units if n.rsplit(".", 1)[-1] in SPAN_STATS])
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics, attempted, failures, report = end_to_end(
                wl, args.seconds, args.corrupt_reference, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for i, problems in sorted(failures.items()):
        print(f"failed op {i}: {'; '.join(problems)}")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]!r} {unit}")
    if not args.trace:
        op_tail = report["op_tail"]
        if op_tail is None:
            print(f"{args.workload} op_tail_s: omitted, only {attempted} "
                  "operations")
        else:
            print(f"{args.workload} op_tail_s = {op_tail[0]!r} s "
                  f"(p{op_tail[1]:.1f} of {attempted} operations)")
        # printed only: op_tail_s needs more than ten operations, and
        # failed_frac is 0 whenever the program is right
        print(f"{args.workload} failed_frac = {report['failed_frac']!r} "
              "ratio")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "env": env, "metrics": metrics, "attempted": attempted,
              "failures": failures, "report": report}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
