"""Smoke test of the benchmark itself, at tiny problem sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every metric BENCHMARK.json names must be printed with its unit on every
workload, traced and untraced; a deliberately wrong reference must count as
failed operations; traced call counts must repeat exactly; and the run must
refuse to report when it cannot pin BLAS threads or find the source tree.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ARGS = ["--seed", "3", "--seconds", "0.5", "--tiny"]


def _run(cmd, cwd=ROOT):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@functools.lru_cache(maxsize=None)
def bench(workload, trace, *extra):
    proc = _run([sys.executable, "perfbench/run.py", "--workload", workload,
                 "--trace", str(trace), *ARGS, *extra])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    lines, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(ln.startswith(f"{workload} {m['name']} = ")
                   and ln.endswith(f" {m['unit']}") for ln in lines)
    if not trace:
        assert f"{workload} failed_frac = 0.0 ratio" in lines
        assert any(ln.startswith(f"{workload} op_tail_s") for ln in lines)
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_counts_as_failed(workload):
    lines, result = bench(workload, 0, "--corrupt-reference")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert f"{workload} failed_frac = 1.0 ratio" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_runs(workload):
    first = bench(workload, 1)[1]["metrics"]
    again = bench(workload, 1, "--seconds", "0.6")[1]["metrics"]
    for name in list(first):
        if name.endswith(".calls") or name == "solver.passes_per_fit":
            assert first[name]["value"] == again[name]["value"], name


def test_layer_split_on_tiny_sizes():
    metrics = {w: bench(w, 1)[1]["metrics"] for w in WORKLOADS}
    assert metrics["boot_df"]["path.lambda_max.calls"]["value"] == 0
    for w in WORKLOADS:
        io_time = metrics[w]["io.write_table.busy_s"]["value"]
        assert (io_time > 0) == (w == "cli_cv_hte")


def test_refuses_when_numpy_was_imported_first():
    code = ("import numpy, runpy, sys; sys.argv = ['run.py', '--workload', "
            "'wide_path', '--trace', '0'] + sys.argv[1:]; "
            "runpy.run_path('perfbench/run.py', run_name='__main__')")
    proc = _run([sys.executable, "-c", code, *ARGS])
    assert proc.returncode != 0
    assert "not pinned" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_fails_without_the_source_tree():
    bare = ROOT / ".perfbench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run([sys.executable, "perfbench/run.py", "--workload",
                     "wide_path", "--trace", "0", *ARGS], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
