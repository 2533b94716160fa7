"""bench/moves.py, the per-move visit counter, on the tiny workloads."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MOVES = ("exact", "beta", "loop", "zero", "k1")
COUNTS = MOVES + ("tries", "row_visits", "fits", "passes", "sweeps",
                  "newton_tries", "newton_accepted", "newton_iters")


@pytest.fixture(scope="module")
def report():
    # a subprocess, because the script pins its own process to one CPU
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "moves.py"), "--tiny",
         "--ops", "2", "--seed", "3"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_every_visit_counts_under_one_move(report):
    assert set(report["workloads"]) == {"boot_df", "wide_path", "cli_cv_hte"}
    for entry in report["workloads"].values():
        assert len(entry["inputs"]) == 2
        for row in entry["inputs"] + [entry["total"]]:
            assert row["visits"] == sum(row[m] for m in MOVES) > 0
            assert sum(row[f"{m}_share"] for m in MOVES) == pytest.approx(1.0)
            assert row["exact"] <= row["tries"] <= row["row_visits"]
        for key in COUNTS:
            assert entry["total"][key] == sum(r[key] for r in entry["inputs"])


def test_passes_per_fit(report):
    for entry in report["workloads"].values():
        for row in entry["inputs"] + [entry["total"]]:
            # every fit takes at least one sweep, and no pass takes two
            assert 0 < row["fits"] <= row["sweeps"] <= row["passes"]
            for key in ("passes", "sweeps", "visits"):
                assert row[f"{key}_per_fit"] == row[key] / row["fits"]


def test_moves_follow_the_number_of_modifiers(report):
    boot, wide, hte = (report["workloads"][w]["total"]
                       for w in ("boot_df", "wide_path", "cli_cv_hte"))
    # K = 1: every visit is the closed-form solve, and no exact joint try
    assert hte["k1_share"] == 1.0 and hte["hit_rate"] is None
    # K >= 2: groups with a theta row are tried by the exact solve first
    for total in (boot, wide):
        assert total["k1"] == 0
        assert total["tries"] == total["row_visits"] > 0
        assert 0.5 < total["hit_rate"] <= 1.0


def test_newton_steps(report):
    for entry in report["workloads"].values():
        for row in entry["inputs"] + [entry["total"]]:
            # at most one Newton step per fit
            assert row["newton_accepted"] <= row["newton_tries"] \
                <= row["fits"]
            assert row["newton_iters"] >= 0
    # K = 1 never takes it
    assert report["workloads"]["cli_cv_hte"]["total"]["newton_tries"] == 0
