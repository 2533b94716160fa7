"""The summary step of the pair driver (bench/pairs.py) on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_summary_of_higher_is_better():
    out = pairs.summarize([1, 2, 3, 4, 5], [2, 2, 5, 1, 5], "higher")
    # pairs 0 and 2 go to the change, pair 3 to the parent; 1 and 4 are ties
    assert out["change_wins"] == 2
    assert out["parent_wins"] == 1
    assert out["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0,
                             "runs": [1.0, 2.0, 3.0, 4.0, 5.0]}
    assert out["change"]["median"] == 2.0
    assert out["change"]["q1"] == 2.0
    assert out["change"]["q3"] == 5.0
    assert out["median_rel_change"] == pytest.approx(-1.0 / 3.0)


def test_summary_of_lower_is_better():
    # linear interpolation between order statistics for the quartiles
    out = pairs.summarize([4.0, 1.0, 3.0, 2.0], [3.0, 1.0, 3.5, 1.5], "lower")
    assert out["change_wins"] == 2  # pairs 0 and 3
    assert out["parent_wins"] == 1  # pair 2; pair 1 is a tie
    assert out["parent"]["median"] == 2.5
    assert out["parent"]["q1"] == 1.75
    assert out["parent"]["q3"] == 3.25
    assert out["parent"]["iqr"] == 1.5
    assert out["change"]["median"] == 2.25
    assert out["median_rel_change"] == pytest.approx(-0.1)


def test_all_ties_win_nothing():
    out = pairs.summarize([7.0] * 3, [7.0] * 3, "higher")
    assert (out["change_wins"], out["parent_wins"]) == (0, 0)
    assert out["median_rel_change"] == 0.0


def test_unpaired_runs_rejected():
    with pytest.raises(ValueError, match="same"):
        pairs.summarize([1.0, 2.0], [1.0], "higher")
    with pytest.raises(ValueError, match="same"):
        pairs.summarize([], [], "higher")
