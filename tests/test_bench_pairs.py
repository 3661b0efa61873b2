"""The verdict that ``scripts/bench_pairs.py`` writes for each metric, on
hand-made run lists."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]  # IQR 0.02


def test_a_clear_win_is_improved():
    assert verdict(PARENT, [0.6] * 10, "lower", 0.25) == "improved"
    assert verdict(PARENT, [v * 2 for v in PARENT], "higher", 0.25) == "improved"


def test_nine_wins_in_ten_suffice_and_ties_count_for_neither():
    nine = [0.6] * 9 + [1.5]
    assert verdict(PARENT, nine, "lower", 0.25) == "improved"
    eight_and_a_tie = [0.6] * 8 + [PARENT[8], 1.5]
    assert verdict(PARENT, eight_and_a_tie, "lower", 0.25) == "within bound"


def test_a_win_inside_the_parents_spread_is_not_improved():
    # every pair won, but the medians differ by less than the parent's IQR
    assert verdict(PARENT, [v - 0.005 for v in PARENT], "lower", 0.25) == "within bound"


def test_worse_past_the_bound():
    assert verdict(PARENT, [1.3] * 10, "lower", 0.25) == "worse"
    assert verdict(PARENT, [1.2] * 10, "lower", 0.25) == "within bound"
    assert verdict(PARENT, [0.7] * 10, "higher", 0.25) == "worse"
    assert verdict(PARENT, [1.3] * 10, "higher", 0.25) == "improved"


def test_a_wide_parent_is_unresolved_unless_every_change_run_beats_it():
    wide = [0.04, 0.05, 0.037, 0.057, 0.045, 0.052, 0.039, 0.056, 0.041, 0.05]
    assert verdict(wide, [0.05, 0.045, 0.04, 0.055] * 2 + [0.05] * 2, "lower", 0.1) == \
        "unresolved"
    # every change run below every parent run, yet only by less than the IQR
    assert verdict(wide, [0.0369] * 10, "lower", 0.1) == "within bound"


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_identical_runs_are_within_bound(better):
    assert verdict(PARENT, list(PARENT), better, 0.25) == "within bound"
