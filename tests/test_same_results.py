"""The comparator of tools/same_results.py on synthetic reports."""
import copy
import importlib.util
import math
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_results.py"
_SPEC = importlib.util.spec_from_file_location("same_results", _PATH)
same_results = sys.modules["same_results"] = \
    importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_results)


def report(x=3.0, residual=2e-15):
    return {
        "experiment": "cz", "config": {"trials": 2, "seed": 0},
        "trials": [{"id": i, "inputs_digest": f"{i:016x}", "pass": True,
                    "metrics": {"ratio": x + i, "residual": residual,
                                "skipped": "NaN"}} for i in range(2)],
        "aggregate": {"ratio": {"max": x + 1, "mean": x + 0.5}},
        "summary": {"slope": -x},
        "assertions": [{"name": "envelope", "threshold": 64.0,
                        "measured": x + 1, "pass": True}],
        "timestamp": "2026-01-01T00:00:00Z", "timing": {"wall_s": 1.0},
        "env": {"numpy": "2"},
    }


def test_identical_reports_agree_and_count_every_number():
    base = report()
    change = copy.deepcopy(base)
    change["timestamp"], change["timing"], change["env"] = "x", {}, {}
    cmp = same_results.compare_reports(base, change)
    assert cmp.ok and cmp.outcomes_same and cmp.worst == 0.0
    assert (cmp.trials, cmp.digests_same) == (2, 2)
    # 3 metrics per trial, 2 aggregates, 1 summary, 1 measured
    assert cmp.values == cmp.equal == cmp.within == 10


def test_rounding_level_drift_is_within_tolerance():
    cmp = same_results.compare_reports(
        report(), report(x=3.0 * (1 + 1e-13), residual=2e-15 + 9e-15))
    assert cmp.ok and cmp.within == cmp.values > cmp.equal
    assert 0.0 < cmp.worst <= 1.0


def test_a_2e_12_relative_drift_fails():
    cmp = same_results.compare_reports(report(), report(x=3.0 * (1 + 2e-12)))
    assert not cmp.ok and cmp.within < cmp.values and cmp.worst > 1.0
    assert any(".summary.slope" in d for d in cmp.differences)


def test_a_flipped_assertion_fails():
    change = report()
    change["assertions"][0]["pass"] = False
    cmp = same_results.compare_reports(report(), change)
    assert not cmp.ok and not cmp.outcomes_same
    assert cmp.within == cmp.values


def test_a_changed_digest_fails():
    change = report()
    change["trials"][1]["inputs_digest"] = "ffffffffffffffff"
    cmp = same_results.compare_reports(report(), change)
    assert not cmp.ok and (cmp.digests_same, cmp.trials) == (1, 2)


@pytest.mark.parametrize("nan", ["NaN", math.nan])
def test_nan_against_a_number_fails_and_nan_matches_nan(nan):
    base, change = report(), report()
    change["trials"][0]["metrics"]["residual"] = nan
    cmp = same_results.compare_reports(base, change)
    assert not cmp.ok and cmp.worst == math.inf
    base["trials"][0]["metrics"]["residual"] = nan
    assert same_results.compare_reports(base, change).ok


def test_a_changed_config_or_missing_metric_fails():
    change = report()
    change["config"]["trials"] = 3
    assert not same_results.compare_reports(report(), change).ok
    change = report()
    del change["trials"][0]["metrics"]["ratio"]
    assert not same_results.compare_reports(report(), change).ok


def test_the_table_has_one_row_per_call():
    cmp = same_results.compare_reports(report(), report())
    lines = same_results.table({"nc-grid:cz": [cmp, cmp]}).splitlines()
    assert len(lines) == 3
    assert lines[2] == ("| nc-grid:cz | 4 | 2/2 | 4/4 | 20 | 20/20 | 20/20 "
                        "| 0 |")
