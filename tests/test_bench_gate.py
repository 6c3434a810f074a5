"""The perf-regression gate pins every variant's LUTs and depth exactly."""

from __future__ import annotations

import pytest

from benchmarks.bench_perf_regression import compare_to_baseline

BASELINE = {
    "luts": 14,
    "depth": 3,
    "delay_luts": 14,
    "delay_depth": 3,
    "portfolio_luts": 9,
    "portfolio_depth": 2,
    "seconds": 0.05,
}


def record(entry):
    return {"circuits": {"misex1": entry}}


def test_identical_record_passes():
    assert compare_to_baseline(record(BASELINE), record(BASELINE)) == []


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize(
    "column",
    ["delay_luts", "delay_depth", "portfolio_luts", "portfolio_depth"],
)
def test_one_changed_column_is_one_named_failure(column, delta):
    changed = dict(BASELINE, **{column: BASELINE[column] + delta})
    failures = compare_to_baseline(record(changed), record(BASELINE))
    assert len(failures) == 1
    assert failures[0].startswith(f"misex1: {column} changed")


@pytest.mark.parametrize("counter", ["nodes_allocated", "peak_nodes"])
def test_one_changed_work_counter_is_one_named_failure(counter):
    base = dict(BASELINE, nodes_allocated=1000, peak_nodes=400)
    changed = dict(base, **{counter: base[counter] - 1})
    failures = compare_to_baseline(record(changed), record(base))
    assert len(failures) == 1
    assert failures[0].startswith(f"misex1: {counter} changed")
