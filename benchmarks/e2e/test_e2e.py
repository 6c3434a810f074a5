"""Tests of the end-to-end benchmark itself: ``pytest benchmarks/e2e``.

The checker must catch wrong outputs the program might emit, the
statistics must be right on known arrays, and the runner must print
exactly the metrics ``BENCHMARK.json`` lists.
"""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import check
import metrics
import traffic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = metrics.load_spec(ROOT)

SOURCE = """.model s
.inputs a b c
.outputs f
.names a b c f
11- 1
--1 1
.end
"""
MAPPED = """.model m
.inputs a b c
.outputs f
.names a b t
11 1
.names t c f
1- 1
-1 1
.end
"""


def test_checker_accepts_a_correct_mapping():
    verdict = check.check_mapping(SOURCE, MAPPED, k=5, reported=(2, 2))
    assert verdict.ok, verdict.problems
    assert (verdict.luts, verdict.depth) == (2, 2)


def test_checker_flags_a_single_flipped_cube():
    flipped = MAPPED.replace("11 1", "10 1", 1)
    verdict = check.check_mapping(SOURCE, flipped, k=5)
    assert any("differ" in p for p in verdict.problems), verdict.problems


def test_checker_flags_a_six_input_node_at_k5():
    source = ".model s\n.inputs a b c d e g\n.outputs f\n.names a b c d e g f\n111111 1\n.end\n"
    verdict = check.check_mapping(source, source, k=5)
    assert verdict.problems == ["a node has 6 inputs > k=5"]
    assert check.check_mapping(source, source, k=6).ok


def test_checker_flags_a_wrong_reported_count():
    verdict = check.check_mapping(SOURCE, MAPPED, k=5, reported=(3, 2))
    assert verdict.problems and "recounted 2 / 2" in verdict.problems[0]


def test_output_buffers_are_wires_not_luts():
    buffered = MAPPED.replace(".names t c f", ".names t c g").replace(
        ".end", ".names g f\n1 1\n.end")
    verdict = check.check_mapping(SOURCE, buffered, k=5, reported=(2, 2))
    assert verdict.ok, verdict.problems


def test_checker_samples_wide_networks():
    names = [f"x{i}" for i in range(18)]
    source = (f".model s\n.inputs {' '.join(names)}\n.outputs f\n"
              ".names x0 x1 x17 f\n11- 1\n--1 1\n.end\n")
    assert check.check_mapping(source, source, k=5).ok
    wrong = source.replace("--1 1", "--0 1")
    assert not check.check_mapping(source, wrong, k=5).ok
    _, width = check.input_patterns(names, seed=0)
    assert width == check.SAMPLED_VECTORS


def test_exhaustive_patterns_enumerate_every_minterm():
    patterns, width = check.input_patterns(["a", "b", "c"], seed=0)
    assert width == 8
    minterms = {sum(((patterns[v] >> m) & 1) << i for i, v in enumerate("abc"))
                for m in range(width)}
    assert minterms == set(range(8))


def test_percentile_on_known_arrays():
    assert metrics.percentile(list(range(1, 601)), 98) == 588  # 12 samples above
    assert metrics.percentile([3, 1, 2, 4], 50) == 2
    assert metrics.percentile([7], 98) == 7
    assert metrics.percentile(list(range(1, 101)), 100) == 100
    assert metrics.percentile([1.0, float("inf")], 98) == float("inf")
    with pytest.raises(ValueError):
        metrics.percentile([], 50)
    with pytest.raises(ValueError):
        metrics.percentile([1], 0)


def test_quartiles_match_statistics_quantiles():
    assert metrics.quartiles([1, 2, 3, 4, 5]) == (1.5, 3, 4.5)
    assert metrics.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert metrics.spread([10, 10, 10, 10]) == 0


def _record(values, failed=0, per_layer=None):
    return {"workloads": {"cli-small": {
        "end_to_end": values, "per_layer": per_layer or {}, "attempted": 16, "failed": failed,
    }}}


_COMPARE_SPEC = {
    "workloads": [{"name": "cli-small"}],
    "end_to_end": [
        {"name": "latency_p50_s", "better": "lower", "bound": 0.1},
        {"name": "luts_total", "better": "lower", "bound": 0.001},
    ],
}


def _runs(latencies, luts=100, failed=0, per_layer=None):
    return [_record({"latency_p50_s": v, "luts_total": luts}, failed, per_layer) for v in latencies]


def _verdicts(lines):
    return {line.split()[1]: line.split()[-1] for line in lines[1:]}


def test_compare_passes_fails_and_leaves_unresolved():
    base = _runs((10.0, 10.1, 9.9, 10.0))
    cases = {
        (10.05, 9.95, 10.0, 10.1): (True, "pass"),
        (12.0, 12.1, 11.9, 12.0): (False, "FAIL"),
        (8.0, 12.0, 9.0, 11.5): (True, "unresolved"),
        (10.3, 10.4, 10.3, 10.5): (True, "worse"),
        (9.0, 9.1, 8.9, 9.0): (True, "better"),
    }
    for latencies, (passed, verdict) in cases.items():
        lines, ok = metrics.compare(_COMPARE_SPEC, base, _runs(latencies))
        assert ok == passed and _verdicts(lines)["latency_p50_s"] == verdict, latencies


def test_compare_fails_any_failed_sample_even_with_better_numbers():
    base = _runs((10.0, 10.1, 9.9, 10.0))
    # Fewer LUTs and lower latency, but one run failed a sample.
    other = _runs((9.0, 9.1, 8.9, 9.0), luts=90)
    other[2]["workloads"]["cli-small"]["failed"] = 1
    lines, ok = metrics.compare(_COMPARE_SPEC, base, other)
    assert not ok and _verdicts(lines)["failed"] == "FAIL"
    # A failed input reads +inf in the sums; that fails on its own too.
    other = _runs((9.0, 9.1, float("inf"), 9.0), luts=float("inf"))
    lines, ok = metrics.compare(_COMPARE_SPEC, base, other)
    assert not ok and _verdicts(lines)["luts_total"] == "FAIL"
    lines, ok = metrics.compare(_COMPARE_SPEC, other, base)
    assert ok and _verdicts(lines)["luts_total"] == "unresolved"


def test_compare_gates_the_service_hit_and_miss_medians():
    hit = "service.hit_rtt_p50_s"
    base = _runs((10.0, 10.1, 9.9, 10.0), per_layer={hit: 1.0, "service.miss_rtt_p50_s": 5.0})
    slow_hits = _runs((10.0, 10.1, 9.9, 10.0), per_layer={hit: 1.5, "service.miss_rtt_p50_s": 5.0})
    lines, ok = metrics.compare(_COMPARE_SPEC, base, slow_hits)
    assert not ok and _verdicts(lines)[hit] == "FAIL"
    lines, ok = metrics.compare(_COMPARE_SPEC, _runs((10.0,)), _runs((10.0,)))
    assert ok and hit not in _verdicts(lines)  # a layer the workload never reaches


def test_service_blocks_hold_a_fixed_mix():
    rng = random.Random(5)
    for first in (True, False):
        plan = traffic._block_plan(rng, first)
        assert len(plan) == traffic.BLOCK and sum(plan) == traffic.NEW_PER_BLOCK
        assert plan[0] or not first


def test_generated_networks_are_fixed_and_in_range():
    text = traffic.layered_network(1, 7)
    assert text == traffic.layered_network(1, 7)
    model = check.parse_blif(text)
    assert 8 <= len(model.inputs) <= 12 and 3 <= len(model.outputs) <= 7
    assert check.check_mapping(text, text, k=5).ok


def _run(args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_smoke_run_prints_every_listed_metric(tmp_path):
    out = tmp_path / "run.json"
    started = time.monotonic()
    proc = _run(["--smoke", "--seed", "2", "--out", str(out)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert time.monotonic() - started < 60
    (record,) = metrics.load_records(out)
    for name, entry in record["workloads"].items():
        assert set(entry["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}, name
        assert entry["failed"] == 0 and entry["attempted"] > 0, entry["problems"]
    layer = record["workloads"]["service-mixed"]["per_layer"]
    assert list(layer) == [m["name"] for m in SPEC["per_layer"]]
    for name in layer:
        assert name in proc.stdout
    report = _run(["--report", str(out)])
    assert report.returncode == 0 and "tier_wall_s" in report.stdout
    same = _run(["compare", str(out), str(out)])
    assert same.returncode == 0, same.stdout


def test_single_workload_prints_one_json_result_line():
    proc = _run(["--workload", "cli-small", "--smoke", "--seed", "3", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for name, value in result["metrics"].items():
        assert value["value"] > 0, name


def test_trace_needs_a_workload():
    proc = _run(["--seed", "1", "--trace", "0"], timeout=30)
    assert proc.returncode == 2 and "--trace needs --workload" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "cli-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
