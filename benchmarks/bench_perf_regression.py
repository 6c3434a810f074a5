"""Perf-regression benchmark for the HYDE flow (the PR trajectory file).

Runs the MCNC Table 1/2 fleet through ``hyde_map`` — the default
single-process flow, a worker pool, ``--cost delay``, portfolio mode and
the result store — and writes ``BENCH_hyde.json`` at the repository root
with LUT counts, depths and wall times, so every perf-focused PR has
before/after numbers to point at.

The fleet is tiered by cost.  ``SMALL_TABLE1`` + ``MEDIUM_TABLE`` is
the default gate (about a minute total); the ``LARGE_TABLE2`` tier
(tens of seconds to minutes *each*) only joins when ``REPRO_FULL=1`` is
set, so the per-PR gate stays fast while the full-fleet numbers remain
one environment variable away.

``--check`` compares the fresh record against the committed
``BENCH_hyde.json`` per circuit: LUT counts must match *exactly* (a
perf change that alters the mapping is a correctness bug, not a perf
result), and wall time must not regress more than 20% past a small
noise floor.  New circuits (absent from the baseline) pass with a note.

Usage::

    python benchmarks/bench_perf_regression.py            # default fleet
    python benchmarks/bench_perf_regression.py --smoke    # 3 circuits, CI
    python benchmarks/bench_perf_regression.py --check    # gate vs baseline
    REPRO_FULL=1 python benchmarks/bench_perf_regression.py   # + large tier
    pytest benchmarks/bench_perf_regression.py --benchmark-only

``REPRO_JOBS`` sets the pool width of the parallel variant (default 2).
The ``jobs>1`` network is equivalence-checked against the ``jobs=1``
network for every circuit — a wrong-but-fast parallel path fails here
before it can report a time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.circuits import build
from repro.mapping import hyde_map
from repro.network import check_equivalence

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_hyde.json"

#: Sub-second Table 1 circuits (the whole tier takes seconds).
SMALL_TABLE1 = [
    "5xp1", "9sym", "alu2", "b9", "clip", "f51m", "misex1", "rd73", "rd84",
    "sao2", "vg2", "z4ml",
]
#: Mid-weight circuits (~1-4 s each with the bit-parallel fast path)
#: where the class-count memos and the packed kernels actually bite —
#: the small circuits finish before either can amortize.  Timed with
#: fewer repeats.
MEDIUM_TABLE = ["count", "duke2", "misex2", "apex7"]
#: Backwards-compatible alias (older scripts import this name).
MEDIUM_TABLE1 = MEDIUM_TABLE
#: The heavyweight Table 2 tier — tens of seconds to minutes each.
#: Only benchmarked when ``REPRO_FULL=1``.
LARGE_TABLE2 = [
    "e64", "C499", "C880", "alu4", "apex4", "apex6", "misex3", "rot", "des",
]
#: Subset cheap enough for per-PR CI smoke runs.
SMOKE_SET = ["misex1", "rd73", "z4ml"]


def fleet() -> List[str]:
    """The benchmark fleet for this run (``REPRO_FULL=1`` adds large)."""
    circuits = SMALL_TABLE1 + MEDIUM_TABLE
    if os.environ.get("REPRO_FULL"):
        circuits = circuits + LARGE_TABLE2
    return circuits


#: Timing repetitions per variant; the *minimum* is recorded (the other
#: runs only ever add scheduler/GC noise, never remove work).
REPEATS = 5

#: A fresh time may exceed baseline * LIMIT before the gate fails ...
TIME_REGRESSION_LIMIT = 1.20
#: ... unless both sides sit under the noise floor, where scheduler
#: jitter swamps the signal (an 0.02 s -> 0.03 s "regression" is noise).
NOISE_FLOOR_SECONDS = 0.10


def _timed_map(name: str, repeats: int = REPEATS, **kwargs) -> Dict[str, object]:
    best = None
    for _ in range(repeats):
        net = build(name)  # fresh network and manager: no cache carryover
        start = time.perf_counter()
        result = hyde_map(net, verify="none", pack_clbs=False, **kwargs)
        seconds = time.perf_counter() - start
        if best is None or seconds < best:
            best = seconds
    perf = result.details.get("perf", {})
    return {
        "luts": result.lut_count,
        "depth": result.depth,
        "seconds": round(best, 4),
        # Per-phase wall times of the *last* run (phases are re-timed each
        # repeat; the breakdown is for reading where time goes, the
        # headline number stays the min of the repeats).
        "phase_seconds": perf.get("phase_seconds", {}),
        "network": result.network,
    }


def _timed_cached_map(
    name: str, store, repeats: int = 1, **kwargs
) -> Dict[str, object]:
    """Like ``_timed_map`` but through the service result cache."""
    best = None
    for _ in range(repeats):
        net = build(name)
        start = time.perf_counter()
        result = hyde_map(
            net, verify="none", pack_clbs=False, cache=store, **kwargs
        )
        seconds = time.perf_counter() - start
        if best is None or seconds < best:
            best = seconds
    return {
        "luts": result.lut_count,
        "seconds": round(best, 4),
        "cache": result.details.get("cache", {}),
        "network": result.network,
    }


def run_suite(
    circuits: List[str], jobs: int = 2, check_jobs_equiv: bool = True
) -> Dict[str, object]:
    """Benchmark every circuit and return the trajectory record."""
    from repro.service import ResultStore

    per_circuit: Dict[str, Dict[str, object]] = {}
    for name in circuits:
        if name in LARGE_TABLE2:
            repeats = 1
        elif name in MEDIUM_TABLE:
            repeats = 2
        else:
            repeats = REPEATS
        # Fresh managers per variant: each run pays its own cache warm-up.
        flow = _timed_map(name, repeats=repeats)
        entry: Dict[str, object] = {
            "luts": flow["luts"],
            "depth": flow["depth"],
            "seconds": flow["seconds"],
            "phase_seconds": flow["phase_seconds"],
        }
        if jobs > 1:
            parallel = _timed_map(name, repeats=min(repeats, 2), jobs=jobs)
            entry["jobs"] = jobs
            entry["jobs_seconds"] = parallel["seconds"]
            if check_jobs_equiv:
                bad = check_equivalence(flow["network"], parallel["network"])
                entry["jobs_equivalent"] = bad is None
                if bad is not None:
                    raise AssertionError(
                        f"jobs={jobs} mapping of {name} differs from "
                        f"jobs=1 on output {bad!r}"
                    )
        # Delay-cost variant: same flow under --cost delay.  Its depth
        # is recorded per circuit and gated strictly against the
        # committed baseline in ``compare_to_baseline`` — a fresh
        # delay-mode run may match or beat the committed depth, never
        # exceed it.
        delay = _timed_map(name, repeats=1, cost_model="delay")
        entry["delay_luts"] = delay["luts"]
        entry["delay_depth"] = delay["depth"]
        entry["delay_seconds"] = delay["seconds"]
        bad = check_equivalence(flow["network"], delay["network"])
        if bad is not None:
            raise AssertionError(
                f"--cost delay mapping of {name} differs on output {bad!r}"
            )
        # Portfolio variant: race every strategy per group, keep the
        # winner under the area model.
        portfolio = _timed_map(name, repeats=1, portfolio=True)
        entry["portfolio_luts"] = portfolio["luts"]
        entry["portfolio_depth"] = portfolio["depth"]
        entry["portfolio_seconds"] = portfolio["seconds"]
        bad = check_equivalence(flow["network"], portfolio["network"])
        if bad is not None:
            raise AssertionError(
                f"portfolio mapping of {name} differs on output {bad!r}"
            )
        # Service-path numbers: warm = first run with a result store
        # attached (cold cache, so this is flow + store overhead);
        # cache_hit = repeat run served entirely from the store.
        with ResultStore(":memory:") as store:
            warm = _timed_cached_map(name, store, repeats=1)
            hit = _timed_cached_map(name, store, repeats=min(repeats, 2))
        if warm["luts"] != flow["luts"]:
            raise AssertionError(
                f"result cache changed the mapping of {name}: "
                f"{warm['luts']} vs {flow['luts']} LUTs"
            )
        if hit["cache"].get("misses"):
            raise AssertionError(
                f"repeat cached run of {name} missed the store: "
                f"{hit['cache']}"
            )
        if hit["luts"] != warm["luts"]:
            raise AssertionError(
                f"cache-hit mapping of {name} drifted: "
                f"{hit['luts']} vs {warm['luts']} LUTs"
            )
        entry["warm_seconds"] = warm["seconds"]
        entry["cache_hit_seconds"] = hit["seconds"]
        entry["cache_speedup"] = (
            round(warm["seconds"] / hit["seconds"], 2)
            if hit["seconds"]
            else None
        )
        per_circuit[name] = entry
        print(
            f"{name:8s} {entry['luts']:4d} LUTs  "
            f"depth {entry['depth']}/{entry['delay_depth']} "
            f"(area/delay)  "
            f"portfolio {entry['portfolio_luts']:4d}  "
            f"{entry['seconds']:7.3f}s"
            + (
                f"  jobs={jobs} {entry['jobs_seconds']:7.3f}s"
                if jobs > 1
                else ""
            )
            + f"  cache-hit {entry['cache_hit_seconds']:7.3f}s"
            f" (x{entry['cache_speedup']})"
        )
    totals = {
        "seconds": round(
            sum(e["seconds"] for e in per_circuit.values()), 4
        ),
        "warm_seconds": round(
            sum(e["warm_seconds"] for e in per_circuit.values()), 4
        ),
        "cache_hit_seconds": round(
            sum(e["cache_hit_seconds"] for e in per_circuit.values()), 4
        ),
        "luts": sum(e["luts"] for e in per_circuit.values()),
    }
    if jobs > 1:
        totals["jobs_seconds"] = round(
            sum(e["jobs_seconds"] for e in per_circuit.values()), 4
        )
    return {
        "suite": "hyde_mcnc_fleet",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "circuits": {
            name: {k: v for k, v in entry.items() if k != "network"}
            for name, entry in per_circuit.items()
        },
        "totals": totals,
    }


def write_record(record: Dict[str, object]) -> None:
    from repro.runstate import atomic_write

    # The record is a trajectory, not a report: a partial run (--smoke,
    # a hand-picked --circuits list) must not erase committed numbers
    # it did not remeasure.  Carry forward whole circuits this run
    # skipped, and per-circuit columns owned by other benches (the
    # optimality-gap scorer's exact_gap family).
    if BENCH_FILE.exists():
        try:
            previous = json.loads(BENCH_FILE.read_text())
        except (OSError, ValueError):
            previous = {}
        circuits = record.setdefault("circuits", {})
        for name, old in previous.get("circuits", {}).items():
            entry = circuits.setdefault(name, {})
            for key, value in old.items():
                entry.setdefault(key, value)
    # Atomic: a crash mid-dump must not clobber the previous trajectory.
    with atomic_write(BENCH_FILE) as handle:
        handle.write(json.dumps(record, indent=2) + "\n")
    print(f"wrote {BENCH_FILE}")


def compare_to_baseline(
    record: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Per-circuit regression gate; returns the list of failures.

    LUT counts must match the committed baseline exactly.  Wall time
    (``seconds``, the default flow) may not exceed baseline *
    ``TIME_REGRESSION_LIMIT`` unless both sides are under
    ``NOISE_FLOOR_SECONDS``.  Circuits new to the fleet pass with a
    note — they become gated once their numbers are committed.
    """
    failures: List[str] = []
    base_circuits = baseline.get("circuits", {})
    for name, entry in record["circuits"].items():
        base = base_circuits.get(name)
        if base is None:
            print(f"baseline: {name} is new (no committed numbers) — pass")
            continue
        if entry["luts"] != base["luts"]:
            failures.append(
                f"{name}: LUT count changed {base['luts']} -> "
                f"{entry['luts']} (mappings must be identical)"
            )
        if base.get("depth") is not None and entry["depth"] != base["depth"]:
            failures.append(
                f"{name}: depth changed {base['depth']} -> "
                f"{entry['depth']} (mappings must be identical)"
            )
        # Strict no-depth-regression gate for --cost delay: a fresh
        # delay-mode run may match or beat the committed depth, never
        # exceed it.
        if (
            base.get("delay_depth") is not None
            and entry.get("delay_depth") is not None
            and entry["delay_depth"] > base["delay_depth"]
        ):
            failures.append(
                f"{name}: --cost delay depth regressed "
                f"{base['delay_depth']} -> {entry['delay_depth']}"
            )
        new_s, base_s = entry["seconds"], base["seconds"]
        if max(new_s, base_s) < NOISE_FLOOR_SECONDS:
            continue
        if new_s > base_s * TIME_REGRESSION_LIMIT:
            failures.append(
                f"{name}: {new_s:.3f}s vs baseline {base_s:.3f}s "
                f"(> {TIME_REGRESSION_LIMIT:.0%})"
            )
    return failures


# --------------------------------------------------------------------- #
# pytest-benchmark entry point (collected by `pytest benchmarks/`)
# --------------------------------------------------------------------- #


def test_bench_hyde_perf_regression(benchmark):
    from benchmarks.conftest import jobs_from_env, run_once

    baseline = (
        json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else None
    )
    record = run_once(
        benchmark, run_suite, SMOKE_SET, jobs=jobs_from_env(2)
    )
    write_record(record)
    if baseline is not None:
        failures = compare_to_baseline(record, baseline)
        assert not failures, "; ".join(failures)


# --------------------------------------------------------------------- #
# Standalone entry point (`make bench-smoke` / CI)
# --------------------------------------------------------------------- #


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="HYDE perf-regression benchmark"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"run only the CI subset {SMOKE_SET}",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="pool width of the parallel variant (1 disables it)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate against the committed BENCH_hyde.json (per-circuit "
        "LUT equality + time thresholds) and exit non-zero on failure",
    )
    args = parser.parse_args(argv)
    circuits = SMOKE_SET if args.smoke else fleet()
    # Snapshot the committed baseline before write_record clobbers it.
    baseline = (
        json.loads(BENCH_FILE.read_text())
        if args.check and BENCH_FILE.exists()
        else None
    )
    record = run_suite(circuits, jobs=args.jobs)
    write_record(record)
    totals = record["totals"]
    print(
        f"total: {totals['seconds']}s"
        + (
            f", jobs {totals['jobs_seconds']}s"
            if "jobs_seconds" in totals
            else ""
        )
    )
    if args.check:
        if baseline is None:
            print("no committed baseline; skipping regression gate")
            return 0
        failures = compare_to_baseline(record, baseline)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("regression gate: all circuits within thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
