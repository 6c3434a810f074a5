"""Metric definitions, statistics, and the compare/report renderers.

``BENCHMARK.json`` at the repository root is the single list of metric
names, units, directions and bounds; the runners compute values by
name and :func:`check_names` refuses a run whose names drift from it.
"""

from __future__ import annotations

import json
import math
import statistics
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``% of
    the samples at or below it (so p98 of 600 leaves 12 samples above)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(Fraction(str(q)) * len(ordered) / 100)
    return ordered[max(rank, 1) - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf


def check_names(spec: dict, kind: str, computed: Iterable[str]) -> None:
    """Raise unless ``computed`` names exactly the spec's ``kind`` metrics."""
    want = {m["name"] for m in spec[kind]}
    got = set(computed)
    if want != got:
        raise RuntimeError(
            f"{kind} metrics drift from BENCHMARK.json: "
            f"missing {sorted(want - got)}, unexpected {sorted(got - want)}"
        )


def units(spec: dict) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# --------------------------------------------------------------------- #
# Rendering a run record
# --------------------------------------------------------------------- #


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if value == 0 or math.isinf(value):
        return str(value)
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def render_record(spec: dict, record: dict) -> str:
    """Tables of one run record: end-to-end per workload, then per layer."""
    unit_of = units(spec)
    names = list(record["workloads"])
    lines = [
        f"run: seed {record['seed']}, {record['seconds']} s per workload"
        f"{' (smoke)' if record.get('smoke') else ''}, "
        f"wall {record['wall_seconds']:.1f} s",
        "",
        "end-to-end metrics (untraced)",
    ]
    width = max(len(m["name"]) for m in spec["end_to_end"] + spec["per_layer"])
    header = f"  {'metric':{width}s} {'unit':>7s} " + " ".join(f"{n:>14s}" for n in names)
    lines.append(header)
    for m in spec["end_to_end"]:
        cells = [record["workloads"][n].get("end_to_end", {}).get(m["name"]) for n in names]
        lines.append(
            f"  {m['name']:{width}s} {m['unit']:>7s} "
            + " ".join(f"{'-' if c is None else _fmt(c):>14s}" for c in cells)
        )
    lines.append(
        f"  {'failed/attempted':{width}s} {'':>7s} "
        + " ".join(
            f"{record['workloads'][n]['failed']:>7d}/{record['workloads'][n]['attempted']:<6d}"
            for n in names
        )
    )
    for n in names:
        rows = record["workloads"][n].get("inputs") or {}
        if rows:
            lines += ["", f"{n}: per input (median wall from spawn to exit)"]
            lines += [
                f"  {i:8s} {row['wall_s']:8.3f} s  {row['samples']:3d} samples  "
                f"{row['luts']:4d} LUTs  depth {row['depth']}"
                for i, row in rows.items()
            ]
    if any(record["workloads"][n].get("per_layer") for n in names):
        lines += ["", "per-layer metrics (traced pass; service from the timed run)"]
        lines.append(header)
        for m in spec["per_layer"]:
            cells = [record["workloads"][n].get("per_layer", {}).get(m["name"]) for n in names]
            lines.append(
                f"  {m['name']:{width}s} {unit_of[m['name']]:>7s} "
                + " ".join(f"{'-' if c is None else _fmt(c):>14s}" for c in cells)
            )
    for n in names:
        for problem in record["workloads"][n].get("problems", [])[:20]:
            lines.append(f"  FAILED {n}: {problem}")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Comparing two sets of runs
# --------------------------------------------------------------------- #


def load_records(path: Path) -> List[dict]:
    data = json.loads(path.read_text())
    return data if isinstance(data, list) else [data]


#: Per-layer metrics that ``compare`` also gates, each with the direction
#: and bound of the end-to-end metric it splits.  On service-mixed 60% of
#: requests are store hits, so ``latency_p50_s`` follows hits alone.
SPLIT_GATES = {
    "service.hit_rtt_p50_s": "latency_p50_s",
    "service.miss_rtt_p50_s": "latency_p50_s",
}


def _verdict(a: List[float], b: List[float], lower: bool, bound: float) -> Tuple[str, float]:
    """``(verdict, change of the median)`` of ``b`` against ``a``.

    A value that is not finite stands for a sample that failed, so the
    other side fails outright and an unmeasured base leaves it unresolved.
    """
    if not all(map(math.isfinite, b)):
        return "FAIL", math.inf
    if not all(map(math.isfinite, a)):
        return "unresolved", math.nan
    qa, qb = quartiles(a), quartiles(b)
    change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    if (change if lower else -change) > bound:
        return "FAIL", change
    if all((x < y) if lower else (x > y) for x in b for y in a):
        return "better", change
    if all((x > y) if lower else (x < y) for x in b for y in a):
        return "worse", change  # within the bound, but every run reads worse
    if max(spread(a), spread(b)) > bound:
        return "unresolved", change
    return "pass", change


def compare(spec: dict, base: List[dict], other: List[dict]) -> Tuple[List[str], bool]:
    """Judge ``other`` against ``base`` metric by metric, workload by workload.

    A workload fails when any run of the other side failed a sample.  A
    metric fails when the other side's median is worse than the base
    median by more than the bound.  It reads *better* or *worse* when
    every run of one side beats every run of the other, and is
    *unresolved* when either side's quartile spread is wider than the
    bound.
    """
    def cell(values: List[float]) -> str:
        if not all(map(math.isfinite, values)):
            return "failed sample"
        q1, med, q3 = quartiles(values)
        return f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}]"

    def failures(entries: List[dict]) -> str:
        return f"{sum(e['failed'] for e in entries)} of {sum(e['attempted'] for e in entries)}"

    lines = [
        f"  {'workload':14s} {'metric':22s} {'base median [q1, q3]':32s} "
        f"{'other median [q1, q3]':32s} {'change':>7s} {'bound':>6s}  verdict"
    ]
    ok = True
    by_name = {m["name"]: m for m in spec["end_to_end"]}
    for wl in (w["name"] for w in spec["workloads"]):
        runs_a = [r["workloads"][wl] for r in base if wl in r["workloads"]]
        runs_b = [r["workloads"][wl] for r in other if wl in r["workloads"]]
        if not runs_a or not runs_b:
            continue
        failed = any(e["failed"] for e in runs_b)
        ok = ok and not failed
        lines.append(
            f"  {wl:14s} {'failed samples':22s} {failures(runs_a):32s} "
            f"{failures(runs_b):32s} {'':7s} {'0':>6s}  {'FAIL' if failed else 'pass'}"
        )
        judged = [(m["name"], "end_to_end", m) for m in spec["end_to_end"]] + [
            (name, "per_layer", by_name[e2e]) for name, e2e in SPLIT_GATES.items()
        ]
        for name, kind, m in judged:
            a = [e[kind].get(name, 0) for e in runs_a]
            b = [e[kind].get(name, 0) for e in runs_b]
            if kind == "per_layer" and not all(a + b):
                continue  # a layer this workload never reaches
            verdict, change = _verdict(a, b, m["better"] == "lower", m["bound"])
            ok = ok and verdict != "FAIL"
            lines.append(
                f"  {wl:14s} {name:22s} {cell(a):32s} {cell(b):32s} "
                f"{change:+7.1%} {m['bound']:6.1%}  {verdict}"
            )
    return lines, ok
