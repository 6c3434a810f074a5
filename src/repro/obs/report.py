"""Text rendering of a JSONL trace: the ``repro trace`` subcommand body.

The summary has four parts:

1. a flame-style tree — spans merged by name at each nesting level, with
   total / self wall time, call counts and the per-slice share of the
   root's wall time;
2. a flat per-phase table for quick "where did it go" reading: each
   name's total is its :func:`~repro.obs.export.phase_seconds` (a span
   nested in a same-named one is not counted again), its self time and
   call count are summed over every nesting level;
3. engine counters from the meta record's merged perf snapshot (cache
   hit rates) plus per-task-tree worker totals;
4. degradation events (timeouts, ladder rungs, pool fallbacks) inline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .export import coverage, phase_seconds, worker_perf_totals

__all__ = ["render_trace_summary"]

#: Tree slices narrower than this share of the root are folded into an
#: ``(other)`` line so deep recursion doesn't drown the summary.
_MIN_TREE_SHARE = 0.005

#: Event names the degradation section picks up.
_DEGRADATION_EVENTS = ("degraded", "pool_fallback", "timeout", "budget")


class _Agg:
    """Aggregation node: spans merged by name under one tree position."""

    __slots__ = ("name", "calls", "total", "self_seconds", "perf", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.self_seconds = 0.0
        self.perf: Dict[str, int] = {}
        self.children: Dict[str, "_Agg"] = {}


def _build_forest(
    records: Sequence[Dict[str, object]]
) -> Tuple[List[Dict[str, object]], Dict[int, List[Dict[str, object]]]]:
    spans = [r for r in records if r.get("type") in ("span", "event")]
    children_of: Dict[int, List[Dict[str, object]]] = {}
    roots = []
    for record in spans:
        parent = record.get("parent")
        if parent is None:
            roots.append(record)
        else:
            children_of.setdefault(parent, []).append(record)
    return roots, children_of


def _aggregate(
    record: Dict[str, object],
    children_of: Dict[int, List[Dict[str, object]]],
    into: Dict[str, _Agg],
) -> None:
    name = str(record["name"])
    agg = into.get(name)
    if agg is None:
        agg = into[name] = _Agg(name)
    duration = float(record["t1"]) - float(record["t0"])
    children = children_of.get(record["id"], [])
    child_total = sum(float(c["t1"]) - float(c["t0"]) for c in children)
    agg.calls += 1
    agg.total += duration
    agg.self_seconds += max(0.0, duration - child_total)
    for key, value in (record.get("perf") or {}).items():
        agg.perf[key] = agg.perf.get(key, 0) + int(value)
    for child in children:
        _aggregate(child, children_of, agg.children)


def _render_tree(
    agg: _Agg, wall: float, depth: int, lines: List[str]
) -> None:
    indent = "  " * depth
    share = (agg.total / wall * 100.0) if wall else 0.0
    calls = f" x{agg.calls}" if agg.calls > 1 else ""
    lines.append(
        f"  {indent}{agg.name:<{max(1, 34 - 2 * depth)}s} "
        f"{agg.total:9.4f}s  self {agg.self_seconds:9.4f}s "
        f"{share:5.1f}%{calls}"
    )
    ordered = sorted(
        agg.children.values(), key=lambda child: -child.total
    )
    folded_time = 0.0
    folded_calls = 0
    for child in ordered:
        if wall and child.total / wall < _MIN_TREE_SHARE:
            folded_time += child.total
            folded_calls += child.calls
            continue
        _render_tree(child, wall, depth + 1, lines)
    if folded_calls:
        lines.append(
            f"  {'  ' * (depth + 1)}(other)"
            f"{'':<{max(1, 27 - 2 * depth)}s} {folded_time:9.4f}s"
            f"  ({folded_calls} spans under {_MIN_TREE_SHARE:.1%})"
        )


def _flatten(agg: _Agg, into: Dict[str, List[float]]) -> None:
    entry = into.setdefault(agg.name, [0, 0.0])
    entry[0] += agg.calls
    entry[1] += agg.self_seconds
    for child in agg.children.values():
        _flatten(child, into)


def _rate(hits: object, calls: object) -> Optional[float]:
    try:
        return int(hits) / int(calls) if int(calls) else None  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def render_trace_summary(records: Sequence[Dict[str, object]]) -> str:
    """Render a loaded trace (see :func:`repro.obs.read_trace`)."""
    meta = next((r for r in records if r.get("type") == "meta"), {})
    roots, children_of = _build_forest(records)
    lines: List[str] = []

    flow = meta.get("flow", "?")
    circuit = meta.get("circuit", "?")
    wall = meta.get("wall_seconds")
    header = f"trace: {flow} on {circuit}"
    if meta.get("k") is not None:
        header += f" (k={meta['k']}"
        if meta.get("jobs") is not None:
            header += f", jobs={meta['jobs']}"
        header += ")"
    lines.append(header)
    span_count = sum(1 for r in records if r.get("type") in ("span", "event"))
    cover = coverage(records)
    line = f"  {span_count} spans"
    if wall is not None:
        line += f", {float(wall):.3f}s wall"
    rss = (meta.get("perf") or {}).get("peak_rss_mb")
    if rss is not None:
        line += f", peak RSS {float(rss):.1f} MB"
    if cover is not None:
        line += f", {cover:.1%} of root time covered by phases"
    lines.append(line)

    # 1. Flame-style tree (spans merged by name per level).
    forest: Dict[str, _Agg] = {}
    for root in roots:
        _aggregate(root, children_of, forest)
    root_wall = sum(agg.total for agg in forest.values())
    if forest:
        lines.append("")
        lines.append("span tree (total / self / % of roots):")
        for agg in sorted(forest.values(), key=lambda a: -a.total):
            _render_tree(agg, root_wall, 0, lines)

    # 2. Flat per-phase table.
    flat: Dict[str, List[float]] = {}
    for agg in forest.values():
        _flatten(agg, flat)
    totals = phase_seconds(records)
    timed = {
        name: entry for name, entry in flat.items()
        if totals.get(name, 0.0) > 0
    }
    if timed:
        lines.append("")
        lines.append(
            "per-phase totals (outermost spans; self and calls over all "
            "levels):"
        )
        for name, (calls, self_s) in sorted(
            timed.items(), key=lambda kv: -kv[1][1]
        ):
            lines.append(
                f"  {name:<28s} {totals[name]:9.4f}s  self {self_s:9.4f}s"
                f"  x{int(calls)}"
            )

    # 3. Engine counters: merged flow perf + worker tree totals.
    perf = meta.get("perf") or {}
    if perf:
        lines.append("")
        lines.append("merged counters (parent + workers):")
        for label, calls_key, rate in [
            ("apply calls", "apply_calls",
             _rate(perf.get("apply_hits"), perf.get("apply_calls"))),
            ("cofactor calls", "cofactor_calls",
             _rate(perf.get("cofactor_hits"), perf.get("cofactor_calls"))),
            ("BDD nodes allocated", "nodes_allocated", None),
            ("Shannon fallbacks", "shannon_splits", None),
        ]:
            count = perf.get(calls_key) or 0
            text = f"  {label:<28s} {count:>12}"
            if rate is not None:
                text += f"  hit rate {rate:.1%}"
            lines.append(text)
    worker = worker_perf_totals(records)
    if any(worker.values()):
        lines.append(
            f"  {'worker apply calls':<28s} {worker['apply_calls']:>12}"
            f"  (summed over task trees)"
        )

    # 4. Degradation events.
    degradations = [
        r
        for r in records
        if r.get("type") == "event"
        and any(str(r.get("name", "")).startswith(p)
                for p in _DEGRADATION_EVENTS)
    ]
    if degradations:
        lines.append("")
        lines.append("degradation events:")
        for record in degradations:
            attrs = record.get("attrs") or {}
            detail = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            lines.append(f"  {record['name']}: {detail}")

    return "\n".join(lines)
