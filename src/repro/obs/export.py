"""JSONL trace export, loading and schema validation.

A trace file is one JSON object per line:

* exactly one ``meta`` record (by convention the first line)::

      {"type": "meta", "version": 1, "flow": "hyde", "circuit": "duke2",
       "k": 5, "jobs": 2, "wall_seconds": 1.93, "perf": {...}}

  ``perf`` is the flow's merged :meth:`~repro.perf.PerfCounters.snapshot`
  — parent *and* worker counters, i.e. what lands in
  ``MapResult.details["perf"]``.

* ``span`` records — closed intervals with a unique integer ``id``, a
  ``parent`` id (or ``null`` for roots), a ``proc`` tag (``"main"`` for
  the parent process, ``"task:<gi>"`` for group-task trees grafted from
  workers), ``t0``/``t1`` seconds, optional ``attrs`` and optional
  ``perf`` counter deltas.

  The meta ``perf`` written by ``repro ... --trace`` also carries
  ``phase_seconds``, the :func:`phase_seconds` of the span records,
  ``peak_nodes``, the largest live BDD node count of any manager the
  run used (``BddManager.stats()``), and ``peak_rss_mb``, the writing
  process's peak resident set size (:func:`repro.perf.peak_rss_mb`).

* ``event`` records — zero-duration spans (``t0 == t1``) marking
  degradations, pool fallbacks and similar one-shot facts.

:func:`validate_trace` checks structure, id/parent integrity and
interval containment; :func:`coverage` measures how much of each root
span its children account for (the "do the spans explain the wall
time?" number the CI smoke test gates on); :func:`phase_seconds` turns
the spans into per-phase wall times.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from ..runstate.atomic import atomic_write
from .spans import PERF_INT_SLOTS, TraceRecorder

__all__ = [
    "TRACE_VERSION",
    "trace_records",
    "write_trace",
    "read_trace",
    "validate_trace",
    "coverage",
    "phase_seconds",
    "worker_perf_totals",
]

TRACE_VERSION = 1

#: Keys every span/event record must carry.
_SPAN_KEYS = ("type", "id", "parent", "name", "proc", "t0", "t1")

#: Tolerance for parent/child interval containment: rounding to 6
#: decimals plus worker-clock rebasing can leave microsecond skew.
_EPSILON = 5e-5


def trace_records(
    recorder: TraceRecorder, meta: Optional[Dict[str, object]] = None
) -> List[Dict[str, object]]:
    """The full record list for a recorder: meta line + flattened spans."""
    header: Dict[str, object] = {"type": "meta", "version": TRACE_VERSION}
    if meta:
        header.update(meta)
    return [header] + recorder.to_dicts(rebase=True)


def write_trace(
    path: str,
    recorder: TraceRecorder,
    meta: Optional[Dict[str, object]] = None,
) -> int:
    """Write the trace as JSONL; returns the number of records.

    The write is atomic: a crash (or a record that fails to serialize
    halfway through the list) leaves any previous trace at ``path``
    intact instead of a truncated JSONL file.
    """
    records = trace_records(recorder, meta)
    with atomic_write(path) as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def read_trace(path: str) -> List[Dict[str, object]]:
    """Load a JSONL trace file (blank lines ignored)."""
    records = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"line {line_number}: not valid JSON: {exc}"
                ) from None
    return records


def validate_trace(records: Sequence[Dict[str, object]]) -> List[str]:
    """Schema-check a record list; returns human-readable problems.

    An empty return value means the trace is well-formed.
    """
    problems: List[str] = []
    metas = [r for r in records if r.get("type") == "meta"]
    if len(metas) != 1:
        problems.append(f"expected exactly one meta record, found {len(metas)}")
    else:
        version = metas[0].get("version")
        if version != TRACE_VERSION:
            problems.append(
                f"unsupported trace version {version!r} "
                f"(expected {TRACE_VERSION})"
            )
        perf = metas[0].get("perf")
        if perf is not None and not isinstance(perf, dict):
            problems.append("meta.perf must be an object")

    seen: Dict[int, Dict[str, object]] = {}
    for index, record in enumerate(records):
        kind = record.get("type")
        if kind == "meta":
            continue
        if kind not in ("span", "event"):
            problems.append(f"record {index}: unknown type {kind!r}")
            continue
        missing = [key for key in _SPAN_KEYS if key not in record]
        if missing:
            problems.append(f"record {index}: missing keys {missing}")
            continue
        sid = record["id"]
        if not isinstance(sid, int):
            problems.append(f"record {index}: id must be an integer")
            continue
        if sid in seen:
            problems.append(f"record {index}: duplicate id {sid}")
            continue
        t0, t1 = record["t0"], record["t1"]
        if not isinstance(t0, (int, float)) or not isinstance(t1, (int, float)):
            problems.append(f"span {sid}: non-numeric t0/t1")
            seen[sid] = record
            continue
        if t1 < t0:
            problems.append(f"span {sid}: t1 {t1} before t0 {t0}")
        if kind == "event" and abs(t1 - t0) > _EPSILON:
            problems.append(f"event {sid}: has non-zero duration")
        parent_id = record["parent"]
        if parent_id is not None:
            parent = seen.get(parent_id)
            if parent is None:
                problems.append(
                    f"span {sid}: parent {parent_id} not declared earlier"
                )
            elif isinstance(parent.get("t0"), (int, float)) and isinstance(
                parent.get("t1"), (int, float)
            ):
                if (
                    t0 < parent["t0"] - _EPSILON
                    or t1 > parent["t1"] + _EPSILON
                ):
                    problems.append(
                        f"span {sid} [{t0}, {t1}] escapes parent "
                        f"{parent_id} [{parent['t0']}, {parent['t1']}]"
                    )
        perf = record.get("perf")
        if perf is not None:
            if not isinstance(perf, dict):
                problems.append(f"span {sid}: perf must be an object")
            else:
                for key, value in perf.items():
                    if key not in PERF_INT_SLOTS:
                        problems.append(
                            f"span {sid}: unknown perf counter {key!r}"
                        )
                    elif not isinstance(value, int) or value < 0:
                        problems.append(
                            f"span {sid}: perf counter {key!r} must be a "
                            "non-negative integer"
                        )
        seen[sid] = record
    return problems


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    last_end: Optional[float] = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def coverage(records: Sequence[Dict[str, object]]) -> Optional[float]:
    """Fraction of root-span wall time their children account for.

    Only parent-process (``proc == "main"``) children are measured
    against their root — worker trees are placed by when their replies
    arrived, so their intervals say nothing exact about parent wall time.
    Returns ``None`` when the trace has no root span with positive
    duration (coverage is then meaningless, not zero).
    """
    spans = [r for r in records if r.get("type") in ("span", "event")]
    children_of: Dict[Optional[int], List[Dict[str, object]]] = {}
    for record in spans:
        children_of.setdefault(record.get("parent"), []).append(record)
    covered = 0.0
    total = 0.0
    for root in children_of.get(None, []):
        duration = float(root["t1"]) - float(root["t0"])
        if duration <= 0:
            continue
        total += duration
        intervals = [
            (
                max(float(c["t0"]), float(root["t0"])),
                min(float(c["t1"]), float(root["t1"])),
            )
            for c in children_of.get(root["id"], [])
            if c.get("proc") == "main" and float(c["t1"]) > float(c["t0"])
        ]
        covered += min(duration, _union_length(intervals))
    if total <= 0:
        return None
    return covered / total


def phase_seconds(records: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Wall seconds per span name, each stretch of time counted once.

    A span adds its duration to its name unless an ancestor has the same
    name, whose duration already holds it: a self-nesting name such as
    ``recurse`` counts once per outermost level.  Events add no key.
    Grafted worker trees count like the parent's own spans, so at
    ``jobs > 1`` a phase sums the work of every process.
    """
    spans = {r["id"]: r for r in records if r.get("type") == "span"}
    totals: Dict[str, float] = {}
    for record in spans.values():
        name = record["name"]
        above = spans.get(record.get("parent"))
        while above is not None and above["name"] != name:
            above = spans.get(above.get("parent"))
        if above is None:
            totals[name] = (
                totals.get(name, 0.0)
                + float(record["t1"]) - float(record["t0"])
            )
    return {name: round(totals[name], 6) for name in sorted(totals)}


def worker_perf_totals(
    records: Sequence[Dict[str, object]]
) -> Dict[str, int]:
    """Summed counter deltas of every grafted task tree.

    Task trees are the spans whose ``proc`` starts with ``"task:"`` —
    the replies workers shipped back (or their in-process equivalents
    when the pool fell back to serial).  Only each tree's root is summed;
    child deltas are already included in their root's snapshot diff.
    """
    by_id = {
        r["id"]: r for r in records if r.get("type") in ("span", "event")
    }
    totals: Dict[str, int] = {slot: 0 for slot in PERF_INT_SLOTS}
    for record in by_id.values():
        proc = str(record.get("proc", ""))
        if not proc.startswith("task:"):
            continue
        parent = by_id.get(record.get("parent"))
        if parent is not None and str(parent.get("proc", "")) == proc:
            continue  # not a tree root
        for key, value in (record.get("perf") or {}).items():
            if key in totals:
                totals[key] += int(value)
    return totals
