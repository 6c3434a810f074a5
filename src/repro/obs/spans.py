"""Hierarchical wall-clock spans for the HYDE flow.

A :class:`Span` is one timed region (a mapping phase, one ingredient
group, one recursion level, one Figure-3 encoder phase) with optional
attributes and a delta-snapshot of the owning manager's
:class:`~repro.perf.PerfCounters` — so a trace answers not only *where*
the time went but *what the engine did* there (apply calls, cache hits,
class-count memo probes) at per-span granularity.  Spans are the flow's
only clock: per-phase wall times are derived from them
(:func:`repro.obs.export.phase_seconds`), not timed a second time.

The module keeps one process-wide *active* :class:`TraceRecorder`.
Instrumentation sites call :func:`span` / :func:`event`, which are
no-ops (a shared, allocation-free null context manager) while no
recorder is installed — the instrumented flows are byte-identical with
tracing disabled.  Deep code (the recursive decomposer, the chart
encoder) therefore needs no plumbed-through recorder argument: whoever
owns the run installs a recorder and everything below lands in it.

Crossing a process boundary: a pool worker builds its own recorder,
serialises it with :meth:`TraceRecorder.to_dicts` (times rebased so the
worker's root starts at 0), ships the plain dicts in its task reply, and
the parent grafts the tree under its own ``decompose`` (or
``portfolio``) span with :meth:`TraceRecorder.graft`.
``time.perf_counter`` bases differ between processes, so rebasing is
what makes the merged timeline coherent.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..perf import INT_SLOTS

__all__ = [
    "PERF_INT_SLOTS",
    "Span",
    "TraceRecorder",
    "span",
    "event",
    "active",
    "install",
    "restore",
    "installed",
]

#: The integer slots of :class:`~repro.perf.PerfCounters`, captured as
#: per-span deltas.
PERF_INT_SLOTS: Tuple[str, ...] = INT_SLOTS


def _perf_ints(perf) -> Dict[str, int]:
    return {slot: getattr(perf, slot) for slot in PERF_INT_SLOTS}


class Span:
    """One timed region of the flow.

    ``end`` is ``None`` while the span is open.  ``perf`` holds the
    counter deltas accumulated inside the span (including children —
    it is a snapshot difference, not a self-only figure) or ``None``
    when the span was opened without a manager.
    """

    __slots__ = ("name", "start", "end", "attrs", "perf", "children", "proc")

    def __init__(
        self,
        name: str,
        start: float,
        attrs: Optional[Dict[str, object]] = None,
        proc: str = "main",
    ) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = attrs or {}
        self.perf: Optional[Dict[str, int]] = None
        self.children: List["Span"] = []
        self.proc = proc

    # ------------------------------------------------------------------ #

    @property
    def total_seconds(self) -> float:
        """Wall time of the span (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def self_seconds(self) -> float:
        """Wall time not accounted for by child spans."""
        return max(
            0.0,
            self.total_seconds
            - sum(child.total_seconds for child in self.children),
        )

    def walk(self, depth: int = 0) -> Iterator[Tuple["Span", int]]:
        """Pre-order traversal as ``(span, depth)`` pairs."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.total_seconds:.4f}s, "
            f"{len(self.children)} children)"
        )


class _SpanHandle:
    """Context manager for one open span (cheaper than a generator)."""

    __slots__ = ("_recorder", "_span", "_perf_obj", "_perf_before")

    def __init__(self, recorder: "TraceRecorder", span_: Span, perf_obj) -> None:
        self._recorder = recorder
        self._span = span_
        self._perf_obj = perf_obj
        self._perf_before = (
            _perf_ints(perf_obj) if perf_obj is not None else None
        )

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._perf_before is not None:
            after = _perf_ints(self._perf_obj)
            self._span.perf = {
                slot: after[slot] - self._perf_before[slot]
                for slot in PERF_INT_SLOTS
                if after[slot] != self._perf_before[slot]
            }
        self._recorder._close(self._span)
        return False


class _NullHandle:
    """Shared no-op context manager used while tracing is inactive."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_HANDLE = _NullHandle()


class TraceRecorder:
    """Collects a forest of spans for one flow run (or one worker task).

    Not thread-safe; the flows are single-threaded per process, which is
    the whole reason the pool exists.
    """

    def __init__(self, proc: str = "main") -> None:
        self.proc = proc
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def span(self, name: str, manager=None, **attrs) -> _SpanHandle:
        """Open a span; use as ``with rec.span("phase") as s:``.

        ``manager`` (a :class:`~repro.bdd.BddManager`) enables the perf
        delta-snapshot; any other keyword becomes a span attribute.
        """
        span_ = Span(name, time.perf_counter(), attrs or None, self.proc)
        if self._stack:
            self._stack[-1].children.append(span_)
        else:
            self.roots.append(span_)
        self._stack.append(span_)
        return _SpanHandle(
            self, span_, manager.perf if manager is not None else None
        )

    def _close(self, span_: Span) -> None:
        span_.end = time.perf_counter()
        # Close everything down to (and including) span_: a stray child
        # left open by an exception must not outlive its parent.
        while self._stack:
            top = self._stack.pop()
            if top.end is None:
                top.end = span_.end
            if top is span_:
                break

    def event(self, name: str, **attrs) -> Span:
        """A zero-duration marker (degradation, fallback, …)."""
        now = time.perf_counter()
        span_ = Span(name, now, attrs or None, self.proc)
        span_.end = now
        if self._stack:
            self._stack[-1].children.append(span_)
        else:
            self.roots.append(span_)
        return span_

    # ------------------------------------------------------------------ #
    # Serialisation (crosses the worker pickle boundary as plain dicts)
    # ------------------------------------------------------------------ #

    def to_dicts(self, rebase: bool = False) -> List[Dict[str, object]]:
        """Flatten the forest to JSONL-ready records.

        With ``rebase`` all times are shifted so the earliest root starts
        at 0 — the form workers ship, since ``perf_counter`` bases are
        process-local.
        """
        offset = 0.0
        if rebase and self.roots:
            offset = min(root.start for root in self.roots)
        records: List[Dict[str, object]] = []
        next_id = [0]

        def emit(span_: Span, parent: Optional[int]) -> None:
            sid = next_id[0]
            next_id[0] += 1
            end = span_.end if span_.end is not None else span_.start
            record: Dict[str, object] = {
                "type": "event" if end == span_.start else "span",
                "id": sid,
                "parent": parent,
                "name": span_.name,
                "proc": span_.proc,
                "t0": round(span_.start - offset, 6),
                "t1": round(end - offset, 6),
            }
            if span_.attrs:
                record["attrs"] = span_.attrs
            if span_.perf:
                record["perf"] = span_.perf
            records.append(record)
            for child in span_.children:
                emit(child, sid)

        for root in self.roots:
            emit(root, None)
        return records

    def graft(
        self,
        records: Sequence[Dict[str, object]],
        parent: Optional[Span] = None,
        offset: float = 0.0,
    ) -> List[Span]:
        """Rebuild serialized spans under ``parent`` (or the open span).

        ``offset`` is added to every timestamp; pass the enclosing span's
        ``start`` so a worker's rebased tree lands inside it.
        """
        if parent is None:
            parent = self._stack[-1] if self._stack else None
        span_of: Dict[int, Span] = {}
        grafted: List[Span] = []
        for record in records:
            span_ = Span(
                str(record["name"]),
                float(record["t0"]) + offset,
                dict(record.get("attrs") or {}),
                str(record.get("proc", "worker")),
            )
            span_.end = float(record["t1"]) + offset
            perf = record.get("perf")
            if perf:
                span_.perf = {str(k): int(v) for k, v in perf.items()}
            span_of[int(record["id"])] = span_
            parent_id = record.get("parent")
            if parent_id is None:
                if parent is not None:
                    parent.children.append(span_)
                else:
                    self.roots.append(span_)
                grafted.append(span_)
            else:
                span_of[int(parent_id)].children.append(span_)
        return grafted


# --------------------------------------------------------------------- #
# The process-wide active recorder
# --------------------------------------------------------------------- #

_ACTIVE: Optional[TraceRecorder] = None


def active() -> Optional[TraceRecorder]:
    """The currently installed recorder, or ``None``."""
    return _ACTIVE


def install(recorder: Optional[TraceRecorder]) -> Optional[TraceRecorder]:
    """Make ``recorder`` the active one; returns the previous recorder.

    Always pair with :func:`restore` (workers shadow the parent's
    recorder during in-process ladder attempts and must put it back).
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    return previous


def restore(previous: Optional[TraceRecorder]) -> None:
    """Re-install the recorder returned by :func:`install`."""
    global _ACTIVE
    _ACTIVE = previous


class installed:
    """``with installed(rec): ...`` — scoped install/restore."""

    def __init__(self, recorder: Optional[TraceRecorder]) -> None:
        self._recorder = recorder
        self._previous: Optional[TraceRecorder] = None

    def __enter__(self) -> Optional[TraceRecorder]:
        self._previous = install(self._recorder)
        return self._recorder

    def __exit__(self, exc_type, exc, tb) -> bool:
        restore(self._previous)
        return False


def span(name: str, manager=None, **attrs):
    """Open a span on the active recorder; no-op when tracing is off."""
    recorder = _ACTIVE
    if recorder is None:
        return _NULL_HANDLE
    return recorder.span(name, manager=manager, **attrs)


def event(name: str, **attrs) -> Optional[Span]:
    """Record a marker on the active recorder; no-op when tracing is off."""
    recorder = _ACTIVE
    if recorder is None:
        return None
    return recorder.event(name, **attrs)
