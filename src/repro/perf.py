"""Lightweight performance counters and phase timers for the HYDE flow.

Every :class:`~repro.bdd.BddManager` owns a :class:`PerfCounters` instance
and increments it from the hot paths (binary apply, single-variable
cofactoring, cofactor enumeration).  The packed class-count kernels
(:mod:`repro.fastpath.bitops`) and the mapping flows add their own
counters and per-phase wall times on top, so a single
``MapResult.details["perf"]`` dict answers the questions every perf PR
needs answered: where did the time go, how hot are the caches, and how
often did the global class-count memo save a count.

The counters are plain integer attributes (no dict lookups, no branching
on an "enabled" flag): incrementing one costs two attribute loads and an
integer add, which is noise next to the dict probes it sits beside.

Usage::

    perf = manager.perf
    with perf.phase("decompose"):
        ...
    print(perf.snapshot())
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = ["PerfCounters", "format_perf_report"]


class PerfCounters:
    """Counter + timer bundle shared by one manager and its flows."""

    __slots__ = (
        "apply_calls",
        "apply_hits",
        "cofactor_calls",
        "cofactor_hits",
        "ite_calls",
        "ite_hits",
        "cofactor_enumerations",
        "fastpath_selects",
        "fastpath_fallbacks",
        "fastpath_conversions",
        "fastpath_global_hits",
        "fastpath_global_misses",
        "cache_hits",
        "cache_misses",
        "cache_rejected",
        "budget_exceeded",
        "phase_seconds",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter and drop all phase timings."""
        self.apply_calls = 0
        self.apply_hits = 0
        self.cofactor_calls = 0
        self.cofactor_hits = 0
        self.ite_calls = 0
        self.ite_hits = 0
        self.cofactor_enumerations = 0
        self.fastpath_selects = 0
        self.fastpath_fallbacks = 0
        self.fastpath_conversions = 0
        self.fastpath_global_hits = 0
        self.fastpath_global_misses = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_rejected = 0
        self.budget_exceeded = 0
        self.phase_seconds: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Phase timing
    # ------------------------------------------------------------------ #

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of a block under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0)
                + time.perf_counter()
                - start
            )

    # ------------------------------------------------------------------ #
    # Aggregation / reporting
    # ------------------------------------------------------------------ #

    def merge(self, other: "PerfCounters") -> None:
        """Fold another counter set into this one (for worker results)."""
        self.apply_calls += other.apply_calls
        self.apply_hits += other.apply_hits
        self.cofactor_calls += other.cofactor_calls
        self.cofactor_hits += other.cofactor_hits
        self.ite_calls += other.ite_calls
        self.ite_hits += other.ite_hits
        self.cofactor_enumerations += other.cofactor_enumerations
        self.fastpath_selects += other.fastpath_selects
        self.fastpath_fallbacks += other.fastpath_fallbacks
        self.fastpath_conversions += other.fastpath_conversions
        self.fastpath_global_hits += other.fastpath_global_hits
        self.fastpath_global_misses += other.fastpath_global_misses
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_rejected += other.cache_rejected
        self.budget_exceeded += other.budget_exceeded
        for name, seconds in other.phase_seconds.items():
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0) + seconds
            )

    def merge_dict(self, data: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` dict back in (crosses process pickles)."""
        for slot in (
            "apply_calls",
            "apply_hits",
            "cofactor_calls",
            "cofactor_hits",
            "ite_calls",
            "ite_hits",
            "cofactor_enumerations",
            "fastpath_selects",
            "fastpath_fallbacks",
            "fastpath_conversions",
            "fastpath_global_hits",
            "fastpath_global_misses",
            "cache_hits",
            "cache_misses",
            "cache_rejected",
            "budget_exceeded",
        ):
            setattr(self, slot, getattr(self, slot) + int(data.get(slot, 0)))
        for name, seconds in data.get("phase_seconds", {}).items():  # type: ignore[union-attr]
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0) + float(seconds)
            )

    @staticmethod
    def _rate(hits: int, calls: int) -> Optional[float]:
        return round(hits / calls, 4) if calls else None

    def snapshot(self, manager=None) -> Dict[str, object]:
        """A JSON-friendly dict of everything collected so far.

        When ``manager`` is given, its engine sizes (unique table, caches)
        are included as well.
        """
        data: Dict[str, object] = {
            "apply_calls": self.apply_calls,
            "apply_hits": self.apply_hits,
            "apply_hit_rate": self._rate(self.apply_hits, self.apply_calls),
            "cofactor_calls": self.cofactor_calls,
            "cofactor_hits": self.cofactor_hits,
            "cofactor_hit_rate": self._rate(
                self.cofactor_hits, self.cofactor_calls
            ),
            "ite_calls": self.ite_calls,
            "ite_hits": self.ite_hits,
            "cofactor_enumerations": self.cofactor_enumerations,
            "fastpath_selects": self.fastpath_selects,
            "fastpath_fallbacks": self.fastpath_fallbacks,
            "fastpath_conversions": self.fastpath_conversions,
            "fastpath_global_hits": self.fastpath_global_hits,
            "fastpath_global_misses": self.fastpath_global_misses,
            "fastpath_global_hit_rate": self._rate(
                self.fastpath_global_hits,
                self.fastpath_global_hits + self.fastpath_global_misses,
            ),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_rejected": self.cache_rejected,
            "cache_hit_rate": self._rate(
                self.cache_hits, self.cache_hits + self.cache_misses
            ),
            "budget_exceeded": self.budget_exceeded,
            "phase_seconds": {
                name: round(seconds, 6)
                for name, seconds in sorted(self.phase_seconds.items())
            },
        }
        if manager is not None:
            data["engine"] = manager.stats()
        return data


def format_perf_report(perf: Dict[str, object]) -> str:
    """Render a perf snapshot dict as an aligned ASCII block."""
    lines = []
    phase_seconds = perf.get("phase_seconds") or {}
    if phase_seconds:
        lines.append("phase wall times:")
        for name, seconds in sorted(
            phase_seconds.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {name:28s} {seconds:10.4f}s")
    rows = [
        ("apply calls", perf.get("apply_calls"), perf.get("apply_hit_rate")),
        (
            "cofactor calls",
            perf.get("cofactor_calls"),
            perf.get("cofactor_hit_rate"),
        ),
        ("ite calls", perf.get("ite_calls"), None),
        (
            "cofactor enumerations",
            perf.get("cofactor_enumerations"),
            None,
        ),
        ("fastpath searches", perf.get("fastpath_selects"), None),
        ("fastpath fallbacks", perf.get("fastpath_fallbacks"), None),
        (
            "fastpath global memo",
            (perf.get("fastpath_global_hits") or 0)
            + (perf.get("fastpath_global_misses") or 0),
            perf.get("fastpath_global_hit_rate"),
        ),
        (
            "result-cache lookups",
            (perf.get("cache_hits") or 0) + (perf.get("cache_misses") or 0),
            perf.get("cache_hit_rate"),
        ),
        ("result-cache rejections", perf.get("cache_rejected"), None),
    ]
    lines.append("counters:")
    for label, count, rate in rows:
        rate_text = f"  hit rate {rate:.1%}" if rate is not None else ""
        lines.append(f"  {label:28s} {count or 0:>12}{rate_text}")
    engine = perf.get("engine")
    if engine:
        lines.append("engine:")
        for key, value in sorted(engine.items()):  # type: ignore[union-attr]
            lines.append(f"  {key:28s} {value:>12}")
    return "\n".join(lines)
