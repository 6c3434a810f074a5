"""Lightweight work counters for the HYDE flow.

Every :class:`~repro.bdd.BddManager` owns a :class:`PerfCounters` instance
and increments it from the hot paths (binary apply, single-variable
cofactoring, cofactor enumeration).  The packed class-count kernels
(:mod:`repro.fastpath.bitops`) and the mapping flows add their own
counters on top, so a single ``MapResult.details["perf"]`` dict answers
how much work the engine did, how hot the caches were, and how often the
global class-count memo saved a count.  Time is not counted here: the
flows' :mod:`repro.obs` spans are the one clock, and per-phase wall
times are derived from a span tree by :func:`repro.obs.phase_seconds`.

The counters are plain integer attributes (no dict lookups, no branching
on an "enabled" flag): incrementing one costs two attribute loads and an
integer add, which is noise next to the dict probes it sits beside.

Usage::

    print(manager.perf.snapshot())
"""

from __future__ import annotations

import sys
from typing import Dict, Optional

__all__ = ["INT_SLOTS", "PerfCounters", "format_perf_report", "peak_rss_mb"]


#: The integer counters, in report order.  ``nodes_allocated`` counts
#: fresh BDD nodes only (never a unique-table hit), so it is the
#: engine's work and memory measure independent of which operation
#: built the nodes.  ``shannon_splits`` counts the recursion steps whose
#: bound set could not shrink the support and fell back to a Shannon
#: split (no class functions or encoder are built for them).
#: ``class_searches`` counts the bound-set searches over a draft image
#: that counted its classes from the class functions instead of the
#: image's BDD (see :mod:`repro.decompose.varpart`).
INT_SLOTS = (
    "apply_calls",
    "apply_hits",
    "cofactor_calls",
    "cofactor_hits",
    "ite_calls",
    "ite_hits",
    "cofactor_enumerations",
    "nodes_allocated",
    "shannon_splits",
    "class_searches",
    "fastpath_selects",
    "fastpath_fallbacks",
    "fastpath_conversions",
    "fastpath_global_hits",
    "fastpath_global_misses",
    "cache_hits",
    "cache_misses",
    "cache_rejected",
    "budget_exceeded",
)


class PerfCounters:
    """Integer counter bundle shared by one manager and its flows."""

    __slots__ = INT_SLOTS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        for slot in INT_SLOTS:
            setattr(self, slot, 0)

    def merge_dict(self, data: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` dict back in (crosses process pickles)."""
        for slot in INT_SLOTS:
            setattr(self, slot, getattr(self, slot) + int(data.get(slot, 0)))

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
            "nodes_allocated": self.nodes_allocated,
            "shannon_splits": self.shannon_splits,
            "class_searches": self.class_searches,
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
        }
        if manager is not None:
            data["engine"] = manager.stats()
        return data


def peak_rss_mb() -> Optional[float]:
    """This process's peak resident set size so far, in MB (``ru_maxrss``;
    worker processes are not included), or None without :mod:`resource`."""
    try:
        import resource  # deferred: POSIX only, read once per report
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)


def format_perf_report(
    perf: Dict[str, object], phase_seconds: Dict[str, float]
) -> str:
    """Render a perf snapshot dict as an aligned ASCII block, led by the
    per-phase wall times of :func:`repro.obs.phase_seconds`; a
    ``peak_rss_mb`` entry (see :func:`peak_rss_mb`) follows the counters."""
    lines = []
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
        ("BDD nodes allocated", perf.get("nodes_allocated"), None),
        ("Shannon fallbacks", perf.get("shannon_splits"), None),
        ("class-function searches", perf.get("class_searches"), None),
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
    if perf.get("peak_rss_mb") is not None:
        lines.append(f"peak RSS: {perf['peak_rss_mb']} MB (this process)")
    engine = perf.get("engine")
    if engine:
        lines.append("engine:")
        for key, value in sorted(engine.items()):  # type: ignore[union-attr]
            lines.append(f"  {key:28s} {value:>12}")
    return "\n".join(lines)
