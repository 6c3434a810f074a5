"""Observability for the HYDE flow: spans, JSONL traces, trace reports.

See :mod:`repro.obs.spans` for the recording model (hierarchical spans
with per-span :class:`~repro.perf.PerfCounters` deltas, one process-wide
active recorder, worker trees grafted across the pickle boundary),
:mod:`repro.obs.export` for the JSONL schema and validation, and
:mod:`repro.obs.report` for the ``repro trace`` text summary.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "export": (
        "TRACE_VERSION",
        "coverage",
        "phase_seconds",
        "read_trace",
        "trace_records",
        "validate_trace",
        "worker_perf_totals",
        "write_trace",
    ),
    "report": ("render_trace_summary",),
    "spans": (
        "PERF_INT_SLOTS",
        "Span",
        "TraceRecorder",
        "active",
        "event",
        "install",
        "installed",
        "restore",
        "span",
    ),
})

__all__ = [
    "PERF_INT_SLOTS",
    "Span",
    "TraceRecorder",
    "active",
    "event",
    "install",
    "installed",
    "restore",
    "span",
    "TRACE_VERSION",
    "trace_records",
    "write_trace",
    "read_trace",
    "validate_trace",
    "coverage",
    "phase_seconds",
    "worker_perf_totals",
    "render_trace_summary",
]
