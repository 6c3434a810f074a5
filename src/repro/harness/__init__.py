"""Experiment harness: runners, result records, the paper's published
numbers and ASCII comparison reports."""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "paper_data": ("TABLE1_CLB", "TABLE1_CPU_SECONDS", "TABLE2_LUT"),
    "records": ("CircuitRecord", "ExperimentRecord", "FlowRecord"),
    "report": ("format_cell", "render_comparison", "render_table"),
    "runner": ("default_size_classes", "run_experiment"),
})

__all__ = [
    "TABLE1_CLB",
    "TABLE1_CPU_SECONDS",
    "TABLE2_LUT",
    "FlowRecord",
    "CircuitRecord",
    "ExperimentRecord",
    "run_experiment",
    "default_size_classes",
    "render_table",
    "render_comparison",
    "format_cell",
]
