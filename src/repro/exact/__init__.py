"""Exact k-LUT mapping for small cones — the optimality oracle.

See :mod:`repro.exact.mapper` for the search and
:mod:`repro.exact.cache` for the NPN-canonical memo.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "cache": ("EXACT_SCHEMA_VERSION", "ExactCache"),
    "mapper": (
        "DEFAULT_BUDGET_SECONDS",
        "DEFAULT_MAX_LUTS",
        "EXACT_MAX_INPUTS",
        "ExactBudgetExceeded",
        "ExactResult",
        "cone_spec",
        "exact_map",
    ),
})

__all__ = [
    "DEFAULT_BUDGET_SECONDS",
    "DEFAULT_MAX_LUTS",
    "EXACT_MAX_INPUTS",
    "EXACT_SCHEMA_VERSION",
    "ExactBudgetExceeded",
    "ExactCache",
    "ExactResult",
    "cone_spec",
    "exact_map",
]
