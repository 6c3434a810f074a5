"""Hyper-function decomposition: ingredient encoding, PPI folding,
duplication-cone analysis and ingredient recovery (paper Section 4)."""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "decompose": ("HyperDecompositionResult", "decompose_hyper_function"),
    "duplication": (
        "DuplicationInfo", "analyze_duplication", "recover_ingredients",
    ),
    "hyperfunction": ("HyperFunction", "build_hyper_function"),
    "sharing": (
        "SharingPlan", "partition_of_function", "pliable_sharing_plan",
    ),
})

__all__ = [
    "HyperFunction",
    "build_hyper_function",
    "DuplicationInfo",
    "analyze_duplication",
    "recover_ingredients",
    "HyperDecompositionResult",
    "decompose_hyper_function",
    "SharingPlan",
    "pliable_sharing_plan",
    "partition_of_function",
]
