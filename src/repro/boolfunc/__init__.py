"""Boolean function representations: dense truth tables and their NPN
canonical forms."""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "npn": (
        "apply_transform",
        "npn_canonical",
        "npn_classes",
        "npn_equivalent",
        "npn_transforms",
    ),
    "truthtable": ("TruthTable",),
})

__all__ = [
    "TruthTable",
    "npn_canonical",
    "npn_equivalent",
    "npn_transforms",
    "apply_transform",
    "npn_classes",
]
