"""Boolean function representations: dense truth tables, BDD-backed
functions with named variables, and incompletely specified functions."""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "function": ("BoolFunction", "FunctionSpace"),
    "incomplete": ("IncompleteFunction",),
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
    "BoolFunction",
    "FunctionSpace",
    "IncompleteFunction",
    "npn_canonical",
    "npn_equivalent",
    "npn_transforms",
    "apply_transform",
    "npn_classes",
]
