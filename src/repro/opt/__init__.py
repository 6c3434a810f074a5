"""Algebraic multi-level optimisation (the role of SIS's algebraic
script in the paper's experimental setup): SOP covers, kernel/co-kernel
extraction, node factoring and network-level common-kernel extraction."""

from .._lazy import lazy_exports

# The kernels module exports a function of its own name; imported lazily,
# the submodule would rebind the package attribute to the module.
from .kernels import KernelEntry, common_cube, is_cube_free, kernels, make_cube_free

__getattr__ = lazy_exports(__name__, globals(), {
    "extract": ("algebraic_script", "extract_kernels", "factor_node"),
    "simplify": ("node_care_set", "simplify_with_sdc"),
    "sop": (
        "Cover",
        "Cube",
        "Literal",
        "cover_divide",
        "cover_from_table",
        "cover_literals",
        "cube_divide",
        "cube_to_str",
        "table_from_cover",
    ),
})

__all__ = [
    "Literal",
    "Cube",
    "Cover",
    "cover_from_table",
    "table_from_cover",
    "cover_literals",
    "cube_divide",
    "cover_divide",
    "cube_to_str",
    "kernels",
    "KernelEntry",
    "common_cube",
    "is_cube_free",
    "make_cube_free",
    "factor_node",
    "extract_kernels",
    "algebraic_script",
    "simplify_with_sdc",
    "node_care_set",
]
