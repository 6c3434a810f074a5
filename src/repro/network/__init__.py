"""Boolean network substrate: netlist, I/O formats, simulation,
equivalence checking, restructuring and statistics."""

from .._lazy import lazy_exports

# The simulate module exports a function of its own name; imported lazily,
# the submodule would rebind the package attribute to the module.
from .simulate import exhaustive_vectors, random_vectors, simulate, simulate_vectors

__getattr__ = lazy_exports(__name__, globals(), {
    "blif": ("BlifError", "parse_blif", "read_blif", "to_blif", "write_blif"),
    "equiv": (
        "EquivalenceError",
        "Verdict",
        "check_equivalence",
        "exact_path",
        "simulate_equivalence",
        "verdict",
    ),
    "globalbdd": ("GlobalBdds", "build_global_bdds"),
    "netlist": ("Network", "Node"),
    "stats": ("NetworkStats", "is_k_feasible", "network_stats", "node_depths"),
    "transform": (
        "collapse_network",
        "collapse_node",
        "extract_cone",
        "propagate_constant_inputs",
        "rename_po_drivers",
        "simplify_local",
        "sweep",
    ),
})

__all__ = [
    "Network",
    "Node",
    "BlifError",
    "parse_blif",
    "read_blif",
    "to_blif",
    "write_blif",
    "simulate",
    "simulate_vectors",
    "random_vectors",
    "exhaustive_vectors",
    "GlobalBdds",
    "build_global_bdds",
    "check_equivalence",
    "exact_path",
    "simulate_equivalence",
    "verdict",
    "Verdict",
    "EquivalenceError",
    "sweep",
    "rename_po_drivers",
    "collapse_node",
    "collapse_network",
    "extract_cone",
    "propagate_constant_inputs",
    "simplify_local",
    "NetworkStats",
    "network_stats",
    "node_depths",
    "is_k_feasible",
]
