"""From-scratch ROBDD package (Bryant-style, hash-consed, no complement edges).

Public surface:

* :class:`BddManager` — node store and core operations.
* :mod:`repro.bdd.ops` — derived operations (conjoin, minterms, cofactor
  counting, renaming).
* :mod:`repro.bdd.io` — DOT / cube-list export.
"""

from .._lazy import lazy_exports

# The isop module exports a function of its own name; imported lazily, the
# submodule would rebind the package attribute to the module.
from .isop import cube_count, cubes_to_bdd, isop, literal_count

__getattr__ = lazy_exports(__name__, globals(), {
    "manager": ("FALSE", "TRUE", "BddBudgetExceeded", "BddManager", "build_cube"),
    "ops": (
        "conjoin",
        "count_distinct_cofactors",
        "cube_of_levels",
        "disjoin",
        "implies",
        "is_contradiction",
        "is_tautology",
        "minterm",
        "swap_rename",
    ),
})

__all__ = [
    "FALSE",
    "TRUE",
    "BddManager",
    "BddBudgetExceeded",
    "build_cube",
    "conjoin",
    "disjoin",
    "minterm",
    "cube_of_levels",
    "implies",
    "is_tautology",
    "is_contradiction",
    "swap_rename",
    "count_distinct_cofactors",
    "isop",
    "cubes_to_bdd",
    "cube_count",
    "literal_count",
]
