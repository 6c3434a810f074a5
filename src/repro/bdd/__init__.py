"""From-scratch ROBDD package (Bryant-style, hash-consed, no complement edges).

Public surface:

* :class:`BddManager` — node store and core operations.
* :mod:`repro.bdd.isop` — irredundant sum-of-products covers.
"""

from .._lazy import lazy_exports

# The isop module exports a function of its own name; imported lazily, the
# submodule would rebind the package attribute to the module.
from .isop import cube_count, cubes_to_bdd, isop, literal_count

__getattr__ = lazy_exports(__name__, globals(), {
    "manager": ("FALSE", "TRUE", "BddBudgetExceeded", "BddManager", "build_cube"),
})

__all__ = [
    "FALSE",
    "TRUE",
    "BddManager",
    "BddBudgetExceeded",
    "build_cube",
    "isop",
    "cubes_to_bdd",
    "cube_count",
    "literal_count",
]
