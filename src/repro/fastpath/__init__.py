"""Bit-parallel fast path for the decomposition core.

Packed-integer truth-table kernels (:mod:`repro.fastpath.bitops`) that
replace per-node BDD cofactor walks for narrow-support cones, falling
back transparently to the :class:`~repro.bdd.BddManager` path for wide
supports.  They are reached through the packed search backend of
:mod:`repro.decompose.varpart` (every bound-set search and every
``count_classes``) and the packed clique cover of
:mod:`repro.decompose.dontcare`.  See docs/ALGORITHMS.md ("Bit-parallel
kernels").
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "bitops": (
        "DEFAULT_MAX_WIDTH",
        "HARD_MAX_WIDTH",
        "PackedPair",
        "PackedSearch",
        "bdd_to_packed",
        "count_distinct_columns",
        "global_memo_stats",
        "clear_global_memo",
        "index_masks",
        "pack_pair",
        "var_masks",
    ),
})

__all__ = [
    "DEFAULT_MAX_WIDTH",
    "HARD_MAX_WIDTH",
    "PackedPair",
    "PackedSearch",
    "bdd_to_packed",
    "count_distinct_columns",
    "global_memo_stats",
    "clear_global_memo",
    "index_masks",
    "pack_pair",
    "var_masks",
]
