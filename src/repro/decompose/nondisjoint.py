"""Non-disjoint decomposition — the ``j < i`` case of the paper's Section 2.

The paper's Definition of decomposability allows the bound and free sets
to *share* variables (f is decomposable when
``f = g(alpha(b0..b_{i-1}), b_j, ..., b_{n-1})`` with ``j <= i``); the
paper then restricts itself to the disjoint case ``j = i``.  This module
implements the general case as an extension:

With shared set S, exclusive bound set X and exclusive free set Y, the
decomposition functions see (X, S) and the image sees (alpha, S, Y).
Because the image still reads S directly, compatibility only needs to
hold *per S-assignment*: two X-assignments may share a code under one
value of S and not under another.  The code width is therefore

    t = max over s of ceil(log2 #classes(f_s w.r.t. X))

which can be strictly smaller than the disjoint width for the bound set
X ∪ S — the classic win on mux-like functions where S selects between
behaviours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..bdd import FALSE, BddManager, build_cube
from ..boolfunc import TruthTable
from .compatible import Column, compute_classes
from .encoding import build_image_function, canonical_codes

__all__ = [
    "NondisjointStep",
    "decompose_step_nondisjoint",
    "nondisjoint_gain",
]


@dataclass
class NondisjointStep:
    """Result of one non-disjoint decomposition.

    ``alpha_tables[j]`` is a truth table over (X, S): index bit ``i`` is
    ``exclusive_bound[i]`` for i < |X| and ``shared[i - |X|]`` above.
    ``image`` is g over alpha levels + S + Y.
    """

    exclusive_bound: Tuple[int, ...]
    shared: Tuple[int, ...]
    free: Tuple[int, ...]
    alpha_levels: Tuple[int, ...]
    alpha_tables: List[TruthTable]
    image: Column
    classes_per_shared: List[int]

    @property
    def num_alpha(self) -> int:
        return len(self.alpha_tables)

    @property
    def max_classes(self) -> int:
        return max(self.classes_per_shared, default=1)


def decompose_step_nondisjoint(
    manager: BddManager,
    on: int,
    bound_levels: Sequence[int],
    shared_levels: Sequence[int],
    support: Sequence[int],
    dc: int = FALSE,
) -> NondisjointStep:
    """One non-disjoint decomposition with the given bound/shared split.

    ``bound_levels`` is the full bound set (shared variables included);
    ``shared_levels`` ⊆ ``bound_levels`` also remain visible to the
    image.  Codes are canonical per shared assignment (strict, rigid per
    slice).
    """
    shared = tuple(sorted(shared_levels))
    if not set(shared) <= set(bound_levels):
        raise ValueError("shared variables must be part of the bound set")
    exclusive = tuple(sorted(set(bound_levels) - set(shared)))
    if not exclusive:
        raise ValueError("bound set must contain non-shared variables")
    free = tuple(
        lv for lv in sorted(support) if lv not in set(bound_levels)
    )

    # Per-shared-assignment class computation.
    slices = []
    max_classes = 1
    for s_index in range(1 << len(shared)):
        assignment = {
            lv: (s_index >> j) & 1 for j, lv in enumerate(shared)
        }
        f_s = manager.restrict(on, assignment)
        dc_s = manager.restrict(dc, assignment)
        classes = compute_classes(
            manager, f_s, list(exclusive), dc_s, use_dontcares=True
        )
        slices.append(classes)
        max_classes = max(max_classes, classes.num_classes)

    t = max(1, math.ceil(math.log2(max(2, max_classes))))
    alpha_levels = []
    for _ in range(t):
        base = f"_na{manager.num_vars}"
        name = base
        k = 0
        while True:
            try:
                manager.add_var(name)
                break
            except ValueError:
                k += 1
                name = f"{base}_{k}"
        alpha_levels.append(manager.num_vars - 1)

    # Alpha tables over (X, S): per shared slice, canonical codes.
    width = len(exclusive) + len(shared)
    alpha_masks = [0] * t
    for s_index, classes in enumerate(slices):
        for x_index, cls in enumerate(classes.class_of_position):
            position = x_index | (s_index << len(exclusive))
            for a in range(t):
                if (cls >> a) & 1:
                    alpha_masks[a] |= 1 << position
    alpha_tables = [TruthTable(width, mask) for mask in alpha_masks]

    # Image: g(alpha, S, Y) assembled slice by slice.
    g_on = FALSE
    g_dc = FALSE
    for s_index, classes in enumerate(slices):
        s_cube = build_cube(
            manager,
            {lv: (s_index >> j) & 1 for j, lv in enumerate(shared)},
        )
        image = build_image_function(
            manager,
            alpha_levels,
            canonical_codes(classes.num_classes, t),
            classes.class_functions,
        )
        g_on = manager.apply_or(g_on, manager.apply_and(s_cube, image.on))
        g_dc = manager.apply_or(g_dc, manager.apply_and(s_cube, image.dc))

    return NondisjointStep(
        exclusive_bound=exclusive,
        shared=shared,
        free=free,
        alpha_levels=tuple(alpha_levels),
        alpha_tables=alpha_tables,
        image=Column(g_on, g_dc),
        classes_per_shared=[c.num_classes for c in slices],
    )


def nondisjoint_gain(
    manager: BddManager,
    on: int,
    bound_levels: Sequence[int],
    shared_levels: Sequence[int],
    dc: int = FALSE,
) -> Tuple[int, int]:
    """(disjoint alpha count, non-disjoint alpha count) for a bound set.

    Quantifies what sharing ``shared_levels`` with the free set saves:
    disjoint width uses the global class count of the full bound set,
    non-disjoint the max per-shared-slice count.
    """
    disjoint_classes = compute_classes(
        manager, on, list(bound_levels), dc, use_dontcares=True
    ).num_classes
    exclusive = sorted(set(bound_levels) - set(shared_levels))
    max_slice = 1
    for s_index in range(1 << len(shared_levels)):
        assignment = {
            lv: (s_index >> j) & 1
            for j, lv in enumerate(sorted(shared_levels))
        }
        classes = compute_classes(
            manager,
            manager.restrict(on, assignment),
            exclusive,
            manager.restrict(dc, assignment),
            use_dontcares=True,
        )
        max_slice = max(max_slice, classes.num_classes)
    t_disjoint = max(1, math.ceil(math.log2(max(2, disjoint_classes))))
    t_nondisjoint = max(1, math.ceil(math.log2(max(2, max_slice))))
    return t_disjoint, t_nondisjoint
