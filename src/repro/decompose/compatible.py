"""Compatible class computation for a bound-set selection (paper Def. 2.1).

Given a (possibly incompletely specified) function ``f(X, Y)`` with bound
set X and free set Y, every assignment of X selects a *column*: the
residual function of Y.  Two assignments are compatible iff their columns
agree wherever both are specified.  For completely specified functions the
compatible classes are simply the distinct columns; with don't cares the
grouping is delegated to the clique-partitioning pass in
:mod:`repro.decompose.dontcare`.

This module builds the classes a step uses.  A class count alone is
taken by :func:`repro.decompose.varpart.count_classes`, through the
backends and memos of the bound-set searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..bdd import FALSE, BddManager
from . import dontcare  # imports this module back: use attributes at call time
from .partition import Partition

__all__ = ["Column", "CompatibleClasses", "enumerate_columns", "compute_classes"]


@dataclass(frozen=True)
class Column:
    """One column of the decomposition chart: an (on, dc) BDD pair over Y."""

    on: int
    dc: int = FALSE

    @property
    def key(self) -> Tuple[int, int]:
        """Hashable identity (node ids are canonical within one manager)."""
        return (self.on, self.dc)


@dataclass
class CompatibleClasses:
    """Result of class computation for one bound-set selection.

    Attributes
    ----------
    manager:
        The BDD manager the column functions live in.
    bound_levels:
        The λ-set variable levels, in the order used for position indexing
        (``bound_levels[j]`` is bit ``j`` of the position index).
    columns:
        All ``2**|λ|`` columns, indexed by λ-assignment.
    class_of_position:
        λ-assignment index -> compatible class index.
    class_functions:
        One representative :class:`Column` per class: the *merge* of its
        member columns (on = union of member on-sets, dc = intersection).
    """

    manager: BddManager
    bound_levels: List[int]
    columns: List[Column]
    class_of_position: List[int]
    class_functions: List[Column]

    @property
    def num_classes(self) -> int:
        """The compatible class count — the paper's central cost metric."""
        return len(self.class_functions)

    def positions_of_class(self, class_index: int) -> List[int]:
        """λ-assignment indices belonging to one class."""
        return [
            p for p, c in enumerate(self.class_of_position) if c == class_index
        ]

    def partition_of_class(
        self, class_index: int, y1_levels: Sequence[int]
    ) -> Partition:
        """Partition (paper Def. 3.1) of one class function w.r.t. Y1.

        Positions are the assignments of ``y1_levels``; symbols are the
        interned (on, dc) pairs of the residual sub-functions, so they are
        globally comparable across classes of the same manager.
        """
        fc = self.class_functions[class_index]
        on_parts = self.manager.cofactor_enumerate(fc.on, list(y1_levels))
        dc_parts = self.manager.cofactor_enumerate(fc.dc, list(y1_levels))
        return Partition(tuple(zip(on_parts, dc_parts)))


def enumerate_columns(
    manager: BddManager,
    on: int,
    bound_levels: Sequence[int],
    dc: int = FALSE,
) -> List[Column]:
    """All ``2**|λ|`` columns of ``(on, dc)`` for the given bound set."""
    on_parts = manager.cofactor_enumerate(on, list(bound_levels))
    dc_parts = manager.cofactor_enumerate(dc, list(bound_levels))
    return [Column(o, d) for o, d in zip(on_parts, dc_parts)]


def compute_classes(
    manager: BddManager,
    on: int,
    bound_levels: Sequence[int],
    dc: int = FALSE,
    use_dontcares: bool = True,
    fast_path: str = "auto",
) -> CompatibleClasses:
    """Compute compatible classes of ``(on, dc)`` w.r.t. ``bound_levels``.

    With ``use_dontcares`` (and a non-empty dc-set) the columns are merged
    by the clique-partitioning heuristic of Section 3.1; otherwise classes
    are the syntactically distinct (on, dc) columns.  ``fast_path`` is
    forwarded to :func:`~repro.decompose.dontcare.assign_dontcares`,
    which runs its compatibility tests on packed tables unless ``"bdd"``.
    """
    columns = enumerate_columns(manager, on, bound_levels, dc)

    if dc != FALSE and use_dontcares:
        class_of_position, class_functions = dontcare.assign_dontcares(
            manager, columns, fast_path=fast_path
        )
        return CompatibleClasses(
            manager=manager,
            bound_levels=list(bound_levels),
            columns=columns,
            class_of_position=class_of_position,
            class_functions=class_functions,
        )

    interned: Dict[Tuple[int, int], int] = {}
    class_of_position: List[int] = []
    class_functions: List[Column] = []
    for col in columns:
        index = interned.get(col.key)
        if index is None:
            index = len(class_functions)
            interned[col.key] = index
            class_functions.append(col)
        class_of_position.append(index)
    return CompatibleClasses(
        manager=manager,
        bound_levels=list(bound_levels),
        columns=columns,
        class_of_position=class_of_position,
        class_functions=class_functions,
    )
