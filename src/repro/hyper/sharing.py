"""Pliable-encoding sharing via partition containment (Theorems 4.3/4.4).

When several functions share a bound set, the decomposition functions of a
function whose partition *contains* another's can serve both (Theorem
4.4).  Encoding a small-multiplicity function with the larger function's α
set is *pliable* (more bits than strictly needed) but saves the LUTs a
rigid per-function encoding would spend — the point of Example 4.2 /
Figure 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..bdd import BddManager
from ..decompose import Partition, conjunction, contains

__all__ = ["SharingPlan", "pliable_sharing_plan", "partition_of_function"]


@dataclass
class SharingPlan:
    """Outcome of the containment analysis over one bound-set selection.

    ``shared_alpha_count`` — α functions when all ingredients reuse the
    decomposition functions of the global conjunction partition (pliable).
    ``rigid_alpha_count`` — α functions when every ingredient is encoded
    rigidly on its own, sharing only identical partitions (IMODEC-style).
    """

    partitions: List[Partition]
    multiplicities: List[int]
    conjunction_multiplicity: int
    shared_alpha_count: int
    rigid_alpha_count: int
    containment: List[List[bool]]  # containment[i][j]: Πi contained by Πj

    @property
    def lut_savings(self) -> int:
        """α-LUTs saved by the pliable sharing (can be negative)."""
        return self.rigid_alpha_count - self.shared_alpha_count


def partition_of_function(
    manager: BddManager, on: int, bound_levels: Sequence[int]
) -> Partition:
    """Partition of a completely specified function w.r.t. a bound set.

    Positions are bound-set assignments; symbols are the residual
    sub-function BDD ids (globally comparable within one manager).
    """
    return Partition(tuple(manager.cofactor_enumerate(on, list(bound_levels))))


def pliable_sharing_plan(
    partitions: Sequence[Partition],
) -> SharingPlan:
    """Analyse how many α functions a pliable shared encoding needs.

    The shared α set identifies the column patterns of the conjunction
    partition of *all* ingredients; by construction every ingredient's
    partition is contained by it, so Theorem 4.4 lets each ingredient use
    those α functions (possibly pliably).  The rigid count mirrors
    Figure 10(b): each ingredient gets ⌈log₂ multiplicity⌉ α functions of
    its own, except that ingredients with *identical* partitions share.
    """
    parts = list(partitions)
    if not parts:
        raise ValueError("need at least one partition")
    multiplicities = [p.multiplicity for p in parts]
    conj = conjunction(parts)
    shared = _bits(conj.multiplicity)

    # Rigid (IMODEC-style, Figure 10b): an α set may be shared rigidly by a
    # group only if every member needs exactly that many bits and the
    # group's conjunction multiplicity still fits them.  Greedy packing
    # within each bit-width class.
    by_bits: Dict[int, List[Partition]] = {}
    for p in parts:
        by_bits.setdefault(_bits(p.multiplicity), []).append(p)
    rigid = 0
    for bits, members in sorted(by_bits.items()):
        groups: List[List[Partition]] = []
        for p in members:
            placed = False
            for group in groups:
                if conjunction(group + [p]).multiplicity <= (1 << bits):
                    group.append(p)
                    placed = True
                    break
            if not placed:
                groups.append([p])
        rigid += bits * len(groups)

    containment = [
        [contains(b, a) for b in parts] for a in parts
    ]
    return SharingPlan(
        partitions=parts,
        multiplicities=multiplicities,
        conjunction_multiplicity=conj.multiplicity,
        shared_alpha_count=shared,
        rigid_alpha_count=rigid,
        containment=containment,
    )


def _bits(multiplicity: int) -> int:
    return max(1, math.ceil(math.log2(max(2, multiplicity))))
