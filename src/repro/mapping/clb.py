"""Xilinx XC3000 CLB packing (the target architecture of paper Table 1).

An XC3000 configurable logic block computes either one combinational
function of up to five inputs, or two functions of up to four inputs each
whose *combined* distinct inputs number at most five.  Packing k-feasible
LUT nodes into CLBs is therefore a pairing problem; we solve it as a
maximum-cardinality matching on the pairability graph (the role of SIS's
``xl_partition -tm`` in the paper's script).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from ..decompose.matching import maximum_matching
from ..network import Network

__all__ = ["ClbPacking", "pack_xc3000", "can_pair"]

_MAX_SINGLE_INPUTS = 5
_MAX_PAIR_EACH = 4
_MAX_PAIR_UNION = 5


def can_pair(fanins_a: Sequence[str], fanins_b: Sequence[str]) -> bool:
    """May two LUT nodes share one XC3000 CLB?"""
    if len(fanins_a) > _MAX_PAIR_EACH or len(fanins_b) > _MAX_PAIR_EACH:
        return False
    return len(set(fanins_a) | set(fanins_b)) <= _MAX_PAIR_UNION


@dataclass
class ClbPacking:
    """A CLB assignment: pairs plus singleton blocks."""

    pairs: List[Tuple[str, str]]
    singles: List[str]

    @property
    def num_clbs(self) -> int:
        return len(self.pairs) + len(self.singles)


def pack_xc3000(net: Network, exact_limit: int = 400) -> ClbPacking:
    """Pack the network's LUT nodes into XC3000 CLBs.

    Every node must have at most five fan-ins.  Constant (zero-input)
    nodes cost nothing.  A node may be paired with a node it feeds
    (XC3000 allows internal feed); only the input-count rule matters.

    Pairing is a maximum matching: exact (blossom) up to ``exact_limit``
    nodes, greedy first-fit beyond that — the blossom algorithm's cubic
    cost is prohibitive on thousand-node networks and greedy pairing is
    within a few percent there.
    """
    nodes = [n for n in net.nodes() if n.table.num_inputs > 0]
    for n in nodes:
        if len(n.fanins) > _MAX_SINGLE_INPUTS:
            raise ValueError(
                f"node {n.name} has {len(n.fanins)} inputs; not CLB-mappable"
            )
    names = [n.name for n in nodes]
    if len(nodes) > exact_limit:
        pairs, paired = _greedy_pairs(nodes)
    else:
        pairs, paired = _matching_pairs(nodes)
    singles = [name for name in names if name not in paired]
    pairs.sort()
    singles.sort()
    return ClbPacking(pairs=pairs, singles=singles)


def _matching_pairs(nodes) -> Tuple[List[Tuple[str, str]], Set[str]]:
    edges = [
        (a.name, b.name)
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
        if can_pair(a.fanins, b.fanins)
    ]
    matching = maximum_matching([n.name for n in nodes], edges)
    paired: Set[str] = set()
    pairs: List[Tuple[str, str]] = []
    for u, v in matching:
        pairs.append(tuple(sorted((u, v))))  # type: ignore[arg-type]
        paired.add(u)
        paired.add(v)
    return pairs, paired


def _greedy_pairs(nodes) -> Tuple[List[Tuple[str, str]], Set[str]]:
    """First-fit pairing, smallest fan-in sets first (they pair easiest
    with many partners, so give them the pick of the litter last)."""
    order = sorted(nodes, key=lambda n: (-len(n.fanins), n.name))
    paired: Set[str] = set()
    pairs: List[Tuple[str, str]] = []
    for i, a in enumerate(order):
        if a.name in paired or len(a.fanins) > _MAX_PAIR_EACH:
            continue
        for b in order[i + 1 :]:
            if b.name in paired:
                continue
            if can_pair(a.fanins, b.fanins):
                pairs.append(tuple(sorted((a.name, b.name))))
                paired.add(a.name)
                paired.add(b.name)
                break
    return pairs, paired
