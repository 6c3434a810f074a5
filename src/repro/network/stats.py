"""Structural network statistics: depth, feasibility, LUT cost."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .netlist import Network

__all__ = ["NetworkStats", "network_stats", "node_depths", "is_k_feasible"]


@dataclass(frozen=True)
class NetworkStats:
    """Summary counters of a network."""

    num_inputs: int
    num_outputs: int
    num_nodes: int
    depth: int
    max_fanin: int
    total_fanin: int
    k_feasible_nodes: int
    k: int

    def __str__(self) -> str:
        return (
            f"{self.num_inputs} PI / {self.num_outputs} PO, "
            f"{self.num_nodes} nodes (depth {self.depth}, "
            f"max fanin {self.max_fanin}), "
            f"{self.k_feasible_nodes}/{self.num_nodes} {self.k}-feasible"
        )


def node_depths(net: Network) -> Dict[str, int]:
    """Logic depth of every signal (PIs at depth 0).

    Fanin-less nodes (constants) also sit at depth 0: they occupy no LUT
    (``count_luts`` costs them 0), so they contribute no logic level.
    """
    depth: Dict[str, int] = {pi: 0 for pi in net.inputs}
    for name in net.topological_order():
        node = net.node(name)
        if not node.fanins:
            depth[name] = 0
        else:
            depth[name] = 1 + max(depth[fi] for fi in node.fanins)
    return depth


def is_k_feasible(net: Network, k: int) -> bool:
    """True iff every internal node has at most ``k`` fan-ins."""
    return all(len(node.fanins) <= k for node in net.nodes())


def network_stats(net: Network, k: int = 5) -> NetworkStats:
    """Compute :class:`NetworkStats` with feasibility threshold ``k``."""
    depths = node_depths(net)
    fanins = [len(node.fanins) for node in net.nodes()]
    return NetworkStats(
        num_inputs=len(net.inputs),
        num_outputs=len(net.outputs),
        num_nodes=net.num_nodes,
        depth=max(
            (depths[driver] for _, driver in net.outputs), default=0
        ),
        max_fanin=max(fanins, default=0),
        total_fanin=sum(fanins),
        k_feasible_nodes=sum(1 for f in fanins if f <= k),
        k=k,
    )
