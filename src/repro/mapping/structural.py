"""Structural (node-local) technology mapping.

The BDD-global flows (:func:`~repro.mapping.hyde.hyde_map` and friends)
collapse every output to a primary-input-level function first.  For very
large circuits the paper instead decomposes the multi-level network node
by node (Section 5).  This module provides that path:

1. local Roth-Karp decomposition of every node with more than ``k``
   fan-ins (the node's own truth table is the function; its fan-in
   signals are the variables),
2. the usual cleanup and costing.

Because each decomposition is local, no global BDD is ever built: the
flow scales to circuits whose collapsed functions would be intractable,
at the cost of missing cross-node optimisation the global flow sees.
"""

from __future__ import annotations

import time
from typing import Dict

from ..bdd import BddManager
from ..decompose import DecompositionOptions, decompose_to_network
from ..network import Network
from .hyde import MapResult, _finish

__all__ = ["map_structural"]


def map_structural(
    net: Network,
    k: int = 5,
    verify: str = "bdd",
    pack_clbs: bool = True,
) -> MapResult:
    """Map ``net`` to k-LUTs by per-node local decomposition."""
    start = time.time()
    result = Network(f"{net.name}_struct")
    for pi in net.inputs:
        result.add_input(pi)

    options = DecompositionOptions(k=k)
    signal_map: Dict[str, str] = {pi: pi for pi in net.inputs}
    for index, name in enumerate(net.topological_order()):
        node = net.node(name)
        fanins = [signal_map[fi] for fi in node.fanins]
        if node.table.num_inputs == 0:
            new_name = result.fresh_name(f"s{index}_const")
            result.add_constant(new_name, 1 if node.table.mask else 0)
            signal_map[name] = new_name
            continue
        if len(fanins) <= k:
            new_name = result.fresh_name(f"s{index}")
            result.add_node(new_name, fanins, node.table)
            signal_map[name] = new_name
            continue
        # Local decomposition: fresh manager over the node's fan-ins.
        manager = BddManager()
        signal_of_level: Dict[int, str] = {}
        for j, fi in enumerate(fanins):
            manager.add_var(f"v{j}")
            signal_of_level[j] = fi
        root_bdd = manager.from_truth_table(
            node.table.mask, list(range(len(fanins)))
        )
        signal_map[name] = decompose_to_network(
            manager,
            root_bdd,
            result,
            signal_of_level,
            options,
            prefix=f"s{index}",
        )

    for out, driver in net.outputs:
        result.add_output(signal_map[driver], out)

    return _finish(net, result, k, "structural", start, verify, pack_clbs)
