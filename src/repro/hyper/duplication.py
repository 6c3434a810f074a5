"""Duplication analysis and ingredient recovery (paper Definitions 4.2-4.5).

After a hyper-function is decomposed into a network whose inputs include
the pseudo primary inputs, the nodes split into:

* the **duplication source** DS — nodes with a PPI as a *direct* fan-in,
* the **duplication cone** DC — every node in the transitive fan-out of
  DS (equivalently: nodes with a PPI somewhere in their fan-in cone),
* **DSet_m** — nodes whose fan-in cone reaches exactly ``m`` PPIs.

Everything outside the cone is shared by all ingredients; cone nodes are
duplicated per ingredient with the PPI values folded in as constants
("collapsed into their fanout nodes", Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from ..network import Network, sweep

__all__ = ["DuplicationInfo", "analyze_duplication", "recover_ingredients"]


@dataclass
class DuplicationInfo:
    """The DS / DC / DSet_m structure of a decomposed hyper-function."""

    duplication_source: Set[str]
    duplication_cone: Set[str]
    dset: Dict[int, Set[str]]  # m -> nodes reached by exactly m PPIs
    num_ppis: int

    def duplication_cost(self, num_ingredients: int) -> int:
        """Additional node copies required (Section 4.2's counting).

        A node in DSet_m (m < num_ppis) needs 2^m - 1 extra copies; a node
        in DSet_{num_ppis} needs (num_ingredients - 1).
        """
        total = 0
        for m, nodes in self.dset.items():
            if m == 0:
                continue
            if m < self.num_ppis:
                total += ((1 << m) - 1) * len(nodes)
            else:
                total += (num_ingredients - 1) * len(nodes)
        return total


def analyze_duplication(net: Network, ppi_signals: Sequence[str]) -> DuplicationInfo:
    """Compute DS, DC and the DSet_m layers of ``net``."""
    ppis = list(ppi_signals)
    source: Set[str] = set()
    for node in net.nodes():
        if any(fi in ppis for fi in node.fanins):
            source.add(node.name)
    reach_count: Dict[str, int] = {name: 0 for name in net.node_names()}
    cone: Set[str] = set()
    for ppi in ppis:
        for name in net.transitive_fanout([ppi]):
            if name in reach_count:
                reach_count[name] += 1
                cone.add(name)
    dset: Dict[int, Set[str]] = {}
    for name, count in reach_count.items():
        dset.setdefault(count, set()).add(name)
    return DuplicationInfo(
        duplication_source=source,
        duplication_cone=cone,
        dset=dset,
        num_ppis=len(ppis),
    )


def recover_ingredients(
    net: Network,
    hyper_output: str,
    ppi_signals: Sequence[str],
    ingredient_codes: Sequence[Dict[str, int]],
    ingredient_names: Sequence[str],
    do_sweep: bool = True,
) -> Network:
    """Materialise every ingredient from a decomposed hyper-function.

    ``net`` must list the PPIs among its primary inputs; ``hyper_output``
    is the signal computing H.  ``ingredient_codes[i]`` maps PPI signal
    name -> constant bit.  The result is a network over the original
    primary inputs only: nodes outside the duplication cone are shared,
    cone nodes are copied per ingredient with PPI constants folded into
    their truth tables, and a final sweep removes the debris.
    """
    info = analyze_duplication(net, ppi_signals)
    cone = info.duplication_cone
    ppi_set = set(ppi_signals)

    out = Network(f"{net.name}_recovered")
    for pi in net.inputs:
        if pi not in ppi_set:
            out.add_input(pi)

    order = net.topological_order()
    # Shared nodes first (they never read a PPI, directly or transitively).
    for name in order:
        if name in cone:
            continue
        node = net.node(name)
        out.add_node(name, list(node.fanins), node.table)

    def specialized(signal: str, index: int) -> str:
        return f"{signal}__f{index}" if signal in cone else signal

    for index, code in enumerate(ingredient_codes):
        for name in order:
            if name not in cone:
                continue
            node = net.node(name)
            table = node.table
            fanins: List[str] = []
            # Fold PPI fan-ins to constants (highest index first so the
            # remaining indices stay valid for drop_input).
            keep: List[str] = []
            for j in range(len(node.fanins) - 1, -1, -1):
                fi = node.fanins[j]
                if fi in ppi_set:
                    table = table.cofactor(j, code[fi]).drop_input(j)
                else:
                    keep.append(fi)
            keep.reverse()
            fanins = [specialized(fi, index) for fi in keep]
            reduced, kept = table.minimize_support()
            out.add_node(
                specialized(name, index),
                [fanins[i] for i in kept],
                reduced,
            )

    for index, name in enumerate(ingredient_names):
        if hyper_output in ppi_set:
            # Degenerate: H collapsed to a PPI literal, so each ingredient
            # is the constant given by its code bit.
            driver = out.fresh_name(f"{name}_const")
            out.add_constant(driver, ingredient_codes[index][hyper_output])
        else:
            driver = specialized(hyper_output, index)
            if not out.has_signal(driver):
                # H did not depend on the PPIs: ingredients are identical.
                driver = hyper_output
        out.add_output(driver, name)

    if do_sweep:
        sweep(out)
    return out
