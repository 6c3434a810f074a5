"""Global (primary-input level) BDDs of a network's signals."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..bdd import FALSE, TRUE, BddManager
from .netlist import Network

__all__ = ["GlobalBdds", "build_global_bdds"]


class GlobalBdds:
    """BDDs of network signals as functions of the primary inputs.

    The manager's variable i is the network's i-th primary input (in
    declaration order) unless a custom ``pi_order`` is supplied.
    """

    def __init__(
        self,
        net: Network,
        pi_order: Optional[List[str]] = None,
        manager: Optional[BddManager] = None,
    ):
        self.net = net
        self.pi_order = list(pi_order) if pi_order is not None else list(net.inputs)
        if sorted(self.pi_order) != sorted(net.inputs):
            raise ValueError("pi_order must be a permutation of the network inputs")
        if manager is None:
            manager = BddManager()
            for pi in self.pi_order:
                manager.add_var(pi)
        self.manager = manager
        self._cache: Dict[str, int] = {
            pi: self.manager.var(pi) for pi in self.pi_order
        }

    def of(self, signal: str) -> int:
        """Global BDD of an arbitrary signal (computed lazily)."""
        cached = self._cache.get(signal)
        if cached is not None:
            return cached
        # Compute every node in the cone in topological order.
        cone = self.net.transitive_fanin([signal])
        for name in self.net.topological_order():
            if name not in cone or name in self._cache:
                continue
            node = self.net.node(name)
            if node.table.num_inputs == 0:
                self._cache[name] = TRUE if node.table.mask else FALSE
                continue
            bdd = FALSE
            for minterm in node.table.on_set():
                cube = TRUE
                for j, fi in enumerate(node.fanins):
                    literal = self._cache[fi]
                    if not (minterm >> j) & 1:
                        literal = self.manager.apply_not(literal)
                    cube = self.manager.apply_and(cube, literal)
                    if cube == FALSE:
                        break
                bdd = self.manager.apply_or(bdd, cube)
            self._cache[name] = bdd
        return self._cache[signal]

    def of_output(self, output_name: str) -> int:
        """Global BDD of a primary output."""
        return self.of(self.net.output_driver(output_name))

    def all_outputs(self) -> Dict[str, int]:
        """Global BDDs of every primary output."""
        return {out: self.of(driver) for out, driver in self.net.outputs}


def build_global_bdds(
    net: Network, pi_order: Optional[List[str]] = None
) -> Tuple[BddManager, Dict[str, int]]:
    """Convenience: (manager, output name -> BDD) for the whole network."""
    g = GlobalBdds(net, pi_order)
    return g.manager, g.all_outputs()
