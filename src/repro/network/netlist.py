"""Boolean network (combinational logic DAG), the SIS-like substrate.

A :class:`Network` is a DAG of named nodes.  Primary inputs are nodes
without a local function; every internal node carries a
:class:`~repro.boolfunc.TruthTable` over its fan-in list.  Primary outputs
are (name, driver) pairs so an output may alias an internal node or a PI.

This module provides structure and bookkeeping only; simulation,
equivalence checking and restructuring live in sibling modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..boolfunc import TruthTable

__all__ = ["Node", "Network"]


@dataclass
class Node:
    """One internal node: a local function over named fan-ins."""

    name: str
    fanins: List[str]
    table: TruthTable

    def __post_init__(self) -> None:
        if self.table.num_inputs != len(self.fanins):
            raise ValueError(
                f"node {self.name}: table arity {self.table.num_inputs} "
                f"!= fanin count {len(self.fanins)}"
            )
        if len(set(self.fanins)) != len(self.fanins):
            raise ValueError(f"node {self.name}: duplicate fanins {self.fanins}")


class Network:
    """A combinational Boolean network.

    Examples
    --------
    >>> net = Network("demo")
    >>> for pi in ("a", "b", "c"):
    ...     _ = net.add_input(pi)
    >>> _ = net.add_node("t", ["a", "b"], TruthTable.from_function(2, lambda a, b: a & b))
    >>> _ = net.add_node("f", ["t", "c"], TruthTable.from_function(2, lambda t, c: t | c))
    >>> net.add_output("f")
    >>> sorted(net.topological_order())
    ['f', 't']
    """

    def __init__(self, name: str = "network"):
        self.name = name
        self._inputs: List[str] = []
        self._nodes: Dict[str, Node] = {}
        self._outputs: List[Tuple[str, str]] = []  # (output name, driver name)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_input(self, name: str) -> str:
        """Declare a primary input."""
        if self.has_signal(name):
            raise ValueError(f"signal {name!r} already exists")
        self._inputs.append(name)
        return name

    def add_node(self, name: str, fanins: Sequence[str], table: TruthTable) -> str:
        """Add an internal node computing ``table`` over ``fanins``."""
        if self.has_signal(name):
            raise ValueError(f"signal {name!r} already exists")
        for fi in fanins:
            if not self.has_signal(fi):
                raise ValueError(f"node {name!r}: unknown fanin {fi!r}")
        self._nodes[name] = Node(name, list(fanins), table)
        return name

    def add_constant(self, name: str, value: int) -> str:
        """Add a constant 0/1 node (zero fan-in)."""
        return self.add_node(name, [], TruthTable.constant(0, value))

    def add_output(self, driver: str, name: Optional[str] = None) -> None:
        """Declare a primary output driven by ``driver``."""
        if not self.has_signal(driver):
            raise ValueError(f"unknown output driver {driver!r}")
        if name is None:
            name = driver
        if any(n == name for n, _ in self._outputs):
            raise ValueError(f"output {name!r} already declared")
        self._outputs.append((name, driver))

    def reorder_outputs(self, names: Sequence[str]) -> None:
        """Reorder the output list to ``names`` (a permutation of it).

        Output *order* is part of a network's observable interface (BLIF
        round-trips preserve it, repro replay validation depends on it);
        transforms that rebuild the output list use this to restore the
        source ordering explicitly instead of relying on incidental
        iteration order.
        """
        if sorted(names) != sorted(self.output_names):
            raise ValueError(
                f"not a permutation of the outputs: {list(names)} vs "
                f"{self.output_names}"
            )
        driver_of = dict(self._outputs)
        self._outputs = [(name, driver_of[name]) for name in names]

    def reorder_inputs(self, names: Sequence[str]) -> None:
        """Reorder the input list to ``names`` (a permutation of it).

        Input order is part of the observable interface too: the
        ``.inputs`` declaration drives BLIF round-trips, truth-table
        flattening (:func:`~repro.network.transform.collapse_network`,
        :func:`repro.exact.cone_spec`) and witness replay.  Transforms
        that rebuild the PI list restore the source ordering through
        this instead of trusting incidental iteration order.
        """
        if sorted(names) != sorted(self._inputs):
            raise ValueError(
                f"not a permutation of the inputs: {list(names)} vs "
                f"{self._inputs}"
            )
        self._inputs = list(names)

    def fresh_name(self, prefix: str = "n") -> str:
        """A signal name not yet used in the network."""
        i = len(self._nodes)
        while self.has_signal(f"{prefix}{i}"):
            i += 1
        return f"{prefix}{i}"

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def inputs(self) -> List[str]:
        """Primary input names (declaration order)."""
        return list(self._inputs)

    @property
    def outputs(self) -> List[Tuple[str, str]]:
        """(output name, driver name) pairs."""
        return list(self._outputs)

    @property
    def output_names(self) -> List[str]:
        """Primary output names."""
        return [n for n, _ in self._outputs]

    def output_driver(self, name: str) -> str:
        """Driver signal of the named output."""
        for out, driver in self._outputs:
            if out == name:
                return driver
        raise KeyError(name)

    def has_signal(self, name: str) -> bool:
        """Is ``name`` a PI or an internal node?"""
        return name in self._nodes or name in self._inputs

    def is_input(self, name: str) -> bool:
        """Is ``name`` a primary input?"""
        return name in self._inputs

    def node(self, name: str) -> Node:
        """The internal node named ``name``."""
        return self._nodes[name]

    def nodes(self) -> Iterator[Node]:
        """Iterate over internal nodes (insertion order)."""
        return iter(self._nodes.values())

    def node_names(self) -> List[str]:
        """Names of internal nodes (insertion order)."""
        return list(self._nodes)

    @property
    def num_nodes(self) -> int:
        """Number of internal nodes."""
        return len(self._nodes)

    def fanouts(self) -> Dict[str, List[str]]:
        """Map signal -> list of node names reading it."""
        result: Dict[str, List[str]] = {name: [] for name in self._inputs}
        for name in self._nodes:
            result.setdefault(name, [])
        for node in self._nodes.values():
            for fi in node.fanins:
                result[fi].append(node.name)
        return result

    # ------------------------------------------------------------------ #
    # Ordering / reachability
    # ------------------------------------------------------------------ #

    def topological_order(self) -> List[str]:
        """Internal node names, fan-ins before fan-outs.

        Raises ``ValueError`` on a combinational cycle.
        """
        state: Dict[str, int] = {}  # 0 visiting, 1 done
        order: List[str] = []

        def visit(name: str) -> None:
            if name in self._inputs:
                return
            mark = state.get(name)
            if mark == 1:
                return
            if mark == 0:
                raise ValueError(f"combinational cycle through {name!r}")
            state[name] = 0
            for fi in self._nodes[name].fanins:
                visit(fi)
            state[name] = 1
            order.append(name)

        import sys

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 4 * (len(self._nodes) + 16)))
        try:
            for name in self._nodes:
                visit(name)
        finally:
            sys.setrecursionlimit(old_limit)
        return order

    def transitive_fanin(self, signals: Iterable[str]) -> Set[str]:
        """All signals (PIs included) in the cone of the given signals."""
        seen: Set[str] = set()
        stack = list(signals)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in self._nodes:
                stack.extend(self._nodes[name].fanins)
        return seen

    def transitive_fanout(self, signals: Iterable[str]) -> Set[str]:
        """Paper Definition 4.2: nodes reachable from the given signals
        (the seed signals themselves included)."""
        fanout_map = self.fanouts()
        seen: Set[str] = set()
        stack = list(signals)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(fanout_map.get(name, []))
        return seen

    def support_of(self, signal: str) -> List[str]:
        """Primary inputs in the structural cone of ``signal``."""
        cone = self.transitive_fanin([signal])
        return [pi for pi in self._inputs if pi in cone]

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def replace_node(self, name: str, fanins: Sequence[str], table: TruthTable) -> None:
        """Swap the implementation of an existing node in place."""
        if name not in self._nodes:
            raise KeyError(name)
        self._nodes[name] = Node(name, list(fanins), table)

    def remove_node(self, name: str) -> None:
        """Delete a node (must have no fanouts and drive no output)."""
        fanout_map = self.fanouts()
        if fanout_map.get(name):
            raise ValueError(f"node {name!r} still has fanouts")
        if any(driver == name for _, driver in self._outputs):
            raise ValueError(f"node {name!r} still drives an output")
        del self._nodes[name]

    def reroute_output(self, output_name: str, new_driver: str) -> None:
        """Point an existing primary output at a different driver."""
        if not self.has_signal(new_driver):
            raise ValueError(f"unknown driver {new_driver!r}")
        for i, (out, _) in enumerate(self._outputs):
            if out == output_name:
                self._outputs[i] = (out, new_driver)
                return
        raise KeyError(output_name)

    def copy(self, name: Optional[str] = None) -> "Network":
        """Deep-enough copy (tables are immutable, so sharing them is safe)."""
        dup = Network(name or self.name)
        dup._inputs = list(self._inputs)
        dup._nodes = {
            n: Node(node.name, list(node.fanins), node.table)
            for n, node in self._nodes.items()
        }
        dup._outputs = list(self._outputs)
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Network({self.name!r}, {len(self._inputs)} PI, "
            f"{len(self._nodes)} nodes, {len(self._outputs)} PO)"
        )
