"""Network restructuring passes (the SIS-like transforms the flow needs).

* :func:`sweep` — remove dead nodes, propagate constants and buffers.
* :func:`collapse_node` — merge a node into one of its fanouts.
* :func:`collapse_network` — flatten every output to a single node over PIs
  (what the paper does to "small circuits" before mapping).
* :func:`propagate_constant_inputs` — specialise a network for constant
  values on some inputs (used to recover hyper-function ingredients).
* :func:`simplify_local` — per-node support minimisation.
* :func:`extract_cone` — the standalone sub-network feeding a set of
  outputs (the serialization unit of the parallel group mapper).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..boolfunc import TruthTable
from .netlist import Network

__all__ = [
    "sweep",
    "collapse_node",
    "collapse_network",
    "propagate_constant_inputs",
    "simplify_local",
    "extract_cone",
    "rename_po_drivers",
]


def rename_po_drivers(net: Network) -> int:
    """Rename internal PO drivers to their output names where possible.

    The BLIF emitter inserts a buffer node for every output whose driver
    carries a different name; that buffer counts as a LUT and a logic
    level in the *emitted* netlist but in neither of the reported stats.
    Renaming the driver (internal node, name free, first output wins
    when a driver feeds several) removes the need for the buffer, so the
    (LUTs, depth) pair measured in memory is the pair of the file on
    disk.  Outputs aliasing a PI or sharing an already-claimed driver
    keep their buffers — BLIF has no other way to express them.

    Returns the number of drivers renamed.
    """
    renamed = 0
    for out, driver in list(net.outputs):
        if (
            out == driver
            or net.is_input(driver)
            or driver not in net.node_names()
            or net.has_signal(out)
        ):
            continue
        node = net.node(driver)
        node.name = out
        net._nodes = {
            (out if name == driver else name): n
            for name, n in net._nodes.items()
        }
        for reader in net.nodes():
            if driver in reader.fanins:
                reader.fanins[:] = [
                    out if fi == driver else fi for fi in reader.fanins
                ]
        net._outputs = [
            (o, out if d == driver else d) for o, d in net._outputs
        ]
        renamed += 1
    return renamed


def extract_cone(
    net: Network,
    output_names: Sequence[str],
    name: Optional[str] = None,
) -> Network:
    """Standalone sub-network computing the given primary outputs.

    The cone keeps only the nodes in the transitive fan-in of the selected
    outputs and only the primary inputs that cone reads (in the original
    declaration order, so BDD variable orders derived from the cone agree
    with the parent's relative order).  Node names are preserved.
    """
    drivers = [net.output_driver(out) for out in output_names]
    cone = net.transitive_fanin(drivers)
    sub = Network(name or f"{net.name}_cone")
    for pi in net.inputs:
        if pi in cone:
            sub.add_input(pi)
    for node_name in net.topological_order():
        if node_name not in cone:
            continue
        node = net.node(node_name)
        sub.add_node(node_name, list(node.fanins), node.table)
    for out, driver in zip(output_names, drivers):
        sub.add_output(driver, out)
    return sub


def simplify_local(net: Network) -> int:
    """Drop vacuous fan-ins of every node.  Returns number of nodes touched."""
    touched = 0
    for name in net.node_names():
        node = net.node(name)
        reduced, kept = node.table.minimize_support()
        if len(kept) != node.table.num_inputs:
            net.replace_node(name, [node.fanins[j] for j in kept], reduced)
            touched += 1
    return touched


def sweep(net: Network) -> int:
    """Constant/buffer propagation plus dead-node removal.

    Iterates to a fixed point; returns the number of nodes removed.
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        simplify_local(net)
        # Fold constant and buffer nodes into their readers.
        replacement: Dict[str, tuple] = {}  # name -> ("const", v) | ("alias", sig)
        for node in net.nodes():
            if node.table.num_inputs == 0:
                replacement[node.name] = ("const", 1 if node.table.mask else 0)
            elif node.table.num_inputs == 1 and node.table.mask == 0b10:
                replacement[node.name] = ("alias", node.fanins[0])
        if replacement:
            for name in net.node_names():
                node = net.node(name)
                if name in replacement:
                    continue
                # Resolve each fan-in to its final signal or a constant.
                resolved: List[Optional[str]] = []  # None marks a constant
                const_value: List[int] = []
                for fi in node.fanins:
                    action = replacement.get(fi)
                    if action is None:
                        resolved.append(fi)
                        const_value.append(0)
                    elif action[0] == "alias":
                        resolved.append(action[1])
                        const_value.append(0)
                        changed = True
                    else:
                        resolved.append(None)
                        const_value.append(action[1])
                        changed = True
                if resolved == list(node.fanins):
                    continue
                # Build the new fan-in list (deduplicated, constants removed)
                # and remap the table onto it, cofactoring constants.
                new_fanins: List[str] = []
                for sig in resolved:
                    if sig is not None and sig not in new_fanins:
                        new_fanins.append(sig)
                arity = len(new_fanins)
                position = {sig: j for j, sig in enumerate(new_fanins)}
                mask = 0
                for m in range(1 << arity):
                    old_bits = []
                    for j, sig in enumerate(resolved):
                        if sig is None:
                            old_bits.append(const_value[j])
                        else:
                            old_bits.append((m >> position[sig]) & 1)
                    if node.table.eval(old_bits):
                        mask |= 1 << m
                reduced, kept = TruthTable(arity, mask).minimize_support()
                net.replace_node(name, [new_fanins[k] for k in kept], reduced)
            # Re-route outputs that point at buffer aliases.  Outputs driven
            # by constant nodes are already in their final form.
            for out in net.output_names:
                driver = net.output_driver(out)
                action = replacement.get(driver)
                if action is not None and action[0] == "alias":
                    net.reroute_output(out, action[1])
                    changed = True
        # Remove dead nodes (reverse topological order so fanouts go first).
        drivers = [driver for _, driver in net.outputs]
        live = net.transitive_fanin(drivers)
        for name in reversed(net.topological_order()):
            if name not in live:
                net.remove_node(name)
                removed += 1
                changed = True
    return removed


def collapse_node(net: Network, inner: str, outer: str) -> None:
    """Collapse node ``inner`` into its fanout ``outer``.

    ``outer``'s new fan-ins are its old ones (minus ``inner``) plus
    ``inner``'s fan-ins; the local function is composed accordingly.
    """
    inner_node = net.node(inner)
    outer_node = net.node(outer)
    if inner not in outer_node.fanins:
        raise ValueError(f"{inner!r} is not a fanin of {outer!r}")

    merged: List[str] = [fi for fi in outer_node.fanins if fi != inner]
    for fi in inner_node.fanins:
        if fi not in merged:
            merged.append(fi)

    arity = len(merged)
    position = {sig: j for j, sig in enumerate(merged)}
    mask = 0
    for m in range(1 << arity):
        values = {sig: (m >> position[sig]) & 1 for sig in merged}
        inner_value = inner_node.table.eval(
            [values[fi] for fi in inner_node.fanins]
        )
        values[inner] = inner_value
        outer_value = outer_node.table.eval(
            [values[fi] for fi in outer_node.fanins]
        )
        if outer_value:
            mask |= 1 << m
    net.replace_node(outer, merged, TruthTable(arity, mask))


def collapse_network(net: Network, max_inputs: int = 20) -> Network:
    """Flatten the network: every output becomes one node over the PIs.

    Refuses (raises ``ValueError``) if any output cone exceeds
    ``max_inputs`` primary inputs, since the flat table is exponential.
    """
    flat = Network(net.name + "_flat")
    for pi in net.inputs:
        flat.add_input(pi)

    from .simulate import simulate_vectors  # local import to avoid cycle

    for out, driver in net.outputs:
        support = net.support_of(driver)
        if len(support) > max_inputs:
            raise ValueError(
                f"output {out!r} depends on {len(support)} inputs; "
                f"refusing to build a 2^{len(support)} table"
            )
        n = len(support)
        total = 1 << n
        patterns = {pi: [0] * total for pi in net.inputs}
        for j, pi in enumerate(support):
            patterns[pi] = [(index >> j) & 1 for index in range(total)]
        values = simulate_vectors(net, patterns, total)[out]
        mask = 0
        for index, v in enumerate(values):
            if v:
                mask |= 1 << index
        node_name = flat.fresh_name(f"{out}_flat")
        flat.add_node(node_name, support, TruthTable(n, mask))
        flat.add_output(node_name, out)
    return flat


def propagate_constant_inputs(
    net: Network, constants: Dict[str, int], new_name: Optional[str] = None
) -> Network:
    """Specialise ``net`` for fixed values of some primary inputs.

    The constant inputs disappear from the result's PI list; affected node
    functions are cofactored and the network is swept.  This implements the
    paper's "pseudo primary inputs, assigned with constant values, can be
    collapsed into their fanout nodes" step (Section 4.2).
    """
    spec = Network(new_name or f"{net.name}_spec")
    for pi in net.inputs:
        if pi not in constants:
            spec.add_input(pi)
    const_signals: Dict[str, str] = {}
    for pi, value in constants.items():
        cname = f"__const_{pi}"
        spec.add_constant(cname, value)
        const_signals[pi] = cname
    for name in net.topological_order():
        node = net.node(name)
        fanins = [const_signals.get(fi, fi) for fi in node.fanins]
        spec.add_node(name, fanins, node.table)
    for out, driver in net.outputs:
        spec.add_output(const_signals.get(driver, driver), out)
    sweep(spec)
    return spec
