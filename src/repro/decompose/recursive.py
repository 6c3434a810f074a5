"""Recursive decomposition of a function into a k-feasible network.

Repeats :func:`repro.decompose.rothkarp.decompose_step` on the image
function until every produced node has at most ``k`` inputs, emitting LUT
nodes into a :class:`~repro.network.Network`.  A step whose bound set
cannot shrink the support (ceil(log2 #classes) >= |λ|,
:attr:`~repro.decompose.varpart.VariablePartition.cannot_shrink`) is
replaced by a Shannon split, decided from the bound-set search's class
count alone.
The same recursion serves the single-output flow and the hyper-function
flow (the latter passes pseudo primary inputs through ``options``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .. import obs
from ..bdd import FALSE, BddManager
from ..boolfunc import TruthTable
from ..network import Network
from .rothkarp import DecompositionOptions, decompose_step, select_step_bound

__all__ = ["decompose_to_network"]


def decompose_to_network(
    manager: BddManager,
    on: int,
    net: Network,
    signal_of_level: Dict[int, str],
    options: DecompositionOptions,
    dc: int = FALSE,
    prefix: str = "d",
) -> str:
    """Decompose ``(on, dc)`` into k-feasible nodes of ``net``.

    ``signal_of_level`` maps manager variable levels to existing network
    signal names; new α signals are appended to it as they are created.
    Returns the name of the signal computing the root function (don't
    cares resolved by the recursion; the final node covers the on-set of
    whatever completely specified function the steps settled on).
    """
    # Cooperative budget check point: one per recursion level keeps a
    # governed decomposition responsive even when all BDD work below is
    # cache hits (no allocation, so _mk never probes the deadline).
    manager.check_budget()

    support = sorted(
        set(manager.support(on)) | set(manager.support(dc))
    )
    # Don't cares at the root are resolved toward the on-set cover so the
    # emitted node is completely specified.
    if len(support) <= options.k:
        return _emit_node(manager, on, support, net, signal_of_level, prefix)

    # One span per recursion level (nesting depth == recursion depth);
    # a no-op unless a trace recorder is installed.
    with obs.span("recurse", manager=manager, support=len(support)):
        level_depths: Optional[Dict[int, int]] = None
        if not options.cost.is_area:
            # Depth of the signal behind every candidate level, so the
            # bound-set search can avoid stacking α LUTs on deep signals.
            from ..network import node_depths

            sig_depth = node_depths(net)
            level_depths = {
                lv: sig_depth.get(sig, 0)
                for lv, sig in signal_of_level.items()
            }
        partition = select_step_bound(
            manager, on, support, options, dc=dc, level_depths=level_depths
        )
        if partition.cannot_shrink:
            # No progress: as many α functions as bound variables (the
            # function is essentially undecomposable for this bound set).
            # Decided on the search's class count, so a step that could
            # not be used builds no α level, class function or encoder.
            # A Shannon split always shrinks the support.
            manager.perf.shannon_splits += 1
            return _shannon_split(
                manager, on, dc, support, net, signal_of_level, options,
                prefix,
            )
        step = decompose_step(
            manager, on, support, options, dc=dc,
            bound_levels=partition.bound_levels,
        )

        if step.num_classes < 2:
            # f is (by don't-care assignment) independent of the bound set.
            fc = step.image
            return decompose_to_network(
                manager, fc.on, net, signal_of_level, options,
                dc=fc.dc, prefix=prefix,
            )

        # Emit the α functions as LUT nodes over the bound-set signals.
        for j, (alpha_level, table) in enumerate(
            zip(step.alpha_levels, step.alpha_tables)
        ):
            fanins = [signal_of_level[lv] for lv in step.bound_levels]
            reduced, kept = table.minimize_support()
            name = net.fresh_name(f"{prefix}_a")
            if reduced.num_inputs == 0:
                net.add_constant(name, 1 if reduced.mask else 0)
            else:
                net.add_node(name, [fanins[i] for i in kept], reduced)
            signal_of_level[alpha_level] = name

        # Recurse on the image function.
        return decompose_to_network(
            manager,
            step.image.on,
            net,
            signal_of_level,
            options,
            dc=step.image.dc,
            prefix=prefix,
        )


def _shannon_split(
    manager: BddManager,
    on: int,
    dc: int,
    support: Sequence[int],
    net: Network,
    signal_of_level: Dict[int, str],
    options: DecompositionOptions,
    prefix: str,
) -> str:
    """f = ite(x, f1, f0) on the support variable whose split is cheapest
    (see :func:`_shannon_variable`)."""
    best_level = _shannon_variable(manager, on, support)
    cofactors = []
    for value in (0, 1):
        cofactors.append(
            decompose_to_network(
                manager,
                manager.cofactor(on, best_level, value),
                net,
                signal_of_level,
                options,
                dc=manager.cofactor(dc, best_level, value),
                prefix=prefix,
            )
        )
    mux = TruthTable.from_function(3, lambda s, f0, f1: f1 if s else f0)
    fanins = [signal_of_level[best_level], cofactors[0], cofactors[1]]
    if len(set(fanins)) != len(fanins):
        # Degenerate (equal cofactor signals): just reuse one cofactor.
        if cofactors[0] == cofactors[1]:
            return cofactors[0]
        position = {sig: j for j, sig in enumerate(dict.fromkeys(fanins))}
        mapping = [position[sig] for sig in fanins]
        mux = mux.remap_inputs(len(position), mapping)
        fanins = list(dict.fromkeys(fanins))
    name = net.fresh_name(f"{prefix}_sh")
    net.add_node(name, fanins, mux)
    return name


def _shannon_variable(
    manager: BddManager, on: int, support: Sequence[int]
) -> int:
    """The first support variable whose two cofactors of ``on`` have the
    fewest BDD nodes between them.

    The sizes come from :meth:`BddManager.split_sizes`, which counts
    them without building a cofactor, so ranking allocates nothing at
    any width; only the chosen split is built afterwards.
    """
    sizes = manager.split_sizes(on, support)
    return support[sizes.index(min(sizes))]


def _emit_node(
    manager: BddManager,
    on: int,
    support: Sequence[int],
    net: Network,
    signal_of_level: Dict[int, str],
    prefix: str,
) -> str:
    if not support:
        name = net.fresh_name(f"{prefix}_const")
        net.add_constant(name, 1 if on != FALSE else 0)
        return name
    mask = manager.to_truth_table(on, list(support))
    table = TruthTable(len(support), mask)
    reduced, kept = table.minimize_support()
    fanins = [signal_of_level[support[i]] for i in kept]
    if reduced.num_inputs == 0:
        name = net.fresh_name(f"{prefix}_const")
        net.add_constant(name, 1 if reduced.mask else 0)
    elif reduced.num_inputs == 1 and reduced.mask == 0b10:
        # A buffer: reuse the driving signal directly.
        return fanins[0]
    else:
        name = net.fresh_name(f"{prefix}_g")
        net.add_node(name, fanins, reduced)
    return name
