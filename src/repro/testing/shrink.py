"""Greedy shrinker for failing mapper inputs.

When a differential test finds a source network on which a mapping flow
crashes or produces a non-equivalent result, the raw witness is usually
far larger than the actual trigger.  :func:`shrink_network` minimizes it
the way property-based testing shrinkers do: apply the cheapest
structure-removing transformations one at a time, keep a candidate only
if the caller's ``predicate`` still reports the failure, and repeat to a
fixpoint.  The passes, in order of how much they remove:

1. **Drop outputs** — re-extract the cone of every output but one.
2. **Constant-propagate inputs** — fix one primary input to 0/1 and
   sweep (removes the input and everything only it drove).
3. **Constant-replace internal nodes** — replace one node's function
   with a constant and sweep.

The predicate sees only candidates that are structurally valid networks
with at least one input and one output, so flows can be run on them
directly.  :func:`save_repro` writes the minimized witness as BLIF under
``tests/_repros/`` so a failing CI run leaves a ready-to-replay case.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from ..network import Network, extract_cone, propagate_constant_inputs, sweep, to_blif
from ..runstate.atomic import atomic_write

__all__ = ["shrink_network", "save_repro"]

Predicate = Callable[[Network], bool]


def _size(net: Network) -> int:
    return net.num_nodes + len(net.inputs) + len(net.outputs)


def _restore_output_order(candidate: Network, reference: Network) -> None:
    """Force ``candidate``'s outputs into ``reference``'s relative order.

    Shrink passes rebuild networks output-by-output; the surviving
    outputs must keep the source network's relative order or the saved
    witness would fail the replay validator (output order is part of the
    BLIF interface).  Enforced explicitly here rather than trusted to
    each pass's iteration order.
    """
    surviving = set(candidate.output_names)
    order = [o for o in reference.output_names if o in surviving]
    order += [o for o in candidate.output_names if o not in set(order)]
    if order != candidate.output_names:
        candidate.reorder_outputs(order)


def _restore_input_order(candidate: Network, reference: Network) -> None:
    """Force ``candidate``'s PIs into ``reference``'s relative order.

    Same contract as :func:`_restore_output_order`, for the ``.inputs``
    declaration: shrink passes that rebuild the PI list (dropping
    outputs of a multi-output repro, constant-propagating inputs) must
    leave surviving PIs in the source's relative order, or the shrunk
    witness replays with a permuted input interface — the exact oracle
    and ``repro verify`` both flatten cones by PI declaration order, so
    a permutation changes the truth table they see.  Enforced
    explicitly here rather than trusted to each pass's iteration order.
    """
    surviving = set(candidate.inputs)
    order = [pi for pi in reference.inputs if pi in surviving]
    order += [pi for pi in candidate.inputs if pi not in set(order)]
    if order != candidate.inputs:
        candidate.reorder_inputs(order)


def _constant_node_variant(
    net: Network, target: str, value: int
) -> Optional[Network]:
    """A copy of ``net`` with ``target`` replaced by a constant, swept."""
    trial = Network(net.name)
    for pi in net.inputs:
        trial.add_input(pi)
    for name in net.topological_order():
        node = net.node(name)
        if name == target:
            trial.add_constant(name, value)
        else:
            trial.add_node(name, list(node.fanins), node.table)
    for out, driver in net.outputs:
        trial.add_output(driver, out)
    sweep(trial)
    return trial


def shrink_network(
    net: Network,
    predicate: Predicate,
    max_rounds: int = 16,
) -> Network:
    """Greedily minimize ``net`` while ``predicate`` keeps returning True.

    ``predicate`` must return True on ``net`` itself (the caller asserts
    the failure before shrinking); candidates on which it raises are
    treated as not preserving the failure and discarded — the predicate
    owns the decision of whether a crash counts as "still failing".
    """
    if not predicate(net):
        raise ValueError("predicate does not hold on the network to shrink")

    def holds(candidate: Network) -> bool:
        if not candidate.inputs or not candidate.outputs:
            return False
        if _size(candidate) >= _size(current):
            return False
        _restore_output_order(candidate, net)
        _restore_input_order(candidate, net)
        try:
            return bool(predicate(candidate))
        except Exception:
            return False

    current = net
    for _ in range(max_rounds):
        improved = False

        # Pass 1: drop outputs one at a time.
        for out in list(current.output_names):
            if len(current.output_names) <= 1:
                break
            keep = [o for o in current.output_names if o != out]
            trial = extract_cone(current, keep, name=f"{net.name}_shrunk")
            if holds(trial):
                current = trial
                improved = True

        # Pass 2: fix primary inputs to constants.
        for pi in list(current.inputs):
            if len(current.inputs) <= 1:
                break
            done = False
            for value in (0, 1):
                trial = propagate_constant_inputs(
                    current, {pi: value}, new_name=f"{net.name}_shrunk"
                )
                if holds(trial):
                    current = trial
                    improved = True
                    done = True
                    break
            if done:
                continue

        # Pass 3: replace internal nodes with constants.
        for name in current.node_names():
            if current.is_input(name) or not current.has_signal(name):
                continue
            if current.node(name).table.num_inputs == 0:
                continue
            for value in (0, 1):
                trial = _constant_node_variant(current, name, value)
                if trial is not None and holds(trial):
                    current = trial
                    improved = True
                    break

        if not improved:
            break
    return current


def save_repro(
    net: Network,
    directory: str,
    name: str,
    note: str = "",
) -> str:
    """Write a shrunk witness as ``<directory>/<name>.blif`` and return its path.

    ``note`` (e.g. the flow and seed that failed) is prepended as a BLIF
    comment so the file is self-describing.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.blif")
    # One atomic write (note header + body together): a crash while
    # saving a repro never leaves a half-written witness to chase.
    with atomic_write(path) as handle:
        for line in note.splitlines():
            handle.write(f"# {line}\n")
        handle.write(to_blif(net))
    return path
