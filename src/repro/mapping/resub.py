"""Support-minimising resubstitution (the role of Sawada et al. [8]).

Reference [8] of the paper resubstitutes decomposition functions into
other functions to shrink their supports.  This pass generalises that
idea structurally: for every node it searches for an existing signal that
can replace *two or more* of the node's fan-ins (a strict support
reduction), verified exactly by exhaustive bit-parallel simulation over
the primary inputs.  Only usable on circuits with a moderate PI count —
exactly the limitation the paper notes for [8] ("disability of handling
large circuits such as C880").
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Optional, Sequence

from ..boolfunc import TruthTable
from ..network import Network
from ..network.simulate import simulate_all_signals
from .lut import cleanup_for_lut_count

__all__ = ["resubstitute", "functionally_dependent"]


def _signal_columns(net: Network) -> Dict[str, int]:
    """Exhaustive-simulation word per signal: bit ``m`` is the signal's
    value on minterm ``m`` of the primary inputs (2^|PI| bits)."""
    total = 1 << len(net.inputs)
    patterns = {
        pi: [(index >> j) & 1 for index in range(total)]
        for j, pi in enumerate(net.inputs)
    }
    return simulate_all_signals(net, patterns, total)


def functionally_dependent(
    target: int, basis: Sequence[int], total: int
) -> Optional[TruthTable]:
    """Is ``target`` a function of the ``basis`` words?

    All words are ``total``-bit simulation words.  Returns the truth
    table over the basis (don't cares for patterns never produced,
    resolved to 0) or ``None`` when two minterms with the same basis
    pattern need different target values.
    """
    # (pattern, minterms producing it), split one basis word at a time;
    # patterns no minterm produces are dropped as soon as they empty.
    cells = [(0, (1 << total) - 1)]
    for j, word in enumerate(basis):
        split = []
        for pattern, cell in cells:
            low = cell & ~word
            high = cell & word
            if low:
                split.append((pattern, low))
            if high:
                split.append((pattern | 1 << j, high))
        cells = split
    mask = 0
    for pattern, cell in cells:
        on = cell & target
        if on:
            if on != cell:
                return None
            mask |= 1 << pattern
    return TruthTable(len(basis), mask)


def resubstitute(
    net: Network,
    k: int,
    max_pis: int = 14,
    max_candidates: int = 64,
    passes: int = 2,
) -> int:
    """Reduce node supports by resubstituting existing signals.

    For each node with at least three fan-ins, tries every existing
    non-downstream signal as a substitute for each pair of fan-ins;
    accepts the first strict support reduction found.  Returns the number
    of rewrites applied.  No-op (returns 0) when the circuit has more
    than ``max_pis`` primary inputs.
    """
    if len(net.inputs) > max_pis:
        return 0

    total = 1 << len(net.inputs)
    rewrites = 0
    for _ in range(passes):
        columns = _signal_columns(net)
        changed = False
        order = net.topological_order()
        for name in order:
            node = net.node(name)
            if len(node.fanins) < 3:
                continue
            downstream = net.transitive_fanout([name])
            candidates = [
                sig
                for sig in (net.inputs + order)
                if sig not in downstream and sig not in node.fanins
            ][:max_candidates]
            target = columns[name]
            done = False
            for drop_a, drop_b in combinations(range(len(node.fanins)), 2):
                if done:
                    break
                kept = [
                    fi
                    for j, fi in enumerate(node.fanins)
                    if j not in (drop_a, drop_b)
                ]
                for cand in candidates:
                    basis_names = kept + [cand]
                    table = functionally_dependent(
                        target, [columns[s] for s in basis_names], total
                    )
                    if table is None:
                        continue
                    reduced, kept_idx = table.minimize_support()
                    net.replace_node(
                        name,
                        [basis_names[i] for i in kept_idx],
                        reduced,
                    )
                    rewrites += 1
                    changed = True
                    done = True
                    break
        if not changed:
            break
        cleanup_for_lut_count(net)
    return rewrites
