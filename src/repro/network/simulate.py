"""Bit-parallel network simulation.

Simulates a :class:`~repro.network.Network` on many input vectors at once by
packing one 0/1 value per vector into a Python bigint per signal (the
classic "bit-parallel" or "word-level" logic simulation trick).
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from .netlist import Network

__all__ = ["simulate", "simulate_vectors", "random_vectors", "exhaustive_vectors"]


def simulate(net: Network, assignment: Dict[str, int]) -> Dict[str, int]:
    """Evaluate the network on a single assignment (PI name -> 0/1).

    Returns output name -> 0/1.
    """
    patterns = {pi: [assignment[pi]] for pi in net.inputs}
    result = simulate_vectors(net, patterns, 1)
    return {out: bits[0] for out, bits in result.items()}


def simulate_vectors(
    net: Network, patterns: Dict[str, Sequence[int]], num_vectors: int
) -> Dict[str, List[int]]:
    """Evaluate on ``num_vectors`` input vectors simultaneously.

    ``patterns[pi][k]`` is the value of ``pi`` in vector ``k``.  Returns
    ``output -> list of 0/1`` of length ``num_vectors``.
    """
    words: Dict[str, int] = {}
    for pi in net.inputs:
        word = 0
        bits = patterns[pi]
        for k in range(num_vectors):
            if bits[k]:
                word |= 1 << k
        words[pi] = word
    all_ones = (1 << num_vectors) - 1

    for name in net.topological_order():
        node = net.node(name)
        table = node.table
        if table.num_inputs == 0:
            words[name] = all_ones if table.mask else 0
            continue
        fanin_words = [words[fi] for fi in node.fanins]
        # Shannon-style evaluation: OR of on-set minterm matches.
        out = 0
        for minterm in table.on_set():
            match = all_ones
            for j, w in enumerate(fanin_words):
                match &= w if (minterm >> j) & 1 else (~w & all_ones)
                if not match:
                    break
            out |= match
        words[name] = out

    result: Dict[str, List[int]] = {}
    for out, driver in net.outputs:
        w = words[driver]
        result[out] = [(w >> k) & 1 for k in range(num_vectors)]
    return result


def simulate_all_signals(
    net: Network, patterns: Dict[str, Sequence[int]], num_vectors: int
) -> Dict[str, int]:
    """Like :func:`simulate_vectors` but return the packed word of *every*
    signal (PIs and internal nodes), one bit per vector."""
    words: Dict[str, int] = {}
    for pi in net.inputs:
        word = 0
        bits = patterns[pi]
        for k in range(num_vectors):
            if bits[k]:
                word |= 1 << k
        words[pi] = word
    all_ones = (1 << num_vectors) - 1
    for name in net.topological_order():
        node = net.node(name)
        table = node.table
        if table.num_inputs == 0:
            words[name] = all_ones if table.mask else 0
            continue
        fanin_words = [words[fi] for fi in node.fanins]
        out = 0
        for minterm in table.on_set():
            match = all_ones
            for j, w in enumerate(fanin_words):
                match &= w if (minterm >> j) & 1 else (~w & all_ones)
                if not match:
                    break
            out |= match
        words[name] = out
    return words


def random_vectors(
    net: Network, num_vectors: int, seed: int = 0
) -> Dict[str, List[int]]:
    """Deterministic pseudo-random input patterns for every PI."""
    rng = random.Random(seed)
    return {
        pi: [rng.randint(0, 1) for _ in range(num_vectors)] for pi in net.inputs
    }


def exhaustive_vectors(net: Network) -> Dict[str, List[int]]:
    """All ``2**|PI|`` input vectors (only for small PI counts)."""
    n = len(net.inputs)
    if n > 20:
        raise ValueError(f"{n} inputs is too many for exhaustive simulation")
    total = 1 << n
    return {
        pi: [(index >> j) & 1 for index in range(total)]
        for j, pi in enumerate(net.inputs)
    }
