"""Combinational equivalence checking between networks.

Used throughout the reproduction to verify that decomposition / mapping
preserved every output.  Two engines:

* BDD-based exact check (default; fine for the benchmark sizes here).
* Bit-parallel random simulation (fast screen, used by the harness on
  circuits whose global BDDs would be expensive).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .globalbdd import GlobalBdds
from .netlist import Network
from .simulate import random_vectors, simulate_vectors

__all__ = ["check_equivalence", "simulate_equivalence", "EquivalenceError"]


class EquivalenceError(AssertionError):
    """Raised by :func:`assert_equivalent` on a mismatch."""


def _common_io(a: Network, b: Network) -> Tuple[List[str], List[str]]:
    if sorted(a.inputs) != sorted(b.inputs):
        raise ValueError(
            f"input mismatch: {sorted(a.inputs)} vs {sorted(b.inputs)}"
        )
    if sorted(a.output_names) != sorted(b.output_names):
        raise ValueError(
            f"output mismatch: {sorted(a.output_names)} vs {sorted(b.output_names)}"
        )
    return a.inputs, a.output_names


def check_equivalence(a: Network, b: Network) -> Optional[str]:
    """Exact BDD equivalence check.

    Returns ``None`` when all outputs match, otherwise the name of the
    first differing output.
    """
    _, outputs = _common_io(a, b)
    pi_order = a.inputs
    ga = GlobalBdds(a, pi_order)
    # Both sides must live in ONE manager: node ids are only canonical
    # within a single unique table.
    gb = GlobalBdds(b, pi_order, manager=ga.manager)
    for out in outputs:
        if ga.of_output(out) != gb.of_output(out):
            return out
    return None


def assert_equivalent(a: Network, b: Network) -> None:
    """Raise :class:`EquivalenceError` unless ``a`` and ``b`` match."""
    bad = check_equivalence(a, b)
    if bad is not None:
        raise EquivalenceError(f"output {bad!r} differs between {a.name} and {b.name}")


def simulate_equivalence(
    a: Network, b: Network, num_vectors: int = 1024, seed: int = 0
) -> Optional[str]:
    """Random-simulation screen (sound for *dis*proving equivalence only).

    Returns ``None`` when no difference was observed, else the name of the
    first differing output.
    """
    _, outputs = _common_io(a, b)
    patterns = random_vectors(a, num_vectors, seed)
    ra = simulate_vectors(a, patterns, num_vectors)
    rb = simulate_vectors(b, patterns, num_vectors)
    for out in outputs:
        if ra[out] != rb[out]:
            return out
    return None
