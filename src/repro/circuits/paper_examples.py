"""The worked examples of the paper, reconstructed as data and circuits.

* Example 3.2 / Figures 4-7: the ten partitions Π0..Π9 — given verbatim
  in the paper, reproduced here exactly.
* Example 4.2 / Figure 10: the three 16-position partitions of f0, f1, f2.
* Example 3.1 / Figures 1-2: the paper prints the function only as a
  chart image, so :func:`example_3_1_function` *reconstructs* a function
  with the stated properties — five relevant inputs, λ = {a, b, c}, three
  compatible classes, and encodings that change the class count of the
  subsequent decomposition of g (the property Figure 2 demonstrates).
* Example 4.1 / Figures 8-9: four ingredient functions with the stated
  support profile (9/7/6/6 inputs) for the duplication-cone experiment.
"""

from __future__ import annotations

from typing import List, Tuple

from ..bdd import BddManager
from ..boolfunc import TruthTable
from ..decompose import Partition
from ..network import Network

__all__ = [
    "example_3_2_partitions",
    "example_4_2_partitions",
    "example_3_1_function",
    "example_4_1_ingredients",
]


def example_3_2_partitions() -> List[Partition]:
    """The ten partitions of Example 3.2, verbatim from the paper."""
    raw = [
        (0, 1, 2, 3),
        (0, 2, 1, 3),
        (3, 0, 1, 3),
        (2, 1, 0, 1),
        (0, 1, 3, 1),
        (0, 1, 0, 2),
        (1, 0, 0, 0),
        (1, 1, 2, 1),
        (1, 2, 1, 2),
        (3, 2, 1, 0),
    ]
    return [Partition(t) for t in raw]


def example_4_2_partitions() -> List[Partition]:
    """Π0, Π1, Π2 of Example 4.2, verbatim from the paper."""
    raw = [
        (0, 0, 1, 0, 1, 2, 2, 0, 3, 2, 0, 0, 0, 0, 0, 2),
        (0, 1, 2, 0, 2, 3, 3, 2, 4, 3, 0, 2, 1, 5, 1, 3),
        (0, 1, 1, 0, 1, 2, 2, 3, 3, 2, 0, 3, 1, 4, 5, 2),
    ]
    return [Partition(t) for t in raw]


def example_3_1_function() -> Tuple[BddManager, int, List[int], List[int]]:
    """A 6-input function with Example 3.1's structure.

    Returns ``(manager, f, bound_levels, free_levels)`` where the bound
    set {a, b, c} yields exactly three compatible classes.  The class
    functions over (x, y, z) are chosen so that different encodings give
    different class counts in the decomposition of g with λ' = {α0, x, y}
    — the phenomenon Figure 2 illustrates.
    """
    manager = BddManager()
    for name in ("a", "b", "c", "x", "y", "z"):
        manager.add_var(name)
    x = manager.var("x")
    y = manager.var("y")
    z = manager.var("z")

    # Three deliberately-different class functions over (x, y, z):
    # fc0 = x & y, fc1 = x ^ z, fc2 = y | z.
    fc0 = manager.apply_and(x, y)
    fc1 = manager.apply_xor(x, z)
    fc2 = manager.apply_or(y, z)
    class_functions = [fc0, fc1, fc2]

    # λ-assignment -> class: abc in {000,001,010} -> 0, {011,100,101} -> 1,
    # {110,111} -> 2 (three non-trivially distributed classes).
    class_of_position = [0, 0, 0, 1, 1, 1, 2, 2]

    from ..bdd import build_cube

    f = 0
    for position, cls in enumerate(class_of_position):
        assignment = {lv: (position >> lv) & 1 for lv in range(3)}
        cube = build_cube(manager, assignment)
        f = manager.apply_or(f, manager.apply_and(cube, class_functions[cls]))
    return manager, f, [0, 1, 2], [3, 4, 5]


def example_4_1_ingredients() -> Tuple[Network, int]:
    """Four functions with Example 4.1's support profile (9/7/6/6).

    f0 uses i0..i5 plus i7, i8 (and i6 is absent, as in the paper's
    signature f0(i0..i5, i7, i8)); f1 uses i0..i6; f2, f3 use i0..i5.
    Returns the multi-output network and the LUT size k = 5 used in the
    example.
    """
    net = Network("ex41")
    inputs = [net.add_input(f"i{j}") for j in range(9)]

    def sym_table(n: int, counts) -> TruthTable:
        mask = 0
        for idx in range(1 << n):
            if bin(idx).count("1") in counts:
                mask |= 1 << idx
        return TruthTable(n, mask)

    base6 = inputs[:6]
    # Shared 6-input cores with different thresholds, plus extra inputs
    # for f0/f1 so the supports match the example's signatures.
    net.add_node("core_a", base6, sym_table(6, {2, 3}))
    net.add_node("core_b", base6, sym_table(6, {3, 4, 5}))
    xor3 = TruthTable.from_function(3, lambda a, b, c: a ^ b ^ c)
    xor2 = TruthTable.from_function(2, lambda a, b: a ^ b)
    net.add_node("f0_n", ["core_a", inputs[7], inputs[8]], xor3)
    net.add_node("f1_n", ["core_b", inputs[6]], xor2)
    net.add_node("f2_n", ["core_a", "core_b"], TruthTable.from_function(2, lambda a, b: a & b))
    net.add_node("f3_n", ["core_a", "core_b"], TruthTable.from_function(2, lambda a, b: a | b))
    for j in range(4):
        net.add_output(f"f{j}_n", f"f{j}")
    return net, 5
