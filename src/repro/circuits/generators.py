"""Parametric circuit generators (arithmetic, symmetric, control logic).

These produce :class:`~repro.network.Network` objects used both as exact
reconstructions of MCNC benchmarks with publicly known semantics (9sym,
rd73, rd84, z4ml, parity, ...) and as building blocks of the synthetic
stand-ins in :mod:`repro.circuits.mcnc`.

Wide circuits are built *structurally* (ripple carry, trees of small
nodes) so their networks stay representable even when a flat truth table
would be astronomically large.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from ..boolfunc import TruthTable
from ..network import Network

__all__ = [
    "symmetric_function",
    "parity",
    "majority",
    "popcount",
    "ripple_adder",
    "incrementer",
    "comparator",
    "alu",
    "multiplier",
    "decoder",
    "mux_tree",
    "gray_encoder",
    "saturating_abs",
]

_XOR2 = TruthTable.from_function(2, lambda a, b: a ^ b)
_AND2 = TruthTable.from_function(2, lambda a, b: a & b)
_OR2 = TruthTable.from_function(2, lambda a, b: a | b)
_MAJ3 = TruthTable.from_function(3, lambda a, b, c: 1 if a + b + c >= 2 else 0)
_XOR3 = TruthTable.from_function(3, lambda a, b, c: a ^ b ^ c)


def _input_names(net: Network, n: int, prefix: str = "i") -> List[str]:
    return [net.add_input(f"{prefix}{j}") for j in range(n)]


def symmetric_function(n: int, on_counts: Iterable[int], name: str = "sym") -> Network:
    """A totally symmetric single-output function of ``n`` inputs.

    Output is 1 iff the input popcount is in ``on_counts``.  ``9sym`` is
    ``symmetric_function(9, {3, 4, 5, 6})``.
    """
    counts: Set[int] = set(on_counts)
    net = Network(name)
    inputs = _input_names(net, n)
    mask = 0
    for idx in range(1 << n):
        if bin(idx).count("1") in counts:
            mask |= 1 << idx
    net.add_node("f", inputs, TruthTable(n, mask))
    net.add_output("f")
    return net


def parity(n: int, name: str = "parity") -> Network:
    """Odd parity of ``n`` inputs, built as an XOR chain."""
    net = Network(name)
    inputs = _input_names(net, n)
    acc = inputs[0]
    for j, sig in enumerate(inputs[1:]):
        nxt = f"x{j}"
        net.add_node(nxt, [acc, sig], _XOR2)
        acc = nxt
    net.add_output(acc, "p")
    return net


def majority(n: int, name: str = "maj") -> Network:
    """Majority-of-n (flat table; n must be modest)."""
    if n > 16:
        raise ValueError("flat majority limited to 16 inputs")
    return symmetric_function(n, range((n // 2) + 1, n + 1), name)


def popcount(n: int, name: str = "popcount") -> Network:
    """Population count: ``ceil(log2(n+1))`` sum outputs (rd73, rd84).

    Flat tables per output bit — intended for n <= 12.
    """
    if n > 12:
        raise ValueError("flat popcount limited to 12 inputs")
    net = Network(name)
    inputs = _input_names(net, n)
    width = (n).bit_length()
    for bit in range(width):
        mask = 0
        for idx in range(1 << n):
            if (bin(idx).count("1") >> bit) & 1:
                mask |= 1 << idx
        net.add_node(f"s{bit}_n", inputs, TruthTable(n, mask))
        net.add_output(f"s{bit}_n", f"s{bit}")
    return net


def ripple_adder(width: int, carry_in: bool = True, name: str = "adder") -> Network:
    """Structural ripple-carry adder: a + b (+ cin), sum plus carry-out.

    ``z4ml`` is ``ripple_adder(3, carry_in=True)`` (7 inputs, 4 outputs).
    """
    net = Network(name)
    a = [net.add_input(f"a{j}") for j in range(width)]
    b = [net.add_input(f"b{j}") for j in range(width)]
    carry: Optional[str] = net.add_input("cin") if carry_in else None
    for j in range(width):
        if carry is None:
            net.add_node(f"s{j}", [a[j], b[j]], _XOR2)
            net.add_node(f"c{j}", [a[j], b[j]], _AND2)
        else:
            net.add_node(f"s{j}", [a[j], b[j], carry], _XOR3)
            net.add_node(f"c{j}", [a[j], b[j], carry], _MAJ3)
        net.add_output(f"s{j}", f"sum{j}")
        carry = f"c{j}"
    net.add_output(carry, f"sum{width}")
    return net


def incrementer(width: int, name: str = "inc") -> Network:
    """v + 1 with ripple carries; outputs the incremented word + overflow."""
    net = Network(name)
    v = [net.add_input(f"v{j}") for j in range(width)]
    carry = None
    for j in range(width):
        if carry is None:
            net.add_node(f"s{j}", [v[j]], TruthTable.from_function(1, lambda x: 1 - x))
            net.add_node(f"c{j}", [v[j]], TruthTable.from_function(1, lambda x: x))
        else:
            net.add_node(f"s{j}", [v[j], carry], _XOR2)
            net.add_node(f"c{j}", [v[j], carry], _AND2)
        net.add_output(f"s{j}", f"o{j}")
        carry = f"c{j}"
    net.add_output(carry, "ovf")
    return net


def comparator(width: int, name: str = "cmp") -> Network:
    """a > b, a == b over two ``width``-bit words (bit-serial structure)."""
    net = Network(name)
    a = [net.add_input(f"a{j}") for j in range(width)]
    b = [net.add_input(f"b{j}") for j in range(width)]
    gt = None
    eq = None
    gt_tab = TruthTable.from_function(2, lambda x, y: x & (1 - y))
    eq_tab = TruthTable.from_function(2, lambda x, y: 1 - (x ^ y))
    # MSB first: gt = gt_hi | (eq_hi & gt_lo)
    for j in range(width - 1, -1, -1):
        net.add_node(f"g{j}", [a[j], b[j]], gt_tab)
        net.add_node(f"e{j}", [a[j], b[j]], eq_tab)
        if gt is None:
            gt, eq = f"g{j}", f"e{j}"
        else:
            net.add_node(
                f"gt{j}", [gt, eq, f"g{j}"],
                TruthTable.from_function(3, lambda G, E, g: G | (E & g)),
            )
            net.add_node(f"eq{j}", [eq, f"e{j}"], _AND2)
            gt, eq = f"gt{j}", f"eq{j}"
    net.add_output(gt, "gt")
    net.add_output(eq, "eq")
    return net


def alu(width: int, name: str = "alu") -> Network:
    """A small ALU: op(2 bits) selects ADD / AND / OR / XOR.

    Inputs: 2*width operand bits + 2 control = ``2*width + 2``.
    Outputs: ``width`` result bits + carry-out + zero flag =
    ``width + 2``.  ``alu(4)`` has the 10/6 profile of MCNC ``alu2``;
    ``alu(6)`` the 14/8 profile of ``alu4``.
    """
    net = Network(name)
    a = [net.add_input(f"a{j}") for j in range(width)]
    b = [net.add_input(f"b{j}") for j in range(width)]
    op0 = net.add_input("op0")
    op1 = net.add_input("op1")

    select = TruthTable.from_function(
        6,
        lambda add, land, lor, lxor, s0, s1: (
            add if (s0 == 0 and s1 == 0)
            else land if (s0 == 1 and s1 == 0)
            else lor if (s0 == 0 and s1 == 1)
            else lxor
        ),
    )
    carry = None
    result: List[str] = []
    for j in range(width):
        if carry is None:
            net.add_node(f"add{j}", [a[j], b[j]], _XOR2)
            net.add_node(f"c{j}", [a[j], b[j]], _AND2)
        else:
            net.add_node(f"add{j}", [a[j], b[j], carry], _XOR3)
            net.add_node(f"c{j}", [a[j], b[j], carry], _MAJ3)
        carry = f"c{j}"
        net.add_node(f"and{j}", [a[j], b[j]], _AND2)
        net.add_node(f"or{j}", [a[j], b[j]], _OR2)
        net.add_node(f"xor{j}", [a[j], b[j]], _XOR2)
        net.add_node(
            f"r{j}", [f"add{j}", f"and{j}", f"or{j}", f"xor{j}", op0, op1], select
        )
        net.add_output(f"r{j}", f"res{j}")
        result.append(f"r{j}")
    net.add_output(carry, "cout")
    zero = result[0]
    nor_tab = TruthTable.from_function(2, lambda x, y: 1 - (x | y))
    inv_tab = TruthTable.from_function(1, lambda x: 1 - x)
    net.add_node("nz0", [result[0]], inv_tab)
    zero = "nz0"
    for j, r in enumerate(result[1:]):
        net.add_node(f"nz{j + 1}", [zero, r], TruthTable.from_function(2, lambda z, x: z & (1 - x)))
        zero = f"nz{j + 1}"
    net.add_output(zero, "zero")
    return net


def multiplier(width: int, name: str = "mult") -> Network:
    """``width`` x ``width`` array multiplier (structural)."""
    net = Network(name)
    a = [net.add_input(f"a{j}") for j in range(width)]
    b = [net.add_input(f"b{j}") for j in range(width)]
    # Partial products.
    pp = [[None] * width for _ in range(width)]
    for i in range(width):
        for j in range(width):
            net.add_node(f"pp{i}_{j}", [a[j], b[i]], _AND2)
            pp[i][j] = f"pp{i}_{j}"
    # Row-by-row ripple accumulation.
    acc: List[Optional[str]] = [None] * (2 * width)
    for j in range(width):
        acc[j] = pp[0][j]
    for i in range(1, width):
        carry: Optional[str] = None
        for j in range(width):
            pos = i + j
            operands = [x for x in (acc[pos], pp[i][j], carry) if x is not None]
            if len(operands) == 1:
                new_sum = operands[0]
                new_carry = None
            elif len(operands) == 2:
                net.add_node(f"s{i}_{j}", operands, _XOR2)
                net.add_node(f"k{i}_{j}", operands, _AND2)
                new_sum, new_carry = f"s{i}_{j}", f"k{i}_{j}"
            else:
                net.add_node(f"s{i}_{j}", operands, _XOR3)
                net.add_node(f"k{i}_{j}", operands, _MAJ3)
                new_sum, new_carry = f"s{i}_{j}", f"k{i}_{j}"
            acc[pos] = new_sum
            carry = new_carry
        if carry is not None:
            pos = i + width
            if acc[pos] is None:
                acc[pos] = carry
            else:
                net.add_node(f"s{i}_f", [acc[pos], carry], _XOR2)
                acc[pos] = f"s{i}_f"
    for j in range(2 * width):
        if acc[j] is None:
            const = net.fresh_name("zero")
            net.add_constant(const, 0)
            acc[j] = const
        net.add_output(acc[j], f"p{j}")
    return net


def decoder(select_bits: int, name: str = "dec") -> Network:
    """Full binary decoder: ``select_bits`` inputs, ``2**select_bits`` outputs."""
    net = Network(name)
    sel = _input_names(net, select_bits, "s")
    for idx in range(1 << select_bits):
        mask = 1 << idx
        net.add_node(f"d{idx}", sel, TruthTable.from_minterms(select_bits, [idx]))
        net.add_output(f"d{idx}", f"o{idx}")
    return net


def mux_tree(select_bits: int, name: str = "mux") -> Network:
    """``2**select_bits``-to-1 multiplexer built as a tree of 2:1 muxes."""
    net = Network(name)
    data = _input_names(net, 1 << select_bits, "d")
    sel = [net.add_input(f"s{j}") for j in range(select_bits)]
    mux2 = TruthTable.from_function(3, lambda s, a, b: b if s else a)
    layer = data
    for level in range(select_bits):
        nxt = []
        for j in range(0, len(layer), 2):
            name_j = f"m{level}_{j // 2}"
            net.add_node(name_j, [sel[level], layer[j], layer[j + 1]], mux2)
            nxt.append(name_j)
        layer = nxt
    net.add_output(layer[0], "y")
    return net


def gray_encoder(width: int, name: str = "gray") -> Network:
    """Binary-to-Gray converter (XOR of neighbours)."""
    net = Network(name)
    v = [net.add_input(f"v{j}") for j in range(width)]
    net.add_output(v[width - 1], f"g{width - 1}")
    for j in range(width - 1):
        net.add_node(f"x{j}", [v[j], v[j + 1]], _XOR2)
        net.add_output(f"x{j}", f"g{j}")
    return net


def saturating_abs(in_bits: int, out_bits: int, name: str = "clip") -> Network:
    """|v| of a two's-complement input, saturated to ``out_bits`` bits.

    The 9-input/5-output instance stands in for MCNC ``clip``.
    """
    if in_bits > 12:
        raise ValueError("flat clip limited to 12 inputs")
    net = Network(name)
    inputs = _input_names(net, in_bits)
    limit = (1 << out_bits) - 1
    for bit in range(out_bits):
        mask = 0
        for idx in range(1 << in_bits):
            value = idx - (1 << in_bits) if (idx >> (in_bits - 1)) & 1 else idx
            magnitude = min(abs(value), limit)
            if (magnitude >> bit) & 1:
                mask |= 1 << idx
        net.add_node(f"m{bit}", inputs, TruthTable(in_bits, mask))
        net.add_output(f"m{bit}", f"o{bit}")
    return net
