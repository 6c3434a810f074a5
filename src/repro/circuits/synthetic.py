"""Seeded synthetic circuits standing in for unavailable MCNC benchmarks.

The MCNC'91 benchmark files are not distributable here, so benchmarks
without a publicly known functional definition are replaced by
deterministic pseudo-random circuits with the same PI/PO profile and a
comparable decomposition workload (see DESIGN.md, "Substitutions").

Two families:

* :func:`windowed_network` — every output is a random function of a
  contiguous window of inputs (window width ~8-11), giving each output a
  genuinely wide support that the decomposition flow must break up, while
  keeping global BDDs tractable;
* :func:`layered_network` — adds intermediate random layers so the
  netlist is multi-level like the optimised circuits the paper maps.

All randomness is derived from ``random.Random(seed)``; the same name and
seed always produce the identical circuit.
"""

from __future__ import annotations

import random
import zlib
from typing import List

from ..boolfunc import TruthTable
from ..network import Network

__all__ = ["windowed_network", "layered_network", "sbox_network"]


def _random_table(rng: random.Random, arity: int) -> TruthTable:
    """A random non-degenerate truth table of the given arity."""
    size = 1 << arity
    while True:
        mask = rng.getrandbits(size)
        table = TruthTable(arity, mask)
        if not table.is_constant() and len(table.support()) == arity:
            return table


def windowed_network(
    name: str,
    num_inputs: int,
    num_outputs: int,
    window: int = 9,
    seed: int = 0,
) -> Network:
    """Outputs are random functions of rotating input windows."""
    if window > num_inputs:
        window = num_inputs
    rng = random.Random(seed * 1000003 + zlib.crc32(f"windowed:{name}".encode()))
    net = Network(name)
    inputs = [net.add_input(f"i{j}") for j in range(num_inputs)]
    stride = max(1, num_inputs // max(1, num_outputs))
    for o in range(num_outputs):
        start = (o * stride) % num_inputs
        fanins = [inputs[(start + j) % num_inputs] for j in range(window)]
        table = _random_table(rng, window)
        net.add_node(f"w{o}", fanins, table)
        net.add_output(f"w{o}", f"o{o}")
    return net


def layered_network(
    name: str,
    num_inputs: int,
    num_outputs: int,
    nodes_per_layer: int,
    num_layers: int = 2,
    fanin: int = 4,
    seed: int = 0,
) -> Network:
    """Multi-level random logic: layers of random ``fanin``-input nodes."""
    rng = random.Random(seed * 1000003 + zlib.crc32(f"layered:{name}".encode()))
    net = Network(name)
    signals: List[str] = [net.add_input(f"i{j}") for j in range(num_inputs)]
    for layer in range(num_layers):
        fresh: List[str] = []
        for n in range(nodes_per_layer):
            arity = min(fanin, len(signals))
            fanins = rng.sample(signals, arity)
            node = f"l{layer}_{n}"
            net.add_node(node, fanins, _random_table(rng, arity))
            fresh.append(node)
        signals = signals + fresh
    candidates = [s for s in signals if not net.is_input(s)]
    for o in range(num_outputs):
        driver = candidates[
            (o * max(1, len(candidates) // num_outputs)) % len(candidates)
        ]
        net.add_output(driver, f"o{o}")
    return net


def sbox_network(
    name: str,
    num_inputs: int,
    num_outputs: int,
    sbox_in: int = 6,
    sbox_out: int = 4,
    seed: int = 0,
) -> Network:
    """An S-box/XOR structure in the spirit of a DES round.

    Random ``sbox_in``->``sbox_out`` substitution boxes read rotating
    windows of the inputs; outputs XOR pairs of S-box bits with an input
    bit, giving wide, deep multi-output logic (the ``des`` stand-in).
    """
    rng = random.Random(seed * 1000003 + zlib.crc32(f"sbox:{name}".encode()))
    net = Network(name)
    inputs = [net.add_input(f"i{j}") for j in range(num_inputs)]
    num_boxes = max(1, (num_outputs + sbox_out - 1) // sbox_out)
    sbox_bits: List[str] = []
    for b in range(num_boxes):
        start = (b * sbox_in) % num_inputs
        fanins = [inputs[(start + j) % num_inputs] for j in range(sbox_in)]
        for bit in range(sbox_out):
            node = f"sb{b}_{bit}"
            net.add_node(node, fanins, _random_table(rng, sbox_in))
            sbox_bits.append(node)
    xor3 = TruthTable.from_function(3, lambda a, b, c: a ^ b ^ c)
    for o in range(num_outputs):
        a = sbox_bits[o % len(sbox_bits)]
        b = sbox_bits[(o * 7 + 3) % len(sbox_bits)]
        c = inputs[(o * 13) % num_inputs]
        if a == b:
            b = sbox_bits[(o * 7 + 4) % len(sbox_bits)]
        node = f"x{o}"
        net.add_node(node, [a, b, c], xor3)
        net.add_output(node, f"o{o}")
    return net
