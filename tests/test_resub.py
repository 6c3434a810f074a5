"""Tests for support-minimising resubstitution."""

from __future__ import annotations

import random

import pytest

from repro.boolfunc import TruthTable
from repro.network import Network, check_equivalence
from repro.mapping import functionally_dependent, resubstitute

AND2 = TruthTable.from_function(2, lambda a, b: a & b)
XOR2 = TruthTable.from_function(2, lambda a, b: a ^ b)


def word(bits):
    """Simulation word whose bit ``m`` is ``bits[m]``."""
    return sum(bit << m for m, bit in enumerate(bits))


def dependent_by_minterm(target, basis, total):
    """Reference: one minterm at a time, first value per pattern wins."""
    seen = {}
    mask = 0
    for m in range(total):
        pattern = sum(((col >> m) & 1) << j for j, col in enumerate(basis))
        value = (target >> m) & 1
        prev = seen.setdefault(pattern, value)
        if prev != value:
            return None
        mask |= value << pattern
    return TruthTable(len(basis), mask)


class TestFunctionallyDependent:
    def test_dependent(self):
        a = word([0, 0, 1, 1])
        b = word([0, 1, 0, 1])
        target = a & b
        table = functionally_dependent(target, [a, b], 4)
        assert table is not None
        assert table.mask == AND2.mask

    def test_independent(self):
        a = word([0, 0, 1, 1])
        target = word([0, 1, 0, 0])
        assert functionally_dependent(target, [a], 4) is None

    def test_unreached_patterns_default_zero(self):
        a = word([0, 0])
        b = word([0, 1])
        target = word([0, 1])
        table = functionally_dependent(target, [a, b], 2)
        assert table is not None
        assert table.eval((1, 0)) == 0  # never observed -> 0

    def test_matches_minterm_loop(self):
        rng = random.Random(2026)
        for trial in range(300):
            total = 1 << rng.randint(0, 7)
            basis = [rng.getrandbits(total) for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.5 and basis:
                # Make the target a function of the basis half the time.
                table = rng.getrandbits(1 << len(basis))
                target = word([
                    (table >> sum(((col >> m) & 1) << j
                                  for j, col in enumerate(basis))) & 1
                    for m in range(total)
                ])
            else:
                target = rng.getrandbits(total)
            got = functionally_dependent(target, basis, total)
            want = dependent_by_minterm(target, basis, total)
            assert (got is None) == (want is None), trial
            if want is not None:
                assert got.mask == want.mask, trial


class TestResubstitute:
    def test_rediscovers_existing_subexpression(self):
        # f recomputes a & b internally although node x already provides it.
        net = Network("r")
        for pi in ("a", "b", "c"):
            net.add_input(pi)
        net.add_node("x", ["a", "b"], AND2)
        net.add_node(
            "f", ["a", "b", "c"],
            TruthTable.from_function(3, lambda a, b, c: (a & b) ^ c),
        )
        net.add_output("x")
        net.add_output("f")
        before = net.copy()
        rewrites = resubstitute(net, k=5)
        assert rewrites >= 1
        assert check_equivalence(net, before) is None
        assert sorted(net.node("f").fanins) == ["c", "x"]

    def test_no_rewrite_when_impossible(self):
        net = Network("r")
        for pi in ("a", "b", "c"):
            net.add_input(pi)
        net.add_node(
            "f", ["a", "b", "c"],
            TruthTable.from_function(3, lambda a, b, c: 1 if a + b + c >= 2 else 0),
        )
        net.add_output("f")
        assert resubstitute(net, k=5) == 0

    def test_large_pi_count_skipped(self):
        net = Network("big")
        pis = [net.add_input(f"i{j}") for j in range(20)]
        net.add_node("f", pis[:3], TruthTable.constant(3, 1))
        net.add_output("f")
        assert resubstitute(net, k=5, max_pis=14) == 0

    def test_preserves_equivalence_on_random_net(self):
        rng = random.Random(6)
        net = Network("rand")
        sigs = [net.add_input(f"i{j}") for j in range(6)]
        for n in range(10):
            fanins = rng.sample(sigs, 3)
            mask = rng.getrandbits(8)
            node = f"n{n}"
            net.add_node(node, fanins, TruthTable(3, mask))
            sigs.append(node)
        for n in (7, 9, 12, 15):
            net.add_output(f"n{n - 6}", f"o{n}")
        before = net.copy()
        resubstitute(net, k=5)
        assert check_equivalence(net, before) is None
