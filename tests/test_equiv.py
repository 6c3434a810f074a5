"""Tests for equivalence checking."""

from __future__ import annotations

import pytest

from repro.boolfunc import TruthTable
from repro.network import (
    Network,
    check_equivalence,
    simulate_equivalence,
    verdict,
)
from repro.verify import finegrain_check

XOR2 = TruthTable.from_function(2, lambda a, b: a ^ b)
OR2 = TruthTable.from_function(2, lambda a, b: a | b)


def xor_net(name: str, table: TruthTable) -> Network:
    net = Network(name)
    net.add_input("a")
    net.add_input("b")
    net.add_node("f", ["a", "b"], table)
    net.add_output("f")
    return net


class TestCheckEquivalence:
    def test_equal_networks(self):
        # Same function, different structure.
        a = xor_net("a", XOR2)
        b = Network("b")
        b.add_input("a")
        b.add_input("b")
        nand = TruthTable.from_function(2, lambda x, y: 1 - (x & y))
        b.add_node("n1", ["a", "b"], nand)
        b.add_node("n2", ["a", "n1"], nand)
        b.add_node("n3", ["b", "n1"], nand)
        b.add_node("f", ["n2", "n3"], nand)
        b.add_output("f")
        assert check_equivalence(a, b) is None

    def test_detects_difference(self):
        assert check_equivalence(xor_net("a", XOR2), xor_net("b", OR2)) == "f"

    def test_io_mismatch_rejected(self):
        a = xor_net("a", XOR2)
        b = Network("b")
        b.add_input("a")
        b.add_node("f", ["a"], TruthTable.from_function(1, lambda x: x))
        b.add_output("f")
        with pytest.raises(ValueError):
            check_equivalence(a, b)


class TestSimulateEquivalence:
    def test_finds_difference(self):
        # XOR vs OR differ on (1,1): 1/4 of the space, so 256 random
        # vectors will certainly expose it.
        assert simulate_equivalence(
            xor_net("a", XOR2), xor_net("b", OR2), num_vectors=256
        ) == "f"

    def test_passes_identical(self):
        assert simulate_equivalence(
            xor_net("a", XOR2), xor_net("b", XOR2), num_vectors=64
        ) is None


def two_outputs(name: str, inputs, f: TruthTable, g: TruthTable) -> Network:
    """Outputs ``f`` and ``g`` of ``a`` and ``b``, over ``inputs``."""
    net = Network(name)
    for pi in inputs:
        net.add_input(pi)
    net.add_node("nf", ["a", "b"], f)
    net.add_node("ng", ["a", "b"], g)
    net.add_output("nf", "f")
    net.add_output("ng", "g")
    return net


AND2 = TruthTable.from_function(2, lambda a, b: a & b)


class TestVerdict:
    def test_names_the_first_failing_output(self):
        check = verdict(xor_net("a", XOR2), xor_net("b", OR2))
        assert check.failing == "f" and check.report is None
        assert check.cone is None
        assert check.describe() == "output 'f' differs"
        passed = verdict(xor_net("a", XOR2), xor_net("b", XOR2))
        assert passed.failing is None and passed.cone is None

    @pytest.mark.parametrize("engine", ["bdd", "sim", "finegrain"])
    def test_agrees_with_its_engine(self, engine):
        # The source reads c nowhere; both mappings dropped it.
        source = two_outputs("src", ["a", "b", "c"], XOR2, OR2)
        good = two_outputs("good", ["a", "b"], XOR2, OR2)
        bad = two_outputs("bad", ["a", "b"], XOR2, AND2)
        for mapped, expected in ((good, None), (bad, "g")):
            check = verdict(source, mapped, engine)
            assert mapped.inputs == ["a", "b"]  # the caller's network
            padded = mapped.copy()
            padded.add_input("c")
            own = {
                "bdd": lambda: check_equivalence(source, padded),
                "sim": lambda: simulate_equivalence(source, padded),
                "finegrain": lambda: (
                    finegrain_check(source, padded).failing_outputs
                    or [None]
                )[0],
            }[engine]()
            assert check.failing == own == expected
            assert (check.report is not None) == (engine == "finegrain")
            if expected is not None and engine == "finegrain":
                assert check.cone.output == "g"
                assert check.describe() == check.cone.describe()

    def test_copies_only_to_add_a_missing_input(self, monkeypatch):
        source = two_outputs("src", ["a", "b"], XOR2, OR2)
        mapped = two_outputs("m", ["a", "b"], XOR2, OR2)
        copies = []
        real = Network.copy
        monkeypatch.setattr(
            Network, "copy", lambda net: copies.append(net) or real(net)
        )
        assert verdict(source, mapped).failing is None
        assert copies == []
        wider = two_outputs("src3", ["a", "b", "c"], XOR2, OR2)
        assert verdict(wider, mapped).failing is None
        assert copies == [mapped]

    def test_rejects_unknown_engines_and_interfaces(self):
        with pytest.raises(ValueError):
            verdict(xor_net("a", XOR2), xor_net("b", XOR2), "exhaustive")
        extra = two_outputs("m", ["a", "b", "z"], XOR2, OR2)
        with pytest.raises(ValueError):
            verdict(two_outputs("src", ["a", "b"], XOR2, OR2), extra)
