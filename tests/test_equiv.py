"""Tests for equivalence checking."""

from __future__ import annotations

import pytest

from repro.boolfunc import TruthTable
from repro.fastpath import bitops
from repro.network import (
    Network,
    check_equivalence,
    exact_path,
    simulate_equivalence,
    verdict,
)
from repro.network.equiv import pad_inputs
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


def both_paths(golden: Network, mapped: Network):
    """The failing output on the packed and on the BDD path, required
    to agree; ``mapped`` is padded to ``golden``'s inputs first."""
    padded = pad_inputs(mapped, golden)
    packed = check_equivalence(golden, padded, "packed")
    assert check_equivalence(golden, padded, "bdd") == packed
    return packed


def xor_chain(name: str, inputs) -> Network:
    """Parity of ``inputs`` as a chain of XOR2 nodes, output ``p``."""
    net = Network(name)
    for pi in inputs:
        net.add_input(pi)
    last = inputs[0]
    for j, pi in enumerate(inputs[1:]):
        last = net.add_node(f"x{j}", [last, pi], XOR2)
    net.add_output(last, "p")
    return net


class TestExactPaths:
    """The packed and the BDD path of the exact check agree."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_networks_and_their_mutants(self, seed):
        from repro.mapping import hyde_map
        from repro.verify import random_network
        from repro.verify.mutate import apply_mutation, sample_mutations

        golden = random_network(seed)
        mapped = hyde_map(golden, k=4, verify="none", pack_clbs=False).network
        assert both_paths(golden, mapped) is None
        failing = [
            both_paths(golden, apply_mutation(mapped, mutation))
            for mutation in sample_mutations(mapped, 12, seed)
        ]
        for mutation in sample_mutations(golden, 6, seed):
            both_paths(golden, apply_mutation(golden, mutation))
        assert any(failing)

    @pytest.mark.parametrize("circuit", ["z4ml", "5xp1", "misex1", "sao2"])
    def test_fleet_networks_and_their_mutants(self, circuit):
        from repro.circuits import build
        from repro.mapping import hyde_map
        from repro.verify.mutate import apply_mutation, sample_mutations

        golden = build(circuit)
        mapped = hyde_map(golden, k=5, verify="none", pack_clbs=False).network
        assert both_paths(golden, mapped) is None
        failing = [
            both_paths(golden, apply_mutation(mapped, mutation))
            for mutation in sample_mutations(mapped, 10, 1)
        ]
        assert any(failing)

    def test_no_inputs_and_constant_nodes(self):
        def constants(name, one, zero):
            net = Network(name)
            net.add_constant("c1", one)
            net.add_constant("c0", zero)
            net.add_output("c1", "f")
            net.add_output("c0", "g")
            return net

        golden = constants("src", 1, 0)
        assert both_paths(golden, constants("same", 1, 0)) is None
        assert both_paths(golden, constants("bad", 1, 1)) == "g"
        assert verdict(golden, constants("bad", 0, 0)).failing == "f"

    def test_outputs_driven_by_inputs_and_shared_drivers(self):
        def net_of(name, table):
            net = Network(name)
            net.add_input("a")
            net.add_input("b")
            net.add_node("n", ["a", "b"], table)
            net.add_output("a", "buf")  # straight from an input
            net.add_output("n", "f")
            net.add_output("n", "g")  # two outputs on one driver
            return net

        golden = net_of("src", XOR2)
        assert both_paths(golden, net_of("same", XOR2)) is None
        assert both_paths(golden, net_of("bad", OR2)) == "f"
        swapped = Network("swapped")
        swapped.add_input("a")
        swapped.add_input("b")
        swapped.add_node("n", ["a", "b"], XOR2)
        swapped.add_output("n", "g")
        swapped.add_output("b", "buf")
        swapped.add_output("n", "f")
        # Reported in the golden network's order: buf comes first.
        assert both_paths(golden, swapped) == "buf"

    def test_a_golden_input_the_mapped_side_lacks(self):
        source = two_outputs("src", ["a", "b", "c"], XOR2, OR2)
        for mapped, expected in (
            (two_outputs("good", ["a", "b"], XOR2, OR2), None),
            (two_outputs("bad", ["a", "b"], XOR2, AND2), "g"),
        ):
            assert both_paths(source, mapped) == expected
            check = verdict(source, mapped)
            assert check.failing == expected and check.path == "packed"

    @pytest.mark.parametrize("width", [20, 21])
    def test_the_width_picks_the_path(self, width):
        inputs = [f"i{j}" for j in range(width)]
        golden = xor_chain("src", inputs)
        reordered = xor_chain("same", inputs[::-1])
        broken = xor_chain("bad", inputs)
        broken.replace_node("x0", ["i0", "i1"], OR2)
        path = "packed" if width <= bitops.DEFAULT_MAX_WIDTH else "bdd"
        assert exact_path(golden) == path
        assert verdict(golden, reordered).path == path
        assert both_paths(golden, reordered) is None
        assert both_paths(golden, broken) == "p"
        assert verdict(golden, broken) == ("p", None, path)
        assert verdict(golden, broken, "sim").path is None

    def test_packed_path_keeps_no_cache_and_has_a_cap(self):
        inputs = [f"i{j}" for j in range(bitops.HARD_MAX_WIDTH + 1)]
        wide = xor_chain("wide", inputs)
        with pytest.raises(ValueError, match="too many"):
            check_equivalence(wide, wide, "packed")
        with pytest.raises(ValueError, match="unknown exact path"):
            check_equivalence(wide, wide, "sat")
        masks = dict(bitops._MASKS)
        a, b = xor_chain("a", inputs[:12]), xor_chain("b", inputs[11::-1])
        assert both_paths(a, b) is None
        assert bitops._MASKS == masks
