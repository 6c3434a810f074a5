"""Additional HYDE-flow behaviours: clustering, constants, aliases,
splice hygiene and failure injection."""

from __future__ import annotations

import pytest

from repro.boolfunc import TruthTable
from repro.circuits import build, popcount
from repro.mapping import cluster_outputs, hyde_map
from repro.mapping.hyde import _splice
from repro.network import Network, check_equivalence, simulate

AND2 = TruthTable.from_function(2, lambda a, b: a & b)
XOR2 = TruthTable.from_function(2, lambda a, b: a ^ b)


class TestClusterOutputs:
    def test_groups_by_similarity(self):
        supports = {
            "x": ["a", "b", "c"],
            "y": ["a", "b", "d"],
            "z": ["p", "q", "r"],
        }
        groups = cluster_outputs(supports, max_group=2)
        by_member = {o: tuple(g) for g in groups for o in g}
        assert by_member["x"] == by_member["y"]
        assert by_member["z"] != by_member["x"]

    def test_max_group_respected(self):
        supports = {f"o{i}": ["a", "b"] for i in range(10)}
        groups = cluster_outputs(supports, max_group=4)
        assert all(len(g) <= 4 for g in groups)
        assert sum(len(g) for g in groups) == 10

    def test_disjoint_supports_stay_apart(self):
        supports = {"x": ["a"], "y": ["b"], "z": ["c"]}
        groups = cluster_outputs(supports, max_group=3)
        assert len(groups) == 3


class TestHydeEdgeCases:
    def test_constant_outputs(self):
        net = Network("k")
        net.add_input("a")
        net.add_constant("zero", 0)
        net.add_node("f", ["a", "zero"], AND2)  # == 0
        net.add_node("g", ["a", "zero"], XOR2)  # == a
        net.add_output("f")
        net.add_output("g")
        result = hyde_map(net, k=5)
        out0 = simulate(result.network, {"a": 0})
        out1 = simulate(result.network, {"a": 1})
        assert out0["f"] == out1["f"] == 0
        assert out0["g"] == 0 and out1["g"] == 1

    def test_output_aliasing_pi(self):
        net = Network("alias")
        net.add_input("a")
        net.add_input("b")
        net.add_node("f", ["a", "b"], AND2)
        net.add_output("f")
        net.add_output("a", "passthrough")
        result = hyde_map(net, k=5)
        assert simulate(result.network, {"a": 1, "b": 0})["passthrough"] == 1

    def test_inverted_duplicate_outputs(self):
        net = popcount(6, "pc")
        driver = net.output_driver("s0")
        inv = TruthTable.from_function(1, lambda v: 1 - v)
        net.add_node("inv_s0", [driver], inv)
        net.add_output("inv_s0", "ns0")
        result = hyde_map(net, k=5)
        out = simulate(result.network, {f"i{j}": 1 for j in range(6)})
        assert out["ns0"] == 1 - out["s0"]

    def test_broken_flow_detected(self):
        # Failure injection: corrupt the mapped network and confirm the
        # equivalence checker (the flow's own safety net) would catch it.
        net = popcount(5, "pc5")
        result = hyde_map(net, k=5, verify="none")
        mapped = result.network
        victim = next(
            n for n in mapped.nodes() if n.table.num_inputs >= 1
        )
        mapped.replace_node(
            victim.name, victim.fanins, ~victim.table
        )
        assert check_equivalence(net, mapped) is not None

    def test_hyper_step_keeps_every_option(self, monkeypatch):
        # A multi-output group's recursion and its PPI encoder must see
        # the caller's cost model, not the default.
        import repro.hyper.decompose as hyper_decompose
        import repro.hyper.hyperfunction as hyperfunction

        steps, encoders = set(), set()
        real_decompose = hyper_decompose.decompose_to_network
        real_encode = hyperfunction.encode_classes

        def spy_decompose(manager, on, net, signals, options, **kwargs):
            steps.add(options.cost_model)
            return real_decompose(manager, on, net, signals, options, **kwargs)

        def spy_encode(*args, **kwargs):
            encoders.add(kwargs.get("benefit_weights"))
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(
            hyper_decompose, "decompose_to_network", spy_decompose
        )
        monkeypatch.setattr(hyperfunction, "encode_classes", spy_encode)
        hyde_map(build("misex1"), cost_model="delay")
        assert steps == {"delay"}
        assert encoders == {(2.0, 1.0)}


class TestSplice:
    def test_name_collisions_resolved(self):
        dest = Network("dest")
        dest.add_input("a")
        dest.add_node("g0_n0", ["a"], TruthTable.from_function(1, lambda v: v))
        frag = Network("frag")
        frag.add_input("a")
        frag.add_node("n0", ["a"], TruthTable.from_function(1, lambda v: 1 - v))
        frag.add_output("n0", "o")
        rename = _splice(dest, frag, "g0_")
        assert rename["n0"] != "g0_n0" or dest.node("g0_n0").table.mask == 0b01

    def test_pi_identity(self):
        dest = Network("dest")
        dest.add_input("a")
        frag = Network("frag")
        frag.add_input("a")
        frag.add_node("x", ["a"], TruthTable.from_function(1, lambda v: v))
        frag.add_output("x", "o")
        rename = _splice(dest, frag, "p_")
        assert rename["a"] == "a"
        assert rename["x"] == "p_x"
