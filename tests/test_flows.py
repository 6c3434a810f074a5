"""Integration tests: complete mapping flows on real benchmark circuits.

Every flow must produce a k-feasible network that is *provably equivalent*
to the original circuit (the flows verify internally with BDDs; these
tests additionally assert structural properties and flow relationships).
"""

from __future__ import annotations

import pytest

from repro.boolfunc import TruthTable
from repro.circuits import build, popcount, ripple_adder
from repro.mapping import (
    hyde_map,
    map_column_encoding,
    map_per_output,
    map_per_output_resub,
    map_shannon,
    map_structural,
)
from repro.network import Network, check_equivalence, is_k_feasible


class TestHydeFlow:
    def test_9sym_matches_paper(self):
        result = hyde_map(build("9sym"), k=5)
        assert is_k_feasible(result.network, 5)
        # Paper Table 2: HYDE maps 9sym into 6 LUTs.
        assert result.lut_count == 6

    def test_z4ml(self):
        result = hyde_map(build("z4ml"), k=5)
        # Paper Table 2: 5 LUTs; Table 1: 4 CLBs.
        assert result.lut_count <= 6
        assert result.clb_count <= 5

    def test_rd84_close_to_paper(self):
        result = hyde_map(build("rd84"), k=5)
        assert result.lut_count <= 11  # paper: 9

    def test_misex1_golden_luts_and_depth(self):
        # Golden (LUTs, depth) pin: cleanup runs to a global fixpoint
        # before stats are taken, so the numbers reported here are the
        # numbers of the network actually emitted to BLIF.  A change to
        # cleanup ordering or depth accounting shows up as a diff in
        # this pair.
        from repro.mapping.lut import (
            absorb_inverters,
            count_luts,
            dedup_nodes,
        )
        from repro.network import node_depths, parse_blif, sweep, to_blif

        result = hyde_map(build("misex1"), k=5)
        assert (result.lut_count, result.depth) == (14, 3)

        # The measured network is already sweep-stable: another full
        # cleanup round finds nothing to do.
        net = result.network.copy()
        assert sweep(net) == 0
        assert dedup_nodes(net) == 0
        assert absorb_inverters(net) == 0

        # And a BLIF round trip preserves exactly the measured pair.
        emitted = parse_blif(to_blif(result.network))
        depths = node_depths(emitted)
        assert max(
            depths[driver] for _, driver in emitted.outputs
        ) == result.depth
        assert count_luts(emitted, 5) == result.lut_count

    def test_groups_cover_outputs(self):
        net = build("rd73")
        result = hyde_map(net, k=5)
        grouped = sorted(o for g in result.groups for o in g)
        assert grouped == sorted(net.output_names)

    def test_duplicate_outputs_shared(self):
        net = popcount(6, "pc6")
        # Add a duplicate output of s0.
        net.add_output(net.output_driver("s0"), "s0_copy")
        result = hyde_map(net, k=5)
        assert "s0_copy" in result.details["aliases"]

    def test_k4(self):
        result = hyde_map(build("rd73"), k=4)
        assert is_k_feasible(result.network, 4)

    def test_verify_sim_mode(self):
        result = hyde_map(build("z4ml"), k=5, verify="sim")
        assert result.lut_count >= 1


class TestBaselines:
    def test_per_output_policies(self):
        net = build("rd73")
        random_result = map_per_output(net, 5, encoding_policy="random")
        chart_result = map_per_output(build("rd73"), 5, encoding_policy="chart")
        assert is_k_feasible(random_result.network, 5)
        assert is_k_feasible(chart_result.network, 5)

    def test_resub_not_worse(self):
        net = build("rd73")
        base = map_per_output(net, 5, encoding_policy="random")
        resub = map_per_output_resub(build("rd73"), 5, encoding_policy="random")
        assert resub.lut_count <= base.lut_count

    def test_column_encoding_runs(self):
        result = map_column_encoding(build("z4ml"), 5)
        assert is_k_feasible(result.network, 5)
        assert result.flow == "column-encoding"

    def test_shannon_correct_but_larger(self):
        net = build("9sym")
        shannon = map_shannon(net, 5)
        hyde = hyde_map(build("9sym"), 5)
        assert is_k_feasible(shannon.network, 5)
        # Shannon/MUX mapping is the weakest flow on symmetric functions.
        assert shannon.lut_count >= hyde.lut_count

    def test_flows_equivalent_to_each_other(self):
        net = build("z4ml")
        a = hyde_map(build("z4ml"), 5, verify="none")
        b = map_shannon(build("z4ml"), 5, verify="none")
        assert check_equivalence(a.network, b.network) is None


class TestStructuredCircuits:
    def test_adder_flow(self):
        net = ripple_adder(5, name="add5")
        result = hyde_map(net, k=5)
        assert is_k_feasible(result.network, 5)
        # A 5-bit ripple adder fits in about 2 LUTs per bit.
        assert result.lut_count <= 14

    def test_alu2_flow(self):
        result = hyde_map(build("alu2"), k=5)
        assert is_k_feasible(result.network, 5)
        assert result.clb_count is not None


class TestStructuralFlow:
    def test_map_structural(self):
        result = map_structural(build("count"), k=5)
        assert is_k_feasible(result.network, 5)
        assert result.lut_count > 0
        assert result.flow == "structural"

    def test_map_structural_maps_nodes_as_given(self):
        # Nodes that already fit a LUT are copied, not restructured: x
        # and y stay one LUT each, and only the 7-input z is decomposed
        # (into two).
        net = Network("given")
        for pi in "abcdefg":
            net.add_input(pi)
        net.add_node("x", ["a", "b", "c"], TruthTable(3, 0x96))
        net.add_node("y", ["x", "d", "e", "f"], TruthTable(4, 0x8001))
        net.add_node(
            "z", list("abcdefg"),
            TruthTable.from_function(7, lambda *v: sum(v) % 2),
        )
        net.add_output("y")
        net.add_output("z")
        result = map_structural(net, k=5)
        assert check_equivalence(result.network, net) is None
        assert result.lut_count == 4
