"""Tests for BLIF parsing / serialisation."""

from __future__ import annotations

import pytest

from repro.boolfunc import TruthTable
from repro.network import Network, check_equivalence, parse_blif, to_blif


def demo_net() -> Network:
    net = Network("demo")
    for pi in ("a", "b", "c"):
        net.add_input(pi)
    net.add_node("t", ["a", "b"], TruthTable.from_function(2, lambda a, b: a ^ b))
    net.add_node("f", ["t", "c"], TruthTable.from_function(2, lambda t, c: t | c))
    net.add_output("f")
    net.add_output("t", "tout")
    return net


class TestBlif:
    def test_round_trip(self):
        net = demo_net()
        again = parse_blif(to_blif(net))
        assert check_equivalence(net, again) is None

    def test_parse_dont_care_cubes(self):
        text = """
.model dc
.inputs a b c
.outputs f
.names a b c f
1-0 1
01- 1
.end
"""
        net = parse_blif(text)
        from repro.network import simulate
        assert simulate(net, {"a": 1, "b": 0, "c": 0})["f"] == 1
        assert simulate(net, {"a": 1, "b": 1, "c": 0})["f"] == 1
        assert simulate(net, {"a": 0, "b": 1, "c": 1})["f"] == 1
        assert simulate(net, {"a": 0, "b": 0, "c": 0})["f"] == 0

    def test_parse_zero_polarity(self):
        text = """
.model zp
.inputs a b
.outputs f
.names a b f
11 0
.end
"""
        net = parse_blif(text)
        from repro.network import simulate
        assert simulate(net, {"a": 1, "b": 1})["f"] == 0
        assert simulate(net, {"a": 0, "b": 1})["f"] == 1

    def test_parse_constants(self):
        text = """
.model k
.inputs a
.outputs f g
.names f
1
.names g
.end
"""
        net = parse_blif(text)
        from repro.network import simulate
        out = simulate(net, {"a": 0})
        assert out["f"] == 1 and out["g"] == 0

    def test_out_of_order_names(self):
        text = """
.model ooo
.inputs a b
.outputs f
.names t f
1 1
.names a b t
11 1
.end
"""
        net = parse_blif(text)
        from repro.network import simulate
        assert simulate(net, {"a": 1, "b": 1})["f"] == 1

    def test_undefined_signal_reported(self):
        text = """
.model bad
.inputs a
.outputs f
.names a ghost f
11 1
.end
"""
        with pytest.raises(ValueError, match="ghost"):
            parse_blif(text)

    def test_continuation_lines(self):
        text = ".model c\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n"
        net = parse_blif(text)
        assert net.inputs == ["a", "b"]

    def test_mixed_polarity_rejected(self):
        text = """
.model m
.inputs a b
.outputs f
.names a b f
11 1
00 0
.end
"""
        with pytest.raises(ValueError):
            parse_blif(text)

