"""Tests for recursive decomposition into k-feasible networks."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BddManager
from repro.boolfunc import TruthTable
from repro.decompose import (
    DecompositionOptions,
    decompose_step,
    decompose_to_network,
)
from repro.network import Network, check_equivalence


def decompose_and_check(bits: int, n: int, k: int, policy: str = "chart") -> Network:
    m = BddManager(n)
    names = [f"i{j}" for j in range(n)]
    for j, name in enumerate(names):
        pass  # manager vars are anonymous; map levels to names below
    f = m.from_truth_table(bits, list(range(n)))

    net = Network("dec")
    for name in names:
        net.add_input(name)
    signal_of_level = {j: names[j] for j in range(n)}
    root = decompose_to_network(
        m, f, net, signal_of_level, DecompositionOptions(k=k, encoding_policy=policy)
    )
    net.add_output(root, "f")

    ref = Network("ref")
    for name in names:
        ref.add_input(name)
    ref.add_node("F", names, TruthTable(n, bits))
    ref.add_output("F", "f")
    assert check_equivalence(net, ref) is None
    for node in net.nodes():
        assert len(node.fanins) <= k
    return net


class TestRecursiveDecomposition:
    @given(st.integers(min_value=0, max_value=(1 << (1 << 7)) - 1))
    @settings(max_examples=8, deadline=None)
    def test_random_7_input_functions(self, bits):
        decompose_and_check(bits, 7, 5)

    def test_9sym(self, monkeypatch):
        import repro.decompose.recursive as recursive

        steps = []

        def recording_step(*args, **kwargs):
            steps.append(decompose_step(*args, **kwargs))
            return steps[-1]

        monkeypatch.setattr(recursive, "decompose_step", recording_step)
        bits = 0
        for idx in range(1 << 9):
            if bin(idx).count("1") in (3, 4, 5, 6):
                bits |= 1 << idx
        net = decompose_and_check(bits, 9, 5)
        # The paper maps 9sym into 6 LUTs; allow slack but catch blowups.
        assert net.num_nodes <= 10
        # Every step the recursion keeps shrinks the support: fewer α
        # functions than bound variables (the others are Shannon splits).
        assert steps
        for step in steps:
            assert len(step.alpha_tables) < len(step.bound_levels)

    def test_parity_12(self):
        bits = 0
        for idx in range(1 << 12):
            if bin(idx).count("1") % 2:
                bits |= 1 << idx
        net = decompose_and_check(bits, 12, 5)
        # Parity decomposes into an XOR tree: ceil(11/4) = 3 LUTs suffice.
        assert net.num_nodes <= 4

    def test_constants(self):
        m = BddManager(3)
        net = Network("c")
        net.add_input("a")
        signal_of_level = {0: "a"}
        from repro.bdd import TRUE
        root = decompose_to_network(
            m, TRUE, net, signal_of_level, DecompositionOptions(k=5)
        )
        net.add_output(root, "f")
        from repro.network import simulate
        assert simulate(net, {"a": 0})["f"] == 1

    def test_buffer_returns_input_signal(self):
        m = BddManager(2)
        net = Network("b")
        net.add_input("a")
        net.add_input("b")
        root = decompose_to_network(
            m, m.var_at_level(1), net, {0: "a", 1: "b"},
            DecompositionOptions(k=5),
        )
        assert root == "b"
        assert net.num_nodes == 0

    def test_random_policy_also_correct(self):
        bits = random.Random(2).getrandbits(1 << 7)
        decompose_and_check(bits, 7, 5, policy="random")

    def test_k4(self):
        bits = random.Random(3).getrandbits(1 << 7)
        decompose_and_check(bits, 7, 4)


def random_sop(seed: int, width: int, cubes: int):
    """A manager and a random sum of products over ``width`` variables."""
    from repro.bdd import FALSE, build_cube

    rng = random.Random(seed)
    m = BddManager(width)
    f = FALSE
    for _ in range(cubes):
        levels = rng.sample(range(width), rng.randint(2, 5))
        f = m.apply_or(f, build_cube(m, {lv: rng.randint(0, 1) for lv in levels}))
    return m, f


class TestShannonRanking:
    @pytest.mark.parametrize("seed", range(5))
    def test_wide_ranking_matches_the_unscoped_one(self, seed):
        from repro.decompose.recursive import _shannon_variable

        m, f = random_sop(seed, 24, 20)
        support = m.support(f)
        assert len(support) > 20
        nodes, allocated = m.num_nodes, m.perf.nodes_allocated
        chosen = _shannon_variable(m, f, support)
        # Each variable was measured in its own scope: nothing is kept.
        assert m.num_nodes == nodes and m.perf.nodes_allocated > allocated
        ref, g = random_sop(seed, 24, 20)
        assert chosen == min(
            support,
            key=lambda lv: ref.size(ref.cofactor(g, lv, 0))
            + ref.size(ref.cofactor(g, lv, 1)),
        )

    def test_narrow_ranking_keeps_its_cofactors(self):
        from repro.decompose.recursive import _shannon_variable

        m, f = random_sop(0, 12, 10)
        nodes = m.num_nodes
        _shannon_variable(m, f, m.support(f))
        assert m.num_nodes > nodes
