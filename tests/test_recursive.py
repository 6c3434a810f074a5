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


def sop_draft(seed: int):
    """A manager and a draft image whose α levels sit at the bottom of
    the order: 6-9 random sums of products over 14 variables, encoded
    canonically, as the encoder's Step 1 builds it."""
    from repro.bdd import FALSE, build_cube
    from repro.decompose import Column, build_image_function, canonical_codes
    from repro.decompose.varpart import alpha_count

    rng = random.Random(seed)
    width = 14
    m = BddManager(width)
    functions = []
    for _ in range(rng.randint(6, 9)):
        f = FALSE
        for _ in range(8):
            levels = rng.sample(range(width), rng.randint(2, 5))
            cube = build_cube(m, {lv: rng.randint(0, 1) for lv in levels})
            f = m.apply_or(f, cube)
        functions.append(Column(f, FALSE))
    t = alpha_count(len(functions))
    alpha_levels = [width + a for a in range(t)]
    for _ in alpha_levels:
        m.add_var()
    codes = canonical_codes(len(functions), t)
    return m, build_image_function(m, alpha_levels, codes, functions).on


class TestShannonRanking:
    """The ranking counts every split exactly, builds nothing, and
    picks the first minimum in support order, at every width."""

    @staticmethod
    def check(build):
        from repro.decompose.recursive import _shannon_variable

        m, f = build()
        support = m.support(f)
        before = (m.num_nodes, m.perf.nodes_allocated, m.perf.cofactor_calls)
        sizes = m.split_sizes(f, support)
        chosen = _shannon_variable(m, f, support)
        assert (
            m.num_nodes, m.perf.nodes_allocated, m.perf.cofactor_calls
        ) == before
        ref, g = build()
        expected = [
            ref.size(ref.cofactor(g, lv, 0)) + ref.size(ref.cofactor(g, lv, 1))
            for lv in support
        ]
        assert sizes == expected
        assert chosen == min(support, key=dict(zip(support, expected)).get)
        return support

    @pytest.mark.parametrize("seed", range(5))
    def test_wide_ranking_matches_the_unscoped_one(self, seed):
        assert len(self.check(lambda: random_sop(seed, 24, 20))) > 20

    @pytest.mark.parametrize("width", [10, 14, 18, 20, 21, 24])
    def test_counts_equal_the_reference_sizes(self, width):
        self.check(lambda: random_sop(width, width, width))

    @pytest.mark.parametrize("seed", range(3))
    def test_draft_image_with_alpha_levels_at_the_bottom(self, seed):
        support = self.check(lambda: sop_draft(seed))
        assert max(support) >= 14  # an α level splits the image
