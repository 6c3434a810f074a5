"""Tests for clique-partitioning don't-care assignment (Section 3.1)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, BddManager
from repro.decompose import assign_dontcares, clique_partition, compatibility_graph
from repro.decompose.compatible import Column
from repro.decompose.dontcare import _pack_columns


class TestCliquePartition:
    def test_complete_graph_one_clique(self):
        cliques = clique_partition(5, lambda i, j: True)
        assert len(cliques) == 1
        assert sorted(cliques[0]) == [0, 1, 2, 3, 4]

    def test_empty_graph_singletons(self):
        cliques = clique_partition(4, lambda i, j: False)
        assert len(cliques) == 4

    def test_two_components(self):
        edges = {(0, 1), (1, 2), (0, 2), (3, 4)}
        compat = lambda i, j: tuple(sorted((i, j))) in edges
        cliques = clique_partition(5, compat)
        assert sorted(map(sorted, cliques)) == [[0, 1, 2], [3, 4]]

    def test_each_vertex_exactly_once(self):
        rng = random.Random(5)
        n = 12
        edges = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        }
        cliques = clique_partition(n, lambda i, j: tuple(sorted((i, j))) in edges)
        flat = sorted(v for c in cliques for v in c)
        assert flat == list(range(n))

    def test_result_is_cliques(self):
        rng = random.Random(9)
        n = 10
        edges = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        }
        compat = lambda i, j: tuple(sorted((i, j))) in edges
        for clique in clique_partition(n, compat):
            for a in clique:
                for b in clique:
                    if a < b:
                        assert compat(a, b)

    def test_path_graph(self):
        # 0-1-2 path: cannot be one clique (0 and 2 not adjacent).
        cliques = clique_partition(3, lambda i, j: abs(i - j) == 1)
        assert len(cliques) == 2


class TestCompatibilityGraph:
    def test_specified_columns(self):
        m = BddManager(2)
        a = m.var_at_level(0)
        cols = [Column(a), Column(a), Column(m.apply_not(a))]
        adj = compatibility_graph(m, cols)
        assert 1 in adj[0]
        assert 2 not in adj[0]

    def test_fully_unspecified_compatible_with_all(self):
        m = BddManager(2)
        a = m.var_at_level(0)
        cols = [Column(a), Column(FALSE, TRUE), Column(m.apply_not(a))]
        adj = compatibility_graph(m, cols)
        assert adj[1] == {0, 2}


class TestAssignDontcares:
    def test_no_dc_identity(self):
        m = BddManager(3)
        a, b = m.var_at_level(0), m.var_at_level(1)
        cols = [Column(a), Column(b), Column(a)]
        class_of, functions = assign_dontcares(m, cols)
        assert class_of[0] == class_of[2] != class_of[1]
        assert len(functions) == 2

    def test_dc_columns_absorbed(self):
        m = BddManager(3)
        a = m.var_at_level(0)
        cols = [Column(a), Column(FALSE, TRUE), Column(m.apply_not(a))]
        class_of, functions = assign_dontcares(m, cols)
        assert len(functions) == 2  # the free column joins one of the two

    def test_merged_function_consistent(self):
        m = BddManager(3)
        a, b = m.var_at_level(0), m.var_at_level(1)
        # col0: on=a, dc=!a&b (off=!a&!b); col1: on=a&b dc=!b.
        col0 = Column(a, m.apply_and(m.apply_not(a), b))
        col1 = Column(m.apply_and(a, b), m.apply_not(b))
        class_of, functions = assign_dontcares(m, cols := [col0, col1])
        for position, col in enumerate(cols):
            fc = functions[class_of[position]]
            off = m.apply_diff(m.apply_not(fc.on), fc.dc)
            col_off = m.apply_diff(m.apply_not(col.on), col.dc)
            assert m.apply_and(col.on, off) == FALSE
            assert m.apply_and(col_off, fc.on) == FALSE

    def test_pairwise_but_not_jointly_compatible(self):
        # Three columns, pairwise compatible through don't cares, but not
        # all three mergeable: the greedy-verify split must handle it.
        m = BddManager(2)
        a, b = m.var_at_level(0), m.var_at_level(1)
        na, nb = m.apply_not(a), m.apply_not(b)
        # col0: ON at a&b, OFF at !a&!b, dc elsewhere.
        col0 = Column(m.apply_and(a, b), m.apply_xor(a, b))
        # col1: ON at !a&!b, OFF at a&b, dc elsewhere -> conflicts with col0.
        col1 = Column(m.apply_and(na, nb), m.apply_xor(a, b))
        # col2: fully unspecified, compatible with both.
        col2 = Column(FALSE, TRUE)
        class_of, functions = assign_dontcares(m, [col0, col1, col2])
        assert class_of[0] != class_of[1]
        assert len(functions) == 2


class TestPackColumns:
    def test_nodes_the_columns_share_convert_once(self):
        m = BddManager(6)
        x = [m.var_at_level(i) for i in range(6)]
        shared = m.apply_xor(
            m.apply_and(x[2], x[3]), m.apply_or(x[4], x[5])
        )
        columns = [
            Column(m.apply_and(x[0], shared), m.apply_and(x[1], x[5])),
            Column(m.apply_or(x[1], shared)),
            Column(m.apply_xor(x[0], shared), m.apply_and(x[1], x[4])),
        ]
        internal = set()
        stack = [f for col in columns for f in (col.on, col.dc)]
        while stack:
            node = stack.pop()
            if not m.is_terminal(node) and node not in internal:
                internal.add(node)
                stack += [m.low(node), m.high(node)]

        before = m.perf.fastpath_conversions
        packed_on, packed_off = _pack_columns(m, columns)
        assert m.perf.fastpath_conversions - before == len(internal)
        # One shared table packs each column as packing it alone does.
        levels = list(range(6))
        full = (1 << (1 << 6)) - 1
        for col, on, off in zip(columns, packed_on, packed_off):
            dc = m.to_truth_table(col.dc, levels[::-1])
            assert on == m.to_truth_table(col.on, levels[::-1])
            assert off == full & ~(on | dc)
