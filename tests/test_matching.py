"""Tests for the matching substrate."""

from __future__ import annotations

import random

import pytest

from repro.decompose import (
    WeightedEdge,
    greedy_matching,
    max_weight_b_matching,
    max_weight_matching,
)
from repro.decompose.matching import maximum_matching


def is_matching(edges):
    used = set()
    for e in edges:
        if e.u in used or e.v in used:
            return False
        used.add(e.u)
        used.add(e.v)
    return True


class TestMaxWeightMatching:
    def test_simple_triangle(self):
        edges = [
            WeightedEdge("a", "b", 3),
            WeightedEdge("b", "c", 2),
            WeightedEdge("a", "c", 1),
        ]
        matched = max_weight_matching(edges)
        assert is_matching(matched)
        assert sum(e.weight for e in matched) == 3

    def test_prefers_total_weight_over_single_edge(self):
        edges = [
            WeightedEdge("a", "b", 5),
            WeightedEdge("a", "c", 3),
            WeightedEdge("b", "d", 3),
        ]
        matched = max_weight_matching(edges)
        assert sum(e.weight for e in matched) == 6

    def test_maxcardinality(self):
        edges = [
            WeightedEdge("a", "b", 10),
            WeightedEdge("c", "d", -1),
        ]
        plain = max_weight_matching(edges)
        full = max_weight_matching(edges, maxcardinality=True)
        assert len(plain) == 1
        assert len(full) == 2

    def test_empty(self):
        assert max_weight_matching([]) == []

    def test_parallel_edges_keep_best(self):
        edges = [WeightedEdge("a", "b", 1), WeightedEdge("a", "b", 7)]
        matched = max_weight_matching(edges)
        assert len(matched) == 1 and matched[0].weight == 7


def random_edges(rng, n, kind):
    """Random edge list on ``n`` vertices, repeats and self-loops allowed."""
    weight = {
        "int": lambda: rng.randint(0, 30),
        "negative": lambda: rng.randint(-15, 15),
        "float": lambda: round(rng.uniform(-2.0, 12.0), 3),
        "ties": lambda: rng.randint(1, 3),
    }[kind]
    density = rng.random()
    return [
        WeightedEdge(f"v{rng.randrange(n)}", f"v{rng.randrange(n)}", weight())
        for _ in range(rng.randint(0, n * n))
        if rng.random() < density
    ]


def best_by_brute_force(edges, maxcardinality):
    """(cardinality, weight) of the best matching, by enumeration: the
    weight maximum, or with ``maxcardinality`` the heaviest among the
    largest matchings."""
    best = {}
    for e in edges:
        if e.u != e.v:
            key = frozenset((e.u, e.v))
            best[key] = max(best.get(key, e.weight), e.weight)
    pairs = list(best.items())

    def search(i, used):
        if i == len(pairs):
            return (0, 0)
        options = [search(i + 1, used)]
        pair, weight = pairs[i]
        if not pair & used:
            size, total = search(i + 1, used | pair)
            options.append((size + 1, total + weight))
        if maxcardinality:
            return max(options)
        return max(options, key=lambda o: o[1])

    return search(0, frozenset())


class TestBlossomAgainstBruteForce:
    def test_optimum_on_small_graphs(self):
        rng = random.Random(12)
        for trial in range(200):
            kind = rng.choice(["int", "negative", "ties"])
            edges = random_edges(rng, rng.randint(1, 8), kind)
            for maxcardinality in (False, True):
                matched = max_weight_matching(edges, maxcardinality)
                assert is_matching(matched)
                assert all(e.u != e.v for e in matched)
                size, total = best_by_brute_force(edges, maxcardinality)
                assert sum(e.weight for e in matched) == total, trial
                if maxcardinality:
                    assert len(matched) == size, trial

    def test_maximum_matching_cardinality(self):
        rng = random.Random(5)
        for trial in range(100):
            n = rng.randint(1, 8)
            vertices = [f"v{i}" for i in range(n)]
            edges = [
                (a, b)
                for i, a in enumerate(vertices)
                for b in vertices[i + 1:]
                if rng.random() < 0.4
            ]
            pairs = maximum_matching(vertices, edges)
            assert len({v for p in pairs for v in p}) == 2 * len(pairs)
            assert all((u, v) in edges or (v, u) in edges for u, v in pairs)
            unit = [WeightedEdge(a, b, 1) for a, b in edges]
            assert len(pairs) == best_by_brute_force(unit, True)[0], trial

    def test_result_order_is_sorted(self):
        edges = [
            WeightedEdge(("row", 10), ("row", 11), 1.0),
            WeightedEdge(("row", 2), ("row", 3), 1.0),
        ]
        matched = max_weight_matching(edges, maxcardinality=True)
        assert [e.u for e in matched] == [("row", 10), ("row", 2)]


class TestBlossomAgainstNetworkx:
    """The solver is a port of NetworkX's: same pairs, ties included."""

    def test_weighted_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(1998)
        for trial in range(320):
            kind = ("int", "negative", "float", "ties")[trial % 4]
            edges = random_edges(rng, rng.randint(1, 16), kind)
            graph = nx.Graph()
            for e in edges:
                if graph.has_edge(e.u, e.v):
                    if graph[e.u][e.v]["weight"] >= e.weight:
                        continue
                graph.add_edge(e.u, e.v, weight=e.weight)
            for maxcardinality in (False, True):
                want = nx.max_weight_matching(graph, maxcardinality)
                got = max_weight_matching(edges, maxcardinality)
                assert {frozenset((e.u, e.v)) for e in got} == {
                    frozenset(p) for p in want
                }, (trial, kind, maxcardinality)

    def test_clb_style_unweighted_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(3000)
        for trial in range(100):
            n = rng.randint(1, 24)
            vertices = [f"n{i}" for i in rng.sample(range(100), n)]
            density = rng.random()
            edges = [
                (a, b)
                for i, a in enumerate(vertices)
                for b in vertices[i + 1:]
                if rng.random() < density
            ]
            graph = nx.Graph()
            graph.add_nodes_from(vertices)
            graph.add_edges_from(edges)
            want = nx.max_weight_matching(graph, maxcardinality=True)
            got = maximum_matching(vertices, edges)
            assert {frozenset(p) for p in got} == {
                frozenset(p) for p in want
            }, trial


class TestGreedyMatching:
    def test_is_matching(self):
        rng = random.Random(11)
        edges = [
            WeightedEdge(f"v{i}", f"v{j}", rng.randint(1, 20))
            for i in range(8)
            for j in range(i + 1, 8)
        ]
        assert is_matching(greedy_matching(edges))

    def test_half_approximation(self):
        rng = random.Random(3)
        for trial in range(10):
            edges = [
                WeightedEdge(f"v{i}", f"v{j}", rng.randint(1, 50))
                for i in range(6)
                for j in range(i + 1, 6)
                if rng.random() < 0.7
            ]
            if not edges:
                continue
            greedy = sum(e.weight for e in greedy_matching(edges))
            optimal = sum(e.weight for e in max_weight_matching(edges))
            assert greedy * 2 >= optimal


class TestBMatching:
    def test_capacity_respected(self):
        edges = [WeightedEdge(f"p{i}", "hub", 1) for i in range(5)]
        matched = max_weight_b_matching(edges, {"hub": 3})
        hub_degree = sum(1 for e in matched if "hub" in (e.u, e.v))
        assert hub_degree == 3

    def test_unit_capacity_equals_matching(self):
        edges = [
            WeightedEdge("a", "b", 4),
            WeightedEdge("b", "c", 5),
            WeightedEdge("c", "d", 4),
        ]
        matched = max_weight_b_matching(edges, {})
        assert sum(e.weight for e in matched) == 8

    def test_single_edge_both_capacities_two_not_duplicated(self):
        # Regression: with capacity >= 2 on both endpoints the cloned
        # graph holds vertex-disjoint copies (u0,v0) and (u1,v1) of the
        # one original edge, and the blossom matching happily takes both.
        # Folding back must not report the edge twice.
        edges = [WeightedEdge("u", "v", 10)]
        matched = max_weight_b_matching(edges, {"u": 2, "v": 2})
        assert len(matched) == 1
        assert matched[0].weight == 10
        assert {matched[0].u, matched[0].v} == {"u", "v"}

    def test_result_is_deterministic(self):
        edges = [
            WeightedEdge("a", "x", 3),
            WeightedEdge("b", "x", 2),
            WeightedEdge("a", "y", 1),
        ]
        runs = [
            max_weight_b_matching(edges, {"x": 2, "a": 2}) for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_property_capacities_and_multiplicity(self):
        # On random graphs with random capacities, the fold-back must
        # honour (a) each original edge at most once and (b) each vertex's
        # capacity.  Capacities >= 2 on both endpoints are common here,
        # which is exactly the regime the duplicate-fold-back bug lived in.
        from collections import Counter

        rng = random.Random(1998)
        for trial in range(25):
            n = rng.randint(2, 7)
            vertices = [f"v{i}" for i in range(n)]
            edges = [
                WeightedEdge(vertices[i], vertices[j], rng.randint(1, 9))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.6
            ]
            if not edges:
                continue
            capacity = {
                v: rng.randint(1, 3) for v in vertices if rng.random() < 0.7
            }
            matched = max_weight_b_matching(edges, capacity)
            pair_count = Counter(
                tuple(sorted((e.u, e.v))) for e in matched
            )
            assert all(c == 1 for c in pair_count.values()), (
                f"trial {trial}: edge matched twice: {pair_count}"
            )
            degree = Counter()
            for e in matched:
                degree[e.u] += 1
                degree[e.v] += 1
            for v, d in degree.items():
                assert d <= capacity.get(v, 1), (
                    f"trial {trial}: {v} degree {d} exceeds capacity"
                )

    def test_paper_figure5_weight(self):
        # The Figure-5 column graph of Example 3.2: u13 (weight-7 edges to
        # 5 partitions, capacity 4), u03 (weight 4, 2 partitions), u02
        # (weight 4, 2 partitions).  Any optimum has total weight 40.
        edges = []
        cap = {}
        for name, weight, members in [
            ("u13", 7, ["p3", "p4", "p6", "p7", "p8"]),
            ("u03", 4, ["p2", "p7"]),
            ("u02", 4, ["p5", "p8"]),
        ]:
            cap[name] = 4
            for p in members:
                edges.append(WeightedEdge(p, name, weight))
        matched = max_weight_b_matching(edges, cap)
        assert sum(e.weight for e in matched) == 40
        # Each partition vertex used at most once.
        from collections import Counter
        counts = Counter()
        for e in matched:
            for end in (e.u, e.v):
                if str(end).startswith("p"):
                    counts[end] += 1
        assert all(c == 1 for c in counts.values())
