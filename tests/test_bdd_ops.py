"""Tests for derived BDD operations and export."""

from __future__ import annotations

from repro.bdd import (
    FALSE,
    TRUE,
    BddManager,
    conjoin,
    count_distinct_cofactors,
    cube_of_levels,
    disjoin,
    implies,
    is_contradiction,
    is_tautology,
    minterm,
    swap_rename,
)
from repro.bdd.io import format_cubes, to_cubes, to_dot

class TestDerivedOps:
    def test_conjoin_disjoin_empty(self):
        m = BddManager(2)
        assert conjoin(m, []) == TRUE
        assert disjoin(m, []) == FALSE

    def test_conjoin_chain(self):
        m = BddManager(3)
        literals = [m.var_at_level(i) for i in range(3)]
        f = conjoin(m, literals)
        assert m.sat_count(f, 3) == 1

    def test_disjoin_short_circuit(self):
        m = BddManager(2)
        assert disjoin(m, [TRUE, m.var_at_level(0)]) == TRUE

    def test_minterm_lsb_first(self):
        m = BddManager(3)
        f = minterm(m, [0, 1, 2], 0b101)  # level0=1, level1=0, level2=1
        assert m.eval(f, {0: 1, 1: 0, 2: 1}) == 1
        assert m.sat_count(f, 3) == 1

    def test_cube_of_levels(self):
        m = BddManager(4)
        f = cube_of_levels(m, [1, 3])
        assert m.support(f) == [1, 3]
        assert m.sat_count(f, 4) == 4

    def test_predicates(self):
        m = BddManager(2)
        a = m.var_at_level(0)
        assert is_tautology(m.apply_or(a, m.apply_not(a)))
        assert is_contradiction(m.apply_and(a, m.apply_not(a)))
        assert implies(m, m.apply_and(a, m.var_at_level(1)), a)
        assert not implies(m, a, m.var_at_level(1))

    def test_swap_rename(self):
        m = BddManager(3)
        a, c = m.var_at_level(0), m.var_at_level(2)
        f = m.apply_and(a, m.apply_not(c))
        g = swap_rename(m, f, {0: 2, 2: 0})
        assert g == m.apply_and(c, m.apply_not(a))

    def test_count_distinct_cofactors_parity(self):
        # Parity has exactly 2 distinct cofactors for any bound set.
        m = BddManager(6)
        f = FALSE
        parity = m.var_at_level(0)
        for lv in range(1, 6):
            parity = m.apply_xor(parity, m.var_at_level(lv))
        for bound in ([0, 1], [2, 3, 4], [0, 5]):
            assert count_distinct_cofactors(m, parity, bound) == 2


class TestIo:
    def test_to_dot_mentions_vars(self):
        m = BddManager(0)
        m.add_var("sel")
        m.add_var("data")
        f = m.apply_and(m.var("sel"), m.var("data"))
        dot = to_dot(m, f)
        assert "sel" in dot and "data" in dot and "digraph" in dot

    def test_format_cubes(self):
        m = BddManager(0)
        m.add_var("a")
        m.add_var("b")
        assert format_cubes(m, TRUE) == "1"
        assert format_cubes(m, FALSE) == "0"
        text = format_cubes(m, m.apply_diff(m.var("a"), m.var("b")))
        assert "a" in text and "!b" in text

    def test_to_cubes_disjoint_cover(self):
        m = BddManager(3)
        f = m.apply_or(m.var_at_level(0), m.var_at_level(1))
        cubes = to_cubes(m, f)
        total = sum(1 << (3 - len(c)) for c in cubes)
        assert total == m.sat_count(f, 3)
