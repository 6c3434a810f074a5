"""Unit and property tests for the core ROBDD manager."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, BddBudgetExceeded, BddManager, build_cube

N_VARS = 4
TABLE_BITS = st.integers(min_value=0, max_value=(1 << (1 << N_VARS)) - 1)


def eval_mask(mask: int, assignment_bits: int) -> int:
    return (mask >> assignment_bits) & 1


def all_assignments(n: int):
    for bits in range(1 << n):
        yield bits, {lv: (bits >> lv) & 1 for lv in range(n)}


class TestConstruction:
    def test_terminals(self):
        m = BddManager(2)
        assert m.is_terminal(FALSE) and m.is_terminal(TRUE)
        assert not m.is_terminal(m.var_at_level(0))

    def test_var_literals(self):
        m = BddManager(3)
        a = m.var_at_level(0)
        for bits, assignment in all_assignments(3):
            assert m.eval(a, assignment) == assignment[0]

    def test_negative_literal(self):
        m = BddManager(2)
        na = m.nvar_at_level(0)
        assert m.eval(na, {0: 0, 1: 0}) == 1
        assert m.eval(na, {0: 1, 1: 0}) == 0

    def test_named_vars(self):
        m = BddManager()
        m.add_var("alpha")
        m.add_var("beta")
        assert m.level_of("beta") == 1
        assert m.name_of(0) == "alpha"
        assert m.var("alpha") == m.var_at_level(0)

    def test_duplicate_name_rejected(self):
        m = BddManager()
        m.add_var("x")
        with pytest.raises(ValueError):
            m.add_var("x")

    def test_hash_consing(self):
        m = BddManager(3)
        f1 = m.apply_and(m.var_at_level(0), m.var_at_level(1))
        f2 = m.apply_and(m.var_at_level(1), m.var_at_level(0))
        assert f1 == f2

    def test_reduction_rule(self):
        # mk(v, t, t) must not create a node.
        m = BddManager(2)
        f = m.ite(m.var_at_level(0), TRUE, TRUE)
        assert f == TRUE

    def test_nodes_allocated_counts_fresh_nodes_only(self):
        m = BddManager(4)
        assert m.perf.nodes_allocated == m.num_nodes - 2 == 4
        a, b, c = (m.var_at_level(i) for i in range(3))
        f = m.apply_or(m.apply_and(a, b), m.apply_xor(b, c))
        m.exists(f, [1])
        assert m.perf.nodes_allocated == m.num_nodes - 2
        # Rebuilding existing nodes only hits the unique table.
        before = m.perf.nodes_allocated
        m.clear_caches()
        m.apply_or(m.apply_and(a, b), m.apply_xor(b, c))
        assert m.perf.nodes_allocated == before


class TestBooleanOps:
    @given(TABLE_BITS, TABLE_BITS)
    @settings(max_examples=60, deadline=None)
    def test_binary_ops_match_masks(self, bits_f, bits_g):
        m = BddManager(N_VARS)
        levels = list(range(N_VARS))
        f = m.from_truth_table(bits_f, levels)
        g = m.from_truth_table(bits_g, levels)
        full = (1 << (1 << N_VARS)) - 1
        assert m.to_truth_table(m.apply_and(f, g), levels) == bits_f & bits_g
        assert m.to_truth_table(m.apply_or(f, g), levels) == bits_f | bits_g
        assert m.to_truth_table(m.apply_xor(f, g), levels) == bits_f ^ bits_g
        assert m.to_truth_table(m.apply_not(f), levels) == bits_f ^ full

    @given(TABLE_BITS)
    @settings(max_examples=40, deadline=None)
    def test_double_negation(self, bits):
        m = BddManager(N_VARS)
        f = m.from_truth_table(bits, list(range(N_VARS)))
        assert m.apply_not(m.apply_not(f)) == f

    @given(TABLE_BITS, TABLE_BITS, TABLE_BITS)
    @settings(max_examples=40, deadline=None)
    def test_ite_semantics(self, bf, bg, bh):
        m = BddManager(N_VARS)
        levels = list(range(N_VARS))
        f = m.from_truth_table(bf, levels)
        g = m.from_truth_table(bg, levels)
        h = m.from_truth_table(bh, levels)
        expected = (bf & bg) | (~bf & bh) & ((1 << (1 << N_VARS)) - 1)
        expected = (bf & bg) | ((bf ^ ((1 << (1 << N_VARS)) - 1)) & bh)
        assert m.to_truth_table(m.ite(f, g, h), levels) == expected

    def test_implies_and_diff(self):
        m = BddManager(2)
        a, b = m.var_at_level(0), m.var_at_level(1)
        assert m.apply_implies(m.apply_and(a, b), a) == TRUE
        assert m.apply_diff(a, a) == FALSE

    def test_xnor(self):
        m = BddManager(2)
        a, b = m.var_at_level(0), m.var_at_level(1)
        f = m.apply_xnor(a, b)
        assert m.eval(f, {0: 1, 1: 1}) == 1
        assert m.eval(f, {0: 1, 1: 0}) == 0


class TestCofactorsAndQuantifiers:
    @given(TABLE_BITS, st.integers(min_value=0, max_value=N_VARS - 1),
           st.integers(min_value=0, max_value=1))
    @settings(max_examples=40, deadline=None)
    def test_restrict_semantics(self, bits, level, value):
        m = BddManager(N_VARS)
        levels = list(range(N_VARS))
        f = m.from_truth_table(bits, levels)
        r = m.restrict(f, {level: value})
        for abits, assignment in all_assignments(N_VARS):
            fixed = dict(assignment)
            fixed[level] = value
            fixed_bits = sum(v << lv for lv, v in fixed.items())
            assert m.eval(r, assignment) == eval_mask(bits, fixed_bits)

    @given(TABLE_BITS, st.sets(st.integers(0, N_VARS - 1), max_size=N_VARS))
    @settings(max_examples=40, deadline=None)
    def test_exists_forall(self, bits, qlevels):
        m = BddManager(N_VARS)
        levels = list(range(N_VARS))
        f = m.from_truth_table(bits, levels)
        ex = m.exists(f, qlevels)
        fa = m.forall(f, qlevels)
        free = [lv for lv in levels if lv not in qlevels]
        for _, assignment in all_assignments(N_VARS):
            sub_values = []
            for qbits in range(1 << len(qlevels)):
                full = dict(assignment)
                for j, lv in enumerate(sorted(qlevels)):
                    full[lv] = (qbits >> j) & 1
                full_bits = sum(v << lv for lv, v in full.items())
                sub_values.append(eval_mask(bits, full_bits))
            assert m.eval(ex, assignment) == (1 if any(sub_values) else 0)
            assert m.eval(fa, assignment) == (1 if all(sub_values) else 0)

    def test_compose(self):
        m = BddManager(3)
        a, b, c = (m.var_at_level(i) for i in range(3))
        f = m.apply_or(a, b)  # a | b
        g = m.compose(f, 1, m.apply_and(a, c))  # a | (a & c) == a
        assert g == a

    @given(TABLE_BITS, TABLE_BITS)
    @settings(max_examples=30, deadline=None)
    def test_vector_compose_identity(self, bits, sub_bits):
        m = BddManager(N_VARS)
        levels = list(range(N_VARS))
        f = m.from_truth_table(bits, levels)
        identity = {lv: m.var_at_level(lv) for lv in levels}
        assert m.vector_compose(f, identity) == f

    def test_vector_compose_swap(self):
        m = BddManager(2)
        a, b = m.var_at_level(0), m.var_at_level(1)
        f = m.apply_diff(a, b)  # a & !b
        swapped = m.vector_compose(f, {0: b, 1: a})
        assert swapped == m.apply_diff(b, a)


class TestAnalysis:
    @given(TABLE_BITS)
    @settings(max_examples=40, deadline=None)
    def test_sat_count(self, bits):
        m = BddManager(N_VARS)
        f = m.from_truth_table(bits, list(range(N_VARS)))
        assert m.sat_count(f, N_VARS) == bin(bits).count("1")

    @given(TABLE_BITS)
    @settings(max_examples=30, deadline=None)
    def test_sat_iter_covers_on_set(self, bits):
        m = BddManager(N_VARS)
        f = m.from_truth_table(bits, list(range(N_VARS)))
        covered = set()
        for cube in m.sat_iter(f):
            free = [lv for lv in range(N_VARS) if lv not in cube]
            for fill in range(1 << len(free)):
                full = dict(cube)
                for j, lv in enumerate(free):
                    full[lv] = (fill >> j) & 1
                covered.add(sum(v << lv for lv, v in full.items()))
        expected = {i for i in range(1 << N_VARS) if (bits >> i) & 1}
        assert covered == expected

    def test_support(self):
        m = BddManager(4)
        f = m.apply_and(m.var_at_level(1), m.var_at_level(3))
        assert m.support(f) == [1, 3]
        assert m.support(TRUE) == []

    def test_size(self):
        m = BddManager(3)
        assert m.size(TRUE) == 0
        chain = m.apply_and(
            m.apply_and(m.var_at_level(0), m.var_at_level(1)), m.var_at_level(2)
        )
        assert m.size(chain) == 3

    def test_pick_one(self):
        m = BddManager(2)
        assert m.pick_one(FALSE) is None
        cube = m.pick_one(m.apply_and(m.var_at_level(0), m.var_at_level(1)))
        assert cube == {0: 1, 1: 1}


class TestTruthTableBridge:
    @given(TABLE_BITS)
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, bits):
        m = BddManager(N_VARS)
        levels = list(range(N_VARS))
        f = m.from_truth_table(bits, levels)
        assert m.to_truth_table(f, levels) == bits

    def test_to_truth_table_rejects_extra_support(self):
        m = BddManager(3)
        f = m.var_at_level(2)
        with pytest.raises(ValueError):
            m.to_truth_table(f, [0, 1])

    def test_level_permutation(self):
        m = BddManager(2)
        # bits over [levels[0]=1, levels[1]=0]: index bit0 -> level 1.
        f = m.from_truth_table(0b0010, [1, 0])  # on minterm index 1: level1=1
        assert m.eval(f, {0: 0, 1: 1}) == 1
        assert m.eval(f, {0: 1, 1: 0}) == 0


class TestCofactorEnumerate:
    @given(TABLE_BITS)
    @settings(max_examples=40, deadline=None)
    def test_matches_restrict(self, bits):
        m = BddManager(N_VARS)
        levels = list(range(N_VARS))
        f = m.from_truth_table(bits, levels)
        cofs = m.cofactor_enumerate(f, [0, 2])
        for index in range(4):
            expected = m.restrict(f, {0: index & 1, 2: (index >> 1) & 1})
            assert cofs[index] == expected


def test_build_cube():
    m = BddManager(3)
    cube = build_cube(m, {0: 1, 2: 0})
    assert m.eval(cube, {0: 1, 1: 0, 2: 0}) == 1
    assert m.eval(cube, {0: 1, 1: 1, 2: 1}) == 0
    assert build_cube(m, {}) == TRUE


class TestCompact:
    """Compaction keeps the functions its roots reach, renumbered."""

    @given(st.lists(TABLE_BITS, min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_functions_survive_with_new_ids(self, tables):
        m = BddManager(N_VARS)
        levels = list(range(N_VARS))
        kept, dropped, _ = (m.from_truth_table(t, levels) for t in tables)
        m.apply_xor(kept, dropped)  # more garbage
        allocated = m.perf.nodes_allocated
        remap = m.compact([kept])
        assert remap[FALSE] == FALSE and remap[TRUE] == TRUE
        new = remap[kept]
        assert m.to_truth_table(new, levels) == tables[0]
        assert m.num_nodes == 2 + m.size(new)
        # The unique table holds exactly the survivors: rebuilding the
        # kept function allocates nothing and returns its new id.
        assert m.from_truth_table(tables[0], levels) == new
        assert m.perf.nodes_allocated == allocated
        # Rebuilding a dropped function is correct (fresh nodes).
        again = m.from_truth_table(tables[1], levels)
        assert m.to_truth_table(again, levels) == tables[1]

    def test_remaking_a_survivor_returns_its_id(self):
        m = BddManager(N_VARS)
        f = m.from_truth_table(0b0110_1001_1100_0011, range(N_VARS))
        g = m.apply_or(m.var_at_level(0), m.var_at_level(3))
        cofactors = [m.cofactor(f, 2, value) for value in (0, 1)]
        remap = m.compact([f, m.apply_and(f, g)] + cofactors)
        nodes, allocated = m.num_nodes, m.perf.nodes_allocated
        for node in range(2, nodes):
            assert m._mk(m.level(node), m.low(node), m.high(node)) == node
        # The cofactor kernel probes the same table before allocating
        # (compaction dropped its memo, so the probes really run).
        assert [m.cofactor(remap[f], 2, value) for value in (0, 1)] == [
            remap[c] for c in cofactors
        ]
        assert (m.num_nodes, m.perf.nodes_allocated) == (nodes, allocated)

    def test_no_node_id_past_the_key_bound(self, monkeypatch):
        import repro.bdd.manager as manager_module

        m = BddManager(N_VARS)
        monkeypatch.setattr(manager_module, "_MAX_ID", m.num_nodes)
        m.var_at_level(0)  # existing ids stay reachable
        m.nvar_at_level(0)  # takes the last id
        with pytest.raises(BddBudgetExceeded):
            m.nvar_at_level(1)

    def test_survivors_keep_allocation_order_and_drop_memos(self):
        m = BddManager(N_VARS)
        f = m.apply_and(m.var_at_level(0), m.var_at_level(3))
        g = m.apply_or(m.var_at_level(1), m.var_at_level(2))
        h = m.apply_xor(f, g)
        m.cofactor(h, 1, 1)
        tables = [m.to_truth_table(x, range(N_VARS)) for x in (g, h)]
        remap = m.compact([g, h])
        assert sorted(remap, key=remap.get) == sorted(remap)
        assert all(
            c < n and (m.is_terminal(c) or m.level(c) > m.level(n))
            for n in range(2, m.num_nodes)
            for c in (m.low(n), m.high(n))
        )
        assert m.stats()["apply_cache"] == m.stats()["cofactor_cache"] == 0
        assert [
            m.to_truth_table(remap[x], range(N_VARS)) for x in (g, h)
        ] == tables

    def test_node_budget_counts_dropped_nodes(self):
        m = BddManager(8)
        f = FALSE
        for lv in range(8):
            f = m.apply_xor(f, m.var_at_level(lv))
        before = m.num_nodes
        m.set_budget(max_nodes=before + 4)
        m.compact([])
        assert m.num_nodes == 2  # live count fell far below the budget
        m.check_budget()
        m.var_at_level(0)
        m.var_at_level(1)
        with pytest.raises(BddBudgetExceeded) as info:
            for lv in range(2, 8):
                m.var_at_level(lv)
        assert info.value.used == before + 5


def manager_state(m: BddManager):
    """Everything a scratch scope must restore, as plain values."""
    return {
        "nodes": (m.num_nodes, list(m._var), list(m._lo), list(m._hi)),
        "unique": dict(m._unique),
        "apply": dict(m._apply_cache),
        "not": dict(m._not_cache),
        "ite": dict(m._ite_cache),
        "cofactor": {k: dict(v) for k, v in m._cofactor_memos.items()},
        "packed": (
            None
            if m._fastpath is None
            else {k: dict(v) for k, v in m._fastpath.items()}
        ),
        "class_counts": dict(m._class_counts),
    }


class TestScratch:
    """A scratch scope drops every node and memo entry it added."""

    @staticmethod
    def busy_manager():
        from repro.decompose import select_bound_set

        m = BddManager(8)
        levels = list(range(6))
        f = m.from_truth_table(0x6996_A5C3_0FF0_9A5E, levels)
        g = m.apply_and(f, m.apply_not(m.var_at_level(6)))
        m.ite(m.var_at_level(7), f, g)
        m.cofactor(g, 3, 1)
        select_bound_set(m, f, levels, 3, fast_path="bdd")
        select_bound_set(m, g, levels + [6], 3)  # packed tables
        assert m._fastpath and m._class_counts
        return m, f, g

    def test_exit_restores_every_table_but_old_roots_counts(self):
        from repro.decompose import count_classes, select_bound_set

        m, f, g = self.busy_manager()
        before = manager_state(m)
        with m.scratch():
            h = m.apply_xor(f, m.var_at_level(7))
            table = m.to_truth_table(h, list(range(8)))
            m.ite(m.var_at_level(6), h, m.apply_not(g))
            m.cofactor(h, 2, 0)
            m.cofactor(f, 5, 1)  # old root, new memo entry
            # Counts keyed by an old root survive, by a new root do not.
            old = select_bound_set(m, g, list(range(7)), 2, fast_path="bdd")
            select_bound_set(m, h, list(range(8)), 3, fast_path="bdd")
            select_bound_set(m, h, list(range(8)), 3)  # new packed tables
            assert m.num_nodes > before["nodes"][0]
        after = manager_state(m)
        survivors = after.pop("class_counts")
        expected = before.pop("class_counts")
        assert after == before
        added = {k: v for k, v in survivors.items() if k not in expected}
        assert added and all(k[:2] == (g, FALSE) for k in added)
        assert {k: survivors[k] for k in expected} == expected
        # The surviving counts are right, and the search still finds them.
        for (_, _, bound), count in added.items():
            assert count == count_classes(
                m, g, list(bound), use_dontcares=False, fast_path="bdd"
            )
        assert select_bound_set(
            m, g, list(range(7)), 2, fast_path="bdd"
        ) == old
        # A function rebuilt after exit is the one built inside.
        again = m.apply_xor(f, m.var_at_level(7))
        assert m.to_truth_table(again, list(range(8))) == table

    def test_exception_inside_still_drops(self):
        m, f, _ = self.busy_manager()
        before = manager_state(m)
        with pytest.raises(KeyError):
            with m.scratch():
                m.apply_or(f, m.var_at_level(7))
                raise KeyError("boom")
        assert manager_state(m) == before

    def test_nesting(self):
        m, f, _ = self.busy_manager()
        before = manager_state(m)
        with m.scratch():
            outer = m.apply_or(f, m.var_at_level(7))
            inside = manager_state(m)
            assert m.num_nodes > before["nodes"][0]
            with m.scratch():
                assert m.apply_and(outer, m.var_at_level(6)) not in (0, 1)
            assert manager_state(m) == inside
            assert m.size(outer) > 0
        assert manager_state(m) == before

    def test_compact_and_clear_caches_raise_inside(self):
        m, f, _ = self.busy_manager()
        before = manager_state(m)
        with m.scratch():
            with pytest.raises(RuntimeError, match="scratch"):
                m.compact([f])
            with pytest.raises(RuntimeError, match="scratch"):
                m.clear_caches()
        assert manager_state(m) == before
        m.compact([f])  # allowed again after exit

    @staticmethod
    def budget_trip(scoped: bool):
        # The junk lives on levels 0-3, the later work on 4-7, so no
        # later node can reuse a kept junk node in the unscoped run.
        m = BddManager(8)
        m.set_budget(max_nodes=m.num_nodes + 40)
        junk = FALSE
        if scoped:
            with m.scratch():
                for lv in range(4):
                    junk = m.apply_xor(junk, m.var_at_level(lv))
        else:
            for lv in range(4):
                junk = m.apply_xor(junk, m.var_at_level(lv))
        f = TRUE
        with pytest.raises(BddBudgetExceeded) as info:
            for bits in itertools.count(1):
                f = m.apply_xor(f, build_cube(
                    m, {4 + j: (bits >> j) & 1 for j in range(4)}
                ))
        return info.value.used, m.perf.nodes_allocated

    def test_budget_armed_before_trips_at_the_same_count(self):
        assert self.budget_trip(True) == self.budget_trip(False)

    def test_peak_nodes_survives_drops(self):
        m, f, _ = self.busy_manager()
        with m.scratch():
            m.apply_xor(f, m.var_at_level(7))
            high = m.num_nodes
        assert m.num_nodes < high
        assert m.stats()["peak_nodes"] == high
        m.compact([])
        assert m.num_nodes == 2 and m.stats()["peak_nodes"] == high
