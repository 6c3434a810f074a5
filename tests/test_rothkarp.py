"""Tests for the single Roth-Karp decomposition step."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, BddManager, build_cube
from repro.decompose import DecompositionOptions, decompose_step

N = 7
TABLE_BITS = st.integers(min_value=0, max_value=(1 << (1 << N)) - 1)


def verify_step(m: BddManager, f: int, step) -> None:
    """Check f(x, y) == g(alpha(x), y) for every bound assignment."""
    rebuilt = FALSE
    for position in range(1 << len(step.bound_levels)):
        bound_assign = {
            lv: (position >> j) & 1 for j, lv in enumerate(step.bound_levels)
        }
        alpha_assign = {
            alv: step.alpha_tables[j].eval_index(position)
            for j, alv in enumerate(step.alpha_levels)
        }
        g_slice = m.restrict(step.image.on, alpha_assign)
        cube = build_cube(m, bound_assign)
        rebuilt = m.apply_or(rebuilt, m.apply_and(cube, g_slice))
    assert rebuilt == f


class TestDecomposeStep:
    @given(TABLE_BITS)
    @settings(max_examples=15, deadline=None)
    def test_round_trip_random_functions(self, bits):
        m = BddManager(N)
        f = m.from_truth_table(bits, list(range(N)))
        support = m.support(f)
        if len(support) <= 4:
            return
        step = decompose_step(
            m, f, support, DecompositionOptions(k=4, encoding_policy="chart")
        )
        if step.num_classes < 2:
            return
        verify_step(m, f, step)

    def test_alpha_tables_match_classes(self):
        m = BddManager(N)
        f = m.from_truth_table(0x5A5A_F0F0_3C3C_9696, list(range(6)))
        support = m.support(f)
        step = decompose_step(
            m, f, support, DecompositionOptions(k=4)
        )
        # Strict encoding: positions in one class share all alpha values.
        for p1 in range(1 << len(step.bound_levels)):
            for p2 in range(p1 + 1, 1 << len(step.bound_levels)):
                same_class = (
                    step.classes.class_of_position[p1]
                    == step.classes.class_of_position[p2]
                )
                same_code = all(
                    t.eval_index(p1) == t.eval_index(p2)
                    for t in step.alpha_tables
                )
                assert same_class == same_code

    def test_alpha_count_is_rigid(self):
        import math
        m = BddManager(N)
        f = m.from_truth_table(0x0123_4567_89AB_CDEF, list(range(6)))
        step = decompose_step(m, f, m.support(f), DecompositionOptions(k=4))
        assert len(step.alpha_tables) == max(
            1, math.ceil(math.log2(step.num_classes))
        )

    def test_forced_bound_set(self):
        m = BddManager(N)
        f = m.from_truth_table(0xFEDC_BA98_7654_3210, list(range(6)))
        step = decompose_step(
            m, f, m.support(f), DecompositionOptions(k=4),
            bound_levels=[0, 1, 2, 3],
        )
        assert step.bound_levels == (0, 1, 2, 3)
        verify_step(m, f, step)

    def test_feasible_function_rejected(self):
        m = BddManager(3)
        f = m.apply_and(m.var_at_level(0), m.var_at_level(1))
        with pytest.raises(ValueError):
            decompose_step(m, f, m.support(f), DecompositionOptions(k=5))

    def test_policies_agree_semantically(self):
        m = BddManager(N)
        bits = random.Random(0).getrandbits(1 << 6)
        f = m.from_truth_table(bits, list(range(6)))
        support = m.support(f)
        if len(support) <= 4:
            pytest.skip("degenerate draw")
        for policy in ("chart", "random", "worst"):
            step = decompose_step(
                m, f, support,
                DecompositionOptions(k=4, encoding_policy=policy),
                bound_levels=support[:4],
            )
            if step.num_classes >= 2:
                verify_step(m, f, step)

    def test_dc_step_covers_care_set(self):
        m = BddManager(N)
        a = [m.var_at_level(i) for i in range(6)]
        on = m.apply_and(m.apply_and(a[0], a[1]), m.apply_or(a[4], a[5]))
        dc = m.apply_and(m.apply_not(a[0]), a[2])
        support = sorted(set(m.support(on)) | set(m.support(dc)))
        step = decompose_step(
            m, on, support, DecompositionOptions(k=4), dc=dc,
            bound_levels=support[:4],
        )
        if step.num_classes < 2:
            return
        # For every bound position, the g-slice must agree with the
        # column's care set.
        for position in range(1 << len(step.bound_levels)):
            alpha_assign = {
                alv: step.alpha_tables[j].eval_index(position)
                for j, alv in enumerate(step.alpha_levels)
            }
            g_on = m.restrict(step.image.on, alpha_assign)
            g_dc = m.restrict(step.image.dc, alpha_assign)
            col = step.classes.columns[position]
            col_off = m.apply_diff(m.apply_not(col.on), col.dc)
            # g must be 1 where the column is ON, 0 where OFF.
            assert m.apply_diff(col.on, m.apply_or(g_on, g_dc)) == FALSE
            assert m.apply_and(col_off, g_on) == FALSE
