"""Tests for bound-set selection."""

from __future__ import annotations

import pytest

from repro.bdd import FALSE, BddManager
from repro.decompose import count_classes, select_bound_set


def adder_like(m: BddManager):
    # f = (a0 & b0) | (a1 & b1) | (a2 & b2): pairing ai with bi decomposes
    # beautifully; splitting the pairs does not.
    pairs = []
    for j in range(3):
        pairs.append(m.apply_and(m.var_at_level(2 * j), m.var_at_level(2 * j + 1)))
    f = pairs[0]
    for p in pairs[1:]:
        f = m.apply_or(f, p)
    return f


class TestSelectBoundSet:
    def test_finds_good_pairing(self):
        m = BddManager(6)
        f = adder_like(m)
        vp = select_bound_set(m, f, list(range(6)), 2)
        # Any {2j, 2j+1} pair yields exactly 2 classes.
        assert vp.num_classes == 2
        assert vp.bound_levels in {(0, 1), (2, 3), (4, 5)}

    def test_free_levels_complement(self):
        m = BddManager(6)
        f = adder_like(m)
        vp = select_bound_set(m, f, list(range(6)), 2)
        assert sorted(vp.bound_levels + vp.free_levels) == list(range(6))

    def test_greedy_path(self):
        m = BddManager(6)
        f = adder_like(m)
        vp = select_bound_set(
            m, f, list(range(6)), 2, exhaustive_limit=1
        )
        # Greedy + swap still find an optimal pair here.
        assert vp.num_classes == 2

    def test_forbidden_levels_respected(self):
        m = BddManager(6)
        f = adder_like(m)
        vp = select_bound_set(m, f, list(range(6)), 2, forbidden=[0, 1])
        assert 0 not in vp.bound_levels and 1 not in vp.bound_levels

    def test_forbidden_relaxed_when_starved(self):
        m = BddManager(4)
        f = adder_like_sub = m.apply_and(m.var_at_level(0), m.var_at_level(1))
        f = m.apply_or(f, m.apply_and(m.var_at_level(2), m.var_at_level(3)))
        # Forbid almost everything: selection must still succeed.
        vp = select_bound_set(m, f, [0, 1, 2, 3], 2, forbidden=[0, 1, 2])
        assert len(vp.bound_levels) == 2

    def test_preferred_free_breaks_ties(self):
        m = BddManager(6)
        f = adder_like(m)
        # All three pairs tie at 2 classes; penalising {0,1} should move
        # the choice to another pair.
        vp = select_bound_set(
            m, f, list(range(6)), 2, preferred_free=[0, 1]
        )
        assert vp.bound_levels != (0, 1)

    def test_bound_size_too_large(self):
        m = BddManager(3)
        f = m.var_at_level(0)
        with pytest.raises(ValueError):
            select_bound_set(m, f, [0, 1, 2], 3)

    def test_reported_count_is_truthful(self):
        m = BddManager(6)
        f = adder_like(m)
        vp = select_bound_set(m, f, list(range(6)), 3)
        assert vp.num_classes == count_classes(m, f, list(vp.bound_levels))

    def test_bdd_backend_serves_repeat_from_memo(self):
        m = BddManager(6)
        dc = m.apply_and(m.var_at_level(0), m.var_at_level(5))
        on = m.apply_and(adder_like(m), m.apply_not(dc))
        # Greedy + swap with don't cares: syntactic counts during the
        # search, a merged count for the winner — both enumerate columns.
        args = (m, on, list(range(6)), 3)
        kwargs = dict(dc=dc, exhaustive_limit=1, fast_path="bdd")
        first = select_bound_set(*args, **kwargs)
        before = m.perf.cofactor_enumerations
        assert before > 0
        assert select_bound_set(*args, **kwargs) == first
        assert m.perf.cofactor_enumerations == before
