"""Tests for bound-set selection."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.bdd import FALSE, BddManager
from repro.decompose import count_classes, select_bound_set
from repro.fastpath import bitops


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

    def test_clear_caches_drops_every_memo_keyed_by_node_id(self):
        m = BddManager(6)
        dc = m.apply_and(m.var_at_level(0), m.var_at_level(5))
        on = m.apply_and(adder_like(m), m.apply_not(dc))
        args = (m, on, list(range(6)), 3)
        runs = {
            "bdd": dict(dc=dc, exhaustive_limit=1, fast_path="bdd"),
            "bitpack": dict(dc=dc, fast_path="bitpack"),
        }
        perf = m.perf

        def work():
            return (
                perf.cofactor_calls - perf.cofactor_hits,
                perf.cofactor_enumerations,
                perf.fastpath_conversions,
            )

        def search(mode):
            before = work()
            partition = select_bound_set(*args, **runs[mode])
            return partition, [b - a for a, b in zip(before, work())]

        first = {mode: search(mode) for mode in runs}
        assert m._class_counts and m._fastpath
        assert m.stats()["cofactor_cache"] > 0
        nodes = m.num_nodes
        m.clear_caches()
        assert not m._class_counts and not m._fastpath
        stats = m.stats()
        for cache in ("apply_cache", "not_cache", "ite_cache",
                      "cofactor_cache"):
            assert stats[cache] == 0
        # The same searches recount from scratch: the same partitions,
        # the same cofactor misses, enumerations and table conversions,
        # and no new node (the unique table is kept).
        assert {mode: search(mode) for mode in runs} == first
        assert first["bdd"][1][0] > 0 and first["bitpack"][1][2] > 0
        assert m.num_nodes == nodes


def random_draft(seed: int, with_dc: bool):
    """A canonical draft image over random class functions.

    2-9 classes, so some code points are unused; the α levels are fresh,
    below every class-function variable, as the encoder makes them.
    """
    from repro.decompose import Column, build_image_function, canonical_codes
    from repro.decompose.varpart import DraftImage, alpha_count

    rng = random.Random(seed)
    width = rng.randint(4, 7)
    m = BddManager(width)
    n = rng.randint(2, 9)
    functions = []
    for _ in range(n):
        levels = sorted(rng.sample(range(width), rng.randint(2, min(5, width))))
        on = m.from_truth_table(rng.getrandbits(1 << len(levels)), levels)
        dc = FALSE
        if with_dc and rng.random() < 0.7:
            dc = m.apply_and(
                m.from_truth_table(rng.getrandbits(1 << len(levels)), levels),
                m.from_truth_table(rng.getrandbits(1 << len(levels)), levels),
            )
            on = m.apply_diff(on, dc)
        functions.append(Column(on, dc))
    t = alpha_count(n)
    alpha_levels = [width + a for a in range(t)]
    for _ in alpha_levels:
        m.add_var()
    codes = canonical_codes(n, t)
    image = build_image_function(m, alpha_levels, codes, functions)
    support = sorted(set(m.support(image.on)) | set(m.support(image.dc)))
    return m, image, support, DraftImage(functions, codes, alpha_levels)


class TestClassFunctionSearch:
    """The class-function backend counts a draft image like its BDD."""

    @pytest.mark.parametrize("with_dc", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_counts_match_the_image_bdd(self, seed, with_dc):
        from repro.decompose.varpart import _BddSearch, _ClassSearch

        m, image, support, draft = random_draft(seed, with_dc)
        by_class = _ClassSearch(m, image.on, image.dc, "bdd", draft)
        by_image = _BddSearch(m, image.on, image.dc, "bdd")
        alphas = set(draft.alpha_levels) & set(support)
        with_alpha = 0
        for size in range(1, min(4, len(support) - 1) + 1):
            for bound in itertools.combinations(support, size):
                expected = by_image.count_bound(bound)
                assert by_class._count(bound) == expected, bound
                assert by_class._count(bound[::-1]) == expected, bound
                with_alpha += bool(alphas & set(bound))
        assert with_alpha > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_select_bound_set_picks_the_same_partition(self, seed):
        m, image, support, draft = random_draft(seed, seed % 2 == 1)
        functions = draft.class_functions
        class_size = m.shared_size(
            [fc.on for fc in functions] + [fc.dc for fc in functions]
        )
        takes_class = m.shared_size((image.on, image.dc)) > class_size
        for bound_size in range(1, min(4, len(support) - 1) + 1):
            for extra in ({}, {"exhaustive_limit": 1}):
                for use_dontcares in (False, True):
                    kwargs = dict(
                        dc=image.dc, fast_path="bdd",
                        use_dontcares=use_dontcares, **extra,
                    )
                    args = (m, image.on, support, bound_size)
                    m.clear_caches()  # no count replayed across backends
                    plain = select_bound_set(*args, **kwargs)
                    m.clear_caches()
                    searches = m.perf.class_searches
                    drafted = select_bound_set(*args, draft=draft, **kwargs)
                    assert drafted == plain
                    assert m.perf.class_searches - searches == takes_class

    def test_wide_apex_like_image_takes_the_class_backend(self):
        # 22 class-function variables over a 2-bit code: the image is
        # wider than the packed cut-over and larger than its classes.
        from repro.decompose import Column, build_image_function, canonical_codes
        from repro.decompose.varpart import DraftImage

        m = BddManager(22)
        x = [m.var_at_level(lv) for lv in range(22)]
        functions = []
        for j in range(4):
            on = FALSE
            for i in range(j, 22, 4):
                on = m.apply_or(on, m.apply_and(x[i], x[(i + j + 1) % 22]))
            functions.append(Column(on))
        alpha_levels = [22, 23]
        m.add_var()
        m.add_var()
        codes = canonical_codes(4, 2)
        image = build_image_function(m, alpha_levels, codes, functions)
        support = sorted(set(m.support(image.on)) | set(m.support(image.dc)))
        assert len(support) > 20
        nodes = m.num_nodes
        vp = select_bound_set(
            m, image.on, support, 5, dc=image.dc,
            draft=DraftImage(functions, codes, alpha_levels),
        )
        assert m.perf.class_searches == 1
        # The wide search kept nothing but its counts ...
        assert vp.cannot_shrink or m.num_nodes == nodes
        assert m._class_counts
        # ... and the image's own search replays them.
        m.perf.reset()
        assert select_bound_set(
            m, image.on, support, 5, dc=image.dc
        ) == vp
        assert m.perf.class_searches == 0
        assert m.perf.cofactor_enumerations == 0


def _recount(m, on, bound, dc, use_dontcares, mode):
    """``count_classes`` with every count memo emptied first."""
    m.clear_caches()
    bitops.clear_global_memo()
    return count_classes(m, on, list(bound), dc, use_dontcares, fast_path=mode)


class TestCountClasses:
    """``count_classes`` is the searches' own count of a bound set."""

    @pytest.mark.parametrize("mode", ["bdd", "bitpack", "auto"])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_search_count_of_its_bound(self, seed, mode):
        rng = random.Random(seed)
        n = rng.randint(4, 7)
        m = BddManager(n)
        levels = list(range(n))
        dc = m.from_truth_table(
            rng.getrandbits(1 << n) & rng.getrandbits(1 << n), levels
        )
        on = m.apply_diff(m.from_truth_table(rng.getrandbits(1 << n), levels), dc)
        support = sorted(set(m.support(on)) | set(m.support(dc)))
        for use_dontcares in (False, True):  # syntactic, then merged
            for bound_size in (2, 3):
                m.clear_caches()
                vp = select_bound_set(
                    m, on, support, bound_size, dc=dc,
                    use_dontcares=use_dontcares, fast_path=mode,
                )
                assert _recount(
                    m, on, vp.bound_levels, dc, use_dontcares, mode
                ) == vp.num_classes

    @pytest.mark.parametrize("mode", ["bdd", "bitpack", "auto"])
    def test_equals_the_class_function_search_count(self, mode):
        taken = 0
        for seed in range(12):
            m, image, support, draft = random_draft(seed, seed % 2 == 1)
            for use_dontcares in (False, True):
                m.clear_caches()
                searches = m.perf.class_searches
                vp = select_bound_set(
                    m, image.on, support, min(3, len(support) - 1),
                    dc=image.dc, use_dontcares=use_dontcares,
                    fast_path="bdd", draft=draft,
                )
                if m.perf.class_searches == searches:
                    continue
                taken += 1
                assert _recount(
                    m, image.on, vp.bound_levels, image.dc, use_dontcares,
                    mode,
                ) == vp.num_classes
        assert taken > 0
