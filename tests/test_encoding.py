"""Tests for the chart encoder (paper Figure 3), including the Example 3.2
trace and semantic round-trip properties of the produced encodings."""

from __future__ import annotations

import math
import random

import pytest

from repro.bdd import FALSE, TRUE, BddManager, build_cube
from repro.circuits import example_3_2_partitions
from repro.decompose import (
    DecompositionOptions,
    build_image_function,
    canonical_codes,
    combine_column_sets,
    combine_row_sets,
    compute_classes,
    count_classes,
    encode_classes,
    row_merge_benefit,
)
from repro.decompose.compatible import Column


class TestCanonicalCodes:
    def test_shape(self):
        codes = canonical_codes(5, 3)
        assert len(codes) == 5
        assert codes[3] == {0: 1, 1: 1, 2: 0}

    def test_too_few_bits(self):
        with pytest.raises(ValueError):
            canonical_codes(5, 2)


class TestBuildImage:
    def test_image_recovers_classes(self):
        m = BddManager(4)
        a, b = m.var_at_level(0), m.var_at_level(1)
        fcs = [Column(a), Column(b), Column(m.apply_xor(a, b))]
        alpha = [2, 3]
        codes = canonical_codes(3, 2)
        image = build_image_function(m, alpha, codes, fcs)
        for i, fc in enumerate(fcs):
            assignment = {alpha[j]: codes[i][j] for j in range(2)}
            assert m.restrict(image.on, assignment) == fc.on
        # The unused code (1,1) is fully don't care.
        unused = {2: 1, 3: 1}
        assert m.restrict(image.dc, unused) == TRUE

    def test_strictness(self):
        # Each class owns exactly one code: ORing all used cubes with the
        # dc of unused codes covers the whole alpha space.
        m = BddManager(2)
        fcs = [Column(TRUE), Column(FALSE)]
        image = build_image_function(m, [0], canonical_codes(2, 1), fcs)
        assert image.dc == FALSE  # no unused code with 2 classes / 1 bit


def apply_chain_image(manager, alpha_levels, codes, class_functions):
    """The reference image: ``OR_i code_cube(i) AND fc_i`` by apply calls,
    with every point no code covers added to the don't cares."""
    on = dc = used = FALSE
    for code, fc in zip(codes, class_functions):
        cube = build_cube(
            manager, {alpha_levels[a]: bit for a, bit in code.items()}
        )
        on = manager.apply_or(on, manager.apply_and(cube, fc.on))
        dc = manager.apply_or(dc, manager.apply_and(cube, fc.dc))
        used = manager.apply_or(used, cube)
    dc = manager.apply_or(dc, manager.apply_not(used))
    return Column(on, dc)


def _random_image_case(seed):
    """Class functions over 1-8 free variables (constants and duplicates
    included) and canonical, permuted or partial codes for 2-9 classes."""
    rng = random.Random(seed)
    num_free = rng.randint(1, 8)
    n = rng.randint(2, 9)
    t = max(1, math.ceil(math.log2(n)))
    m = BddManager(num_free + t)
    free = list(range(num_free))

    def function():
        roll = rng.random()
        if roll < 0.1:
            return FALSE
        if roll < 0.2:
            return TRUE
        return m.from_truth_table(rng.getrandbits(1 << num_free), free)

    fcs = []
    for _ in range(n):
        if fcs and rng.random() < 0.15:
            fcs.append(rng.choice(fcs))
            continue
        on = function()
        dc = FALSE if rng.random() < 0.4 else m.apply_diff(function(), on)
        fcs.append(Column(on, dc))
    kind = ("canonical", "permuted", "partial")[seed % 3]
    if kind == "canonical":
        codes = canonical_codes(n, t)
    else:
        points = rng.sample(range(1 << t), n)
        codes = [{a: (p >> a) & 1 for a in range(t)} for p in points]
    if kind == "partial":
        # Dropped bits widen a code to a cube; cubes may then overlap.
        codes = [
            {a: bit for a, bit in code.items() if rng.random() >= 0.3}
            for code in codes
        ]
    return m, list(range(num_free, num_free + t)), codes, fcs


class TestImageKernel:
    """``build_image_function`` (one ``code_mux`` descent per half) must
    return the very nodes the apply chain builds."""

    @pytest.mark.parametrize("block", range(4))
    def test_matches_apply_chain(self, block):
        for seed in range(block * 100, block * 100 + 100):
            m, alpha, codes, fcs = _random_image_case(seed)
            image = build_image_function(m, alpha, codes, fcs)
            reference = apply_chain_image(m, alpha, codes, fcs)
            assert (image.on, image.dc) == (reference.on, reference.dc), seed

    @pytest.mark.parametrize("alpha", [0, 2])
    def test_code_level_not_below_every_class_variable_rejected(self, alpha):
        # α above both class variables, or α one of them.
        m = BddManager(3)
        fcs = [Column(m.var_at_level(1)), Column(m.var_at_level(2))]
        with pytest.raises(ValueError, match="below"):
            build_image_function(m, [alpha], canonical_codes(2, 1), fcs)

    def test_constant_classes_need_no_level_order(self):
        m = BddManager(2)
        fcs = [Column(TRUE), Column(FALSE, TRUE)]
        image = build_image_function(m, [0], canonical_codes(2, 1), fcs)
        reference = apply_chain_image(m, [0], canonical_codes(2, 1), fcs)
        assert (image.on, image.dc) == (reference.on, reference.dc)


class TestColumnSets:
    def test_figure_4b_psc_table(self):
        parts = example_3_2_partitions()
        result = combine_column_sets(parts, num_rows=4)
        assert result.psc_table == {
            (0, 3): [2, 7],
            (1, 3): [3, 4, 6, 7, 8],
            (0, 2): [5, 8],
        }

    def test_figure_5_matching(self):
        parts = example_3_2_partitions()
        result = combine_column_sets(parts, num_rows=4)
        # Optimal b-matching weight is 40 (see test_matching for the
        # standalone graph); grouping shape: one 4-member set drawn from
        # {3,4,6,7,8} and every partition in at most one set.
        assert result.matching_weight == 40
        sizes = sorted(len(s) for s in result.column_sets)
        assert max(sizes) == 4
        big = next(s for s in result.column_sets if len(s) == 4)
        assert set(big) <= {3, 4, 6, 7, 8}
        flat = [c for s in result.column_sets for c in s]
        assert sorted(flat) == list(range(10))

    def test_no_shared_content(self):
        from repro.decompose import Partition
        parts = [Partition((0, 1, 2, 3)), Partition((4, 5, 6, 7))]
        result = combine_column_sets(parts, num_rows=2)
        assert result.psc_table == {}
        assert sorted(map(len, result.column_sets)) == [1, 1]


class TestRowSets:
    def test_example_3_2_fits_4x4(self):
        parts = example_3_2_partitions()
        col_result = combine_column_sets(parts, num_rows=4)
        rows = combine_row_sets(parts, col_result, num_rows=4, num_cols=4)
        assert rows is not None
        row_sets, column_set_of_class = rows
        assert len(row_sets) <= 4
        assert all(len(r) <= 4 for r in row_sets)
        flat = sorted(c for r in row_sets for c in r)
        assert flat == list(range(10))

    def test_benefit_shared_symbols(self):
        from repro.decompose import Partition
        a = Partition((0, 1, 0, 2))
        b = Partition((0, 3, 0, 1))
        c = Partition((7, 8, 9, 9))
        # a and b share symbols 0 and 1 -> larger Bc than a and c.
        n = 8
        b_ab = row_merge_benefit(a, b, n, sigma=0, tau=1)
        b_ac = row_merge_benefit(a, c, n, sigma=0, tau=1)
        assert b_ab > b_ac

    def test_benefit_br_counts_shared_kinds(self):
        from repro.decompose import Partition
        a = Partition((0, 1, 0, 2))
        b = Partition((0, 1, 2, 2))  # same symbol kinds as a
        c = Partition((5, 6, 7, 7))  # disjoint kinds
        n = 8
        assert row_merge_benefit(a, b, n, 1, 0) > row_merge_benefit(a, c, n, 1, 0)

    def test_benefit_ignores_symbol_labels(self):
        # Symbols are (on, dc) node-id pairs, and ids are only names:
        # relabelling them reorders the shared-symbol set, and Bc must
        # come out the same, the correctly rounded exact value.
        from fractions import Fraction

        from repro.decompose import Partition
        rng = random.Random(7)
        kinds = 40
        base_a = [rng.randrange(kinds) for _ in range(96)]
        base_b = [rng.randrange(kinds) for _ in range(64)]
        common = set(base_a) & set(base_b)
        shared = sum(base_a.count(s) + base_b.count(s) for s in common)
        m, n = len(base_a) + len(base_b), kinds + 1
        exact = float(Fraction(shared * n - len(common) * m, n))
        for seed in range(20):
            ids = rng.sample(range(2, 100_000), kinds)
            a = Partition(tuple((ids[s], ids[s] + 1) for s in base_a))
            b = Partition(tuple((ids[s], ids[s] + 1) for s in base_b))
            assert row_merge_benefit(a, b, n, sigma=0, tau=1) == exact


class TestAbsorbSingletons:
    """The in-place singleton absorption of Step 6/7's fitting loop."""

    @staticmethod
    def _invariants(state):
        flat = [c for s in state.column_sets for c in s]
        assert len(flat) == len(set(flat)), (
            f"class in two column sets: {state.column_sets}"
        )
        for cls, idx in state.column_set_of_class.items():
            assert cls in state.column_sets[idx], (
                f"class {cls} mapped to set {idx} it is not a member of"
            )

    def test_two_absorptions_disjoint_rows(self):
        from repro.decompose.encoding import _absorb_singletons, _RowState

        state = _RowState(
            row_sets=[[0, 1], [3, 5]],
            column_sets=[[0], [1, 2], [3, 4], [5]],
            column_set_of_class={0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3},
        )
        _absorb_singletons(state, num_rows=4)
        self._invariants(state)
        # 0 joins [3, 4] (the only multi set without a member in its row);
        # 5 joins [1, 2] likewise.  Both singleton sets are compacted away.
        assert sorted(map(sorted, state.column_sets)) == [
            [0, 3, 4], [1, 2, 5],
        ]

    def test_mapping_repaired_between_rows(self):
        # Regression: the absorbed class's column_set_of_class entry used
        # to stay pointing at its emptied singleton set until the end of
        # the call.  A later row consulting the mapping then saw the class
        # as still-singleton and absorbed it a *second* time, leaving it a
        # member of two column sets.
        from repro.decompose.encoding import _absorb_singletons, _RowState

        state = _RowState(
            row_sets=[[0, 1], [0, 3]],
            column_sets=[[0], [1, 2], [3, 4], [5]],
            column_set_of_class={0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3},
        )
        _absorb_singletons(state, num_rows=4)
        self._invariants(state)


def _decomposable_function(m: BddManager):
    """f over 8 vars with bound {0..4} giving a handful of classes."""
    a = [m.var_at_level(i) for i in range(8)]
    g1 = m.apply_and(a[0], m.apply_or(a[1], a[2]))
    g2 = m.apply_xor(a[3], a[4])
    core = m.apply_or(m.apply_and(g1, a[5]), m.apply_and(g2, a[6]))
    return m.apply_xor(core, m.apply_and(a[7], g1))


class TestEncodeClasses:
    def _setup(self, policy: str):
        m = BddManager(8)
        f = _decomposable_function(m)
        classes = compute_classes(m, f, [0, 1, 2, 3, 4])
        n = classes.num_classes
        t = max(1, math.ceil(math.log2(n)))
        alpha = []
        for _ in range(t):
            m.add_var()
            alpha.append(m.num_vars - 1)
        result = encode_classes(
            m, classes.class_functions, alpha, k=5, policy=policy
        )
        return m, f, classes, alpha, result

    def test_codes_are_strict(self):
        m, f, classes, alpha, result = self._setup("chart")
        seen = {tuple(sorted(code.items())) for code in result.codes}
        assert len(seen) == len(result.codes)

    def test_image_round_trip(self):
        # g with the alpha codes substituted recovers f.
        m, f, classes, alpha, result = self._setup("chart")
        rebuilt = FALSE
        for position, cls in enumerate(classes.class_of_position):
            bound_cube = build_cube(
                m, {lv: (position >> j) & 1 for j, lv in enumerate([0, 1, 2, 3, 4])}
            )
            code = result.codes[cls]
            g_slice = m.restrict(
                result.image.on, {alpha[j]: bit for j, bit in code.items()}
            )
            rebuilt = m.apply_or(rebuilt, m.apply_and(bound_cube, g_slice))
        assert rebuilt == f

    def test_chart_not_worse_than_random(self):
        m, f, classes, alpha, result = self._setup("chart")
        if result.policy_used == "chart":
            assert result.image_classes_chart <= result.image_classes_random
        # When "random" won, the encoder must have kept the draft codes.
        if result.policy_used == "random":
            assert result.codes == canonical_codes(len(result.codes), len(alpha))

    def test_random_policy_stops_early(self):
        m, f, classes, alpha, result = self._setup("random")
        assert result.policy_used in ("random", "trivial")
        assert result.codes == canonical_codes(len(result.codes), len(alpha))

    def test_trivial_when_feasible(self):
        m = BddManager(4)
        a, b = m.var_at_level(0), m.var_at_level(1)
        fcs = [Column(a), Column(b)]
        m.add_var()
        result = encode_classes(m, fcs, [m.num_vars - 1], k=5)
        assert result.policy_used == "trivial"

    def test_needs_two_classes(self):
        m = BddManager(2)
        with pytest.raises(ValueError):
            encode_classes(m, [Column(TRUE)], [0], k=5)

    def test_alpha_count_checked(self):
        m = BddManager(4)
        fcs = [Column(m.var_at_level(0)), Column(m.var_at_level(1)),
               Column(TRUE)]
        with pytest.raises(ValueError):
            encode_classes(m, fcs, [2], k=5)  # 3 classes need 2 bits


class TestStep8Count:
    @pytest.mark.parametrize("name", ["alu2", "rd84", "misex1"])
    def test_random_count_is_step_3s_count_of_the_draft(
        self, name, monkeypatch
    ):
        # Step 8 compares the chart image with the draft's class count
        # for Step 3's bound set, which the search already returned.
        import os

        import repro.decompose.encoding as encoding
        import repro.decompose.rothkarp as rothkarp
        import repro.hyper.hyperfunction as hyperfunction
        from repro.mapping import hyde_map
        from repro.network import read_blif

        searches = []
        select = encoding.select_bound_set
        encode = encoding.encode_classes

        def spy_select(manager, on, support, bound_size, **kwargs):
            vp = select(manager, on, support, bound_size, **kwargs)
            searches.append((manager, on, kwargs["dc"], vp))
            return vp

        checked = []

        def spy_encode(manager, class_functions, alpha_levels, k, **kwargs):
            searches.clear()
            result = encode(manager, class_functions, alpha_levels, k, **kwargs)
            if result.image_classes_random is not None:
                ((m, on, dc, vp),) = searches
                use_dontcares = kwargs.get("use_dontcares", True)
                bound = list(vp.bound_levels)
                assert result.image_classes_random == count_classes(
                    m, on, bound, dc, use_dontcares
                ) == compute_classes(
                    m, on, bound, dc, use_dontcares
                ).num_classes
                checked.append(result.policy_used)
            return result

        monkeypatch.setattr(encoding, "select_bound_set", spy_select)
        monkeypatch.setattr(rothkarp, "encode_classes", spy_encode)
        monkeypatch.setattr(hyperfunction, "encode_classes", spy_encode)
        inputs = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks", "e2e", "inputs",
        )
        hyde_map(read_blif(os.path.join(inputs, f"{name}.blif")), 5,
                 verify="none")
        assert checked
