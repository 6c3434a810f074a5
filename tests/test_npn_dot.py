"""Tests for the NPN utilities."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolfunc import (
    TruthTable,
    apply_transform,
    npn_canonical,
    npn_classes,
    npn_equivalent,
    npn_transforms,
)

small_tables = st.builds(
    TruthTable, st.just(3), st.integers(min_value=0, max_value=255)
)


class TestNpn:
    def test_and_or_equivalent(self):
        and2 = TruthTable.from_function(2, lambda a, b: a & b)
        or2 = TruthTable.from_function(2, lambda a, b: a | b)
        nand2 = ~and2
        assert npn_equivalent(and2, or2)  # De Morgan: NPN-same class
        assert npn_equivalent(and2, nand2)

    def test_xor_not_equivalent_to_and(self):
        and2 = TruthTable.from_function(2, lambda a, b: a & b)
        xor2 = TruthTable.from_function(2, lambda a, b: a ^ b)
        assert not npn_equivalent(and2, xor2)

    @given(small_tables, st.data())
    @settings(max_examples=30, deadline=None)
    def test_canonical_invariant_under_transform(self, table, data):
        transforms = list(npn_transforms(3))
        transform = data.draw(st.sampled_from(transforms))
        moved = apply_transform(table, transform)
        assert npn_canonical(moved)[0].mask == npn_canonical(table)[0].mask

    @given(small_tables)
    @settings(max_examples=30, deadline=None)
    def test_canonical_transform_is_witness(self, table):
        canonical, transform = npn_canonical(table)
        assert apply_transform(table, transform).mask == canonical.mask

    def test_classes_grouping(self):
        and2 = TruthTable.from_function(2, lambda a, b: a & b)
        or2 = TruthTable.from_function(2, lambda a, b: a | b)
        xor2 = TruthTable.from_function(2, lambda a, b: a ^ b)
        groups = npn_classes([and2, or2, xor2])
        assert sorted(map(sorted, groups)) == [[0, 1], [2]]

    def test_arity_mismatch(self):
        a = TruthTable.constant(2, 1)
        b = TruthTable.constant(3, 1)
        assert not npn_equivalent(a, b)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            npn_canonical(TruthTable.constant(6, 0))
