"""Tests for array-encoded trees and node tables (repro.gbdt.tree)."""

import numpy as np
import pytest

from repro.datasets import DatasetSpec, FieldKind, FieldSpec
from repro.gbdt import Tree
from repro.gbdt.tree import NODE_ENTRY_BYTES


@pytest.fixture()
def spec():
    return DatasetSpec(
        name="t",
        fields=(
            FieldSpec(name="x", kind=FieldKind.NUMERICAL, n_bins=8),
            FieldSpec(name="c", kind=FieldKind.CATEGORICAL, n_categories=4),
        ),
        n_records=10,
    )


@pytest.fixture()
def stump(spec):
    """Root split on numerical field 0 (bin <= 3 goes left)."""
    t = Tree(spec)
    root = t.add_split(0, split_field=0, threshold_bin=3, is_categorical=False, missing_left=False)
    left = t.add_leaf(1, weight=-1.0)
    right = t.add_leaf(1, weight=2.0)
    t.set_children(root, left, right)
    return t


class TestConstruction:
    def test_counts(self, stump):
        assert stump.n_nodes == 3
        assert stump.n_leaves == 2
        assert stump.max_depth == 1

    def test_validate_passes(self, stump):
        stump.validate()

    def test_validate_catches_half_attached(self, spec):
        t = Tree(spec)
        root = t.add_split(0, 0, 2, False, False)
        leaf = t.add_leaf(1, 0.0)
        t.set_children(root, leaf, -1)
        with pytest.raises(ValueError, match="only one child"):
            t.validate()

    def test_validate_catches_double_parent(self, spec):
        t = Tree(spec)
        a = t.add_split(0, 0, 2, False, False)
        b = t.add_split(1, 0, 1, False, False)
        leaf = t.add_leaf(2, 0.0)
        leaf2 = t.add_leaf(2, 0.0)
        t.set_children(a, b, leaf)
        t.set_children(b, leaf, leaf2)  # `leaf` has two parents
        with pytest.raises(ValueError, match="two parents"):
            t.validate()

    def test_rejects_bad_field(self, spec):
        t = Tree(spec)
        with pytest.raises(ValueError, match="out of range"):
            t.add_split(
                0, split_field=99, threshold_bin=0, is_categorical=False, missing_left=False
            )


class TestPredict:
    def test_numerical_threshold(self, stump):
        codes = np.array([[0, 0], [3, 0], [4, 0], [7, 0]], dtype=np.int64)
        out = stump.predict(codes)
        assert out.tolist() == [-1.0, -1.0, 2.0, 2.0]

    def test_missing_follows_direction(self, spec):
        t = Tree(spec)
        root = t.add_split(0, 0, 3, False, missing_left=True)
        l = t.add_leaf(1, -1.0)
        r = t.add_leaf(1, 2.0)
        t.set_children(root, l, r)
        missing_code = spec.fields[0].missing_bin
        out = t.predict(np.array([[missing_code, 0]], dtype=np.int64))
        assert out[0] == -1.0

    def test_categorical_one_vs_rest(self, spec):
        t = Tree(spec)
        root = t.add_split(
            0, split_field=1, threshold_bin=2, is_categorical=True, missing_left=False
        )
        l = t.add_leaf(1, 10.0)
        r = t.add_leaf(1, -10.0)
        t.set_children(root, l, r)
        codes = np.array([[0, 2], [0, 1], [0, 3]], dtype=np.int64)
        assert t.predict(codes).tolist() == [10.0, -10.0, -10.0]

    def test_depth_counts_interior_hops(self, stump):
        _, depth = stump.predict(np.array([[0, 0]], dtype=np.int64), return_depth=True)
        assert depth[0] == 1

    def test_two_level_tree(self, spec):
        t = Tree(spec)
        root = t.add_split(0, 0, 3, False, False)
        inner = t.add_split(1, 1, 1, True, False)
        leaf_a = t.add_leaf(2, 1.0)
        leaf_b = t.add_leaf(2, 2.0)
        leaf_c = t.add_leaf(1, 3.0)
        t.set_children(root, inner, leaf_c)
        t.set_children(inner, leaf_a, leaf_b)
        t.validate()
        codes = np.array([[0, 1], [0, 2], [9, 0]], dtype=np.int64)
        out, depth = t.predict(codes, return_depth=True)
        assert out.tolist() == [1.0, 2.0, 3.0]
        assert depth.tolist() == [2, 2, 1]

    def test_single_leaf_tree(self, spec):
        t = Tree(spec)
        t.add_leaf(0, 5.0)
        out, depth = t.predict(np.zeros((4, 2), dtype=np.int64), return_depth=True)
        assert np.all(out == 5.0)
        assert np.all(depth == 0)


class TestNodeTable:
    def test_relevant_fields_sorted_unique(self, spec):
        t = Tree(spec)
        root = t.add_split(0, 1, 0, True, False)
        inner = t.add_split(1, 0, 3, False, False)
        l1 = t.add_leaf(2, 0.0)
        l2 = t.add_leaf(2, 0.0)
        l3 = t.add_leaf(1, 0.0)
        t.set_children(root, inner, l3)
        t.set_children(inner, l1, l2)
        assert t.relevant_fields().tolist() == [0, 1]

    def test_table_bytes(self, stump):
        assert NODE_ENTRY_BYTES * stump.n_nodes == 3 * 8
