"""Unit tests for dataset schemas (repro.datasets.schema)."""

import pytest

from repro.datasets import (
    DEFAULT_NUMERICAL_BINS,
    DatasetSpec,
    FieldKind,
    FieldSpec,
    TaskKind,
    make_numerical_fields,
)


def num_field(name="x", n_bins=10, **kw):
    return FieldSpec(name=name, kind=FieldKind.NUMERICAL, n_bins=n_bins, **kw)


def cat_field(name="c", n_categories=5, **kw):
    return FieldSpec(name=name, kind=FieldKind.CATEGORICAL, n_categories=n_categories, **kw)


class TestFieldSpec:
    def test_numerical_feature_count_is_one(self):
        assert num_field().n_features == 1

    def test_categorical_feature_count_is_cardinality(self):
        assert cat_field(n_categories=9).n_features == 9

    def test_numerical_value_bins(self):
        assert num_field(n_bins=12).n_value_bins == 12

    def test_categorical_value_bins(self):
        assert cat_field(n_categories=4).n_value_bins == 4

    def test_total_bins_adds_missing_bin(self):
        assert num_field(n_bins=12).n_total_bins == 13
        assert cat_field(n_categories=4).n_total_bins == 5

    def test_missing_bin_is_last(self):
        f = num_field(n_bins=12)
        assert f.missing_bin == 12

    def test_default_numerical_bins_make_one_sram(self):
        # 255 value bins + missing = 256 total = one 2 KB / 8 B SRAM.
        f = FieldSpec(name="x", kind=FieldKind.NUMERICAL)
        assert f.n_bins == DEFAULT_NUMERICAL_BINS == 255
        assert f.n_total_bins == 256

    def test_rejects_tiny_categorical(self):
        with pytest.raises(ValueError, match="categories"):
            cat_field(n_categories=1)

    def test_rejects_tiny_numerical_bins(self):
        with pytest.raises(ValueError, match="bins"):
            num_field(n_bins=1)

    def test_rejects_bad_missing_rate(self):
        with pytest.raises(ValueError, match="missing_rate"):
            num_field(missing_rate=1.0)
        with pytest.raises(ValueError, match="missing_rate"):
            num_field(missing_rate=-0.1)

    def test_rejects_negative_skew(self):
        with pytest.raises(ValueError, match="skew"):
            cat_field(skew=-1.0)

    def test_is_categorical_flag(self):
        assert cat_field().is_categorical
        assert not num_field().is_categorical


class TestDatasetSpec:
    def make(self, **kw):
        defaults = dict(
            name="d",
            fields=(num_field("a"), num_field("b"), cat_field("c", 6)),
            n_records=100,
        )
        defaults.update(kw)
        return DatasetSpec(**defaults)

    def test_field_counts(self):
        spec = self.make()
        assert spec.n_fields == 3
        assert spec.n_categorical_fields == 1
        assert spec.n_numerical_fields == 2

    def test_feature_count_matches_onehot(self):
        spec = self.make()
        assert spec.n_features == 1 + 1 + 6

    def test_total_bins(self):
        spec = self.make()
        assert spec.n_total_bins == 11 + 11 + 7

    def test_total_bins_cached_outside_equality_and_pickles(self):
        """The totals are computed once per spec, into the instance dict:
        equality and hashing ignore them, and a spec pickled without them
        (as stores written before the cache hold) computes them on use."""
        import pickle

        spec, fresh = self.make(), self.make()
        assert spec.n_total_bins == 29 and "n_total_bins" in vars(spec)
        assert spec == fresh and hash(spec) == hash(fresh)
        assert "n_total_bins" not in vars(fresh)
        loaded = pickle.loads(pickle.dumps(fresh))
        assert "n_total_bins" not in vars(loaded)
        assert loaded.n_total_bins == 29 and loaded == spec
        assert all(f.n_total_bins == f.n_value_bins + 1 for f in loaded.fields)

    def test_rejects_zero_records(self):
        with pytest.raises(ValueError, match="n_records"):
            self.make(n_records=0)

    def test_rejects_empty_fields(self):
        with pytest.raises(ValueError, match="field"):
            self.make(fields=())

    def test_rejects_duplicate_field_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            self.make(fields=(num_field("a"), num_field("a")))

    def test_with_records(self):
        assert self.make().with_records(42).n_records == 42

    def test_task_default_binary(self):
        assert self.make().task is TaskKind.BINARY


class TestMakeNumericalFields:
    def test_count_and_names(self):
        fields = make_numerical_fields(4, prefix="q")
        assert len(fields) == 4
        assert [f.name for f in fields] == ["q0", "q1", "q2", "q3"]

    def test_target_weights_applied_in_order(self):
        fields = make_numerical_fields(3, target_weights=[2.0, 1.0])
        assert [f.target_weight for f in fields] == [2.0, 1.0, 0.0]

    def test_all_numerical(self):
        assert all(f.kind is FieldKind.NUMERICAL for f in make_numerical_fields(5))

    def test_missing_rate_propagates(self):
        fields = make_numerical_fields(2, missing_rate=0.2)
        assert all(f.missing_rate == 0.2 for f in fields)
