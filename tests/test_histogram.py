"""Tests for histogram binning and the subtraction trick (repro.gbdt.histogram)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate
from repro.gbdt import HistogramBuilder
from tests.conftest import small_spec_factory
from tests.oracles import build_brute_force


@pytest.fixture(scope="module")
def data():
    return generate(small_spec_factory(n_records=300, seed=5))


@pytest.fixture(scope="module")
def builder(data):
    return HistogramBuilder(data)


@pytest.fixture(scope="module")
def gh(data):
    rng = np.random.default_rng(0)
    return rng.standard_normal(data.n_records), rng.random(data.n_records) + 0.1


class TestBuild:
    def test_matches_brute_force(self, builder, gh):
        g, h = gh
        idx = np.arange(0, 300, 3)
        fast = builder.build(idx, g, h)
        slow = build_brute_force(builder, idx, g, h)
        # Bit identity: bincount adds each bin's records in index order,
        # exactly like the scalar loop.
        assert np.array_equal(fast.count, slow.count)
        assert np.array_equal(fast.grad, slow.grad)
        assert np.array_equal(fast.hess, slow.hess)

    def test_one_update_per_field_per_record(self, builder, gh, data):
        g, h = gh
        idx = np.arange(100)
        hist = builder.build(idx, g, h)
        # Density property: each field's bins sum to exactly the record count.
        for j in range(data.n_fields):
            sl = builder.field_slice(j)
            assert hist.count[sl].sum() == pytest.approx(100)

    def test_per_field_grad_totals_equal_node_total(self, builder, gh, data):
        g, h = gh
        idx = np.arange(37, 180)
        hist = builder.build(idx, g, h)
        for j in range(data.n_fields):
            sl = builder.field_slice(j)
            assert hist.grad[sl].sum() == pytest.approx(g[idx].sum())
            assert hist.hess[sl].sum() == pytest.approx(h[idx].sum())

    def test_empty_index(self, builder, gh):
        g, h = gh
        hist = builder.build(np.array([], dtype=np.int64), g, h)
        assert hist.count.sum() == 0
        assert hist.grad.sum() == 0

    def test_single_record(self, builder, gh, data):
        g, h = gh
        hist = builder.build(np.array([42]), g, h)
        assert hist.count.sum() == data.n_fields

    @given(st.integers(min_value=1, max_value=299))
    @settings(max_examples=20, deadline=None)
    def test_subset_totals_property(self, builder, gh, k):
        g, h = gh
        idx = np.arange(k)
        hist = builder.build(idx, g, h)
        assert hist.count.sum() == pytest.approx(k * builder.data.n_fields)


class TestSubtraction:
    def test_parent_minus_child_equals_sibling(self, builder, gh):
        g, h = gh
        idx = np.arange(200)
        left = idx[idx % 3 == 0]
        right = idx[idx % 3 != 0]
        parent = builder.build(idx, g, h)
        hl = builder.build(left, g, h)
        hr = builder.build(right, g, h)
        derived = parent.subtract(hl)
        assert np.allclose(derived.count, hr.count)
        assert np.allclose(derived.grad, hr.grad)
        assert np.allclose(derived.hess, hr.hess)

    def test_subtract_self_is_zero(self, builder, gh):
        g, h = gh
        hist = builder.build(np.arange(50), g, h)
        zero = hist.subtract(hist)
        assert np.allclose(zero.count, 0)
        assert np.allclose(zero.grad, 0)

    def test_size_mismatch_rejected(self, builder, gh):
        from repro.gbdt import Histogram

        g, h = gh
        hist = builder.build(np.arange(10), g, h)
        other = Histogram(
            count=np.zeros(3), grad=np.zeros(3), hess=np.zeros(3)
        )
        with pytest.raises(ValueError):
            hist.subtract(other)


class TestHistogramStructure:
    def test_field_slice_covers_all_bins(self, builder, data):
        total = 0
        for j in range(data.n_fields):
            sl = builder.field_slice(j)
            total += sl.stop - sl.start
        assert total == builder.n_bins

    def test_shape_mismatch_rejected(self):
        from repro.gbdt import Histogram

        with pytest.raises(ValueError):
            Histogram(count=np.zeros(4), grad=np.zeros(5), hess=np.zeros(4))

    def test_totals_for_field(self, builder, gh):
        g, h = gh
        idx = np.arange(64)
        hist = builder.build(idx, g, h)
        sl = builder.field_slice(0)
        c, gr, he = hist.totals_for_field(sl.start, sl.stop)
        assert c == pytest.approx(64)
        assert gr == pytest.approx(g[idx].sum())
        assert he == pytest.approx(h[idx].sum())
