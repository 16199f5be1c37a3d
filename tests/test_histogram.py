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
            sl = slice(builder.offsets[j], builder.offsets[j + 1])
            assert hist.count[sl].sum() == pytest.approx(100)

    def test_per_field_grad_totals_equal_node_total(self, builder, gh, data):
        g, h = gh
        idx = np.arange(37, 180)
        hist = builder.build(idx, g, h)
        for j in range(data.n_fields):
            sl = slice(builder.offsets[j], builder.offsets[j + 1])
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

    def test_successive_builds_match_brute_force(self, data, gh):
        """Growing and shrinking builds reuse one scratch buffer; each must
        equal the brute-force oracle, so no stale rows leak between calls."""
        builder = HistogramBuilder(data)
        g, h = gh
        rng = np.random.default_rng(11)
        for size in (300, 7, 150, 1, 299, 40, 300, 2):
            idx = np.sort(rng.choice(data.n_records, size=size, replace=False))
            fast = builder.build(idx, g, h)
            slow = build_brute_force(builder, idx, g, h)
            assert fast.count.tobytes() == slow.count.tobytes()
            assert fast.grad.tobytes() == slow.grad.tobytes()
            assert fast.hess.tobytes() == slow.hess.tobytes()

    def test_positions_index_like_numpy(self, builder, gh, data):
        """A negative position counts from the end, as ``g[index]`` does, and
        a position past the last record raises."""
        g, h = gh
        n = data.n_records
        idx = np.array([-1, 4, -n, 17, -2])
        fast = builder.build(idx, g, h)
        slow = build_brute_force(builder, idx % n, g, h)
        assert fast.count.tobytes() == slow.count.tobytes()
        assert fast.grad.tobytes() == slow.grad.tobytes()
        assert fast.hess.tobytes() == slow.hess.tobytes()
        with pytest.raises(IndexError):
            builder.build(np.array([0, n]), g, h)

    def test_unit_hessian_is_the_count_histogram(self, builder, gh, data):
        """Squared error's ``h == 1`` returns the count histogram as hess,
        bit-identical to binning the ones one update at a time."""
        g, _ = gh
        ones = np.ones(data.n_records)
        idx = np.arange(5, 290, 2)
        hist = builder.build(idx, g, ones)
        slow = build_brute_force(builder, idx, g, ones)
        assert hist.unit_hess and hist.hess is hist.count
        assert hist.hess.tobytes() == slow.hess.tobytes()
        assert hist.grad.tobytes() == slow.grad.tobytes()

    def test_one_other_hessian_bins_hess(self, builder, gh, data):
        """A single selected ``h != 1`` needs its own hess histogram."""
        g, _ = gh
        h = np.ones(data.n_records)
        h[101] = 1.5
        idx = np.arange(5, 290, 2)
        hist = builder.build(idx, g, h)
        assert not hist.unit_hess
        assert hist.hess.tobytes() == build_brute_force(builder, idx, g, h).hess.tobytes()
        assert builder.build(idx[idx != 101], g, h).unit_hess

    def test_unit_hessian_subtraction_keeps_sharing(self, builder, gh, data):
        g, h = gh
        ones = np.ones(data.n_records)
        parent = builder.build(np.arange(200), g, ones)
        child = builder.build(np.arange(0, 200, 3), g, ones)
        sibling = parent.subtract(child)
        assert sibling.unit_hess
        assert np.array_equal(sibling.count, parent.count - child.count)
        mixed = builder.build(np.arange(200), g, h).subtract(child)
        assert not mixed.unit_hess


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
    def test_shape_mismatch_rejected(self):
        from repro.gbdt import Histogram

        with pytest.raises(ValueError):
            Histogram(count=np.zeros(4), grad=np.zeros(5), hess=np.zeros(4))
