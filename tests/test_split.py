"""Tests for best-split search (repro.gbdt.split), incl. hand-computed gains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import DatasetSpec, FieldKind, FieldSpec
from repro.gbdt import Histogram, SplitParams, SplitSearcher, leaf_weight, segment_cumsum


def one_field_spec(kind=FieldKind.NUMERICAL, n_bins=3, n_categories=3):
    f = FieldSpec(name="x", kind=kind, n_bins=n_bins, n_categories=n_categories)
    return DatasetSpec(name="t", fields=(f,), n_records=10)


def offsets_for(spec):
    sizes = [f.n_total_bins for f in spec.fields]
    return np.concatenate([[0], np.cumsum(sizes)])


def make_hist(count, grad, hess):
    return Histogram(
        count=np.asarray(count, dtype=np.float64),
        grad=np.asarray(grad, dtype=np.float64),
        hess=np.asarray(hess, dtype=np.float64),
    )


class TestSegmentCumsum:
    def test_two_segments(self):
        x = np.array([1.0, 2.0, 3.0, 10.0, 20.0])
        off = np.array([0, 3, 5])
        out = segment_cumsum(x, off)
        assert out.tolist() == [1.0, 3.0, 6.0, 10.0, 30.0]

    def test_single_segment_equals_cumsum(self, rng):
        x = rng.standard_normal(20)
        out = segment_cumsum(x, np.array([0, 20]))
        assert np.allclose(out, np.cumsum(x))

    def test_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            segment_cumsum(np.ones(5), np.array([0, 3]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            segment_cumsum(np.ones((2, 2)), np.array([0, 4]))

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_last_of_each_segment_is_segment_sum(self, sizes):
        rng = np.random.default_rng(0)
        off = np.concatenate([[0], np.cumsum(sizes)])
        x = rng.standard_normal(off[-1])
        out = segment_cumsum(x, off)
        for i in range(len(sizes)):
            seg = x[off[i] : off[i + 1]]
            assert out[off[i + 1] - 1] == pytest.approx(seg.sum())

    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_gathered_positions_are_bit_identical(self, sizes, seed):
        rng = np.random.default_rng(seed)
        off = np.concatenate([[0], np.cumsum(sizes)])
        x = rng.standard_normal(off[-1])
        x[rng.random(x.size) < 0.5] = 0.0
        at = np.flatnonzero(rng.random(x.size) < 0.5)
        segment = np.repeat(np.arange(len(sizes)), sizes)[at]
        dense = segment_cumsum(x, off)[at].tobytes()
        assert segment_cumsum(x, off, at, segment).tobytes() == dense

    def test_gather_needs_segments(self):
        with pytest.raises(ValueError, match="segment_of_at"):
            segment_cumsum(np.ones(4), np.array([0, 2, 4]), at=np.array([1, 3]))


class TestLeafWeight:
    def test_formula(self):
        assert leaf_weight(4.0, 3.0, 1.0) == pytest.approx(-1.0)

    def test_zero_grad(self):
        assert leaf_weight(0.0, 5.0, 1.0) == 0.0


class TestNumericalSplit:
    def test_hand_computed_gain(self):
        # One numerical field, 3 value bins + missing; lambda=1, gamma=0.
        # counts [2,2,2,0], G [2,2,-4,0], H = counts.
        # Split after bin 1: GL=4, HL=4 => gain = .5*(16/5 + 16/3 - 0/7) = 4.2667.
        spec = one_field_spec()
        params = SplitParams(lambda_=1.0, gamma=0.0, min_child_weight=0.0, min_child_records=1)
        s = SplitSearcher(spec, offsets_for(spec), params)
        hist = make_hist([2, 2, 2, 0], [2, 2, -4, 0], [2, 2, 2, 0])
        d = s.best_split(hist, g_tot=0.0, h_tot=6.0, c_tot=6.0)
        assert d.valid
        assert d.field == 0
        assert d.threshold_bin == 1
        assert not d.is_categorical
        assert d.gain == pytest.approx(0.5 * (16 / 5 + 16 / 3), rel=1e-12)
        assert d.grad_left == pytest.approx(4.0)
        assert d.count_right == pytest.approx(2.0)

    def test_gamma_subtracts_from_gain(self):
        spec = one_field_spec()
        base = SplitParams(lambda_=1.0, gamma=0.0, min_child_weight=0.0, min_child_records=1)
        pen = SplitParams(lambda_=1.0, gamma=1.5, min_child_weight=0.0, min_child_records=1)
        hist = make_hist([2, 2, 2, 0], [2, 2, -4, 0], [2, 2, 2, 0])
        g0 = SplitSearcher(spec, offsets_for(spec), base).best_split(hist, 0.0, 6.0, 6.0).gain
        g1 = SplitSearcher(spec, offsets_for(spec), pen).best_split(hist, 0.0, 6.0, 6.0).gain
        assert g1 == pytest.approx(g0 - 1.5)

    def test_missing_direction_chosen(self):
        # Missing bin holds strong negative gradient; best split should send
        # missing left, joining the negative-side bin.
        spec = one_field_spec()
        params = SplitParams(lambda_=1.0, gamma=0.0, min_child_weight=0.0, min_child_records=1)
        s = SplitSearcher(spec, offsets_for(spec), params)
        hist = make_hist([2, 2, 2, 3], [-4, 2, 2, -6], [2, 2, 2, 3])
        d = s.best_split(hist, g_tot=-6.0, h_tot=9.0, c_tot=9.0)
        assert d.valid
        assert d.threshold_bin == 0
        assert d.missing_left

    def test_no_split_on_uniform_gradients(self):
        # Constant gradient ratio everywhere: any split has zero gain, so the
        # node must become a leaf (gain <= 0 after gamma).
        spec = one_field_spec()
        params = SplitParams(lambda_=1.0, gamma=1e-6, min_child_weight=0.0, min_child_records=1)
        s = SplitSearcher(spec, offsets_for(spec), params)
        hist = make_hist([2, 2, 2, 0], [2, 2, 2, 0], [2, 2, 2, 0])
        d = s.best_split(hist, g_tot=6.0, h_tot=6.0, c_tot=6.0)
        assert not d.valid

    def test_min_child_records_blocks_tiny_side(self):
        spec = one_field_spec()
        params = SplitParams(lambda_=1.0, gamma=0.0, min_child_weight=0.0, min_child_records=3)
        s = SplitSearcher(spec, offsets_for(spec), params)
        # Best gain sits at a 2-vs-4 partition; with min_child_records=3 the
        # scan must settle for the balanced (weaker) candidate or none.
        hist = make_hist([2, 2, 2, 0], [5, 0, -5, 0], [2, 2, 2, 0])
        d = s.best_split(hist, g_tot=0.0, h_tot=6.0, c_tot=6.0)
        if d.valid:
            assert d.count_left >= 3 and d.count_right >= 3

    def test_min_child_weight_blocks_low_hessian(self):
        spec = one_field_spec()
        params = SplitParams(lambda_=1.0, gamma=0.0, min_child_weight=10.0, min_child_records=1)
        s = SplitSearcher(spec, offsets_for(spec), params)
        hist = make_hist([2, 2, 2, 0], [2, 2, -4, 0], [2, 2, 2, 0])
        d = s.best_split(hist, g_tot=0.0, h_tot=6.0, c_tot=6.0)
        assert not d.valid  # no side can reach H >= 10

    def test_last_bin_not_a_candidate(self):
        # Splitting after the last value bin leaves the right side empty.
        spec = one_field_spec()
        params = SplitParams(lambda_=1.0, gamma=0.0, min_child_weight=0.0, min_child_records=1)
        s = SplitSearcher(spec, offsets_for(spec), params)
        hist = make_hist([0, 0, 6, 0], [0, 0, 6, 0], [0, 0, 6, 0])
        d = s.best_split(hist, g_tot=6.0, h_tot=6.0, c_tot=6.0)
        assert not d.valid


class TestCategoricalSplit:
    def test_one_vs_rest_hand_computed(self):
        # Categories with counts [5,3,2] + absent 0; G=[5,-3,-2], H=counts.
        # One-vs-rest on category 0: GL=5, HL=5 =>
        # gain = .5*(25/6 + 25/6 - 0/11) = 25/6.
        spec = one_field_spec(kind=FieldKind.CATEGORICAL, n_categories=3)
        params = SplitParams(lambda_=1.0, gamma=0.0, min_child_weight=0.0, min_child_records=1)
        s = SplitSearcher(spec, offsets_for(spec), params)
        hist = make_hist([5, 3, 2, 0], [5, -3, -2, 0], [5, 3, 2, 0])
        d = s.best_split(hist, g_tot=0.0, h_tot=10.0, c_tot=10.0)
        assert d.valid
        assert d.is_categorical
        assert d.threshold_bin == 0
        assert d.gain == pytest.approx(25 / 6, rel=1e-12)

    def test_rare_category_with_strong_effect_wins(self):
        # A tiny category with extreme gradient beats the bulk categories --
        # the mechanism behind the paper's lopsided Allstate/Flight splits.
        spec = one_field_spec(kind=FieldKind.CATEGORICAL, n_categories=4)
        params = SplitParams(lambda_=1.0, gamma=0.0, min_child_weight=0.0, min_child_records=1)
        s = SplitSearcher(spec, offsets_for(spec), params)
        hist = make_hist(
            [50, 40, 9, 1, 0], [1, -1, 0.5, 30, 0], [50, 40, 9, 1, 0]
        )
        d = s.best_split(hist, g_tot=30.5, h_tot=100.0, c_tot=100.0)
        assert d.valid
        assert d.threshold_bin == 3
        assert d.count_left == pytest.approx(1.0)

    def test_mixed_fields_pick_global_best(self):
        f_num = FieldSpec(name="x", kind=FieldKind.NUMERICAL, n_bins=3)
        f_cat = FieldSpec(name="c", kind=FieldKind.CATEGORICAL, n_categories=3)
        spec = DatasetSpec(name="t", fields=(f_num, f_cat), n_records=10)
        params = SplitParams(lambda_=1.0, gamma=0.0, min_child_weight=0.0, min_child_records=1)
        s = SplitSearcher(spec, offsets_for(spec), params)
        # Numerical field is noise; categorical category 1 carries the signal.
        hist = make_hist(
            [2, 2, 2, 0, 2, 2, 2, 0],
            [0.1, -0.1, 0.0, 0, 0.2, -8.0, 7.8, 0],
            [2, 2, 2, 0, 2, 2, 2, 0],
        )
        d = s.best_split(hist, g_tot=0.0, h_tot=6.0, c_tot=6.0)
        assert d.valid
        assert d.field == 1
        assert d.is_categorical

    def test_left_right_aggregates_conserve(self):
        spec = one_field_spec(kind=FieldKind.CATEGORICAL, n_categories=3)
        params = SplitParams(lambda_=1.0, gamma=0.0, min_child_weight=0.0, min_child_records=1)
        s = SplitSearcher(spec, offsets_for(spec), params)
        hist = make_hist([5, 3, 2, 1], [5, -3, -2, 0.5], [5, 3, 2, 1])
        d = s.best_split(hist, g_tot=0.5, h_tot=11.0, c_tot=11.0)
        assert d.grad_left + d.grad_right == pytest.approx(0.5)
        assert d.hess_left + d.hess_right == pytest.approx(11.0)
        assert d.count_left + d.count_right == pytest.approx(11.0)


class TestSearcherValidation:
    def test_wrong_histogram_size_rejected(self):
        spec = one_field_spec()
        params = SplitParams()
        s = SplitSearcher(spec, offsets_for(spec), params)
        with pytest.raises(ValueError, match="bin space"):
            s.best_split(make_hist([1], [1], [1]), 1.0, 1.0, 1.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SplitParams(lambda_=-1.0)
        with pytest.raises(ValueError):
            SplitParams(min_child_records=0)
