"""Percentile estimator and honest small-sample labeling (the p99 bugfix)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.stats import min_samples_for_percentile, percentile, percentile_label


class TestPercentile:
    def test_interpolates_between_order_statistics(self):
        values = list(range(1, 101))  # 1..100
        # Rank position (n-1) * q/100 = 98.01: between 99 and 100.
        assert percentile(values, 99) == pytest.approx(99.01)
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 25) == pytest.approx(1.75)

    def test_endpoints_and_singletons(self):
        assert percentile([5.0, 1.0, 3.0], 0) == 1.0
        assert percentile([5.0, 1.0, 3.0], 100) == 5.0
        assert percentile([7.0], 99) == 7.0

    def test_small_sample_p99_is_not_the_max(self):
        """The old bench helper returned exactly max() for any p >= 1 - 1/n;
        linear interpolation keeps the estimate below the maximum."""
        assert percentile([1.0, 2.0, 10.0], 99) < 10.0

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 3000),
        qs=st.lists(st.floats(0, 100), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_several_qs_match_one_q_calls_bit_for_bit(self, n, qs, seed):
        values = np.random.default_rng(seed).lognormal(0.0, 2.0, size=n)
        many = percentile(values, qs)
        assert isinstance(many, list)
        assert many == [percentile(values, q) for q in qs]
        assert many == percentile(values.tolist(), tuple(qs))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 3000),
        qs=st.lists(st.floats(0, 100), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
    )
    def test_matches_numpy_percentile_bit_for_bit(self, n, qs, seed, ties):
        """One sort plus ``sorted_quantile`` repeats ``np.percentile``'s
        ``linear`` arithmetic exactly, repeated order statistics included."""
        values = np.random.default_rng(seed).lognormal(0.0, 2.0, size=n)
        if ties:
            values = np.round(values, 1)
        want = np.percentile(values, qs, method="linear")
        assert np.array_equal(np.asarray(percentile(values, qs)), want)
        assert percentile(values, qs[0]) == float(want[0])

    def test_latency_qs_in_one_call(self):
        values = np.random.default_rng(3).exponential(size=37_000)
        assert percentile(values, (50, 99, 99.9)) == [
            percentile(values, 50),
            percentile(values, 99),
            percentile(values, 99.9),
        ]
        assert isinstance(percentile(values, 50), float)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0], 101)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0], -1)
        with pytest.raises(ValueError, match=r"\[0, 100\], got 101"):
            percentile([1.0], [50, 101])


class TestLabels:
    def test_min_samples_thresholds(self):
        assert min_samples_for_percentile(50) == 2
        assert min_samples_for_percentile(99) == 100
        assert min_samples_for_percentile(99.9) == 1000
        with pytest.raises(ValueError):
            min_samples_for_percentile(100)

    def test_labels_flag_max_collapse(self):
        assert percentile_label(99, 100) == "p99"
        assert percentile_label(99, 3) == "p99~max(n=3)"
        assert percentile_label(99.9, 1000) == "p999"
        assert percentile_label(99.9, 999) == "p999~max(n=999)"
        assert percentile_label(50, 1) == "p50~max(n=1)"
