"""Unit and property tests for memory layouts (repro.datasets.layout)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    RecordLayout,
    dataset_spec,
    expected_touched_blocks,
    field_element_bytes,
)
from tests.conftest import small_spec_factory


class TestFieldElementBytes:
    def test_byte_sized_fields(self):
        assert field_element_bytes(256) == 1

    def test_two_byte_fields(self):
        assert field_element_bytes(257) == 2
        assert field_element_bytes(65536) == 2

    def test_four_byte_fields(self):
        assert field_element_bytes(65537) == 4


class TestExpectedTouchedBlocks:
    def test_zero_selection(self):
        assert expected_touched_blocks(0, 1000, 8) == 0.0

    def test_full_selection_touches_all(self):
        assert expected_touched_blocks(1024, 1024, 8) == pytest.approx(128)

    def test_never_below_packing_lower_bound(self):
        # 100 records can never fit in fewer than ceil(100/8) blocks.
        assert expected_touched_blocks(100, 10**9, 8) >= 13

    def test_sparse_selection_one_block_each(self):
        # At density 1e-6 each selected record sits alone in its block.
        got = expected_touched_blocks(10, 10_000_000, 8)
        assert got == pytest.approx(10, rel=0.01)

    def test_monotone_in_selection(self):
        vals = [expected_touched_blocks(k, 10_000, 16) for k in (10, 100, 1000, 10_000)]
        assert vals == sorted(vals)

    def test_array_input(self):
        out = expected_touched_blocks(np.array([0, 8, 64]), 64, 8)
        assert out.shape == (3,)
        assert out[0] == 0.0
        assert out[2] == pytest.approx(8.0)

    def test_matches_monte_carlo(self, rng):
        n, k, epb = 5000, 800, 8
        trials = []
        for _ in range(30):
            sel = rng.choice(n, size=k, replace=False)
            trials.append(len(np.unique(sel // epb)))
        expect = expected_touched_blocks(k, n, epb)
        assert expect == pytest.approx(np.mean(trials), rel=0.03)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            expected_touched_blocks(-1, 10, 8)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=10_000),
        st.sampled_from([1, 2, 4, 8, 16, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_property(self, sel, universe, epb):
        sel = min(sel, universe)
        got = expected_touched_blocks(sel, universe, epb)
        total = -(-universe // epb)
        assert 0 <= got <= total + 1e-9
        assert got >= -(-sel // epb) - 1e-9  # at least the dense packing


class TestRecordLayout:
    def test_record_bytes_sum_of_fields(self, small_spec):
        lay = RecordLayout(small_spec)
        assert lay.record_bytes == int(lay.field_bytes.sum())

    def test_packing_small_records(self):
        spec = small_spec_factory(n_numerical=8, n_categorical=0)  # 8-byte records
        lay = RecordLayout(spec)
        assert lay.records_per_block == 8
        assert lay.blocks_per_record == 1

    def test_wide_records_span_blocks(self):
        spec = dataset_spec("iot", n_records=256)  # 115 one-byte fields
        lay = RecordLayout(spec)
        assert lay.records_per_block == 1
        assert lay.blocks_per_record == 2

    def test_row_sequential_block_granularity(self):
        spec = small_spec_factory(n_numerical=8, n_categorical=0)
        lay = RecordLayout(spec)
        # 100 packed records at 8/block -> 13 blocks.
        assert lay.row_bytes_sequential(100) == 13 * 64

    def test_row_gather_density_one_equals_sequential(self):
        spec = small_spec_factory(n_numerical=8, n_categorical=0, n_records=640)
        lay = RecordLayout(spec)
        assert lay.row_bytes_gather(640, 640) == pytest.approx(
            lay.row_bytes_sequential(640)
        )

    def test_row_gather_sparse_costs_block_per_record(self):
        spec = small_spec_factory(n_numerical=8, n_categorical=0, n_records=800)
        lay = RecordLayout(spec)
        got = lay.row_bytes_gather(5, 1_000_000)
        assert got == pytest.approx(5 * 64, rel=0.01)

    def test_column_sequential_bytes(self, small_spec):
        lay = RecordLayout(small_spec)
        one = lay.column_bytes_sequential([0], 1000)
        assert one == -(-1000 // 64) * 64  # 1-byte column, block-rounded

    def test_column_gather_inflates_at_low_density(self, small_spec):
        lay = RecordLayout(small_spec)
        dense = lay.column_bytes_gather(0, 1000, 1000)
        sparse = lay.column_bytes_gather(0, 1000, 1_000_000)
        assert sparse > 10 * dense

    def test_column_gather_vector_fields(self, small_spec):
        lay = RecordLayout(small_spec)
        fields = np.array([0, 1])
        sel = np.array([100, 200])
        out = lay.column_bytes_gather(fields, sel, 1000)
        assert out.shape == (2,)
        assert np.all(out > 0)

    def test_stats_bytes(self, small_spec):
        lay = RecordLayout(small_spec)
        assert lay.stats_bytes_sequential(64) == 512  # 64 * 8B exactly 8 blocks

    def test_pointer_bytes_rounding(self, small_spec):
        lay = RecordLayout(small_spec)
        assert lay.pointer_bytes(1) == 64
        assert lay.pointer_bytes(16) == 64
        assert lay.pointer_bytes(17) == 128

    def test_redundancy_overhead_near_two(self, small_spec):
        lay = RecordLayout(small_spec)
        n = small_spec.n_records
        row = lay.row_bytes_sequential(n)
        column = lay.column_bytes_sequential(range(small_spec.n_fields), n)
        # Row + column copies: overhead factor in (1.5, 2.5) for byte fields.
        assert 1.5 < (row + column) / row < 2.5

    def test_zero_requests_cost_zero(self, small_spec):
        lay = RecordLayout(small_spec)
        assert lay.row_bytes_sequential(0) == 0.0
        assert lay.row_bytes_gather(0, 100) == 0.0
        assert lay.column_bytes_sequential([], 100) == 0.0
        assert lay.pointer_bytes(0) == 0.0
