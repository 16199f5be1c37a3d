"""Tests for irregularity instrumentation (repro.gbdt.instrument)."""

import numpy as np
import pytest

from repro.datasets import BENCHMARK_NAMES, load
from repro.gbdt import max_run_lengths, warp_conflict_factor
from tests import oracles


class TestMaxRunLengths:
    def test_all_equal_row(self):
        rows = np.array([[3, 3, 3, 3]])
        assert max_run_lengths(rows).tolist() == [4]

    def test_all_distinct_row(self):
        rows = np.array([[1, 2, 3, 4]])
        assert max_run_lengths(rows).tolist() == [1]

    def test_mixed_rows(self):
        rows = np.array([[1, 1, 2, 3], [0, 1, 1, 1]])
        assert max_run_lengths(rows).tolist() == [2, 3]

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            max_run_lengths(np.array([1, 2, 3]))

    def test_empty_width(self):
        assert max_run_lengths(np.zeros((3, 0), dtype=int)).tolist() == [0, 0, 0]


class TestWarpConflictFactor:
    def test_uniform_wide_bins_near_one(self, rng):
        codes = rng.integers(0, 10_000, size=(2048, 4))
        f = warp_conflict_factor(codes, warp=32)
        assert 1.0 <= f < 1.3

    def test_single_bin_equals_warp(self):
        codes = np.zeros((2048, 2), dtype=np.int64)
        assert warp_conflict_factor(codes, warp=32) == pytest.approx(32.0)

    def test_skew_increases_conflicts(self, rng):
        uniform = rng.integers(0, 256, size=(2048, 1))
        skewed = np.where(rng.random((2048, 1)) < 0.8, 0, uniform)
        assert warp_conflict_factor(skewed) > warp_conflict_factor(uniform)

    def test_small_sample_returns_one(self):
        codes = np.zeros((10, 3), dtype=np.int64)
        assert warp_conflict_factor(codes, warp=32) == 1.0

    def test_rejects_bad_warp(self, rng):
        with pytest.raises(ValueError):
            warp_conflict_factor(rng.integers(0, 4, size=(64, 2)), warp=0)

    def test_benchmark_ordering(self):
        # Categorical benchmarks must show more conflicts than numerical ones
        # (the Sec. II-D GPU argument).
        from repro.datasets import load

        flight = load("flight", n_records=2048)
        higgs = load("higgs", n_records=2048)
        assert warp_conflict_factor(flight.codes) > 2 * warp_conflict_factor(higgs.codes)


class TestWarpConflictMatchesLoop:
    """The whole-matrix factor == the field-by-field ``np.add.at`` loop, exactly."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_registry_datasets(self, name):
        codes = load(name, seed=7).codes
        assert warp_conflict_factor(codes) == oracles.warp_conflict_factor(codes)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_code_matrices(self, seed):
        """Seeded shapes, a third with ``sample`` and a third with ``n`` below ``warp``."""
        rng = np.random.default_rng(seed)
        warp = int(rng.integers(1, 41))
        below = int(rng.integers(1, max(warp, 2)))
        n = below - 1 if seed % 3 == 1 else int(rng.integers(0, 301))
        sample = below if seed % 3 == 0 else int(rng.integers(1, 301))
        n_fields = int(rng.integers(1, 7))
        n_bins = [1, 2, 5, 256, 70_000][seed % 5]
        dtype = np.uint8 if n_bins <= 256 else np.uint32
        codes = rng.integers(0, n_bins, size=(n, n_fields)).astype(dtype)
        expected = oracles.warp_conflict_factor(codes, warp=warp, sample=sample)
        assert warp_conflict_factor(codes, warp=warp, sample=sample) == expected

    def test_sample_below_warp(self):
        codes = np.zeros((100, 3), dtype=np.uint8)
        assert warp_conflict_factor(codes, warp=32, sample=20) == 1.0

    @pytest.mark.parametrize("width", [1, 127, 128, 255, 256])
    def test_run_lengths_at_position_dtype_limits(self, width):
        rows = np.zeros((2, width), dtype=np.int64)
        rows[1, width // 2 :] = 1
        assert max_run_lengths(rows).tolist() == [width, width - width // 2]
