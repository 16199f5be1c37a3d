"""Unit tests for binned encoding (repro.datasets.encoding)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import BinnedDataset, discretize_numerical, quantile_bin_edges
from repro.datasets.encoding import SortedColumn, smallest_code_dtype, sorted_quantile
from tests import oracles
from tests.conftest import small_spec_factory


def _column(draw, n: int) -> np.ndarray:
    """A finite column of ``n`` values: distinct, heavily tied or constant."""
    kind = draw(st.sampled_from(["normal", "ties", "constant", "wide"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "ties":
        return rng.integers(0, draw(st.integers(1, 5)), size=n).astype(np.float64)
    if kind == "constant":
        return np.full(n, rng.standard_normal())
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)


@st.composite
def finite_columns(draw) -> np.ndarray:
    n = draw(st.one_of(st.integers(1, 40), st.integers(1, 20_000)))
    return _column(draw, n)


@st.composite
def columns_with_non_finite(draw) -> np.ndarray:
    x = draw(finite_columns())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for value in (np.nan, np.inf, -np.inf):
        x[rng.random(x.size) < draw(st.sampled_from([0.0, 0.05, 1.0]))] = value
    return x


class TestSortedQuantile:
    """The sorted-column quantile == ``np.quantile`` bit for bit."""

    @given(finite_columns(), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_scalar_q(self, x, q):
        expected = np.quantile(x, q)
        got = sorted_quantile(np.sort(x), q)
        assert type(got) is type(expected)
        assert got.tobytes() == expected.tobytes()

    @given(finite_columns(), st.integers(2, 300))
    @settings(max_examples=150, deadline=None)
    def test_vector_q_bin_quantiles(self, x, n_bins):
        """The binning quantiles, including more bins than values."""
        qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
        got = sorted_quantile(np.sort(x), qs)
        assert got.dtype == np.float64
        assert got.tobytes() == np.quantile(x, qs).tobytes()

    @given(finite_columns(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_vector_q_arbitrary(self, x, qs):
        qs = np.asarray(qs)
        assert sorted_quantile(np.sort(x), qs).tobytes() == np.quantile(x, qs).tobytes()

    def test_end_points_and_single_value(self):
        x = np.array([3.0, -1.0, 2.0])
        assert sorted_quantile(np.sort(x), np.array([0.0, 1.0])).tolist() == [-1.0, 3.0]
        assert sorted_quantile(np.array([5.0]), 0.7) == 5.0


class TestSortedColumn:
    """Sort-once edges and codes == ``np.quantile`` + ``discretize_numerical``."""

    @given(columns_with_non_finite(), st.integers(2, 300))
    @settings(max_examples=150, deadline=None)
    def test_edges_and_codes_match_oracle(self, x, n_bins):
        column = SortedColumn(x)
        edges = column.bin_edges(n_bins)
        expected_edges = oracles.quantile_bin_edges(x, n_bins)
        assert edges.dtype == np.float64
        assert edges.tobytes() == expected_edges.tobytes()
        codes = column.codes(edges, n_bins)
        expected = discretize_numerical(x, expected_edges, n_bins)
        assert codes.dtype == expected.dtype == np.int32
        assert codes.tobytes() == expected.tobytes()
        # The public edges go through the same helper.
        assert quantile_bin_edges(x, n_bins).tobytes() == edges.tobytes()

    @given(columns_with_non_finite(), st.lists(st.floats(-3.0, 3.0), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_codes_for_arbitrary_sorted_edges(self, x, edges):
        """Codes count the edges strictly below a value, ties included."""
        edges = np.sort(np.asarray(edges, dtype=np.float64))
        codes = SortedColumn(x).codes(edges, missing_bin=99)
        assert codes.tobytes() == discretize_numerical(x, edges, 99).tobytes()

    def test_values_on_edges_go_left(self):
        edges = np.array([1.0, 2.0, 2.0, 3.0])
        x = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
        assert discretize_numerical(x, edges, 9).tolist() == [0, 0, 1, 1, 3, 3, 4]

    def test_finite_run_skips_non_finite(self):
        column = SortedColumn(np.array([np.nan, 2.0, -np.inf, 1.0, np.inf, -np.inf]))
        assert column.lo == 2
        assert column.finite.tolist() == [1.0, 2.0]
        assert sorted_quantile(column.finite, 0.5) == 1.5


class TestQuantileBinEdges:
    def test_edge_count(self):
        edges = quantile_bin_edges(np.random.default_rng(0).random(1000), 16)
        assert edges.shape == (15,)

    def test_edges_monotonic(self):
        edges = quantile_bin_edges(np.random.default_rng(0).standard_normal(5000), 32)
        assert np.all(np.diff(edges) >= 0)

    def test_roughly_equal_mass(self):
        x = np.random.default_rng(1).random(100_000)
        edges = quantile_bin_edges(x, 10)
        codes = np.searchsorted(edges, x)
        counts = np.bincount(codes, minlength=10)
        assert counts.min() > 0.08 * len(x)
        assert counts.max() < 0.12 * len(x)

    def test_constant_column_allowed(self):
        edges = quantile_bin_edges(np.ones(100), 8)
        assert edges.shape == (7,)
        assert np.all(edges == 1.0)

    def test_all_nan_column(self):
        edges = quantile_bin_edges(np.full(10, np.nan), 4)
        assert edges.shape == (3,)

    def test_rejects_one_bin(self):
        with pytest.raises(ValueError):
            quantile_bin_edges(np.arange(10.0), 1)


class TestDiscretize:
    def test_nan_goes_to_missing_bin(self):
        edges = np.array([0.0, 1.0])
        x = np.array([-1.0, 0.5, 2.0, np.nan])
        codes = discretize_numerical(x, edges, missing_bin=3)
        assert codes.tolist() == [0, 1, 2, 3]

    def test_inf_goes_to_missing_bin(self):
        edges = np.array([0.0])
        codes = discretize_numerical(np.array([np.inf, -np.inf]), edges, 9)
        assert codes.tolist() == [9, 9]

    def test_codes_within_value_range_for_finite(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(1000)
        edges = quantile_bin_edges(x, 20)
        codes = discretize_numerical(x, edges, missing_bin=20)
        assert codes.min() >= 0
        assert codes.max() <= 19

    @given(st.integers(min_value=2, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_every_bin_reachable(self, n_bins):
        x = np.linspace(0, 1, 10 * n_bins)
        edges = quantile_bin_edges(x, n_bins)
        codes = discretize_numerical(x, edges, missing_bin=n_bins)
        assert set(np.unique(codes)) <= set(range(n_bins))


class TestBinnedDataset:
    def make(self, n=50):
        spec = small_spec_factory(n_records=n)
        from repro.datasets import generate

        return generate(spec)

    def test_shape_validation(self):
        ds = self.make()
        with pytest.raises(ValueError, match="rows"):
            BinnedDataset(spec=ds.spec, codes=ds.codes[:-1], y=ds.y[:-1])

    def test_label_shape_validation(self):
        ds = self.make()
        with pytest.raises(ValueError, match="y has shape"):
            BinnedDataset(spec=ds.spec, codes=ds.codes, y=ds.y[:-1])

    def test_bin_offsets_monotone_and_total(self):
        ds = self.make()
        off = ds.bin_offsets()
        assert off[0] == 0
        assert np.all(np.diff(off) > 0)
        assert off[-1] == ds.spec.n_total_bins

    def test_global_codes_disjoint_ranges(self):
        ds = self.make()
        off = ds.bin_offsets()
        gc = ds.codes.astype(np.int64) + off[:-1][None, :]
        for j in range(ds.n_fields):
            col = gc[:, j]
            assert col.min() >= off[j]
            assert col.max() < off[j + 1]

    def test_validate_codes_passes_on_generated(self):
        self.make().validate_codes()  # must not raise

    def test_validate_codes_catches_overflow(self):
        ds = self.make()
        bad = ds.codes.copy()
        bad[0, 0] = ds.spec.fields[0].n_total_bins  # one past the missing bin
        with pytest.raises(ValueError, match="out of range"):
            BinnedDataset(spec=ds.spec, codes=bad, y=ds.y).validate_codes()

    def test_field_bin_counts_match_spec(self):
        ds = self.make()
        expected = [f.n_total_bins for f in ds.spec.fields]
        assert ds.field_bin_counts().tolist() == expected


class TestSmallestCodeDtype:
    def test_uint8_for_256_bins(self):
        spec = small_spec_factory(n_bins=200)
        assert smallest_code_dtype(spec) == np.uint8

    def test_uint16_for_large_categorical(self):
        from repro.datasets import FieldKind, FieldSpec, DatasetSpec

        spec = DatasetSpec(
            name="big",
            fields=(
                FieldSpec(name="c", kind=FieldKind.CATEGORICAL, n_categories=5000),
            ),
            n_records=10,
        )
        assert smallest_code_dtype(spec) == np.uint16
