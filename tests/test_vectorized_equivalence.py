"""Vectorized-vs-scalar-reference equivalence for the hot cores.

Every vectorized path in the training and memory layers is pinned to a
plain oracle; these tests assert bit-identity (not approximate equality)
between the two on randomized inputs:

* the per-vertex ``best_split`` (exact bin compaction) vs the dense
  ``best_split_many`` oracle, incl. sparse histograms where ``best_split``
  skips the bins that cannot win;
* the lock-step FR-FCFS lane kernel vs the plain ``while pending`` loop,
  lane by lane, and the DRAM calibration vs the same traces run through it;
* the vertex-by-vertex trainer vs the level-by-level oracle (trees, splits,
  losses, work profiles) across a small trees x depth x scale grid.
* the whole-run ``WorkProfile`` reductions vs per-tree loops.

The oracles live in :mod:`tests.oracles`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import DatasetSpec, FieldKind, FieldSpec, generate
from repro.datasets.layout import RecordLayout
from repro.gbdt import GBDTTrainer, TrainParams, train
from repro.gbdt.histogram import Histogram, HistogramBuilder
from repro.gbdt import split as split_module
from repro.gbdt.split import DENSE_MIN_OCCUPANCY, SplitParams, SplitSearcher
from repro.memory import (
    DRAMConfig,
    DRAMSimulator,
    bandwidth_profile,
    sequential,
)
from repro.memory.dram import _PAD_ROW, serve_lanes
from repro.memory.profile import _CAL_BLOCKS
from tests.conftest import small_spec_factory
from tests import oracles
from tests.traces import gather_blocks
from tests.oracles import (
    ChannelSim,
    LevelWiseOracle,
    best_split_many,
    dram_run_oracle,
    tree_works,
)


@pytest.fixture(scope="module")
def data():
    return generate(small_spec_factory(n_records=700, seed=21))


@pytest.fixture(scope="module")
def builder(data):
    return HistogramBuilder(data)


def _random_stats(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.normal(size=n), rng.uniform(0.05, 1.0, size=n)


class TestBestSplitMany:
    """The dense ``best_split_many`` oracle == per-vertex ``best_split`` per row."""

    def _histograms(self, data, builder, k: int, seed: int):
        rng = np.random.default_rng(seed)
        g, h = _random_stats(data.n_records, seed + 1)
        count = np.empty((k, builder.n_bins))
        grad = np.empty((k, builder.n_bins))
        hess = np.empty((k, builder.n_bins))
        g_tot = np.empty(k)
        h_tot = np.empty(k)
        c_tot = np.empty(k)
        hists = []
        for j in range(k):
            index = np.flatnonzero(rng.random(data.n_records) < rng.uniform(0.05, 0.9))
            hist = builder.build(index, g, h)
            hists.append(hist)
            count[j], grad[j], hess[j] = hist.count, hist.grad, hist.hess
            g_tot[j] = g[index].sum()
            h_tot[j] = h[index].sum()
            c_tot[j] = float(index.size)
        return hists, count, grad, hess, g_tot, h_tot, c_tot

    @given(k=st.integers(1, 8), seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_matches_per_row_best_split(self, data, builder, k, seed):
        searcher = SplitSearcher(data.spec, builder.offsets, TrainParams().split)
        hists, count, grad, hess, g_tot, h_tot, c_tot = self._histograms(
            data, builder, k, seed
        )
        batch = best_split_many(searcher, count, grad, hess, g_tot, h_tot, c_tot)
        assert len(batch) == k
        for j in range(k):
            solo = searcher.best_split(hists[j], g_tot[j], h_tot[j], c_tot[j])
            assert batch[j] == solo

    def test_single_row_matrix(self, data, builder):
        searcher = SplitSearcher(data.spec, builder.offsets, TrainParams().split)
        hists, count, grad, hess, g_tot, h_tot, c_tot = self._histograms(
            data, builder, 1, seed=5
        )
        (decision,) = best_split_many(searcher, count, grad, hess, g_tot, h_tot, c_tot)
        assert decision == searcher.best_split(hists[0], g_tot[0], h_tot[0], c_tot[0])

    # -- sparse histograms: best_split's exact bin compaction vs the dense scan --

    @staticmethod
    def _assert_rows_match(searcher, hists, g_tot, h_tot, c_tot) -> list:
        """``best_split`` == the dense ``best_split_many`` row, for every row."""
        batch = best_split_many(
            searcher,
            np.stack([h.count for h in hists]),
            np.stack([h.grad for h in hists]),
            np.stack([h.hess for h in hists]),
            g_tot,
            h_tot,
            c_tot,
        )
        for j, hist in enumerate(hists):
            assert searcher.best_split(hist, g_tot[j], h_tot[j], c_tot[j]) == batch[j]
        return batch

    @staticmethod
    def _one_field_searcher(n_fields: int = 1) -> SplitSearcher:
        fields = tuple(
            FieldSpec(name=f"x{i}", kind=FieldKind.NUMERICAL, n_bins=4) for i in range(n_fields)
        )
        spec = DatasetSpec(name="sparse", fields=fields, n_records=10)
        offsets = np.arange(n_fields + 1, dtype=np.int64) * fields[0].n_total_bins
        params = SplitParams(lambda_=1.0, gamma=0.0, min_child_weight=0.0, min_child_records=1)
        return SplitSearcher(spec, offsets, params)

    @given(n_records=st.integers(2, 12), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_empty_bins(self, data, builder, n_records, seed):
        """A handful of records leaves most bins empty, in runs between
        occupied ones -- the bins the compacted kernel skips."""
        searcher = SplitSearcher(data.spec, builder.offsets, TrainParams().split)
        rng = np.random.default_rng(seed)
        g, h = _random_stats(data.n_records, seed + 1)
        hists, totals = [], []
        for _ in range(4):
            index = np.sort(rng.choice(data.n_records, size=n_records, replace=False))
            hists.append(builder.build(index, g, h))
            totals.append((g[index].sum(), h[index].sum(), float(index.size)))
        occupied = hists[0].count != 0
        assert (~occupied[:-1] & occupied[1:]).any()  # an empty bin before an occupied one
        self._assert_rows_match(searcher, hists, *map(np.array, zip(*totals)))

    def test_empty_bin0_next_to_missing_bin_missing_left_wins(self):
        """Field 1's empty local bin 0 follows field 0's occupied missing bin
        in the flat layout.  Sending field 1's missing records left at
        threshold 0 splits off exactly them -- only an empty bin 0 scores it,
        so a kernel that skips empty bin 0s picks a worse split."""
        searcher = self._one_field_searcher(n_fields=2)
        # Per field: four value bins, then the missing bin.
        count = [3, 3, 3, 3, 2] + [0, 3, 3, 3, 3]
        grad = [1, -1, 1, -1, 0] + [0, 3, 3, 3, -9]
        hist = Histogram(*(np.asarray(v, dtype=np.float64) for v in (count, grad, count)))
        batch = self._assert_rows_match(
            searcher, [hist], np.array([0.0]), np.array([12.0]), np.array([12.0])
        )
        assert (batch[0].field, batch[0].threshold_bin, batch[0].missing_left) == (1, 0, True)

    def test_subtracted_histogram_residuals(self, data, builder):
        """Two levels of ``subtract`` -- the trainer's larger-child trick
        applied to a parent that was itself subtracted -- leave bins with
        zero count but rounding-residual grad/hess.  They are not empty and
        must be scored."""
        searcher = SplitSearcher(data.spec, builder.offsets, TrainParams().split)
        g, h = _random_stats(data.n_records, 3)
        rng = np.random.default_rng(3)
        hists, totals = [], []
        for _ in range(6):
            grandparent = np.arange(data.n_records)
            parent = np.flatnonzero(rng.random(data.n_records) < 0.6)
            sibling = np.setdiff1d(grandparent, parent)
            child = parent[rng.random(parent.size) < 0.9]
            other = np.setdiff1d(parent, child)
            parent_hist = builder.build(grandparent, g, h).subtract(builder.build(sibling, g, h))
            hists.append(parent_hist.subtract(builder.build(child, g, h)))
            totals.append((g[other].sum(), h[other].sum(), float(other.size)))
        residual = [(x.count == 0) & ((x.grad != 0) | (x.hess != 0)) for x in hists]
        assert all(r.any() for r in residual)
        self._assert_rows_match(searcher, hists, *map(np.array, zip(*totals)))

    def test_zero_count_residual_bin_wins(self):
        """A zero-count bin whose residual gradient is the only thing that
        makes a positive gain: a kernel that filters on ``count`` alone
        skips it and returns a later bin (or no split)."""
        searcher = self._one_field_searcher()
        parent = Histogram(
            count=np.array([1.0, 2.0, 1.0, 1.0, 0.0]),
            grad=np.array([0.0, 0.1 + 0.2, 0.0, 0.0, 0.0]),
            hess=np.array([1.0, 0.1 + 0.2, 1.0, 1.0, 0.0]),
        )
        child = Histogram(
            count=np.array([0.0, 2.0, 0.0, 0.0, 0.0]),
            grad=np.array([0.0, 0.3, 0.0, 0.0, 0.0]),
            hess=np.array([0.0, 0.3, 0.0, 0.0, 0.0]),
        )
        hist = parent.subtract(child)
        assert hist.count[1] == 0 and hist.grad[1] != 0 and hist.hess[1] != 0
        batch = self._assert_rows_match(
            searcher, [hist], np.array([0.0]), np.array([3.0]), np.array([3.0])
        )
        assert batch[0].valid and batch[0].threshold_bin == 1

    @pytest.mark.parametrize("missing_rate", [0.0, 0.05])
    def test_purely_numerical_spec(self, missing_rate):
        """No categorical candidates at all (iot, higgs, mq2008); without
        missing values no missing-left gain can differ either."""
        numerical = generate(
            small_spec_factory(n_records=500, n_categorical=0, missing_rate=missing_rate, seed=4)
        )
        num_builder = HistogramBuilder(numerical)
        searcher = SplitSearcher(numerical.spec, num_builder.offsets, TrainParams().split)
        hists, _, _, _, g_tot, h_tot, c_tot = self._histograms(numerical, num_builder, 6, seed=8)
        self._assert_rows_match(searcher, hists, g_tot, h_tot, c_tot)

    @pytest.mark.parametrize("unit_hessian", [False, True])
    def test_compacted_and_dense_cumsums(self, data, builder, unit_hessian):
        """Small nodes hold records in under ``DENSE_MIN_OCCUPANCY`` of the
        bins (``best_split`` compacts), large nodes in more (dense scorer);
        both match the oracle, with real and with unit hessians."""
        searcher = SplitSearcher(data.spec, builder.offsets, TrainParams().split)
        g, h = _random_stats(data.n_records, 29)
        rng = np.random.default_rng(29)
        hists, totals = [], []
        for size in (2, 3, 9, 40, 400, 700):
            index = np.sort(rng.choice(data.n_records, size=size, replace=False))
            hists.append(builder.build(index, g, np.ones_like(h) if unit_hessian else h))
            h_tot = float(size) if unit_hessian else h[index].sum()
            totals.append((g[index].sum(), h_tot, float(size)))
        occupancy = [np.mean(x.count != 0) for x in hists]
        assert min(occupancy) < DENSE_MIN_OCCUPANCY < max(occupancy)
        assert all(x.unit_hess == unit_hessian for x in hists)
        self._assert_rows_match(searcher, hists, *map(np.array, zip(*totals)))

    @given(
        seed=st.integers(0, 10**6),
        ratio=st.floats(0.0, 0.99),
        mcw=st.floats(1e-3, 50.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_light_hessian_node_has_no_valid_split(self, data, builder, seed, ratio, mcw):
        """``h_tot < 2 * min_child_weight``: the dense oracle finds no valid
        split on arbitrary histograms, so the trainer may skip the search.
        The left sums may even exceed ``h_tot``."""
        rng = np.random.default_rng(seed)
        k = 4
        count = rng.integers(0, 6, size=(k, builder.n_bins)).astype(np.float64)
        grad = rng.normal(size=count.shape) * (count > 0)
        hess = rng.uniform(0.0, 2.0 * mcw, size=count.shape) * (count > 0)
        g_tot = rng.normal(size=k)
        c_tot = rng.integers(2, 40, size=k).astype(np.float64)
        h_tot = np.array([2 * mcw * ratio, np.nextafter(2 * mcw, 0.0), 0.0, mcw])
        params = SplitParams(lambda_=1.0, gamma=0.0, min_child_weight=mcw, min_child_records=1)
        searcher = SplitSearcher(data.spec, builder.offsets, params)
        for j, decision in enumerate(
            best_split_many(searcher, count, grad, hess, g_tot, h_tot, c_tot)
        ):
            assert searcher.cannot_split(h_tot[j])
            assert not decision.valid
        # The same histograms split once the hessian total reaches 2 * mcw.
        roomy = np.full(k, 8 * mcw + hess.sum(axis=1).max())
        assert not any(searcher.cannot_split(x) for x in roomy)
        roomy_decisions = best_split_many(searcher, count, grad, hess, g_tot, roomy, c_tot)
        assert any(d.valid for d in roomy_decisions)

    def test_skip_rule_needs_positive_min_child_weight(self, data, builder):
        for mcw in (0.0, -1.0):
            params = SplitParams(min_child_weight=mcw)
            searcher = SplitSearcher(data.spec, builder.offsets, params)
            assert not any(searcher.cannot_split(x) for x in (-1.0, 0.0, 1e-300, 1.0))
        searcher = SplitSearcher(data.spec, builder.offsets, SplitParams(min_child_weight=1.0))
        assert searcher.cannot_split(np.nextafter(2.0, 0.0))
        assert not searcher.cannot_split(2.0)


class TestDenseAndCompactedScorers:
    """Each of ``best_split``'s two scorers, forced, == the dense oracle."""

    @pytest.fixture(params=["dense", "compacted"])
    def scorer(self, request, monkeypatch):
        """Force one scorer: every vertex counts as occupied, or none does."""
        floor = 0.0 if request.param == "dense" else 2.0
        monkeypatch.setattr(split_module, "DENSE_MIN_OCCUPANCY", floor)
        return request.param

    @staticmethod
    def _check(searcher, hists, totals) -> list:
        """``best_split`` == the oracle row for every ``(hist, totals)`` pair."""
        g_tot, h_tot, c_tot = map(np.array, zip(*totals))
        return TestBestSplitMany._assert_rows_match(searcher, hists, g_tot, h_tot, c_tot)

    @staticmethod
    def _built(data, builder, seed, unit_hessian=False, sizes=(3, 40, 200, 700)):
        g, h = _random_stats(data.n_records, seed)
        if unit_hessian:
            h = np.ones_like(h)
        rng = np.random.default_rng(seed)
        hists, totals = [], []
        for size in sizes:
            index = np.sort(rng.choice(data.n_records, size=size, replace=False))
            hists.append(builder.build(index, g, h))
            totals.append((g[index].sum(), h[index].sum(), float(index.size)))
        return hists, totals

    @pytest.mark.parametrize("unit_hessian", [False, True])
    def test_unit_and_real_hessians(self, data, builder, scorer, unit_hessian):
        hists, totals = self._built(data, builder, 41, unit_hessian)
        assert all(x.unit_hess == unit_hessian for x in hists)
        self._check(SplitSearcher(data.spec, builder.offsets, TrainParams().split), hists, totals)

    @staticmethod
    def _arbitrary(data, builder, seed: int, k: int = 24):
        """``k`` arbitrary histograms over the mixed spec, missing bins
        included, with totals at least every field's own sums."""
        rng = np.random.default_rng(seed)
        count = rng.integers(0, 5, size=(k, builder.n_bins)).astype(np.float64)
        grad = rng.normal(size=count.shape) * (count > 0)
        hess = rng.uniform(0.1, 1.0, size=count.shape) * (count > 0)
        hists = [Histogram(count[j], grad[j], hess[j]) for j in range(k)]
        starts = builder.offsets[:-1]
        totals = [
            tuple(np.add.reduceat(x[j], starts).max() for x in (grad, hess, count))
            for j in range(k)
        ]
        params = SplitParams(lambda_=1.0, gamma=0.0, min_child_weight=0.0, min_child_records=1)
        return SplitSearcher(data.spec, builder.offsets, params), hists, totals

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_histograms(self, data, builder, seed):
        searcher, hists, totals = self._arbitrary(data, builder, seed)
        for floor in (0.0, 2.0):
            split_module.DENSE_MIN_OCCUPANCY = floor
            try:
                self._check(searcher, hists, totals)
            finally:
                split_module.DENSE_MIN_OCCUPANCY = DENSE_MIN_OCCUPANCY

    def test_categorical_and_missing_left_bands(self, data, builder, scorer):
        """Every variant family -- numerical and categorical, missing
        records sent right and left -- wins somewhere, and matches."""
        won = set()
        for seed in range(12):
            searcher, hists, totals = self._arbitrary(data, builder, seed)
            batch = self._check(searcher, hists, totals)
            won |= {(d.is_categorical, d.missing_left) for d in batch if d.valid}
        assert won == {(False, False), (False, True), (True, False), (True, True)}

    def test_subtraction_residue_bins(self, data, builder, scorer):
        """Zero-count bins with rounding-residual grad/hess after two levels
        of ``subtract`` are scored by both scorers."""
        g, h = _random_stats(data.n_records, 5)
        rng = np.random.default_rng(5)
        hists, totals = [], []
        for _ in range(6):
            parent = np.flatnonzero(rng.random(data.n_records) < 0.6)
            sibling = np.setdiff1d(np.arange(data.n_records), parent)
            child = parent[rng.random(parent.size) < 0.9]
            other = np.setdiff1d(parent, child)
            full = builder.build(np.arange(data.n_records), g, h)
            parent_hist = full.subtract(builder.build(sibling, g, h))
            hists.append(parent_hist.subtract(builder.build(child, g, h)))
            totals.append((g[other].sum(), h[other].sum(), float(other.size)))
        assert all(((x.count == 0) & ((x.grad != 0) | (x.hess != 0))).any() for x in hists)
        self._check(SplitSearcher(data.spec, builder.offsets, TrainParams().split), hists, totals)

    @pytest.mark.parametrize(
        "kinds",
        [
            ("numerical:4", "numerical:9", "numerical:15"),
            ("numerical:6", "categorical:5", "numerical:6", "categorical:3"),
        ],
    )
    def test_fields_of_unequal_size(self, scorer, kinds):
        """Numerical fields of different sizes, or interleaved with
        categorical ones: each bin's base is spread from its own field."""
        fields = []
        for i, kind in enumerate(kinds):
            name, size = kind.split(":")
            numerical = name == "numerical"
            fields.append(
                FieldSpec(
                    name=f"f{i}",
                    kind=FieldKind.NUMERICAL if numerical else FieldKind.CATEGORICAL,
                    n_bins=int(size) if numerical else 256,
                    n_categories=0 if numerical else int(size),
                    missing_rate=0.1,
                    target_weight=1.0,
                )
            )
        spec = DatasetSpec(name="ragged", fields=tuple(fields), n_records=400, seed=5)
        ragged = generate(spec)
        ragged_builder = HistogramBuilder(ragged)
        searcher = SplitSearcher(spec, ragged_builder.offsets, TrainParams().split)
        for unit_hessian in (False, True):
            hists, totals = self._built(ragged, ragged_builder, 13, unit_hessian, (20, 150, 400))
            self._check(searcher, hists, totals)

    @pytest.mark.parametrize("occupied_bins, dense", [(5, False), (6, True), (7, True)])
    def test_occupancy_at_the_crossover(self, monkeypatch, occupied_bins, dense):
        """Two 10-bin fields: 6 of 20 bins is exactly ``DENSE_MIN_OCCUPANCY``
        and takes the dense scorer, 5 the compacted one; both are exact."""
        assert DENSE_MIN_OCCUPANCY * 20 == 6
        fields = tuple(
            FieldSpec(name=f"x{i}", kind=FieldKind.NUMERICAL, n_bins=9) for i in range(2)
        )
        spec = DatasetSpec(name="crossover", fields=fields, n_records=10)
        params = SplitParams(lambda_=1.0, gamma=0.0, min_child_weight=0.0, min_child_records=1)
        searcher = SplitSearcher(spec, np.array([0, 10, 20]), params)
        calls = []
        dense_bands = SplitSearcher._dense_bands
        monkeypatch.setattr(
            SplitSearcher, "_dense_bands", lambda s, *a: calls.append(1) or dense_bands(s, *a)
        )
        rng = np.random.default_rng(occupied_bins)
        count = np.zeros(20)
        count[rng.choice(20, size=occupied_bins, replace=False)] = rng.integers(1, 5, occupied_bins)
        grad = rng.normal(size=20) * (count > 0)
        hist = Histogram(count, grad, count * 0.5)
        totals = [(grad.sum() / 2, count.sum() / 4, count.sum() / 2)]
        self._check(searcher, [hist], totals)
        assert bool(calls) == dense

    def test_back_to_back_searches_share_no_state(self, data, builder):
        """One searcher, many searches through both scorers in both orders:
        each decision holds plain scalars and equals the oracle's, so no
        decision aliases scratch or sees an earlier search's leftovers."""
        searcher = SplitSearcher(data.spec, builder.offsets, TrainParams().split)
        hists, totals = self._built(data, builder, 7, sizes=(2, 700, 5, 300, 1, 650))
        unit, unit_totals = self._built(data, builder, 8, unit_hessian=True, sizes=(600, 4, 500))
        hists, totals = hists + unit, totals + unit_totals
        forward = [searcher.best_split(x, *t) for x, t in zip(hists, totals)]
        backward = [searcher.best_split(x, *t) for x, t in zip(hists[::-1], totals[::-1])][::-1]
        assert forward == backward == self._check(searcher, hists, totals)
        for decision in forward:
            for value in vars(decision).values():
                assert isinstance(value, (int, float)) and not isinstance(value, np.ndarray)


def _serve_oracle_lanes(cfg, window, lanes):
    """Pack per-lane ``(arrivals, banks, rows)`` streams for ``serve_lanes``."""
    bounds = np.concatenate([[0], np.cumsum([len(arr) for arr, _, _ in lanes])])
    slot = [lane * cfg.n_banks + banks for lane, (_, banks, _) in enumerate(lanes)]
    rows = [r for _, _, r in lanes]
    arrivals = [arr for arr, _, _ in lanes]
    return serve_lanes(
        cfg,
        window,
        bounds.astype(np.int64),
        np.concatenate(slot + [[0]]).astype(np.int32),
        np.concatenate(rows + [[_PAD_ROW]]).astype(np.int32),
        np.concatenate(arrivals + [[0]]).astype(np.int64),
    )


class TestChannelSimEquivalence:
    """The lock-step lane kernel == the ``ChannelSim`` oracle, lane by lane."""

    @given(
        lengths=st.lists(st.integers(0, 90), min_size=1, max_size=6),
        window=st.sampled_from([1, 2, 3, 16, 64]),
        seed=st.integers(0, 10**6),
        hot_rows=st.booleans(),
        sorted_arrivals=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_matches_reference(self, lengths, window, seed, hot_rows, sorted_arrivals):
        rng = np.random.default_rng(seed)
        cfg = DRAMConfig()
        lanes = []
        for n in lengths:
            arrivals = rng.integers(-4, 300, size=n)
            if sorted_arrivals:
                arrivals.sort()
            banks = rng.integers(0, cfg.n_banks, size=n)
            rows = rng.integers(0, 4 if hot_rows else 10**6, size=n)
            lanes.append((arrivals, banks, rows))
        cycles, latency, hits = _serve_oracle_lanes(cfg, window, lanes)
        for lane, (arrivals, banks, rows) in enumerate(lanes):
            ref = ChannelSim(cfg, window)
            span, lat = ref.run_reference(arrivals, banks, rows)
            assert (int(cycles[lane]), float(latency[lane])) == (span, lat)
            assert int(hits[lane]) == ref.row_hits

    def test_streaming_then_gather(self):
        """A long pure-hit stretch followed by conflicts, beside a short lane."""
        cfg = DRAMConfig()
        rng = np.random.default_rng(3)
        banks = np.concatenate(
            [np.zeros(500, dtype=np.int64), rng.integers(0, cfg.n_banks, 500)]
        )
        rows = np.concatenate(
            [np.zeros(500, dtype=np.int64), rng.integers(0, 10**6, 500)]
        )
        arrivals = np.zeros(1000, dtype=np.int64)
        lanes = [(arrivals, banks, rows), (arrivals[:7], banks[-7:], rows[-7:])]
        cycles, latency, hits = _serve_oracle_lanes(cfg, 16, lanes)
        for lane, (arr, bnk, row) in enumerate(lanes):
            ref = ChannelSim(cfg)
            assert (int(cycles[lane]), float(latency[lane])) == ref.run_reference(arr, bnk, row)
            assert int(hits[lane]) == ref.row_hits

    def test_simulator_paths_agree(self):
        rng = np.random.default_rng(11)
        addrs = rng.integers(0, 1 << 22, size=20_000, dtype=np.int64)
        paced = rng.integers(-50, 40_000, size=addrs.size)
        for arrivals in (None, paced):
            assert DRAMSimulator().run(addrs, arrivals) == dram_run_oracle(addrs, arrivals=arrivals)
        # Rows past int16 and past int32 take the wider packed row types.
        for top in (1 << 30, 1 << 50):
            wide = rng.integers(0, top, size=2_000, dtype=np.int64)
            assert DRAMSimulator().run(wide) == dram_run_oracle(wide)

    def test_run_matches_oracle_per_trace(self):
        """Traces of unequal length, one empty, one paced, on a small DRAM."""
        rng = np.random.default_rng(5)
        cfg = DRAMConfig(n_channels=3, n_banks=4)
        traces = [
            rng.integers(0, 1 << 16, size=900),
            np.array([], dtype=np.int64),
            np.arange(40),
            gather_blocks(3000, 0.3, seed=2),
        ]
        arrivals = [None, None, np.arange(40)[::-1] * 3, None]
        sim = DRAMSimulator(cfg, window=3)
        for t, a in zip(traces, arrivals):
            assert sim.run(t, a) == dram_run_oracle(t, cfg, 3, a)

    def test_calibration_matches_oracle(self):
        """``bandwidth_profile`` == the calibration stream run through the oracle."""
        assert bandwidth_profile().stream == dram_run_oracle(sequential(_CAL_BLOCKS))


def _assert_same_tree(ta, tb) -> None:
    assert np.array_equal(ta.field, tb.field)
    assert np.array_equal(ta.threshold_bin, tb.threshold_bin)
    assert np.array_equal(ta.left, tb.left)
    assert np.array_equal(ta.right, tb.right)
    assert np.array_equal(ta.weight, tb.weight)


def _assert_same_work(wa, wb) -> None:
    assert np.array_equal(wa.depth, wb.depth)
    assert np.array_equal(wa.n_reach, wb.n_reach)
    assert np.array_equal(wa.n_binned, wb.n_binned)
    assert np.array_equal(wa.split_evaluated, wb.split_evaluated)
    assert np.array_equal(wa.is_split, wb.is_split)
    assert np.array_equal(wa.split_field, wb.split_field)
    assert np.array_equal(wa.relevant_fields, wb.relevant_fields)


class TestTrainerGrid:
    """Vertex-by-vertex trainer == level-by-level oracle: same trees, same
    splits, same losses, same work profile."""

    @pytest.mark.parametrize(
        "n_records,trees,depth",
        [(300, 2, 3), (700, 3, 5), (1200, 2, 7)],
    )
    def test_vectorized_reference_identity(self, n_records, trees, depth):
        data = generate(small_spec_factory(n_records=n_records, seed=n_records))
        params = TrainParams(n_trees=trees, max_depth=depth)
        vertex = train(data, params)
        level = LevelWiseOracle(data, params).fit()
        assert np.array_equal(vertex.losses, level.losses)
        for tv, tl in zip(vertex.trees, level.trees):
            _assert_same_tree(tv, tl)
        for wv, wl in zip(tree_works(vertex.profile), tree_works(level.profile), strict=True):
            _assert_same_work(wv, wl)
        assert np.array_equal(vertex.profile.root_bin_counts, level.profile.root_bin_counts)
        assert (
            vertex.profile.smaller_child_fraction_mean
            == level.profile.smaller_child_fraction_mean
        )


class TestGrowTreeEquivalence:
    """``_grow_tree`` called directly on identical random gradients (not
    just via whole fits): the vertex-by-vertex trainer == the level-by-level
    oracle."""

    def test_single_tree_identity(self, data):
        params = TrainParams(n_trees=1, max_depth=5)
        g, h = _random_stats(data.n_records, 17)
        v_tree, v_work, v_fracs, v_counts, v_w, v_len = GBDTTrainer(data, params)._grow_tree(g, h)
        l_tree, l_work, l_fracs, l_counts, l_w, l_len = LevelWiseOracle(data, params)._grow_tree(
            g, h
        )
        _assert_same_tree(v_tree, l_tree)
        _assert_same_work(v_work, l_work)
        assert v_fracs == l_fracs
        assert np.array_equal(v_counts, l_counts)
        assert v_w.tobytes() == l_w.tobytes()
        assert np.array_equal(v_len, l_len)


class TestWorkProfileAggregation:
    """Whole-run reductions == their per-tree reference loops.

    Integer-valued totals must match exactly; the byte reductions sum the
    same float terms in a different association order, so they match to
    relative 1e-12.
    """

    @pytest.fixture(scope="class")
    def profile(self):
        data = generate(small_spec_factory(n_records=500, seed=9))
        return train(data, TrainParams(n_trees=3, max_depth=4)).profile

    @pytest.fixture(scope="class")
    def layout(self, profile):
        return RecordLayout(profile.spec)

    def test_binned_records(self, profile):
        assert profile.binned_records() == oracles.binned_records(profile)

    def test_step1_bytes(self, profile, layout):
        assert profile.step1_bytes(layout) == pytest.approx(
            oracles.step1_bytes(profile, layout), rel=1e-12
        )

    def test_step2_evaluations(self, profile):
        assert profile.step2_evaluations() == oracles.step2_evaluations(profile)

    def test_partition_records(self, profile):
        assert profile.partition_records() == oracles.partition_records(profile)

    @pytest.mark.parametrize("column_format", [True, False])
    def test_step3_bytes(self, profile, layout, column_format):
        assert profile.step3_bytes(layout, column_format) == pytest.approx(
            oracles.step3_bytes(profile, layout, column_format), rel=1e-12
        )

    def test_traversal_hops(self, profile):
        assert profile.traversal_hops() == pytest.approx(
            oracles.traversal_hops(profile), rel=1e-12
        )

    @pytest.mark.parametrize("column_format", [True, False])
    def test_step5_bytes(self, profile, layout, column_format):
        assert profile.step5_bytes(layout, column_format) == pytest.approx(
            oracles.step5_bytes(profile, layout, column_format), rel=1e-12
        )

    def test_empty_profile_reductions_agree(self, profile, layout):
        from repro.gbdt.workprofile import WorkProfile

        empty = WorkProfile.of_trees(profile.spec, [])
        assert empty.binned_records() == oracles.binned_records(empty) == 0.0
        assert empty.step1_bytes(layout) == oracles.step1_bytes(empty, layout) == 0.0
        assert empty.traversal_hops() == oracles.traversal_hops(empty) == 0.0
        assert empty.step2_evaluations() == oracles.step2_evaluations(empty) == 0
        assert empty.partition_records() == oracles.partition_records(empty) == 0.0
