"""Vectorized-vs-scalar-reference equivalence for the hot cores.

Every vectorized path in the training and memory layers keeps its scalar
reference implementation as an oracle; these tests assert bit-identity
(not approximate equality) between the two on randomized inputs:

* grouped histogram binning vs per-group ``build`` calls;
* the batched level-wide split search vs per-vertex ``best_split``, incl.
  sparse histograms where ``best_split`` skips the bins that cannot win;
* the one-pass level partition vs the per-vertex scan/build reference;
* the array-based FR-FCFS scheduler vs the plain ``while pending`` loop;
* whole trainer runs (trees, splits, losses, work profiles) across a
  small trees x depth x scale grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import DatasetSpec, FieldKind, FieldSpec, generate
from repro.datasets.layout import RecordLayout
from repro.gbdt import TrainParams, train_level_wise
from repro.gbdt import split as split_mod
from repro.gbdt.histogram import Histogram, HistogramBuilder
from repro.gbdt.levelwise import LevelWiseTrainer
from repro.gbdt.split import SplitParams, SplitSearcher
from repro.memory import DRAMConfig, DRAMSimulator
from repro.memory.dram import ChannelSim
from tests.conftest import small_spec_factory


@pytest.fixture(scope="module")
def data():
    return generate(small_spec_factory(n_records=700, seed=21))


@pytest.fixture(scope="module")
def builder(data):
    return HistogramBuilder(data)


def _random_stats(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.normal(size=n), rng.uniform(0.05, 1.0, size=n)


class TestGroupedHistogram:
    """``build_grouped`` == one ``build`` per group, to the last ulp."""

    @given(n_groups=st.integers(1, 9), seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_matches_per_group_build(self, data, builder, n_groups, seed):
        rng = np.random.default_rng(seed)
        g, h = _random_stats(data.n_records, seed)
        index = np.flatnonzero(rng.random(data.n_records) < 0.6)
        group_of = rng.integers(0, n_groups, size=index.size)
        grouped = builder.build_grouped(index, group_of, n_groups, g, h)
        assert len(grouped) == n_groups
        for k in range(n_groups):
            solo = builder.build(index[group_of == k], g, h)
            assert np.array_equal(grouped[k].count, solo.count)
            assert np.array_equal(grouped[k].grad, solo.grad)
            assert np.array_equal(grouped[k].hess, solo.hess)

    def test_empty_index(self, data, builder):
        g, h = _random_stats(data.n_records, 0)
        empty = np.empty(0, dtype=np.int64)
        count, grad, hess = builder.build_grouped_arrays(empty, empty, 3, g, h)
        assert count.shape == grad.shape == hess.shape == (3, builder.n_bins)
        assert not count.any() and not grad.any() and not hess.any()

    def test_validation(self, data, builder):
        g, h = _random_stats(data.n_records, 1)
        index = np.arange(5, dtype=np.int64)
        with pytest.raises(ValueError, match="n_groups"):
            builder.build_grouped_arrays(index, np.zeros(5, dtype=np.int64), -1, g, h)
        with pytest.raises(ValueError, match="shape"):
            builder.build_grouped_arrays(index, np.zeros(4, dtype=np.int64), 2, g, h)
        with pytest.raises(ValueError, match="group ids"):
            builder.build_grouped_arrays(index, np.full(5, 2, dtype=np.int64), 2, g, h)


class TestBestSplitMany:
    """The batched level-wide search == per-vertex ``best_split`` per row."""

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
        batch = searcher.best_split_many(count, grad, hess, g_tot, h_tot, c_tot)
        assert len(batch) == k
        for j in range(k):
            solo = searcher.best_split(hists[j], g_tot[j], h_tot[j], c_tot[j])
            assert batch[j] == solo

    def test_chunked_recursion_matches(self, data, builder, monkeypatch):
        """Rows above the cache-residency chunk split recursively -- the
        chunk boundary must never change any row's decision."""
        searcher = SplitSearcher(data.spec, builder.offsets, TrainParams().split)
        hists, count, grad, hess, g_tot, h_tot, c_tot = self._histograms(
            data, builder, 7, seed=99
        )
        whole = searcher.best_split_many(count, grad, hess, g_tot, h_tot, c_tot)
        monkeypatch.setattr(split_mod, "_CHUNK_ELEMS", builder.n_bins * 2)
        chunked = searcher.best_split_many(count, grad, hess, g_tot, h_tot, c_tot)
        assert chunked == whole

    def test_single_row_matrix(self, data, builder):
        searcher = SplitSearcher(data.spec, builder.offsets, TrainParams().split)
        hists, count, grad, hess, g_tot, h_tot, c_tot = self._histograms(
            data, builder, 1, seed=5
        )
        (decision,) = searcher.best_split_many(count, grad, hess, g_tot, h_tot, c_tot)
        assert decision == searcher.best_split(hists[0], g_tot[0], h_tot[0], c_tot[0])

    # -- sparse histograms: best_split's exact bin compaction vs the dense scan --

    @staticmethod
    def _assert_rows_match(searcher, hists, g_tot, h_tot, c_tot) -> list:
        """``best_split`` == the dense ``best_split_many`` row, for every row."""
        batch = searcher.best_split_many(
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


def _capture_all_levels(trainer: LevelWiseTrainer) -> list[dict]:
    """Run one reference fit, capturing every level-partition call's inputs."""
    captured: list[dict] = []
    orig = trainer._partition_level_reference

    def hook(live, splits, vertex_of_record, g, h, depth):
        captured.append(
            {
                "live": dict(live),
                "splits": dict(splits),
                "vertex_of_record": vertex_of_record.copy(),
                "g": g.copy(),
                "h": h.copy(),
                "depth": depth,
            }
        )
        return orig(live, splits, vertex_of_record, g, h, depth)

    trainer._partition_level_reference = hook
    try:
        trainer.fit()
    finally:
        trainer._partition_level_reference = orig
    return captured


class TestLevelPartition:
    """One-pass partition == per-vertex reference on real captured levels."""

    @pytest.fixture(scope="class")
    def levels(self, data):
        trainer = LevelWiseTrainer(
            data, TrainParams(n_trees=2, max_depth=5), vectorized=False
        )
        captured = _capture_all_levels(trainer)
        assert captured, "the reference fit never partitioned a level"
        return trainer, captured

    def test_captures_both_binning_classes(self, levels):
        trainer, captured = levels
        binning = {c["depth"] + 1 < trainer.params.max_depth for c in captured}
        assert binning == {True, False}

    def test_partition_matches_reference(self, levels):
        trainer, captured = levels
        for cap in captured:
            live, splits = cap["live"], cap["splits"]
            vor, g, h, depth = cap["vertex_of_record"], cap["g"], cap["h"], cap["depth"]
            n_live = len(live)
            split_vids = sorted(splits)
            decisions = [splits[v] for v in split_vids]
            n_bins = trainer.builder.n_bins
            hist_c = np.zeros((n_live, n_bins))
            hist_g = np.zeros((n_live, n_bins))
            hist_h = np.zeros((n_live, n_bins))
            for vid, node in live.items():
                if node.hist is not None:
                    hist_c[vid] = node.hist.count
                    hist_g[vid] = node.hist.grad
                    hist_h[vid] = node.hist.hess

            next_live, _parent_of, ref_assignment, ref_fracs = (
                trainer._partition_level_reference(live, splits, vor, g, h, depth)
            )
            (
                vec_assignment,
                vec_fracs,
                g_tot,
                h_tot,
                c_tot,
                n_reach,
                binned,
                out_c,
                out_g,
                out_h,
                has_hist,
            ) = trainer._partition_level_vectorized(
                n_live, split_vids, decisions, vor, hist_c, hist_g, hist_h, g, h, depth
            )

            assert np.array_equal(ref_assignment, vec_assignment)
            assert ref_fracs == vec_fracs
            assert sorted(next_live) == list(range(2 * len(split_vids)))
            for vid, node in next_live.items():
                assert g_tot[vid] == node.g_tot
                assert h_tot[vid] == node.h_tot
                assert c_tot[vid] == node.c_tot
                assert n_reach[vid] == node.n_reach
                assert has_hist[vid] == (node.hist is not None)
                assert binned[vid] == node.binned_here
                if node.hist is not None:
                    assert np.array_equal(out_c[vid], node.hist.count)
                    assert np.array_equal(out_g[vid], node.hist.grad)
                    assert np.array_equal(out_h[vid], node.hist.hess)


class TestChannelSimEquivalence:
    """Array-based FR-FCFS stepping == the ``while pending`` reference."""

    @given(
        n=st.integers(0, 120),
        window=st.sampled_from([1, 2, 3, 16, 64]),
        seed=st.integers(0, 10**6),
        hot_rows=st.booleans(),
        sorted_arrivals=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_matches_reference(self, n, window, seed, hot_rows, sorted_arrivals):
        rng = np.random.default_rng(seed)
        cfg = DRAMConfig()
        banks = rng.integers(0, cfg.n_banks, size=n)
        rows = rng.integers(0, 4 if hot_rows else 10**6, size=n)
        arrivals = rng.integers(-4, 300, size=n)
        if sorted_arrivals:
            arrivals.sort()
        vec, ref = ChannelSim(cfg, window), ChannelSim(cfg, window)
        assert vec.run(arrivals, banks, rows) == ref.run_reference(arrivals, banks, rows)
        assert vec.row_hits == ref.row_hits
        assert vec.bus_free_at == ref.bus_free_at
        for bank_v, bank_r in zip(vec.banks, ref.banks):
            assert bank_v == bank_r

    def test_streaming_then_gather(self):
        """A long pure-hit stretch (bulk path) followed by conflicts."""
        cfg = DRAMConfig()
        rng = np.random.default_rng(3)
        banks = np.concatenate(
            [np.zeros(500, dtype=np.int64), rng.integers(0, cfg.n_banks, 500)]
        )
        rows = np.concatenate(
            [np.zeros(500, dtype=np.int64), rng.integers(0, 10**6, 500)]
        )
        arrivals = np.zeros(1000, dtype=np.int64)
        vec, ref = ChannelSim(cfg), ChannelSim(cfg)
        assert vec.run(arrivals, banks, rows) == ref.run_reference(arrivals, banks, rows)
        assert vec.row_hits == ref.row_hits

    def test_simulator_paths_agree(self):
        rng = np.random.default_rng(11)
        addrs = rng.integers(0, 1 << 22, size=20_000, dtype=np.int64)
        fast = DRAMSimulator(vectorized=True).run(addrs)
        slow = DRAMSimulator(vectorized=False).run(addrs)
        assert fast.total_cycles == slow.total_cycles
        assert fast.row_hits == slow.row_hits
        assert fast.latency_sum == slow.latency_sum


class TestTrainerGrid:
    """Whole-trainer identity: same trees, same splits, same losses."""

    @pytest.mark.parametrize(
        "n_records,trees,depth",
        [(300, 2, 3), (700, 3, 5), (1200, 2, 7)],
    )
    def test_vectorized_reference_identity(self, n_records, trees, depth):
        data = generate(small_spec_factory(n_records=n_records, seed=n_records))
        params = TrainParams(n_trees=trees, max_depth=depth)
        vec = train_level_wise(data, params, vectorized=True)
        ref = train_level_wise(data, params, vectorized=False)
        assert np.array_equal(vec.losses, ref.losses)
        for tv, tr in zip(vec.trees, ref.trees):
            assert np.array_equal(tv.field, tr.field)
            assert np.array_equal(tv.threshold_bin, tr.threshold_bin)
            assert np.array_equal(tv.left, tr.left)
            assert np.array_equal(tv.right, tr.right)
            assert np.array_equal(tv.weight, tr.weight)
        for wv, wr in zip(vec.profile.trees, ref.profile.trees):
            assert np.array_equal(wv.depth, wr.depth)
            assert np.array_equal(wv.n_reach, wr.n_reach)
            assert np.array_equal(wv.n_binned, wr.n_binned)
            assert np.array_equal(wv.split_evaluated, wr.split_evaluated)
            assert np.array_equal(wv.is_split, wr.is_split)
            assert np.array_equal(wv.split_field, wr.split_field)
        assert vec.profile.smaller_child_fraction_mean == pytest.approx(
            ref.profile.smaller_child_fraction_mean
        )


class TestGrowTreeEquivalence:
    """``_grow_tree`` twins: ``_grow_tree_vectorized`` == ``_grow_tree_reference``
    called directly on identical gradient inputs (not just via whole fits)."""

    def test_single_tree_identity(self, data):
        params = TrainParams(n_trees=1, max_depth=5)
        g, h = _random_stats(data.n_records, 17)
        vec_tree, vec_work, vec_fracs, vec_counts = LevelWiseTrainer(
            data, params, vectorized=True
        )._grow_tree_vectorized(g, h)
        ref_tree, ref_work, ref_fracs, ref_counts = LevelWiseTrainer(
            data, params, vectorized=False
        )._grow_tree_reference(g, h)
        assert np.array_equal(vec_tree.field, ref_tree.field)
        assert np.array_equal(vec_tree.threshold_bin, ref_tree.threshold_bin)
        assert np.array_equal(vec_tree.left, ref_tree.left)
        assert np.array_equal(vec_tree.right, ref_tree.right)
        assert np.array_equal(vec_tree.weight, ref_tree.weight)
        assert np.array_equal(vec_work.depth, ref_work.depth)
        assert np.array_equal(vec_work.n_reach, ref_work.n_reach)
        assert np.array_equal(vec_work.n_binned, ref_work.n_binned)
        assert np.array_equal(vec_work.split_evaluated, ref_work.split_evaluated)
        assert np.array_equal(vec_work.is_split, ref_work.is_split)
        assert np.array_equal(vec_work.split_field, ref_work.split_field)
        assert np.array_equal(vec_work.relevant_fields, ref_work.relevant_fields)
        assert vec_fracs == ref_fracs
        assert np.array_equal(vec_counts, ref_counts)

    def test_dispatcher_selects_twin(self, data):
        """``_grow_tree`` routes by the ``vectorized`` flag; both routes agree."""
        params = TrainParams(n_trees=1, max_depth=4)
        g, h = _random_stats(data.n_records, 23)
        vec_tree, _, _, _ = LevelWiseTrainer(data, params, vectorized=True)._grow_tree(g, h)
        ref_tree, _, _, _ = LevelWiseTrainer(data, params, vectorized=False)._grow_tree(g, h)
        assert np.array_equal(vec_tree.weight, ref_tree.weight)
        assert np.array_equal(vec_tree.field, ref_tree.field)


class TestWorkProfileAggregation:
    """Stacked whole-run reductions == their per-tree reference loops.

    Integer-valued totals must match exactly; the byte reductions sum the
    same float terms in a different association order, so they match to
    relative 1e-12.
    """

    @pytest.fixture(scope="class")
    def profile(self):
        data = generate(small_spec_factory(n_records=500, seed=9))
        return train_level_wise(data, TrainParams(n_trees=3, max_depth=4)).profile

    @pytest.fixture(scope="class")
    def layout(self, profile):
        return RecordLayout(profile.spec)

    def test_binned_records(self, profile):
        assert profile.binned_records() == profile.binned_records_reference()

    def test_step1_bytes(self, profile, layout):
        assert profile.step1_bytes(layout) == pytest.approx(
            profile.step1_bytes_reference(layout), rel=1e-12
        )

    def test_step2_evaluations(self, profile):
        assert profile.step2_evaluations() == profile.step2_evaluations_reference()

    def test_partition_records(self, profile):
        assert profile.partition_records() == profile.partition_records_reference()

    @pytest.mark.parametrize("column_format", [True, False])
    def test_step3_bytes(self, profile, layout, column_format):
        assert profile.step3_bytes(layout, column_format) == pytest.approx(
            profile.step3_bytes_reference(layout, column_format), rel=1e-12
        )

    def test_traversal_hops(self, profile):
        assert profile.traversal_hops() == pytest.approx(
            profile.traversal_hops_reference(), rel=1e-12
        )

    @pytest.mark.parametrize("column_format", [True, False])
    def test_step5_bytes(self, profile, layout, column_format):
        assert profile.step5_bytes(layout, column_format) == pytest.approx(
            profile.step5_bytes_reference(layout, column_format), rel=1e-12
        )

    def test_empty_profile_reductions_agree(self, profile, layout):
        from repro.gbdt.workprofile import WorkProfile

        empty = WorkProfile(spec=profile.spec, trees=[])
        assert empty.binned_records() == empty.binned_records_reference() == 0.0
        assert empty.step1_bytes(layout) == empty.step1_bytes_reference(layout) == 0.0
        assert empty.traversal_hops() == empty.traversal_hops_reference() == 0.0
        assert empty.step2_evaluations() == empty.step2_evaluations_reference() == 0
        assert empty.partition_records() == empty.partition_records_reference() == 0.0
