"""Tests for work profiles and their extrapolation (repro.gbdt.workprofile)."""

import dataclasses

import numpy as np
import pytest

from repro.datasets import BENCHMARK_NAMES, RecordLayout
from repro.experiments import benchmark_dataset
from repro.gbdt import EnsemblePredictor, TrainParams, WorkProfile, train
from tests import oracles


class TestAggregates:
    def test_binned_record_fields(self, trained, small_data):
        p = trained.profile
        assert p.binned_record_fields() == p.binned_records() * small_data.n_fields

    def test_step2_bin_scans(self, trained):
        p = trained.profile
        assert p.step2_bin_scans() == p.step2_evaluations() * p.n_total_bins

    def test_partition_records_positive(self, trained):
        assert trained.profile.partition_records() > 0

    def test_traversal_totals(self, trained, small_data):
        p = trained.profile
        assert p.traversal_records() == small_data.n_records * p.n_trees
        assert 0 < p.traversal_hops() <= p.traversal_records() * 6

    def test_summary_keys(self, trained):
        s = trained.profile.summary()
        for key in ("dataset", "records", "trees", "binned_records", "warp_conflict_factor"):
            assert key in s


class TestBytes:
    def test_step1_bytes_positive_and_block_aligned_scale(self, trained):
        p = trained.profile
        layout = RecordLayout(p.spec)
        b = p.step1_bytes(layout)
        # At least one block per binned record batch; at most a generous bound.
        assert b > p.binned_records()  # > 1 byte per record for sure
        assert b < p.binned_records() * 64 * 4

    def test_column_format_saves_step3_bytes(self, trained):
        p = trained.profile
        layout = RecordLayout(p.spec)
        assert p.step3_bytes(layout, column_format=True) < p.step3_bytes(
            layout, column_format=False
        )

    def test_column_format_saves_step5_bytes_wide_records(self):
        # The redundant format's step-5 saving needs records wider than the
        # tree's relevant-field set -- e.g. IoT's 115 fields vs <=63 used.
        from repro.datasets import generate
        from repro.gbdt import TrainParams, train
        from tests.conftest import small_spec_factory

        spec = small_spec_factory(n_records=400, n_numerical=40, n_categorical=0)
        res = train(generate(spec), TrainParams(n_trees=2, max_depth=3))
        p = res.profile
        layout = RecordLayout(p.spec)
        col = p.step5_bytes(layout, column_format=True)
        row = p.step5_bytes(layout, column_format=False)
        assert col < row

    def test_column_format_step5_narrow_records_comparable(self, trained):
        # With 8-byte records (all fields relevant) the column copy saves
        # nothing; block rounding may even cost a little.  Flight behaves
        # this way, which is part of why its Fig. 7 speedup is the lowest.
        p = trained.profile
        layout = RecordLayout(p.spec)
        col = p.step5_bytes(layout, column_format=True)
        row = p.step5_bytes(layout, column_format=False)
        assert col <= row * 1.25

    def test_step5_grows_with_trees(self, trained):
        p = trained.profile
        layout = RecordLayout(p.spec)
        doubled = p.with_trees_scaled(p.n_trees * 2)
        assert doubled.step5_bytes(layout, True) == pytest.approx(
            2 * p.step5_bytes(layout, True), rel=0.01
        )


class TestScaling:
    def test_scaled_record_counts(self, trained):
        p = trained.profile
        big = p.scaled(10)
        assert big.n_records == p.n_records * 10
        assert big.binned_records() == pytest.approx(10 * p.binned_records(), rel=1e-6)
        assert big.traversal_hops() == pytest.approx(10 * p.traversal_hops())

    def test_scaled_preserves_structure(self, trained):
        p = trained.profile
        big = p.scaled(10)
        assert big.n_trees == p.n_trees
        assert big.step2_evaluations() == p.step2_evaluations()
        assert big.n_total_bins == p.n_total_bins
        assert big.warp_conflict_factor == p.warp_conflict_factor

    def test_scaled_rejects_nonpositive(self, trained):
        with pytest.raises(ValueError):
            trained.profile.scaled(0)

    def test_tree_replication(self, trained):
        p = trained.profile
        big = p.with_trees_scaled(25)
        assert big.n_trees == 25
        assert big.binned_records() == pytest.approx(
            p.binned_records() * 25 / p.n_trees, rel=0.3
        )

    def test_tree_replication_keeps_counts(self, trained):
        p = trained.profile
        same = p.with_trees_scaled(p.n_trees)
        assert same.binned_records() == p.binned_records()

    @pytest.mark.parametrize("dataset", ["mq2008", "flight"])
    def test_replicated_stack_equals_concatenation(self, dataset):
        """A replicated copy's stack is tiled from the base profile's; it
        must equal concatenating the replicated trees, dtypes included."""
        data = benchmark_dataset(dataset, 400, 7)
        base = train(data, TrainParams(n_trees=5, max_depth=4)).profile.scaled(10.0)
        t = base.n_trees
        for target in (1, t - 1, t, t + 1, 500):
            tiled = base.with_trees_scaled(target)
            concatenated = WorkProfile(spec=tiled.spec, trees=tiled.trees).stacked
            for f in dataclasses.fields(concatenated):
                got, want = getattr(tiled.stacked, f.name), getattr(concatenated, f.name)
                assert got.dtype == want.dtype, (target, f.name)
                assert np.array_equal(got, want), (target, f.name)


class TestHotAccessFraction:
    def test_full_cache_hits_everything(self, trained):
        p = trained.profile
        assert p.hot_access_fraction(p.n_total_bins) == 1.0

    def test_zero_cache_hits_nothing(self, trained):
        assert trained.profile.hot_access_fraction(0) == 0.0

    def test_monotone_in_cache_size(self, trained):
        p = trained.profile
        fracs = [p.hot_access_fraction(k) for k in (1, 8, 64, 512, p.n_total_bins)]
        assert fracs == sorted(fracs)

    def test_fallback_without_counts(self, trained):
        p = trained.profile
        stripped = p.scaled(1.0)
        stripped.root_bin_counts = None
        assert stripped.hot_access_fraction(10) == pytest.approx(10 / p.n_total_bins)


class TestInferenceWork:
    def test_padded_vs_actual_hops(self, trained):
        work = trained.profile.inference_work()
        assert work.total_hops_padded >= work.total_hops_actual

    def test_tree_target_scaling(self, trained):
        w1 = trained.profile.inference_work()
        w2 = trained.profile.inference_work(w1.n_trees * 10)
        assert w2.sum_path_len == pytest.approx(10 * w1.sum_path_len)
        assert w2.mean_path_len == pytest.approx(w1.mean_path_len)

    def test_predict_matches_train_result(self, trained, small_data):
        pred = EnsemblePredictor(trained.trees, trained.base_margin, trained.loss)
        assert np.allclose(pred.predict(small_data.codes), trained.predict(small_data.codes))

    def test_empty_ensemble_rejected(self, trained):
        with pytest.raises(ValueError):
            EnsemblePredictor([], 0.0, trained.loss)
        with pytest.raises(ValueError):
            WorkProfile(spec=trained.profile.spec, trees=[]).inference_work()

    @pytest.mark.parametrize("target", [0, -1])
    def test_tree_target_below_one_rejected(self, trained, target):
        """Regression: ``n_trees_target or measured`` read 0 as "measured"."""
        with pytest.raises(ValueError, match="n_trees_target"):
            trained.profile.inference_work(target)

    @pytest.mark.parametrize(
        "copy",
        [
            lambda p: p.scaled(1.0),
            lambda p: p.scaled(3.0),
            lambda p: p.with_trees_scaled(12),
            lambda p: p.scaled(3.0).with_trees_scaled(12),
        ],
        ids=["scaled-1x", "scaled-3x", "trees-scaled", "both"],
    )
    def test_extrapolated_profile_rejected(self, trained, copy):
        """A scaled copy's totals are extrapolations, not a step-5 walk."""
        with pytest.raises(ValueError, match="measured profile"):
            copy(trained.profile).inference_work()


_SHAPES = [(n_trees, depth) for n_trees in (1, 3, 6) for depth in (1, 3, 6)]


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("dataset", BENCHMARK_NAMES)
def test_profile_inference_work_matches_walk_oracle(dataset, seed):
    """Reading step 5 off the profile equals walking the records again,
    field for field and ``spec`` included, for stumps, one-tree ensembles
    and every tree target."""
    data = benchmark_dataset(dataset, 300, seed)
    for n_trees, depth in _SHAPES:
        result = train(data, TrainParams(n_trees=n_trees, max_depth=depth))
        for target in (None, 1, n_trees, 500):
            got = result.profile.inference_work(target)
            want = oracles.inference_work(result.trees, data, target)
            case = (dataset, seed, n_trees, depth, target)
            assert got.spec == want.spec, case
            assert dataclasses.asdict(got) == dataclasses.asdict(want), case
