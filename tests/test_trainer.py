"""Tests for the instrumented GBDT trainer (repro.gbdt.trainer)."""

import numpy as np
import pytest

from repro.datasets import TaskKind, generate
from repro.gbdt import GBDTTrainer, SplitParams, SplitSearcher, TrainParams, train
from tests.conftest import small_spec_factory
from tests.oracles import tree_works


class TestTrainingInvariants:
    def test_loss_monotonically_decreases(self, trained):
        losses = trained.losses
        assert np.all(np.diff(losses) <= 1e-12)

    def test_tree_count(self, trained):
        assert len(trained.trees) == 6
        assert trained.profile.n_trees == 6

    def test_trees_validate(self, trained):
        for t in trained.trees:
            t.validate()

    def test_depth_limit_respected(self, trained):
        for t in trained.trees:
            assert t.max_depth <= trained.params.max_depth

    def test_predictions_improve_over_base(self, trained, small_data):
        p = trained.predict(small_data.codes)
        acc = np.mean((p > 0.5) == (small_data.y > 0.5))
        assert acc > 0.8  # separable synthetic data must be learnable

    def test_deterministic(self, small_data):
        a = train(small_data, TrainParams(n_trees=2))
        b = train(small_data, TrainParams(n_trees=2))
        assert np.allclose(a.losses, b.losses)
        assert a.profile.binned_records() == b.profile.binned_records()

    def test_regression_task(self):
        data = generate(small_spec_factory(task=TaskKind.REGRESSION, n_records=500))
        res = train(data, TrainParams(n_trees=3))
        assert np.all(np.diff(res.losses) <= 1e-12)
        # Margin predictions should correlate strongly with targets.
        pred = res.predict(data.codes)
        assert np.corrcoef(pred, data.y)[0, 1] > 0.7


class TestWorkAccounting:
    def test_root_binned_every_tree(self, trained, small_data):
        n = small_data.n_records
        for tw in tree_works(trained.profile):
            root_mask = tw.depth == 0
            assert tw.n_reach[root_mask][0] == n
            assert tw.n_binned[root_mask][0] == n  # root is always binned

    def test_children_reach_sums_to_parent_partition(self, trained, small_data):
        # Conservation: records reaching depth d+1 == records partitioned at d.
        for tw in tree_works(trained.profile):
            for d in range(int(tw.depth.max())):
                partitioned = tw.n_reach[(tw.depth == d) & tw.is_split].sum()
                reached_next = tw.n_reach[tw.depth == d + 1].sum()
                assert partitioned == reached_next

    def test_subtraction_trick_bins_smaller_child(self, trained):
        # Explicit binning below the root must be at most half the records
        # partitioned at the parent level (only the smaller child binned).
        for tw in tree_works(trained.profile):
            for d in range(1, int(tw.depth.max()) + 1):
                level = tw.depth == d
                binned = tw.n_binned[level].sum()
                parent_part = tw.n_reach[(tw.depth == d - 1) & tw.is_split].sum()
                assert binned <= parent_part / 2 + 1e-9

    def test_max_depth_nodes_never_binned(self, trained):
        for tw in tree_works(trained.profile):
            deepest = tw.depth == 6
            if deepest.any():
                assert tw.n_binned[deepest].sum() == 0

    def test_split_evaluations_subset_of_nodes(self, trained):
        p = trained.profile
        assert 0 < p.step2_evaluations() <= p.total_nodes()

    def test_split_fields_valid(self, trained, small_data):
        for tw in tree_works(trained.profile):
            used = tw.split_field[tw.is_split]
            assert np.all(used >= 0)
            assert np.all(used < small_data.n_fields)
            assert np.all(tw.split_field[~tw.is_split] == -1)

    def test_traversal_hops_match_tree_predictions(self, trained, small_data):
        for tree, tw in zip(trained.trees, tree_works(trained.profile)):
            _, depths = tree.predict(small_data.codes, return_depth=True)
            assert tw.sum_path_len == depths.sum()

    @pytest.mark.parametrize("task", [TaskKind.BINARY, TaskKind.REGRESSION])
    def test_step5_from_partition_equals_tree_predict_replay(self, task):
        """Step 5 is read off the partition; per record it must equal a
        ``Tree.predict`` walk of the finished tree, and the trained losses
        must equal the losses of the replayed margins."""
        data = generate(small_spec_factory(task=task, n_records=600, seed=13))
        params = TrainParams(n_trees=4)
        trainer = GBDTTrainer(data, params)
        loss = trainer.loss
        margin = np.full(data.n_records, loss.base_margin(data.y))
        for _ in range(params.n_trees):
            g, h = loss.gradients(margin, data.y)
            tree, _, _, _, leaf_weights, path_lens = trainer._grow_tree(g, h)
            pred, depths = tree.predict(data.codes, return_depth=True)
            assert leaf_weights.tobytes() == pred.tobytes()
            assert np.array_equal(path_lens, depths)
            margin += pred
        result = train(data, params)
        replay = np.full(data.n_records, result.base_margin)
        for t, tree in enumerate(result.trees):
            replay += tree.predict(data.codes)
            assert loss.value(replay, data.y) == result.losses[t]

    def test_light_hessian_nodes_are_charged_but_not_searched(self, small_data, monkeypatch):
        """Nodes with ``h_tot < 2 * min_child_weight`` stay evaluated in the
        profile but are never searched; with ``min_child_weight=0`` every
        evaluated node is searched."""
        calls = []
        real = SplitSearcher.best_split

        def counting(self, hist, g_tot, h_tot, c_tot):
            calls.append(h_tot)
            return real(self, hist, g_tot, h_tot, c_tot)

        monkeypatch.setattr(SplitSearcher, "best_split", counting)
        params = TrainParams(n_trees=6)
        res = train(small_data, params)
        evaluated = res.profile.step2_evaluations()
        assert 0 < len(calls) < evaluated
        assert min(calls) >= 2 * params.split.min_child_weight

        calls.clear()
        free = TrainParams(n_trees=6, split=SplitParams(min_child_weight=0.0))
        res = train(small_data, free)
        assert len(calls) == res.profile.step2_evaluations()

    def test_relevant_fields_match_trees(self, trained):
        for tree, tw in zip(trained.trees, tree_works(trained.profile)):
            assert np.array_equal(tw.relevant_fields, tree.relevant_fields())

    def test_root_bin_counts_recorded(self, trained, small_data):
        counts = trained.profile.root_bin_counts
        assert counts is not None
        assert counts.shape == (small_data.spec.n_total_bins,)
        # Density property at the root: fields x records total updates.
        assert counts.sum() == pytest.approx(
            small_data.n_records * small_data.n_fields
        )

    def test_smaller_child_fraction_bounded(self, trained):
        frac = trained.profile.smaller_child_fraction_mean
        assert 0.0 < frac <= 0.5

    def test_wall_time_recorded(self, trained):
        assert trained.profile.train_seconds_wall > 0


class TestParams:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TrainParams(n_trees=0)
        with pytest.raises(ValueError):
            TrainParams(max_depth=0)
        with pytest.raises(ValueError):
            TrainParams(learning_rate=0.0)

    def test_max_depth_one_gives_stumps(self, small_data):
        res = train(small_data, TrainParams(n_trees=2, max_depth=1))
        for t in res.trees:
            assert t.max_depth <= 1
            assert t.n_nodes <= 3

    def test_predict_margin_consistency(self, trained, small_data):
        margin = trained.predict_margin(small_data.codes)
        manual = np.full(small_data.n_records, trained.base_margin)
        for t in trained.trees:
            manual += t.predict(small_data.codes)
        assert np.allclose(margin, manual)
