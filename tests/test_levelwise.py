"""Tests for level-by-level growth (Sec. II-A).

The vertex-by-vertex trainer is the only tree grower; the level-by-level
oracle in :mod:`tests.oracles` must build the same model.  The oracle also
searches every vertex and walks the finished tree for step 5, so it pins the
trainer's skipped searches and partition-derived step 5.
"""

import numpy as np
import pytest

from repro.datasets import TaskKind, generate
from repro.gbdt import GBDTTrainer, TrainParams, train
from tests.conftest import small_spec_factory
from tests.oracles import LevelWiseOracle


@pytest.fixture(scope="module")
def data():
    return generate(small_spec_factory(n_records=700, seed=9))


@pytest.fixture(scope="module")
def pair(data):
    params = TrainParams(n_trees=4)
    return train(data, params), LevelWiseOracle(data, params).fit()


class TestEquivalence:
    """Level-wise must build the *same model* as vertex-wise (Sec. II-A:
    the configurations differ in schedule, not semantics)."""

    def test_identical_losses(self, pair):
        vertex, level = pair
        assert np.array_equal(vertex.losses, level.losses)

    def test_identical_predictions(self, pair, data):
        vertex, level = pair
        assert np.array_equal(vertex.predict(data.codes), level.predict(data.codes))

    def test_identical_tree_structure_counts(self, pair):
        vertex, level = pair
        for tv, tl in zip(vertex.trees, level.trees):
            assert tv.n_nodes == tl.n_nodes
            assert tv.n_leaves == tl.n_leaves
            assert tv.max_depth == tl.max_depth
            assert np.array_equal(tv.relevant_fields(), tl.relevant_fields())

    def test_identical_work_totals(self, pair):
        vertex, level = pair
        pv, pl = vertex.profile, level.profile
        assert pv.binned_records() == pl.binned_records()
        assert pv.partition_records() == pl.partition_records()
        assert pv.step2_evaluations() == pl.step2_evaluations()
        assert pv.traversal_hops() == pl.traversal_hops()
        assert pv.smaller_child_fraction_mean == pl.smaller_child_fraction_mean

    @pytest.mark.parametrize("task", [TaskKind.BINARY, TaskKind.REGRESSION])
    def test_partition_step5_matches_oracle_walk(self, task):
        """The trainer reads each record's leaf weight and path length off
        the partition; the oracle walks the finished tree.  Per record they
        must agree bit for bit."""
        data = generate(small_spec_factory(n_records=500, task=task, seed=17))
        params = TrainParams(n_trees=1, max_depth=5)
        vertex, level = GBDTTrainer(data, params), LevelWiseOracle(data, params)
        g, h = vertex.loss.gradients(np.full(data.n_records, 0.1), data.y)
        *_, v_weights, v_lens = vertex._grow_tree(g, h)
        *_, l_weights, l_lens = level._grow_tree(g, h)
        assert v_weights.tobytes() == l_weights.tobytes()
        assert np.array_equal(v_lens, l_lens)

    def test_regression_task_equivalence(self):
        data = generate(small_spec_factory(n_records=400, task=TaskKind.REGRESSION))
        params = TrainParams(n_trees=2)
        a = train(data, params)
        b = LevelWiseOracle(data, params).fit()
        assert np.array_equal(a.losses, b.losses)


class TestLevelWiseProfile:
    """The level-wise oracle's own run: valid trees and the root's counts."""

    def test_trees_validate(self, pair):
        _, level = pair
        for t in level.trees:
            t.validate()

    def test_root_counts_recorded(self, pair, data):
        _, level = pair
        counts = level.profile.root_bin_counts
        assert counts is not None
        assert counts.sum() == pytest.approx(data.n_records * data.n_fields)
