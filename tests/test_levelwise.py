"""Tests for level-by-level growth (repro.gbdt.levelwise)."""

import numpy as np
import pytest

from repro.datasets import TaskKind, generate
from repro.gbdt import TrainParams, train, train_level_wise
from tests.conftest import small_spec_factory


@pytest.fixture(scope="module")
def data():
    return generate(small_spec_factory(n_records=700, seed=9))


@pytest.fixture(scope="module")
def pair(data):
    params = TrainParams(n_trees=4)
    return train(data, params), train_level_wise(data, params)


class TestEquivalence:
    """Level-wise must build the *same model* as vertex-wise (Sec. II-A:
    the configurations differ in schedule, not semantics)."""

    def test_identical_losses(self, pair):
        vertex, level = pair
        assert np.array_equal(vertex.losses, level.losses)

    def test_identical_predictions(self, pair, data):
        vertex, level = pair
        assert np.allclose(vertex.predict(data.codes), level.predict(data.codes))

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

    def test_regression_task_equivalence(self):
        data = generate(small_spec_factory(n_records=400, task=TaskKind.REGRESSION))
        params = TrainParams(n_trees=2)
        a = train(data, params)
        b = train_level_wise(data, params)
        assert np.allclose(a.losses, b.losses)


class TestLevelWiseProfile:
    def test_growth_tag(self, pair):
        vertex, level = pair
        assert vertex.profile.growth == "vertex"
        assert level.profile.growth == "level"

    def test_levels_counted(self, pair):
        _, level = pair
        p = level.profile
        assert p.total_levels() == sum(t.max_depth + 1 for t in p.trees)

    def test_mean_live_vertices_in_range(self, pair):
        _, level = pair
        live = level.profile.mean_live_vertices()
        assert 1.0 <= live <= 2**6

    def test_growth_survives_scaling(self, pair):
        _, level = pair
        assert level.profile.scaled(10).growth == "level"
        assert level.profile.with_trees_scaled(20).growth == "level"

    def test_trees_validate(self, pair):
        _, level = pair
        for t in level.trees:
            t.validate()

    def test_root_counts_recorded(self, pair, data):
        _, level = pair
        counts = level.profile.root_bin_counts
        assert counts is not None
        assert counts.sum() == pytest.approx(data.n_records * data.n_fields)


class TestLevelWiseOnBooster:
    def test_fewer_sync_points_than_vertex(self, pair, executor):
        vertex, level = pair
        pv = vertex.profile.scaled(1000).with_trees_scaled(100)
        pl = level.profile.scaled(1000).with_trees_scaled(100)
        engine = executor.model("booster")
        tv = engine.training_times(pv)
        tl = engine.training_times(pl)
        # Same PCIe payload; level-wise pays fixed latency per level instead
        # of per vertex, so the offload ('other') component shrinks ...
        assert tl.other < tv.other
        # ... while step 1 slows down (replicas consumed by vertex histograms).
        assert tl.step1 >= tv.step1
