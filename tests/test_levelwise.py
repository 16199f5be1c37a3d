"""Tests for level-by-level growth (Sec. II-A).

The vertex-by-vertex trainer is the only tree grower; level-by-level growth
is checked against the oracle in :mod:`tests.oracles` and priced by
``BoosterEngine(growth="level")`` from the same trained profile.
"""

import numpy as np
import pytest

from repro.core import BoosterEngine
from repro.datasets import TaskKind, generate
from repro.gbdt import TrainParams, train
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

    def test_regression_task_equivalence(self):
        data = generate(small_spec_factory(n_records=400, task=TaskKind.REGRESSION))
        params = TrainParams(n_trees=2)
        a = train(data, params)
        b = LevelWiseOracle(data, params).fit()
        assert np.array_equal(a.losses, b.losses)


class TestLevelWiseProfile:
    """The level quantities ``BoosterEngine(growth="level")`` prices come
    from the vertex-by-vertex profile."""

    def test_levels_counted(self, pair):
        vertex, _ = pair
        p = vertex.profile
        assert p.total_levels() == sum(t.max_depth + 1 for t in p.trees)

    def test_mean_live_vertices_in_range(self, pair):
        vertex, _ = pair
        live = vertex.profile.mean_live_vertices()
        assert 1.0 <= live <= 2**6

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
    @pytest.fixture(scope="class")
    def engines(self, executor):
        return {
            growth: BoosterEngine(
                config=executor.booster_config,
                costs=executor.costs,
                bandwidth=executor.bandwidth,
                growth=growth,
            )
            for growth in ("vertex", "level")
        }

    def test_fewer_sync_points_than_vertex(self, pair, engines):
        vertex, _ = pair
        profile = vertex.profile.scaled(1000).with_trees_scaled(100)
        tv = engines["vertex"].training_times(profile)
        tl = engines["level"].training_times(profile)
        # Same PCIe payload; level-wise pays fixed latency per level instead
        # of per vertex, so the offload ('other') component shrinks ...
        assert tl.other < tv.other
        # ... while step 1 slows down (replicas consumed by vertex histograms).
        assert tl.step1 >= tv.step1

    def test_vertex_engine_matches_executor_booster(self, pair, engines, executor):
        profile = pair[0].profile.scaled(1000)
        booster = executor.model("booster")
        assert engines["vertex"].training_times(profile) == booster.training_times(profile)

    def test_unknown_growth_rejected(self):
        with pytest.raises(ValueError, match="growth"):
            BoosterEngine(growth="bogus")
