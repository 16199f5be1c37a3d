"""Pricing a cycled profile equals pricing its trees replicated, bit for bit.

``WorkProfile.with_trees_scaled`` keeps the measured trees' stack and records
its cycle (``full`` copies plus ``rest`` trees) instead of materializing the
replicated trees' arrays.  Every price read off it -- each hardware model's
step times, the energy model, the run summary -- must equal the price of a
profile whose ``trees`` list is replicated explicitly, which stacks the
replicated arrays and never takes the cycle path.
"""

import dataclasses

import pytest

from repro.core import BoosterEngine
from repro.energy import EnergyModel
from repro.experiments import benchmark_dataset
from repro.gbdt import TrainParams, WorkProfile, train
from repro.sim.executor import MODEL_NAMES

TARGETS = (1, 7, 500)


def replicated(profile: WorkProfile, n_trees: int) -> WorkProfile:
    trees = [profile.trees[i % profile.n_trees] for i in range(n_trees)]
    return dataclasses.replace(profile, trees=trees, measured=False)


@pytest.fixture(scope="module", params=["allstate", "mq2008"])
def dataset(request):
    return benchmark_dataset(request.param, 400, 7)


@pytest.mark.parametrize("scale", [None, 250.0], ids=["unscaled", "scaled"])
@pytest.mark.parametrize("measured_trees", [3, 6, 10])
def test_cycled_profile_prices_like_replicated_trees(
    dataset, measured_trees, scale, executor, bw_profile
):
    base = train(dataset, TrainParams(n_trees=measured_trees, max_depth=5)).profile
    if scale is not None:
        base = base.scaled(scale)
    models = {name: executor.model(name) for name in MODEL_NAMES}
    models["booster-level"] = BoosterEngine(bandwidth=bw_profile, growth="level")
    energy = EnergyModel()
    for target in TARGETS:
        cycled = base.with_trees_scaled(target)
        want = replicated(base, target)
        case = (dataset.spec.name, measured_trees, scale, target)
        assert (cycled.stacked.full, cycled.stacked.rest) == divmod(target, measured_trees)
        assert (want.stacked.full, want.stacked.rest) == (1, 0)
        for name, model in models.items():
            assert model.training_times(cycled) == model.training_times(want), (case, name)
        assert energy.compare(cycled) == energy.compare(want), case
        assert cycled.summary() == want.summary(), case
        assert cycled.total_nodes() == want.total_nodes(), case


def test_cycling_a_cycled_profile_replicates_its_trees(executor):
    """A tree-scaled copy of a tree-scaled copy cycles the copy's trees."""
    data = benchmark_dataset("flight", 400, 7)
    base = train(data, TrainParams(n_trees=3, max_depth=5)).profile.scaled(100.0)
    twice = base.with_trees_scaled(7).with_trees_scaled(500)
    want = replicated(replicated(base, 7), 500)
    for name in MODEL_NAMES:
        model = executor.model(name)
        assert model.training_times(twice) == model.training_times(want), name
    assert twice.summary() == want.summary()
