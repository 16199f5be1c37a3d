"""Pricing a cycled profile equals pricing its trees replicated, bit for bit.

``WorkProfile.with_trees_scaled`` keeps the measured trees' arrays and
records its cycle (``full`` copies plus ``rest`` trees) instead of
materializing the replicated trees' arrays.  Every price read off it -- each
hardware model's step times, the energy model, the run summary -- must equal
the price of a profile built from the replicated trees explicitly, which
holds the replicated arrays and never takes the cycle path.
"""

import pytest

from repro.energy import EnergyModel
from repro.experiments import benchmark_dataset
from repro.gbdt import TrainParams, WorkProfile, train
from repro.sim.executor import MODEL_NAMES
from tests.oracles import tree_works

TARGETS = (1, 7, 500)


#: The run-level fields a replica keeps from its source.
RUN_FIELDS = (
    "warp_conflict_factor",
    "path_len_cv",
    "smaller_child_fraction_mean",
    "train_seconds_wall",
    "losses",
    "root_bin_counts",
)


def replicated(profile: WorkProfile, n_trees: int) -> WorkProfile:
    """``profile``'s trees replicated to ``n_trees``, as explicit arrays."""
    trees = tree_works(profile)
    trees = [trees[i % len(trees)] for i in range(n_trees)]
    run = {name: getattr(profile, name) for name in RUN_FIELDS}
    return WorkProfile.of_trees(profile.spec, trees, measured=False, **run)


@pytest.fixture(scope="module", params=["allstate", "mq2008"])
def dataset(request):
    return benchmark_dataset(request.param, 400, 7)


@pytest.mark.parametrize("scale", [None, 250.0], ids=["unscaled", "scaled"])
@pytest.mark.parametrize("measured_trees", [3, 6, 10])
def test_cycled_profile_prices_like_replicated_trees(dataset, measured_trees, scale, executor):
    base = train(dataset, TrainParams(n_trees=measured_trees, max_depth=5)).profile
    if scale is not None:
        base = base.scaled(scale)
    models = {name: executor.model(name) for name in MODEL_NAMES}
    energy = EnergyModel()
    for target in TARGETS:
        cycled = base.with_trees_scaled(target)
        want = replicated(base, target)
        case = (dataset.spec.name, measured_trees, scale, target)
        assert (cycled.full, cycled.rest) == divmod(target, measured_trees)
        assert (want.full, want.rest) == (1, 0)
        for name, model in models.items():
            assert model.training_times(cycled) == model.training_times(want), (case, name)
        assert energy.compare(cycled) == energy.compare(want), case
        assert cycled.summary() == want.summary(), case
        assert cycled.total_nodes() == want.total_nodes(), case


def test_cycling_a_cycled_profile_raises():
    """Only a profile of explicit trees can be cycled: a tree-scaled copy
    refuses a second cycle rather than laying its cycle out as trees."""
    data = benchmark_dataset("flight", 400, 7)
    base = train(data, TrainParams(n_trees=3, max_depth=5)).profile.scaled(100.0)
    cycled = base.with_trees_scaled(7)
    with pytest.raises(ValueError, match="already cycled"):
        cycled.with_trees_scaled(500)
