"""Scenario-level training pipeline: dataset memoization + cached training.

The functional half of every experiment is ``generate(spec)`` followed by
``train(data, params)``.  Both are memoized here:

* :func:`benchmark_dataset` keeps one generated
  :class:`~repro.datasets.encoding.BinnedDataset` per (name, records, seed)
  for the life of the process, so repeated scenarios over the same data
  share a single generation pass (inference never needs the records: it is
  priced from the training profile);
* :func:`train_scenario` serves :class:`~repro.gbdt.trainer.TrainResult`
  artifacts through a :class:`~repro.experiments.cache.ProfileCache`,
  keyed by :meth:`ScenarioSpec.train_key` -- which covers *all*
  ``TrainParams`` fields, fixing the old executor cache's silent staleness
  when only ``max_depth`` or split knobs changed.
"""

from __future__ import annotations

from ..datasets import dataset_spec, generate
from ..datasets.encoding import BinnedDataset
from ..gbdt import TrainResult, train
from .cache import ProfileCache, default_cache
from .scenario import ScenarioSpec

__all__ = [
    "benchmark_dataset",
    "train_scenario",
    "train_scenario_tracked",
]

_DATASET_MEMO: dict[tuple[str, int, int], BinnedDataset] = {}  # repro: noqa RPR005 -- content-keyed deterministic memo: a forked copy regenerates identical datasets, so sharing or not sharing is indistinguishable
#: Benchmarks at the default sim scale are all small; one suite touches at
#: most the five registry datasets plus a handful of swept variants, so a
#: small LRU bounds memory on long records/seed sweeps.
_DATASET_MEMO_MAX = 8


def benchmark_dataset(
    name: str, n_records: int | None = None, seed: int = 7
) -> BinnedDataset:
    """Generate (LRU-memoized per process) a registry benchmark at sim scale."""
    spec = dataset_spec(name, n_records=n_records, seed=seed)
    key = (spec.name, spec.n_records, spec.seed)
    data = _DATASET_MEMO.pop(key, None)
    if data is None:
        data = generate(spec)
    _DATASET_MEMO[key] = data  # re-insert: most recently used is last
    while len(_DATASET_MEMO) > _DATASET_MEMO_MAX:
        _DATASET_MEMO.pop(next(iter(_DATASET_MEMO)))
    return data


def train_scenario_tracked(
    scenario: ScenarioSpec, cache: ProfileCache | None = None
) -> tuple[TrainResult, bool]:
    """Like :func:`train_scenario`, but also reports cache provenance.

    The second element is True when the artifact came out of the cache and
    False when this call actually trained.  It is derived from the lookup
    itself -- not from a separate membership check, which under
    concurrent sweep workers could observe a sibling's publication between
    the check and the act and mislabel the provenance.
    """
    cache = cache or default_cache()
    key = scenario.train_key()
    cached = cache.get(key)
    if cached is not None:
        return cached, True
    data = benchmark_dataset(scenario.dataset, scenario.sim_records, scenario.seed)
    result = train(data, scenario.train)
    cache.put(key, result)
    return result, False


def train_scenario(
    scenario: ScenarioSpec, cache: ProfileCache | None = None
) -> TrainResult:
    """The scenario's trained artifact, functionally training at most once.

    Lookup order: the cache's memory layer (identity-preserving), then its
    disk layer (persisted across sessions and shared between sweep
    workers), then an actual ``train()`` run whose result is stored back.
    """
    return train_scenario_tracked(scenario, cache)[0]
