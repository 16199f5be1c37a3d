"""Declarative experiment orchestration: scenarios, sweeps, persistent cache.

This layer makes one experiment -- a (dataset x training params x hardware
design point x scale x systems) tuple -- a first-class object:

* :class:`ScenarioSpec` -- frozen, hashable, JSON-serializable description of
  one experiment with a content-derived cache key;
* :class:`ProfileCache` -- persistent on-disk store (``results/cache/`` by
  default) for trained :class:`~repro.gbdt.trainer.TrainResult` artifacts,
  keyed by the scenario's training hash, so no configuration is ever
  functionally retrained across sessions;
* :class:`ResultStore` -- its sibling store (same directory) for completed
  timing results, keyed by the scenario's full cache key, so finished
  experiments are replayed instead of re-simulated;
* :class:`SweepRunner` -- cartesian-product sweep expansion over scenario
  axes, drained by forked workers running the work-stealing claim loop
  over a private lease directory, with results (including per-scenario
  failures) streamed as they complete;
* :mod:`~repro.experiments.manifest` -- the one set of rules for reading
  the JSONL manifests sweeps stream (``repro merge``, ``repro report`` and
  ``repro sweep --resume`` all read through it);
* :mod:`~repro.experiments.steal` -- the multi-host path, dynamic work
  stealing over a shared lease store (``repro sweep --coordinate
  DIR-or-URL``): workers claim scenarios at runtime through atomic lease
  entries, renew leases while running, and reclaim stale leases from
  crashed peers, so the pool is elastic;
* :mod:`~repro.experiments.backend` -- the pluggable storage layer
  beneath all of the above: :class:`StoreBackend` is the atomic
  create-exclusive / read / write / conditional-delete / list contract,
  :class:`LocalBackend` the shared-directory implementation, and
  :class:`HTTPBackend` a stdlib client for ``repro store-serve``
  (:mod:`~repro.experiments.store_server`), so caches, result stores, and
  lease pools work across hosts that share nothing but a URL.

The classic :class:`repro.sim.Executor` is a thin consumer of one
:class:`ScenarioSpec`; see ``docs/experiments.md`` for the full tour.
Exports resolve on first use (PEP 562), so ``repro store-serve`` reaches
:mod:`~repro.experiments.store_server` without importing NumPy.
"""

from typing import TYPE_CHECKING

from .._lazy import export

if TYPE_CHECKING:
    from .backend import (
        Entry,
        HTTPBackend,
        LocalBackend,
        StoreBackend,
        StoreBackendError,
        etag_of,
        is_store_url,
        open_backend,
    )
    from .cache import (
        CACHE_VERSION,
        KeyedStore,
        ProfileCache,
        ResultStore,
        copy_entries,
        default_cache,
        default_cache_dir,
        sim_fingerprint,
    )
    from .pipeline import (
        benchmark_dataset,
        train_scenario,
        train_scenario_tracked,
    )
    from .scenario import DEFAULT_SYSTEMS, ScenarioSpec, ServingParams
    from .steal import DEFAULT_LEASE_TTL, Coordinator, Lease, LeaseLost, lease_name, steal_status
    from .runner import (
        AXIS_NAMES,
        CANONICAL_AXES,
        SERVING_AXIS_NAMES,
        SWEEP_MODES,
        SweepResult,
        SweepRunner,
        apply_axis,
        expand_axes,
        parse_axis_specs,
        read_axis,
        result_store_key,
        run_scenario,
        scenario_key,
    )

_EXPORTS: dict[str, tuple[str, ...]] = {
    "backend": (
        "Entry",
        "HTTPBackend",
        "LocalBackend",
        "StoreBackend",
        "StoreBackendError",
        "etag_of",
        "is_store_url",
        "open_backend",
    ),
    "cache": (
        "CACHE_VERSION",
        "KeyedStore",
        "ProfileCache",
        "ResultStore",
        "copy_entries",
        "default_cache",
        "default_cache_dir",
        "sim_fingerprint",
    ),
    "pipeline": (
        "benchmark_dataset",
        "train_scenario",
        "train_scenario_tracked",
    ),
    "scenario": ("DEFAULT_SYSTEMS", "ScenarioSpec", "ServingParams"),
    "steal": (
        "DEFAULT_LEASE_TTL",
        "Coordinator",
        "Lease",
        "LeaseLost",
        "lease_name",
        "steal_status",
    ),
    "runner": (
        "AXIS_NAMES",
        "CANONICAL_AXES",
        "SERVING_AXIS_NAMES",
        "SWEEP_MODES",
        "SweepResult",
        "SweepRunner",
        "apply_axis",
        "expand_axes",
        "parse_axis_specs",
        "read_axis",
        "result_store_key",
        "run_scenario",
        "scenario_key",
    ),
}

__all__ = [
    "AXIS_NAMES",
    "CACHE_VERSION",
    "CANONICAL_AXES",
    "Coordinator",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_SYSTEMS",
    "Entry",
    "HTTPBackend",
    "KeyedStore",
    "Lease",
    "LeaseLost",
    "LocalBackend",
    "ProfileCache",
    "ResultStore",
    "SERVING_AXIS_NAMES",
    "SWEEP_MODES",
    "ScenarioSpec",
    "ServingParams",
    "StoreBackend",
    "StoreBackendError",
    "SweepResult",
    "SweepRunner",
    "apply_axis",
    "benchmark_dataset",
    "copy_entries",
    "default_cache",
    "default_cache_dir",
    "etag_of",
    "expand_axes",
    "is_store_url",
    "lease_name",
    "open_backend",
    "parse_axis_specs",
    "read_axis",
    "result_store_key",
    "run_scenario",
    "scenario_key",
    "sim_fingerprint",
    "steal_status",
    "train_scenario",
    "train_scenario_tracked",
]


def __getattr__(name: str) -> object:
    return export(__name__, _EXPORTS, name)
