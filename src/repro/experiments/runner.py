"""Cartesian sweep expansion and the fault-tolerant parallel sweep runner.

A sweep is a base :class:`ScenarioSpec` plus named *axes*, each a list of
values; :func:`expand_axes` produces the cartesian product as concrete
scenarios.  :class:`SweepRunner` executes them either serially or across a
:class:`concurrent.futures.ProcessPoolExecutor` -- functional training is
the hot path and is pure CPU-bound NumPy, so one process per scenario is
the right grain -- streaming :class:`SweepResult` objects as they complete.

Workers share two persistent stores (one directory):

* the :class:`~repro.experiments.cache.ProfileCache` of trained artifacts,
  so re-running an identical sweep performs zero functional-training calls;
* the :class:`~repro.experiments.cache.ResultStore` of timing results, so a
  scenario that already completed -- in this run, an earlier run, or an
  interrupted run -- is served back without re-simulating anything
  (``SweepResult.stored`` marks that provenance).

Failures are data, not aborts: a raising worker produces a
``SweepResult(error=...)`` that streams like any other result, and
scenarios queued behind a failed representative are re-dispatched rather
than dropped, so one bad point never loses the rest of the sweep.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, fields as dc_fields, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # annotation-only: keep the lease machinery a lazy import
    from .steal import Coordinator

from ..serving.result import ServingResult
from ..sim.calibrate import CostModel
from ..sim.results import ComparisonResult, InferenceResult
from .cache import CACHE_VERSION, ProfileCache, ResultStore, default_cache, sim_fingerprint
from .pipeline import is_trained
from .scenario import _COST_FIELD_NAMES, ScenarioSpec, ServingParams

__all__ = [
    "AXIS_NAMES",
    "CANONICAL_AXES",
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
]

#: What a sweep measures per scenario: the training-time comparison (the
#: Fig. 7 workhorse), the batch-inference comparison (Fig. 13), or the
#: traffic-driven serving simulation (arrival trace -> latency tail).  Each
#: mode stores its payload under its own :func:`result_store_key` namespace
#: (``s``/``i``/``v``), so all kinds of results coexist in one
#: ``ResultStore`` directory.
SWEEP_MODES = ("compare", "inference", "serving")

_SCENARIO_AXES = {
    "dataset": "dataset",
    "sim_records": "sim_records",
    "records": "sim_records",
    "seed": "seed",
    "extra_scale": "extra_scale",
    "scale": "extra_scale",
}
_TRAIN_AXES = {
    "n_trees": "n_trees",
    "trees": "n_trees",
    "max_depth": "max_depth",
    "learning_rate": "learning_rate",
    "conflict_sample": "conflict_sample",
}
_SPLIT_AXES = {
    "lambda_": "lambda_",
    "gamma": "gamma",
    "min_child_weight": "min_child_weight",
    "min_child_records": "min_child_records",
}
_BOOSTER_AXES = {
    "n_clusters": "n_clusters",
    "bus_per_cluster": "bus_per_cluster",
    "sram_bytes": "sram_bytes",
    "clock_ghz": "clock_ghz",
}
_SERVING_AXES = {
    "arrival_qps": "qps",
    "qps": "qps",
    "arrival": "arrival",
    "policy": "policy",
    "max_batch": "max_batch",
    "batch_timeout_ms": "timeout_ms",
    "queue": "queue",
    "serve_duration": "duration_s",
    "records_per_request": "records_per_request",
}

#: Alternate CLI spellings, canonicalized for duplicate detection.
_AXIS_ALIASES = {
    "trees": "n_trees",
    "records": "sim_records",
    "scale": "extra_scale",
    "qps": "arrival_qps",
}

#: Axes (and int-typed cost fields) that must receive integral values.
_INT_AXES = {
    "seed",
    "sim_records",
    "records",
    "n_trees",
    "trees",
    "max_depth",
    "conflict_sample",
    "min_child_records",
    "n_clusters",
    "bus_per_cluster",
    "sram_bytes",
    "n_bus",
    "max_batch",
    "records_per_request",
}
_INT_AXES |= {f.name for f in dc_fields(CostModel) if f.type == "int"}

#: Axes whose values are names rather than numbers (every other axis
#: rejects strings early, before they reach validation/cost math).
_STRING_AXES = {"dataset", "arrival", "policy", "queue"}

#: Axis name -> target field, derived from the routing tables above so the
#: two can never drift.  Any :class:`CostModel` field name is also a valid
#: axis (applied through ``cost_overrides``).
AXIS_NAMES = {
    **{k: f"scenario.{v}" for k, v in _SCENARIO_AXES.items()},
    **{k: f"train.{v}" for k, v in _TRAIN_AXES.items()},
    **{k: f"train.split.{v}" for k, v in _SPLIT_AXES.items()},
    **{k: f"booster.{v}" for k, v in _BOOSTER_AXES.items()},
    **{k: f"serving.{v}" for k, v in _SERVING_AXES.items()},
    "n_bus": "booster.n_clusters (derived: n_bus / bus_per_cluster)",
}

#: Axes that route into :class:`ServingParams` (the CLI refuses them on a
#: sweep that is not ``--serve``: varying a serving knob changes scenario
#: keys without changing a training/inference measurement).
SERVING_AXIS_NAMES = frozenset(_SERVING_AXES)

#: Canonical axis names in declaration order (aliases removed) -- what
#: ``parse_axis_specs`` produces and what consumers that enumerate axes
#: (e.g. ``repro report``'s axis inference) should iterate, so a new axis
#: added to the routing tables above automatically reaches them.
CANONICAL_AXES = tuple(k for k in AXIS_NAMES if k not in _AXIS_ALIASES)


def apply_axis(scenario: ScenarioSpec, name: str, value: object) -> ScenarioSpec:
    """Return ``scenario`` with one axis set to ``value``."""
    if name not in _STRING_AXES and isinstance(value, str):
        # Every axis but the handful of name-valued ones is numeric; reject
        # early with a clean message instead of a TypeError deep in
        # validation/cost math.
        raise ValueError(f"axis {name!r} needs a numeric value, got {value!r}")
    if name in _INT_AXES:
        if not math.isfinite(value) or float(value) != int(value):
            raise ValueError(f"axis {name!r} needs an integer value, got {value!r}")
        value = int(value)
    if name in _SCENARIO_AXES:
        return replace(scenario, **{_SCENARIO_AXES[name]: value})
    if name in _TRAIN_AXES:
        return replace(scenario, train=replace(scenario.train, **{_TRAIN_AXES[name]: value}))
    if name in _SPLIT_AXES:
        split = replace(scenario.train.split, **{_SPLIT_AXES[name]: value})
        return replace(scenario, train=replace(scenario.train, split=split))
    if name in _BOOSTER_AXES:
        return replace(scenario, booster=replace(scenario.booster, **{_BOOSTER_AXES[name]: value}))
    if name in _SERVING_AXES:
        # A serving axis on a compare/inference-shaped scenario implies the
        # serving defaults for the rest of the knobs.
        serving = scenario.serving or ServingParams()
        return replace(
            scenario, serving=replace(serving, **{_SERVING_AXES[name]: value})
        )
    if name == "n_bus":
        per = scenario.booster.bus_per_cluster
        if value % per:
            raise ValueError(
                f"n_bus={value} is not a multiple of bus_per_cluster={per}"
            )
        return replace(
            scenario, booster=replace(scenario.booster, n_clusters=int(value // per))
        )
    if name in _COST_FIELD_NAMES:
        # Cost constants are energies, latencies, clocks, and sizes: every
        # one is a finite, positive number.  NaN would additionally poison
        # cache keys (NaN != NaN breaks manifest dedupe and store lookups),
        # so reject bad values here with a clear message instead of letting
        # them flow into keys and comparisons.
        if not math.isfinite(value) or value <= 0:
            raise ValueError(
                f"cost override {name!r} needs a finite, positive value, "
                f"got {value!r}"
            )
        overrides = dict(scenario.cost_overrides)
        overrides[name] = value
        return replace(scenario, cost_overrides=tuple(sorted(overrides.items())))
    known = sorted(set(AXIS_NAMES) | _COST_FIELD_NAMES)
    raise ValueError(f"unknown sweep axis {name!r}; known axes: {known}")


def read_axis(scenario: ScenarioSpec, name: str) -> object:
    """The scenario's current value for one axis (``apply_axis``'s inverse).

    ``records``/``sim_records`` reads back resolved (the registry default
    substituted), matching what the experiment actually runs with.
    """
    if name in ("records", "sim_records"):
        return scenario.resolved_records()
    if name in _SCENARIO_AXES:
        return getattr(scenario, _SCENARIO_AXES[name])
    if name in _TRAIN_AXES:
        return getattr(scenario.train, _TRAIN_AXES[name])
    if name in _SPLIT_AXES:
        return getattr(scenario.train.split, _SPLIT_AXES[name])
    if name in _BOOSTER_AXES:
        return getattr(scenario.booster, _BOOSTER_AXES[name])
    if name in _SERVING_AXES:
        return getattr(scenario.serving or ServingParams(), _SERVING_AXES[name])
    if name == "n_bus":
        return scenario.booster.n_bus
    if name in _COST_FIELD_NAMES:
        return getattr(scenario.costs(), name)
    known = sorted(set(AXIS_NAMES) | _COST_FIELD_NAMES)
    raise ValueError(f"unknown sweep axis {name!r}; known axes: {known}")


def expand_axes(
    base: ScenarioSpec, axes: dict[str, Sequence]
) -> list[ScenarioSpec]:
    """Cartesian product of the axes applied to ``base``, in axis order.

    Within each combination the derived ``n_bus`` axis is applied last, so
    sweeping it together with ``bus_per_cluster`` resolves against the
    combination's cluster width rather than axis declaration order.
    """
    if not axes:
        return [base]
    names = list(axes)
    out = []
    for combo in itertools.product(*(axes[n] for n in names)):
        scenario = base
        for name, value in sorted(
            zip(names, combo), key=lambda pair: pair[0] == "n_bus"
        ):
            scenario = apply_axis(scenario, name, value)
        out.append(scenario)
    return out


def _parse_value(text: str) -> int | float | str:
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_axis_specs(specs: Iterable[str]) -> dict[str, list]:
    """Parse CLI ``NAME=V1,V2,...`` axis strings into an axes mapping.

    Aliases are canonicalized at parse time (``trees`` -> ``n_trees``,
    ``records`` -> ``sim_records``, ``scale`` -> ``extra_scale``): the axes
    dict -- and everything derived from it, like sweep-table headers and
    manifest keys -- is identical no matter which spelling the caller
    used, so two hosts spelling the same sweep differently still agree.
    """
    axes: dict[str, list] = {}
    for spec in specs:
        name, sep, values = spec.partition("=")
        name = name.strip()
        parsed = [_parse_value(v.strip()) for v in values.split(",") if v.strip()]
        if not sep or not name or not parsed:
            raise ValueError(f"bad axis spec {spec!r}; expected NAME=V1,V2,...")
        canonical = _AXIS_ALIASES.get(name, name)
        if canonical in axes:
            raise ValueError(
                f"duplicate axis {name!r}; give each axis once (aliases like "
                "trees/n_trees count as the same axis)"
            )
        axes[canonical] = parsed
    return axes


@dataclass
class SweepResult:
    """Outcome of one scenario: a measurement plus provenance, or an error.

    ``kind`` says what was measured: a ``"compare"`` result carries a
    ``comparison`` (training times), an ``"inference"`` result carries an
    ``inference`` payload (batch-inference times), a ``"serving"`` result
    carries a ``serving`` payload (latency-tail statistics under a
    traffic trace); exactly one of the payload/``error`` fields is set.  A failed scenario is a first-class
    result (streamed, serialized into manifests) rather than an exception
    that aborts the sweep; ``stored=True`` marks a result served from the
    persistent :class:`ResultStore` (zero training *and* zero simulation in
    this run).

    ``duration_s`` is the wall-clock the *original* execution took (train +
    simulate, as measured by :func:`run_scenario`); a replayed result keeps
    the duration it recorded when it actually ran, so manifests and the
    result store double as the calibration corpus for the work-stealing
    claim order (:mod:`repro.experiments.schedule`).  Error results -- and
    lines from manifests written before durations existed -- carry ``None``.
    """

    scenario: ScenarioSpec
    comparison: ComparisonResult | None
    cache_hit: bool  # training artifact was served from the cache
    worker_pid: int  # process that executed (or originally executed) it
    error: str | None = None  # failure description when the scenario raised
    stored: bool = False  # result replayed from the result store
    inference: InferenceResult | None = None  # set in "inference" mode
    kind: str = "compare"  # which SWEEP_MODES measurement this is
    duration_s: float | None = None  # wall seconds of the original execution
    serving: ServingResult | None = None  # set in "serving" mode

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def payload(self) -> ComparisonResult | InferenceResult | ServingResult | None:
        """The mode's measurement (``comparison``/``inference``/``serving``)."""
        if self.kind == "inference":
            return self.inference
        if self.kind == "serving":
            return self.serving
        return self.comparison

    @property
    def booster_speedup(self) -> float:
        if self.payload is None:
            raise ValueError(f"scenario failed, no timing result: {self.error}")
        return self.payload.speedup("booster")

    def to_dict(self) -> dict:
        """Manifest/JSONL form; ``from_dict`` round-trips it.

        ``cache_key`` and ``sim_code`` are provenance for manifest consumers
        (resume/merge bookkeeping and staleness checks); ``from_dict``
        ignores them.
        """
        return {
            "cache_key": scenario_key(self.scenario),
            "sim_code": sim_fingerprint(),
            "kind": self.kind,
            "scenario": self.scenario.to_dict(),
            "comparison": None if self.comparison is None else self.comparison.to_dict(),
            "inference": None if self.inference is None else self.inference.to_dict(),
            "serving": None if self.serving is None else self.serving.to_dict(),
            "cache_hit": self.cache_hit,
            "stored": self.stored,
            "worker_pid": self.worker_pid,
            "error": self.error,
            "duration_s": self.duration_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepResult":
        comparison = d.get("comparison")
        inference = d.get("inference")
        serving = d.get("serving")
        duration = d.get("duration_s")  # absent in pre-duration manifests
        return cls(
            scenario=ScenarioSpec.from_dict(d["scenario"]),
            comparison=None if comparison is None else ComparisonResult.from_dict(comparison),
            cache_hit=bool(d.get("cache_hit", False)),
            worker_pid=int(d.get("worker_pid", 0)),
            error=d.get("error"),
            stored=bool(d.get("stored", False)),
            inference=None if inference is None else InferenceResult.from_dict(inference),
            kind=d.get("kind", "compare"),
            duration_s=None if duration is None else float(duration),
            serving=None if serving is None else ServingResult.from_dict(serving),
        )


@functools.lru_cache(maxsize=4096)
def scenario_key(scenario: ScenarioSpec) -> str:
    """``cache_key()`` with a stable fallback for unkeyable scenarios.

    A scenario whose key cannot be derived (e.g. an unknown dataset name,
    where resolving the record count raises) must still flow through the
    runner -- and the work-stealing claim loop -- as a well-defined unit,
    so bookkeeping falls back to the canonical JSON form instead of
    propagating the exception.  The fallback is content-derived too: every
    worker derives the same lease for an unkeyable scenario, whose one
    claimant reports it as a structured ``SweepResult(error=...)`` line
    rather than crashing the sweep before any manifest is written.

    Memoized: the key is a pure function of the (frozen, hashable)
    scenario's content, and sweep bookkeeping, leases, and cost ordering
    all ask for the same keys repeatedly.
    """
    try:
        return scenario.cache_key()
    except Exception:
        return "!" + scenario.to_json()



def result_store_key(scenario: ScenarioSpec, mode: str = "compare") -> str:
    """The :class:`ResultStore` key for one scenario in one sweep mode.

    Compare results live directly under ``cache_key()`` (``s...``, the PR-2
    layout); inference results get their own ``i...`` namespace and serving
    results a ``v...`` namespace, so every measurement of the same scenario
    coexists in one store directory.
    """
    if mode not in SWEEP_MODES:
        raise ValueError(f"unknown sweep mode {mode!r}; known: {list(SWEEP_MODES)}")
    key = scenario.cache_key()
    if mode == "compare":
        return key
    return ("i" if mode == "inference" else "v") + key[1:]


def _error_result(
    scenario: ScenarioSpec, exc: BaseException, mode: str = "compare"
) -> SweepResult:
    return SweepResult(
        scenario=scenario,
        comparison=None,
        cache_hit=False,
        worker_pid=os.getpid(),
        error=f"{type(exc).__name__}: {exc}",
        kind=mode,
    )


def _stored_result(
    scenario: ScenarioSpec, results: ResultStore, mode: str = "compare"
) -> SweepResult | None:
    """Replay the scenario's result from the store, if servable.

    The payload's cache version, simulation-source fingerprint, and kind
    must match the running code and requested mode; anything else (stale,
    corrupt, wrong shape, wrong measurement) is a miss and the scenario
    re-simulates.
    """
    payload = results.get(result_store_key(scenario, mode))
    if not isinstance(payload, dict):
        return None
    if payload.get("version") != CACHE_VERSION or payload.get("code") != sim_fingerprint():
        return None
    if payload.get("kind", "compare") != mode:
        return None
    try:
        result = SweepResult.from_dict(payload["result"])
    except Exception:
        return None
    if result.error is not None or result.kind != mode or result.payload is None:
        return None
    # Served without training or simulating: that is this run's provenance.
    return replace(result, cache_hit=True, stored=True)


def run_scenario(
    scenario: ScenarioSpec,
    cache: ProfileCache | None = None,
    results: ResultStore | None = None,
    mode: str = "compare",
) -> SweepResult:
    """Execute one scenario end to end (train -> profile -> all systems).

    ``mode`` selects the measurement: ``"compare"`` times training on every
    scenario system (the Fig. 7 table), ``"inference"`` times the batch
    inference pass (Fig. 13), ``"serving"`` replays a traffic trace through
    the batching queue and reports the latency tail.  Completed scenarios
    are served from
    ``results`` (a :class:`ResultStore` sharing the profile cache's
    directory by default) without retraining or re-simulating; fresh
    executions are stored back for the next run, each mode under its own
    key namespace.
    """
    from ..sim.executor import Executor  # lazy: sim.executor imports this layer

    if mode not in SWEEP_MODES:
        raise ValueError(f"unknown sweep mode {mode!r}; known: {list(SWEEP_MODES)}")
    cache = cache or default_cache()
    if results is None:
        results = ResultStore(root=cache.root)
    stored = _stored_result(scenario, results, mode)
    if stored is not None:
        return stored
    start = time.perf_counter()
    executor = Executor(scenario, cache=cache)
    comparison = inference = serving = None
    if mode == "inference":
        inference = executor.inference(
            scenario.dataset,
            systems=list(scenario.systems),
            extra_scale=scenario.extra_scale,
        )
    elif mode == "serving":
        serving = executor.serve(
            scenario.dataset,
            serving=scenario.serving,
            systems=list(scenario.systems),
            extra_scale=scenario.extra_scale,
        )
    else:
        comparison = executor.compare(
            scenario.dataset,
            systems=list(scenario.systems),
            extra_scale=scenario.extra_scale,
        )
    result = SweepResult(
        scenario=scenario,
        comparison=comparison,
        cache_hit=bool(executor.last_train_hit),
        worker_pid=os.getpid(),
        inference=inference,
        kind=mode,
        duration_s=time.perf_counter() - start,
        serving=serving,
    )
    results.put(
        result_store_key(scenario, mode),
        {
            "version": CACHE_VERSION,
            "code": sim_fingerprint(),
            "kind": mode,
            "result": result.to_dict(),
        },
    )
    return result


#: Worker-process store instances, one per root: pool workers execute many
#: scenarios, and reusing the memory layers avoids re-unpickling a shared
#: training artifact (or re-reading a result file) once per sibling.
_WORKER_CACHES: dict[str | None, ProfileCache] = {}  # repro: noqa RPR005 -- per-worker-process memo, only populated inside pool workers after fork; parent never writes it
_WORKER_RESULT_STORES: dict[str | None, ResultStore] = {}  # repro: noqa RPR005 -- per-worker-process memo, only populated inside pool workers after fork; parent never writes it


def _run_payload(payload: tuple[dict, str | None, str | None, str]) -> SweepResult:
    """Process-pool entry point (module-level so it pickles).

    Exceptions are captured into error results here, in the worker: the
    pool stays healthy and the parent never sees a raising future for an
    ordinary scenario failure.
    """
    scenario_dict, cache_root, results_root, mode = payload
    scenario = ScenarioSpec.from_dict(scenario_dict)
    cache = _WORKER_CACHES.get(cache_root)
    if cache is None:
        cache = _WORKER_CACHES[cache_root] = ProfileCache(root=cache_root)
    results = _WORKER_RESULT_STORES.get(results_root)
    if results is None:
        results = _WORKER_RESULT_STORES[results_root] = ResultStore(root=results_root)
    try:
        return run_scenario(scenario, cache, results, mode)
    except Exception as exc:
        return _error_result(scenario, exc, mode)


class SweepRunner:
    """Expands and executes scenario sweeps, streaming results.

    ``max_workers=None`` sizes the pool to ``min(len(scenarios),
    max(cpu_count, 2))`` -- at least two workers, so sweeps exercise the
    multi-process path even on single-core machines.  ``parallel=False``
    (or a single scenario) runs everything in-process, which is also the
    mode where monkeypatched counters can observe training calls.
    ``mode`` selects the per-scenario measurement (see :data:`SWEEP_MODES`).
    """

    def __init__(
        self,
        cache: ProfileCache | None = None,
        max_workers: int | None = None,
        parallel: bool = True,
        results: ResultStore | None = None,
        mode: str = "compare",
    ) -> None:
        if mode not in SWEEP_MODES:
            raise ValueError(f"unknown sweep mode {mode!r}; known: {list(SWEEP_MODES)}")
        self.cache = cache or default_cache()
        self.max_workers = max_workers
        self.parallel = parallel
        self.mode = mode
        # The result store shares the profile cache's directory by default
        # (the "sibling store" layout), so tests and CLI runs pointing the
        # cache somewhere isolated get an equally isolated result store.
        self.results = results if results is not None else ResultStore(root=self.cache.root)

    def _pool_size(self, n_scenarios: int) -> int:
        if self.max_workers is not None:
            return max(1, min(self.max_workers, n_scenarios))
        return max(1, min(n_scenarios, max(os.cpu_count() or 1, 2)))

    def _guarded(self, scenario: ScenarioSpec) -> SweepResult:
        """Run one scenario in-process, capturing failures as results."""
        try:
            return run_scenario(scenario, self.cache, self.results, self.mode)
        except Exception as exc:
            return _error_result(scenario, exc, self.mode)

    def run(self, scenarios: Sequence[ScenarioSpec]) -> Iterator[SweepResult]:
        """Yield results as scenarios complete (completion order).

        Scenarios sharing an untrained training artifact are phased: one
        representative per train key runs first and publishes the artifact,
        then its siblings fan out as cache hits -- hardware-only sweeps
        (e.g. an ``n_bus`` axis) train each configuration once, not once
        per worker.

        A failing scenario never aborts the sweep: its exception becomes a
        ``SweepResult(error=...)``, and any siblings queued behind a failed
        representative are re-dispatched (the first sibling is promoted to
        representative) so every input scenario produces exactly one result.
        """
        scenarios = list(scenarios)
        if not scenarios:
            return
        workers = self._pool_size(len(scenarios))
        # A diskless cache cannot be shared with workers: a parallel run
        # would retrain per process.  Serial keeps the train-once guarantee.
        if not self.parallel or workers == 1 or self.cache.root is None:
            for scenario in scenarios:
                yield self._guarded(scenario)
            return
        root = str(self.cache.root)
        results_root = str(self.results.root) if self.results.root is not None else None

        def submit(
            pool: ProcessPoolExecutor, scenario: ScenarioSpec
        ) -> "Future":
            return pool.submit(
                _run_payload, (scenario.to_dict(), root, results_root, self.mode)
            )

        pool = ProcessPoolExecutor(max_workers=workers)
        pending: dict = {}
        try:
            representative: dict[str, object] = {}  # train_key -> its future
            for scenario in scenarios:
                try:
                    key = scenario.train_key()
                except Exception as exc:
                    # Unkeyable (e.g. unknown dataset): report, keep sweeping.
                    yield _error_result(scenario, exc, self.mode)
                    continue
                rep = representative.get(key)
                if rep is not None and not is_trained(scenario, self.cache):
                    # Queue behind the in-flight representative for this key.
                    pending[rep].append(scenario)
                else:
                    try:
                        future = submit(pool, scenario)
                    except Exception as exc:  # pool unusable (e.g. broken)
                        yield _error_result(scenario, exc, self.mode)
                        continue
                    pending[future] = [scenario]
                    representative.setdefault(key, future)
            while pending:
                done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
                for future in done:
                    group = pending.pop(future)
                    try:
                        result = future.result()
                    except Exception as exc:
                        # The worker died outright (SIGKILL / broken pool):
                        # the scenario still gets a structured error result.
                        result = _error_result(group[0], exc, self.mode)
                    siblings = group[1:]
                    if siblings:
                        if result.error is None or is_trained(siblings[0], self.cache):
                            # The artifact exists on disk (the representative
                            # either succeeded, or failed *after* training
                            # published it): fan the siblings out in parallel.
                            dispatch = [[sib] for sib in siblings]
                        else:
                            # Representative failed before publishing; promote
                            # the first sibling, keep the rest queued behind
                            # it -- nothing is silently dropped.
                            dispatch = [list(siblings)]
                        for group_ in dispatch:
                            try:
                                pending[submit(pool, group_[0])] = group_
                            except Exception as exc:
                                for sib in group_:
                                    yield _error_result(sib, exc, self.mode)
                    yield result
        finally:
            # On abandonment (GeneratorExit) or interrupt, drop the
            # not-yet-started work instead of blocking on the whole sweep;
            # scenarios queued behind a representative are never submitted.
            for future in pending:
                future.cancel()
            pool.shutdown(wait=True, cancel_futures=True)

    def run_stealing(
        self,
        scenarios: Sequence[ScenarioSpec],
        coordinator: "Coordinator",
        completed: Iterable[str] = (),
        poll_interval: float | None = None,
    ) -> Iterator[SweepResult]:
        """Yield results for the scenarios this worker claims from a shared
        lease directory (work-stealing mode).

        Every worker pointed at ``coordinator``'s directory drains the
        *same* sweep: instead of running a fixed partition, each claims
        scenarios at runtime -- most expensive first
        (:func:`~repro.experiments.schedule.cost_order`, priced with the
        local result store's recorded wall times) -- runs each claimed
        scenario in-process under a background-renewed lease, marks the
        lease done, and moves to the next unclaimed scenario.  Scenarios a
        live peer holds are left alone; stale leases (renewal TTL expired,
        or the holder is a dead process on this host) are broken and their
        scenarios stolen, so a crashed worker delays its in-flight
        scenario by at most the TTL instead of losing it.

        The generator finishes only when every distinct scenario is done
        *somewhere*: a worker that exhausted the claimable work polls its
        peers' leases, stealing anything that goes stale -- which is what
        makes the pool elastic (a worker added mid-sweep shortens the
        sweep; the last worker standing finishes it alone).  Between
        passes it parks in :meth:`StoreBackend.wait
        <repro.experiments.backend.StoreBackend.wait>` on the change
        counter read before the pass: a store server wakes it the moment a
        lease changes, and every backend wakes it after ``poll_interval``
        (default a quarter TTL, capped at 1 s) to look for stale leases.
        A live peer's lease is skipped without a claim attempt.

        ``completed`` keys (e.g. scenarios resumed from this worker's own
        manifest) are marked done for the pool without re-running and
        yield no result.  Duplicate scenarios share a key, hence a lease:
        one run and one yielded result per distinct scenario, exactly the
        granularity ``repro merge`` dedupes at.  A failed scenario's lease
        is marked done too (with its error recorded): its structured error
        line is this worker's manifest entry, and retrying is ``--resume``'s
        job, not the pool's -- peers immediately re-claiming a
        deterministic failure would spin forever.
        """
        from .schedule import cost_order, observed_durations  # lazy: avoids an import cycle

        scenarios = list(scenarios)
        if not scenarios:
            return
        ordered = cost_order(
            scenarios, self.mode, observed_durations(self.results, scenarios, self.mode)
        )
        keys = [scenario_key(s) for s in ordered]
        coordinator.ensure_sweep(keys, self.mode)
        completed = set(completed)
        pending: dict[str, ScenarioSpec] = {}
        for key, scenario in zip(keys, ordered):
            if key in completed:
                # Already in this worker's manifest: publish the completion
                # so peers skip it, but never re-run or re-yield it.
                if coordinator.claim(key):
                    coordinator.mark_done(key)
            else:
                pending[key] = scenario
        if poll_interval is None:
            poll_interval = min(max(coordinator.ttl / 4.0, 0.05), 1.0)
        backend = coordinator.backend
        while pending:
            # Read the change counter BEFORE the pass: a lease that changes
            # mid-pass then cuts the wait below short instead of being
            # slept through.
            generation = backend.wait(0, 0.0)
            progressed = False
            for key in list(pending):
                lease = coordinator.read(key)
                if lease is not None and lease.done:
                    del pending[key]  # a peer completed it; not our result
                    progressed = True
                    continue
                if lease is not None and not coordinator.is_stale(lease):
                    continue  # a live peer is on it; try the next scenario
                if not coordinator.claim(key):
                    continue  # a peer won the race for it
                scenario = pending.pop(key)
                progressed = True
                try:
                    with coordinator.renewing(key):
                        result = self._guarded(scenario)
                except BaseException:
                    # Interrupted mid-run (KeyboardInterrupt, GeneratorExit):
                    # hand the scenario straight back instead of making the
                    # peers wait out the TTL.
                    coordinator.release(key)
                    raise
                # The lease is marked done only AFTER the consumer resumes
                # the generator -- i.e. after it durably recorded the
                # yielded result (the CLI writes and flushes the manifest
                # line between iterations).  Marking done first would open
                # a window where a crash leaves the scenario completed in
                # the ledger but present in nobody's manifest, silently
                # shrinking the merged sweep.  The swapped order fails the
                # other way: a crash inside the window leaves the lease
                # claimed, it goes stale, and a peer re-runs the scenario
                # (served from the result store) into a duplicate manifest
                # line that `repro merge` dedupes -- at-least-once, which
                # merge semantics already absorb.
                consumed = False
                try:
                    yield result
                    consumed = True
                finally:
                    if consumed:
                        coordinator.mark_done(key, error=result.error)
                    else:
                        # Abandoned at the yield (consumer closed us):
                        # whether the result was recorded is unknowable
                        # here, so hand the scenario back for a peer.
                        coordinator.release(key)
            if pending and not progressed:
                backend.wait(generation or 0, poll_interval)

    def run_indexed(
        self, scenarios: Sequence[ScenarioSpec]
    ) -> Iterator[tuple[int, SweepResult]]:
        """Like :meth:`run`, but each result carries its input index.

        Duplicate scenarios are allowed; each occurrence is matched to one
        result (earliest free index for that scenario first).
        """
        scenarios = list(scenarios)
        slots: dict[str, list[int]] = {}
        for i, scenario in enumerate(scenarios):
            slots.setdefault(scenario_key(scenario), []).append(i)
        for result in self.run(scenarios):
            yield slots[scenario_key(result.scenario)].pop(0), result

    def run_all(self, scenarios: Sequence[ScenarioSpec]) -> list[SweepResult]:
        """All results, reordered to match the input scenario order."""
        scenarios = list(scenarios)
        out: list[SweepResult | None] = [None] * len(scenarios)
        for i, result in self.run_indexed(scenarios):
            out[i] = result
        return [r for r in out if r is not None]

    def sweep(
        self, base: ScenarioSpec, axes: dict[str, Sequence]
    ) -> Iterator[SweepResult]:
        """Expand ``axes`` over ``base`` and run the product."""
        return self.run(expand_axes(base, axes))
