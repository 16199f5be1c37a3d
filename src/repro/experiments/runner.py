"""Cartesian sweep expansion and the fault-tolerant sweep runner.

A sweep is a base :class:`ScenarioSpec` plus named *axes*, each a list of
values; :func:`expand_axes` produces the cartesian product as concrete
scenarios.  :class:`SweepRunner` executes them with one engine, the
work-stealing claim loop :meth:`SweepRunner.run_stealing`: over a shared
store for ``repro sweep --coordinate``, or over a private lease directory
in the worker processes :meth:`SweepRunner.run` forks (training is
CPU-bound NumPy, so one process per worker is the right grain).

Workers share the :class:`~repro.experiments.cache.ProfileCache` of
trained artifacts and the :class:`~repro.experiments.cache.ResultStore`
of timing results, so a re-run sweep neither retrains nor re-simulates
(``SweepResult.stored`` marks a replayed result).  Failures are data, not
aborts: a raising scenario yields a ``SweepResult(error=...)`` like any
other result, and a worker that dies is a dead lease holder whose
scenario a peer steals.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, fields as dc_fields, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, cast

if TYPE_CHECKING:  # annotation-only: keep the lease machinery a lazy import
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

    from .steal import Coordinator

from ..serving.result import ServingResult
from ..sim.calibrate import CostModel
from ..sim.results import ComparisonResult, InferenceResult
from .cache import CACHE_VERSION, ProfileCache, ResultStore, default_cache, sim_fingerprint
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

#: Poll of an idle forked worker (a private directory announces no lease
#: change; the quarter-TTL default would add up to 1 s per sweep).
_POLL_S = 0.02

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


@functools.lru_cache(maxsize=4096)
def scenario_train_key(scenario: ScenarioSpec) -> str | None:
    """``train_key()``, or ``None`` for an unkeyable scenario.

    Memoized like :func:`scenario_key`: deriving it resolves the dataset's
    spec, and an idle sweep worker asks for it on every pass.
    """
    try:
        return scenario.train_key()
    except Exception:
        return None



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


class SweepRunner:
    """Expands and executes scenario sweeps, streaming results.

    ``max_workers=None`` forks ``min(distinct scenarios, max(cpu_count,
    2))`` workers -- at least two, so sweeps exercise the multi-process
    path even on single-core machines.  ``parallel=False`` runs everything
    in-process, where monkeypatched counters can observe training calls.
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
        """Yield one result per distinct scenario, in completion order.

        Forks workers that run :meth:`run_stealing` over a private lease
        directory and yields what they pipe back.  If every worker dies,
        each unreported scenario yields an error result.
        ``parallel=False``, a pool of one, or a diskless cache (which
        workers could not share) runs the scenarios in-process instead.
        """
        distinct: dict[str, ScenarioSpec] = {}
        for scenario in scenarios:
            distinct.setdefault(scenario_key(scenario), scenario)
        workers = self._pool_size(len(distinct))
        if not self.parallel or workers == 1 or self.cache.root is None:
            for scenario in distinct.values():
                yield self._guarded(scenario)
            return
        import multiprocessing
        from multiprocessing.connection import wait

        from .steal import Coordinator  # lazy: avoids an import cycle

        def work(own_reader: "Connection", writer: "Connection") -> None:
            # Leave the parent the only reader of every pipe, so a send
            # after the parent died fails at once instead of working on.
            for reader in [own_reader, *pool]:
                reader.close()
            coordinator = Coordinator(lease_dir)
            for result in self.run_stealing(
                list(distinct.values()), coordinator, poll_interval=_POLL_S
            ):
                writer.send(result)

        context = multiprocessing.get_context("fork")
        lease_dir = tempfile.mkdtemp(prefix="repro-sweep-")
        pool: dict[Connection, BaseProcess] = {}  # result pipe's read end -> worker
        try:
            for _ in range(workers):
                reader, writer = context.Pipe(duplex=False)
                worker = context.Process(target=work, args=(reader, writer), daemon=True)
                worker.start()
                writer.close()  # the worker holds the only write end: EOF = exit
                pool[reader] = worker
            exit_codes: list[int | None] = []
            while pool:
                for reader in cast("list[Connection]", wait(list(pool))):
                    try:
                        result = reader.recv()
                    except (EOFError, OSError):
                        # Reap at once: a zombie holder looks alive to its
                        # peers, which would wait out the TTL to steal.
                        worker = pool.pop(reader)
                        worker.join()
                        exit_codes.append(worker.exitcode)
                        reader.close()
                        continue
                    # A stolen scenario may be reported twice: yield it once.
                    if distinct.pop(scenario_key(result.scenario), None) is not None:
                        yield result
            lost = ChildProcessError(
                f"every sweep worker exited (exit codes {exit_codes}) "
                "before reporting this scenario"
            )
            for scenario in distinct.values():
                yield _error_result(scenario, lost, self.mode)
        finally:
            # Abandoned (GeneratorExit) or interrupted: stop the workers.
            for reader, worker in pool.items():
                worker.kill()
                worker.join()
                reader.close()
            shutil.rmtree(lease_dir, ignore_errors=True)

    def run_stealing(
        self,
        scenarios: Sequence[ScenarioSpec],
        coordinator: "Coordinator",
        completed: Iterable[str] = (),
        poll_interval: float | None = None,
    ) -> Iterator[SweepResult]:
        """Yield results for the scenarios this worker claims from
        ``coordinator``'s lease store (work-stealing mode).

        Every worker on the store drains the *same* sweep, claiming the
        most expensive remaining scenario first
        (:func:`~repro.experiments.schedule.cost_order`) and running it
        in-process under a background-renewed lease.  A live peer's lease
        is skipped without a claim attempt; a stale one (TTL expired, or
        its holder is a dead process on this host) is broken and its
        scenario stolen.  A scenario whose training artifact is not in
        the profile cache yet also runs under the artifact's *train lease*
        (:meth:`~repro.experiments.steal.Coordinator.train_leases`), and
        waits while a live peer holds it, so each artifact trains once.

        The generator finishes when every distinct scenario is done
        somewhere, so the last worker standing finishes the sweep.
        Between passes it waits in :meth:`StoreBackend.wait
        <repro.experiments.backend.StoreBackend.wait>`, which a store
        server ends on any lease change; ``poll_interval`` (default a
        quarter TTL, capped at 1 s) bounds the wait.

        ``completed`` keys (e.g. resumed from this worker's manifest) are
        marked done without running.  Duplicates share a key, hence a
        lease: one result per distinct scenario.  Scenario and train
        leases are marked done even when the run failed: retrying is
        ``--resume``'s job, and peers re-claiming a deterministic failure
        would spin forever.
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
        train_leases = coordinator.train_leases()
        trained: set[str] = set()  # train keys seen published (or given up on)
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
                train_key = self._untrained_key(pending[key], trained)
                if train_key is not None:
                    held = train_leases.read(train_key)
                    if held is not None and held.done:
                        trained.add(train_key)  # its holder ran: no lease needed
                        train_key = None
                    elif held is not None and not train_leases.is_stale(held):
                        continue  # a live peer is training it; run a sibling later
                    elif not train_leases.claim(train_key):
                        continue  # a peer won the race for it
                if not coordinator.claim(key):
                    if train_key is not None:
                        train_leases.release(train_key)
                    continue  # a peer won the race for it
                scenario = pending.pop(key)
                progressed = True
                try:
                    with contextlib.ExitStack() as renewals:
                        renewals.enter_context(coordinator.renewing(key))
                        if train_key is not None:
                            renewals.enter_context(train_leases.renewing(train_key))
                        result = self._guarded(scenario)
                except BaseException:
                    # Interrupted mid-run (KeyboardInterrupt, GeneratorExit):
                    # hand the scenario straight back instead of making the
                    # peers wait out the TTL.
                    coordinator.release(key)
                    if train_key is not None:
                        train_leases.release(train_key)
                    raise
                if train_key is not None:
                    train_leases.mark_done(train_key, error=result.error)
                    trained.add(train_key)
                # Mark done only AFTER the consumer resumes us, i.e. after
                # it durably recorded the result: done-first would let a
                # crash drop the scenario from every manifest.  A crash in
                # this window instead leaves a stale lease, and a peer's
                # re-run (a stored replay) is a duplicate `repro merge`
                # dedupes.
                try:
                    yield result
                except BaseException:
                    # Abandoned at the yield (consumer closed us): whether
                    # the result was recorded is unknowable here, so hand
                    # the scenario back for a peer.
                    coordinator.release(key)
                    raise
                coordinator.mark_done(key, error=result.error)
            if pending and not progressed:
                backend.wait(generation or 0, poll_interval)

    def _untrained_key(self, scenario: ScenarioSpec, trained: set[str]) -> str | None:
        """The scenario's train key, unless its artifact is known to exist
        (an unkeyable scenario fails before training: no lease needed)."""
        key = scenario_train_key(scenario)
        if key is None or key in trained:
            return None
        if key in self.cache:
            trained.add(key)
            return None
        return key

    def run_indexed(
        self,
        scenarios: Sequence[ScenarioSpec],
        coordinator: "Coordinator | None" = None,
        completed: Iterable[str] = (),
    ) -> Iterator[tuple[int, SweepResult]]:
        """Like :meth:`run` (:meth:`run_stealing`, given a ``coordinator``),
        but each result carries its input index.

        Duplicates run once (one key, one lease), and their result is
        handed to every occurrence: one manifest line per input scenario.
        """
        slots: dict[str, list[int]] = {}
        for i, scenario in enumerate(scenarios):
            slots.setdefault(scenario_key(scenario), []).append(i)
        if coordinator is None:
            stream = self.run(scenarios)
        else:
            stream = self.run_stealing(scenarios, coordinator, completed)
        for result in stream:
            for index in slots[scenario_key(result.scenario)]:
                yield index, result

    def run_all(self, scenarios: Sequence[ScenarioSpec]) -> list[SweepResult]:
        """All results, reordered to match the input scenario order."""
        scenarios = list(scenarios)
        out: list[SweepResult | None] = [None] * len(scenarios)
        for i, result in self.run_indexed(scenarios):
            out[i] = result
        return [r for r in out if r is not None]
