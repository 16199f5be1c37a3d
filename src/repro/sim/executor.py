"""End-to-end experiment executor: a facade over :mod:`repro.experiments`.

Pipeline per dataset (mirrors the paper's methodology, Sec. IV):

1. generate the synthetic benchmark at simulation scale (registry);
2. run the functional GBDT trainer to obtain a :class:`WorkProfile`;
3. extrapolate the profile to the paper's record count (Table III) and tree
   count (500 trees) -- time models consume paper-scale work;
4. evaluate every hardware model on the identical profile.

The executor no longer owns the caching: functional training is served by
the experiments layer's persistent :class:`ProfileCache` (``results/cache/``
by default), keyed by a content hash covering the dataset identity and
*every* training hyper-parameter, so identical configurations are never
retrained -- not within a session, and not across sessions.  Declarative
sweeps over executor configurations live in
:class:`repro.experiments.SweepRunner`; ``Executor.from_scenario`` bridges
the two worlds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..baselines import (
    HardwareModel,
    IdealGPU,
    IdealMulticore,
    InterRecordAccelerator,
    RealGPU,
    RealMulticore,
    SequentialCPU,
)
from ..baselines.base import StepTimes
from ..core import BoosterConfig, BoosterEngine
from ..datasets import BENCHMARK_NAMES
from ..experiments.cache import ProfileCache, default_cache
from ..experiments.pipeline import train_scenario_tracked
from ..experiments.scenario import ScenarioSpec, cost_overrides_from
from ..gbdt import TrainParams, TrainResult, WorkProfile
from ..memory.profile import BandwidthProfile, bandwidth_profile
from ..serving import (
    ServingParams,
    ServingResult,
    ServingStats,
    build_arrivals,
    simulate,
    summarize,
)
from .calibrate import DEFAULT_COSTS, CostModel
from .results import ComparisonResult, InferenceResult

__all__ = [
    "Executor",
    "MODEL_NAMES",
    "quick_compare",
    "PAPER_TREES",
    "DEFAULT_SIM_TREES",
]

#: The paper trains 500 trees of depth up to 6 per benchmark (Sec. IV).
PAPER_TREES = 500

#: Every hardware model the executor registers (importable without building
#: an executor, e.g. for CLI validation).
MODEL_NAMES = (
    "sequential",
    "ideal-32-core",
    "real-32-core",
    "ideal-gpu",
    "real-gpu",
    "inter-record",
    "booster",
    "booster-no-opts",
    "booster-group-by-field",
)
#: Boosting rounds actually executed by the functional simulator; per-tree
#: work is homogeneous after the first rounds and all results are ratios.
DEFAULT_SIM_TREES = 20


@dataclass
class Executor:
    """Runs the full dataset -> profile -> timing pipeline with caching.

    ``train_params`` pins the full training configuration; when omitted it
    defaults to ``TrainParams(n_trees=sim_trees)``.  ``cache`` selects the
    artifact store (the shared persistent default when omitted).
    """

    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    booster_config: BoosterConfig = field(default_factory=BoosterConfig)
    sim_records: int | None = None  # None => registry default (paper / 1000)
    sim_trees: int = DEFAULT_SIM_TREES
    seed: int = 7
    scale_to_paper: bool = True
    train_params: TrainParams | None = None
    cache: ProfileCache | None = None

    def __post_init__(self) -> None:
        if self.train_params is None:
            self.train_params = TrainParams(n_trees=self.sim_trees)
        else:
            self.sim_trees = self.train_params.n_trees
        self._cache = self.cache if self.cache is not None else default_cache()
        # One calibration per store: a warm store hands it to every process.
        self._bandwidth: BandwidthProfile = bandwidth_profile(store=self._cache)
        self._models = self._build_models()
        #: Provenance of the most recent train_result call: True = cache hit,
        #: False = this executor trained, None = no training requested yet.
        self.last_train_hit: bool | None = None

    # -- scenario bridge ---------------------------------------------------------

    @classmethod
    def from_scenario(
        cls, scenario: ScenarioSpec, cache: ProfileCache | None = None
    ) -> "Executor":
        """Build an executor configured exactly like ``scenario``.

        The scenario's dataset/systems/extra-scale choices are per-call
        arguments on the executor side; everything configurational (costs,
        design point, training params, scales, seed) carries over.
        """
        return cls(
            costs=scenario.costs(),
            booster_config=scenario.booster,
            sim_records=scenario.sim_records,
            seed=scenario.seed,
            scale_to_paper=scenario.scale_to_paper,
            train_params=scenario.train,
            cache=cache,
        )

    def scenario(self, dataset: str) -> ScenarioSpec:
        """The :class:`ScenarioSpec` describing this executor on ``dataset``."""
        assert self.train_params is not None
        return ScenarioSpec(
            dataset=dataset,
            sim_records=self.sim_records,
            seed=self.seed,
            train=self.train_params,
            booster=self.booster_config,
            cost_overrides=cost_overrides_from(self.costs),
            scale_to_paper=self.scale_to_paper,
        )

    # -- model registry ------------------------------------------------------------

    def _build_models(self) -> dict[str, HardwareModel]:
        kw = dict(costs=self.costs, bandwidth=self._bandwidth)
        models: dict[str, HardwareModel] = {
            "sequential": SequentialCPU(**kw),
            "ideal-32-core": IdealMulticore(**kw),
            "real-32-core": RealMulticore(**kw),
            "ideal-gpu": IdealGPU(**kw),
            "real-gpu": RealGPU(**kw),
            "inter-record": InterRecordAccelerator(**kw),
            "booster": BoosterEngine(config=self.booster_config, **kw),
            "booster-no-opts": BoosterEngine(
                config=self.booster_config,
                mapping_strategy="naive",
                column_format=False,
                **kw,
            ),
            "booster-group-by-field": BoosterEngine(
                config=self.booster_config,
                mapping_strategy="field",
                column_format=False,
                **kw,
            ),
        }
        assert set(models) == set(MODEL_NAMES)
        return models

    def model(self, name: str) -> HardwareModel:
        return self._models[name]

    @property
    def model_names(self) -> list[str]:
        return list(self._models)

    @property
    def bandwidth(self) -> BandwidthProfile:
        """The DRAM bandwidth calibration shared by all models."""
        return self._bandwidth

    # -- functional training (persistently cached) ---------------------------------

    def train_result(self, dataset: str) -> TrainResult:
        result, hit = train_scenario_tracked(self.scenario(dataset), cache=self._cache)
        self.last_train_hit = hit
        return result

    def profile(self, dataset: str, extra_scale: float = 1.0) -> WorkProfile:
        """Paper-scale work profile (records x ``extra_scale``, 500 trees)."""
        result = self.train_result(dataset)
        prof = result.profile
        if self.scale_to_paper:
            k = prof.spec.paper_records / prof.spec.n_records
            prof = prof.scaled(k * extra_scale).with_trees_scaled(PAPER_TREES)
        elif extra_scale != 1.0:
            prof = prof.scaled(extra_scale)
        return prof

    # -- experiments ----------------------------------------------------------------------

    def compare(
        self,
        dataset: str,
        systems: list[str] | None = None,
        extra_scale: float = 1.0,
    ) -> ComparisonResult:
        """Training-time comparison (the Fig. 7 / 8 / 9 / 12 workhorse)."""
        prof = self.profile(dataset, extra_scale=extra_scale)
        names = systems or [
            "sequential",
            "ideal-32-core",
            "ideal-gpu",
            "inter-record",
            "booster",
        ]
        times: dict[str, StepTimes] = {}
        for name in names:
            times[name] = self._models[name].training_times(prof)
        return ComparisonResult(
            dataset=dataset, systems=times, profile_summary=prof.summary()
        )

    def inference(
        self,
        dataset: str,
        systems: list[str] | None = None,
        n_trees: int = PAPER_TREES,
        extra_scale: float = 1.0,
    ) -> InferenceResult:
        """Batch-inference comparison over all records (Fig. 13).

        The work comes from the training run's own step-5 walk
        (:meth:`WorkProfile.inference_work` on the unscaled profile), so no
        dataset is generated and no tree is walked again.  ``extra_scale``
        multiplies the batch's record count on top of the paper
        extrapolation, mirroring :meth:`profile`'s parameter so
        record-scaling sweeps measure scaled inference work too.
        """
        work = self.train_result(dataset).profile.inference_work(n_trees)
        if self.scale_to_paper:
            work = work.scaled(work.spec.paper_records / work.n_records * extra_scale)
        elif extra_scale != 1.0:
            work = work.scaled(extra_scale)
        names = systems or ["ideal-32-core", "booster"]
        seconds = {name: self._models[name].inference_seconds(work) for name in names}
        return InferenceResult(dataset=dataset, seconds=seconds)

    def serve(
        self,
        dataset: str,
        serving: ServingParams | None = None,
        systems: list[str] | None = None,
        extra_scale: float = 1.0,
        seed: int | None = None,
    ) -> ServingResult:
        """Traffic-driven serving comparison: latency tail under a queue.

        Replays one arrival trace (generated from ``serving``'s parameters
        with ``seed``, or loaded from its recorded trace file) through the
        single-server batching queue once per system.  Per-batch service
        cost derives from the same 500-tree :class:`InferenceWork` the
        Fig. 13 batch comparison prices, read from the unscaled training
        profile -- ``inference_seconds`` over the work scaled to the batch's
        exact record count (x ``extra_scale``, mirroring :meth:`inference`)
        -- so the serving numbers and the batch numbers share one cost model
        by construction.  Everything after arrival generation is a pure
        function of its inputs; the same scenario yields a bit-identical
        :class:`ServingResult` in any process.
        """
        params = serving if serving is not None else ServingParams()
        times, priorities = build_arrivals(params, self.seed if seed is None else seed)
        base = self.train_result(dataset).profile.inference_work(PAPER_TREES)
        if params.arrival == "trace":
            span = float(times[-1] - times[0]) if times.size > 1 else 0.0
            offered = float(times.size / span) if span > 0 else float(times.size)
        else:
            offered = float(params.qps)
        names = systems or ["ideal-32-core", "booster"]
        cap = 1 if params.policy == "immediate" else params.max_batch
        stats: dict[str, ServingStats] = {}
        for name in names:
            model = self._models[name]
            memo: dict[int, float] = {}

            def service_seconds(
                n_records: int, _model: HardwareModel = model, _memo: dict[int, float] = memo
            ) -> float:
                # Batch sizes repeat constantly (the queue dispatches the
                # same few sizes); memoize per (model, record count).
                cost = _memo.get(n_records)
                if cost is None:
                    work = base.scaled(n_records * extra_scale / base.n_records)
                    cost = float(_model.inference_seconds(work))
                    _memo[n_records] = cost
                return cost

            # Best sustainable request rate over candidate batch sizes:
            # batching amortizes fixed cost, so probe small/half/full.
            candidates = sorted({1, max(1, cap // 2), cap})
            capacity = max(
                k / service_seconds(k * params.records_per_request) for k in candidates
            )
            trace = simulate(
                times,
                priorities,
                policy=params.policy,
                max_batch=params.max_batch,
                timeout_s=params.timeout_ms / 1e3,
                queue=params.queue,
                records_per_request=params.records_per_request,
                service_seconds=service_seconds,
            )
            stats[name] = summarize(trace, offered_qps=offered, capacity_qps=capacity)
        baseline = "ideal-32-core" if "ideal-32-core" in stats else names[0]
        return ServingResult(
            dataset=dataset,
            arrival=params.arrival,
            policy=params.policy,
            offered_qps=offered,
            systems=stats,
            baseline=baseline,
            params=params.to_dict(),
        )

    def all_datasets(self) -> tuple[str, ...]:
        return BENCHMARK_NAMES


def quick_compare(dataset: str = "higgs", **kwargs: Any) -> ComparisonResult:
    """One-call demo used by the README quickstart."""
    return Executor(**kwargs).compare(dataset)
