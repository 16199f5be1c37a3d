"""Declarative experiment descriptions with content-derived cache keys.

A :class:`ScenarioSpec` pins down everything that determines an experiment's
result: the benchmark dataset and its simulated scale, every training
hyper-parameter (:class:`~repro.gbdt.trainer.TrainParams`, including the
split regularization knobs), the Booster design point
(:class:`~repro.core.config.BoosterConfig` plus cost-model overrides), the
record/tree extrapolation mode, and the hardware systems to compare.

Two content hashes are derived from the canonical JSON form:

* :meth:`ScenarioSpec.train_key` covers only the fields that influence
  functional training (dataset, resolved record count, seed, all
  ``TrainParams`` fields) -- the key under which trained artifacts are
  cached and shared between scenarios that differ only in hardware knobs;
* :meth:`ScenarioSpec.cache_key` covers the whole scenario and identifies
  the experiment itself -- sweep bookkeeping, JSONL manifests, and the key
  under which the persistent :class:`~repro.experiments.cache.ResultStore`
  replays completed timing results.  Code fingerprints are deliberately
  *not* part of this key; the result store records the simulation-source
  fingerprint inside each payload and validates it on load instead, so the
  key stays stable for resume bookkeeping while stale timings still miss.

Hashes are SHA-256 over a canonical JSON encoding, so they are stable
across processes, sessions, and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields as dc_fields, replace

from ..core.config import BoosterConfig
from ..gbdt.split import SplitParams
from ..gbdt.trainer import TrainParams
from ..serving.params import ServingParams
from ..sim.calibrate import DEFAULT_COSTS, CostModel

__all__ = ["DEFAULT_SYSTEMS", "ScenarioSpec", "ServingParams", "cost_overrides_from"]

#: Systems compared when a scenario does not name its own subset (the Fig. 7
#: headline set, matching ``Executor.compare``'s default).
DEFAULT_SYSTEMS = (
    "sequential",
    "ideal-32-core",
    "ideal-gpu",
    "inter-record",
    "booster",
)

#: Boosting rounds a scenario trains by default (matches the executor).
DEFAULT_SCENARIO_TREES = 20

_COST_FIELD_NAMES = frozenset(f.name for f in dc_fields(CostModel))


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: dict, prefix: str) -> str:
    return prefix + hashlib.sha256(_canonical(payload).encode()).hexdigest()[:20]


def cost_overrides_from(costs: CostModel) -> tuple[tuple[str, float], ...]:
    """Overrides that rebuild ``costs`` from :data:`DEFAULT_COSTS` (diff form)."""
    out = []
    for f in dc_fields(CostModel):
        value = getattr(costs, f.name)
        if value != getattr(DEFAULT_COSTS, f.name):
            out.append((f.name, value))
    return tuple(sorted(out))


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment: dataset x training x design point x scale.

    ``sim_records=None`` means the registry's simulation-scale default;
    ``cost_overrides`` are (field name, value) pairs applied on top of
    :data:`~repro.sim.calibrate.DEFAULT_COSTS`; an empty ``systems`` tuple
    is normalized to :data:`DEFAULT_SYSTEMS`.
    """

    dataset: str = "higgs"
    sim_records: int | None = None
    seed: int = 7
    train: TrainParams = field(
        default_factory=lambda: TrainParams(n_trees=DEFAULT_SCENARIO_TREES)
    )
    booster: BoosterConfig = field(default_factory=BoosterConfig)
    cost_overrides: tuple[tuple[str, float], ...] = ()
    extra_scale: float = 1.0
    scale_to_paper: bool = True
    systems: tuple[str, ...] = DEFAULT_SYSTEMS
    serving: ServingParams | None = None

    def __post_init__(self) -> None:
        # Normalize list inputs (e.g. straight from JSON) to hashable tuples.
        if isinstance(self.serving, dict):
            object.__setattr__(self, "serving", ServingParams.from_dict(self.serving))
        object.__setattr__(
            self,
            "cost_overrides",
            tuple(sorted((str(k), v) for k, v in self.cost_overrides)),
        )
        object.__setattr__(self, "systems", tuple(self.systems) or DEFAULT_SYSTEMS)
        for name, value in self.cost_overrides:
            if name not in _COST_FIELD_NAMES:
                raise ValueError(f"unknown cost-model field {name!r}")
            # Every cost constant is a finite, positive energy/latency/
            # clock/size; NaN or a negative value would poison the content
            # hashes (and every comparison built on them), so reject at
            # construction -- the same rule ``apply_axis`` enforces.
            if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
                raise ValueError(
                    f"cost override {name!r} needs a finite, positive value, "
                    f"got {value!r}"
                )
        if self.extra_scale <= 0:
            raise ValueError("extra_scale must be positive")
        if self.sim_records is not None and self.sim_records < 1:
            raise ValueError("sim_records must be positive when given")

    # -- derived configuration -------------------------------------------------

    def costs(self) -> CostModel:
        """The scenario's cost model (defaults plus overrides)."""
        if not self.cost_overrides:
            return DEFAULT_COSTS
        return replace(DEFAULT_COSTS, **dict(self.cost_overrides))

    def resolved_records(self) -> int:
        """Simulated record count with the registry default resolved."""
        from ..datasets import dataset_spec

        return dataset_spec(
            self.dataset, n_records=self.sim_records, seed=self.seed
        ).n_records

    #: Record count assumed by :meth:`approx_records` when the dataset is
    #: unknown (matches the registry benchmarks' simulation scale).
    FALLBACK_RECORDS = 1000

    def approx_records(self) -> int:
        """:meth:`resolved_records`, with a finite fallback when resolving
        raises (unknown dataset name).

        Cost estimation (:mod:`repro.experiments.schedule`) must price
        *every* scenario -- an unkeyable one still takes its place in the
        claim order, and its claimant fails fast with a structured error
        result -- so an unresolvable record count degrades to
        ``sim_records`` (or the registry sim scale) instead of propagating.
        """
        try:
            return self.resolved_records()
        except Exception:
            return self.sim_records or self.FALLBACK_RECORDS

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON form; ``from_dict`` round-trips it exactly.

        The nested configs are rendered with :func:`dataclasses.asdict`, so
        a field added to ``TrainParams``/``SplitParams``/``BoosterConfig``
        automatically enters the serialization -- and therefore the cache
        keys.  Hand-enumerating fields here would reintroduce the silent
        stale-key bug this layer exists to fix.

        ``serving`` is OMITTED entirely when unset (the training/compare
        default): every pre-serving scenario keeps its exact serialized
        form, and therefore its exact cache key -- adding the serving layer
        must not orphan a single stored result or manifest line.
        """
        d = {
            "dataset": self.dataset,
            "sim_records": self.sim_records,
            "seed": self.seed,
            "train": asdict(self.train),  # nested split included
            "booster": asdict(self.booster),
            "cost_overrides": [list(pair) for pair in self.cost_overrides],
            "extra_scale": self.extra_scale,
            "scale_to_paper": self.scale_to_paper,
            "systems": list(self.systems),
        }
        if self.serving is not None:
            d["serving"] = self.serving.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        # Missing keys fall back to the owning dataclasses' own defaults
        # (only the scenario-level tree count differs from TrainParams').
        t = dict(d.get("train", {}))
        split = SplitParams(**t.pop("split", {}))
        train = TrainParams(**{"n_trees": DEFAULT_SCENARIO_TREES, **t}, split=split)
        kwargs = {
            k: d[k]
            for k in ("dataset", "sim_records", "seed", "extra_scale", "scale_to_paper")
            if k in d
        }
        if "systems" in d:
            kwargs["systems"] = tuple(d["systems"])
        if "cost_overrides" in d:
            kwargs["cost_overrides"] = tuple((k, v) for k, v in d["cost_overrides"])
        if d.get("serving") is not None:
            kwargs["serving"] = ServingParams.from_dict(d["serving"])
        return cls(train=train, booster=BoosterConfig(**d.get("booster", {})), **kwargs)

    def to_json(self) -> str:
        return _canonical(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # -- content keys ------------------------------------------------------------

    def train_key(self) -> str:
        """Cache key of the training artifact this scenario needs.

        Covers *every* field that changes what ``train()`` produces -- the
        dataset identity (name, resolved record count, seed) and all
        ``TrainParams`` fields including ``max_depth`` and the split knobs.
        Hardware-only fields (booster config, costs, systems, scales) are
        deliberately excluded so scenarios that differ only in hardware
        share one trained artifact.  A digest of the functional-training
        source code also participates, so trainer/generator edits
        invalidate persisted artifacts automatically.
        """
        from . import cache as _cache

        payload = {
            "version": _cache.CACHE_VERSION,
            "code": _cache.code_fingerprint(),
            "dataset": self.dataset,
            "n_records": self.resolved_records(),
            "seed": self.seed,
            "train": self.to_dict()["train"],
        }
        return _digest(payload, "t")

    def cache_key(self) -> str:
        """Content hash identifying the full scenario (stable across runs).

        For trace-replay serving scenarios, ``trace_path`` is dropped from
        the hashed payload: the experiment's identity is the trace
        *content* (``trace_sha``), so the same trace at a different path --
        or on a different host -- keys identically, while an edited trace
        misses.
        """
        from .cache import CACHE_VERSION

        payload = {"version": CACHE_VERSION, "scenario": self.to_dict()}
        payload["scenario"]["sim_records"] = self.resolved_records()
        serving = payload["scenario"].get("serving")
        if isinstance(serving, dict):
            serving.pop("trace_path", None)
        return _digest(payload, "s")
