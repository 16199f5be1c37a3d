"""Claim-order pricing for work-stealing sweeps: estimate, calibrate, order.

Workers of a ``repro sweep --coordinate`` pool claim the most expensive
remaining scenario first -- LPT (longest processing time first) applied at
runtime -- so no worker finishes a giant scenario long after its peers
drained everything else.  This module prices the scenarios for that order:

* :func:`estimate_cost` -- an analytic per-scenario estimate from the
  fields that dominate wall time (boosting rounds x tree depth x resolved
  records x record scale), directly overridable by an observed duration;
* :func:`observed_durations` -- harvests recorded ``duration_s`` wall
  times out of a :class:`~repro.experiments.cache.ResultStore`, turning
  the persistent store into a calibration corpus;
* :func:`scenario_costs` -- blends the two: observed scenarios cost their
  measured seconds, unobserved ones cost the analytic estimate rescaled
  by the corpus' median observed/analytic ratio;
* :func:`cost_order` -- the distinct scenarios, cost-descending, with ties
  broken by :func:`~repro.experiments.runner.scenario_key`.

The order need not agree across workers -- the lease entries arbitrate
ownership -- so each worker prices with whatever its own result store has
observed.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .cache import ResultStore
from .runner import result_store_key, scenario_key
from .scenario import ScenarioSpec

__all__ = [
    "cost_order",
    "estimate_cost",
    "observed_durations",
    "scenario_costs",
]


def estimate_cost(
    scenario: ScenarioSpec,
    mode: str = "compare",
    observed: Mapping[str, float] | None = None,
) -> float:
    """Expected cost of running ``scenario`` once, in arbitrary units.

    The analytic estimate multiplies the knobs that dominate wall time:
    boosting rounds x maximum tree depth x resolved record count x
    ``extra_scale`` (the Fig. 12 record multiplier).  Only ratios between
    scenarios matter to the claim order, so the units are arbitrary --
    unless ``observed`` (a ``scenario_key`` -> wall-seconds mapping, e.g.
    from :func:`observed_durations`) holds this scenario, in which case the
    measured duration overrides the estimate outright.

    ``mode`` participates for symmetry with the runner API; compare and
    inference sweeps share the analytic form (training the ensemble
    dominates both) but calibrate from their own observation namespaces.
    """
    if observed:
        duration = observed.get(scenario_key(scenario))
        if duration is not None:
            return float(duration)
    return (
        float(scenario.train.n_trees)
        * float(scenario.train.max_depth)
        * float(scenario.approx_records())
        * float(scenario.extra_scale)
    )


def observed_durations(
    results: ResultStore,
    scenarios: Sequence[ScenarioSpec],
    mode: str = "compare",
) -> dict[str, float]:
    """Recorded wall times for ``scenarios``, keyed by ``scenario_key``.

    Reads each scenario's stored payload (its own ``mode`` namespace) and
    collects the ``duration_s`` the original execution recorded.  This is a
    scheduling hint, not a correctness input, so payloads are read
    permissively: anything unreadable, durationless, or non-positive is
    simply not an observation.
    """
    out: dict[str, float] = {}
    for scenario in scenarios:
        try:
            payload = results.get(result_store_key(scenario, mode))
        except Exception:
            continue  # unkeyable scenario: nothing can be stored for it
        if not isinstance(payload, dict):
            continue
        result = payload.get("result")
        duration = result.get("duration_s") if isinstance(result, dict) else None
        if isinstance(duration, (int, float)) and duration > 0:
            out[scenario_key(scenario)] = float(duration)
    return out


def scenario_costs(
    scenarios: Sequence[ScenarioSpec],
    mode: str = "compare",
    observed: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """Per-scenario costs (keyed by ``scenario_key``), corpus-calibrated.

    Observed scenarios cost their measured wall seconds.  Unobserved ones
    cost the analytic estimate rescaled by the median observed/analytic
    ratio over the corpus, so the two kinds live on one comparable scale
    (mixing raw seconds with raw analytic units would let either side
    dwarf the other and skew the claim order).  With no observations the
    analytic units pass through unscaled -- only ratios matter.
    """
    analytic = {scenario_key(s): estimate_cost(s, mode) for s in scenarios}
    observed = {k: v for k, v in (observed or {}).items() if k in analytic}
    if not observed:
        return analytic
    ratios = sorted(v / analytic[k] for k, v in observed.items() if analytic[k] > 0)
    factor = ratios[len(ratios) // 2] if ratios else 1.0
    return {
        key: observed[key] if key in observed else cost * factor
        for key, cost in analytic.items()
    }


def _grouped(
    scenarios: Sequence[ScenarioSpec],
) -> dict[str, list[ScenarioSpec]]:
    """Scenarios grouped by content key, first-appearance order preserved."""
    groups: dict[str, list[ScenarioSpec]] = {}
    for scenario in scenarios:
        groups.setdefault(scenario_key(scenario), []).append(scenario)
    return groups


def cost_order(
    scenarios: Sequence[ScenarioSpec],
    mode: str = "compare",
    observed: Mapping[str, float] | None = None,
) -> list[ScenarioSpec]:
    """Distinct scenarios in claim order: cost-descending, keys tie-break.

    A work-stealing pool whose workers always claim the most expensive
    remaining scenario minimizes the tail where one worker finishes a
    giant scenario long after its peers drained everything else.
    Duplicates collapse to their first occurrence (they share a key, hence
    a lease).  The order may fold in host-local ``observed`` durations:
    ordering need not agree across hosts for correctness -- the lease
    files arbitrate ownership -- so each worker is free to use the best
    pricing its own result store can offer.
    """
    groups = _grouped(scenarios)
    costs = scenario_costs(scenarios, mode, observed)
    return [groups[key][0] for key in sorted(groups, key=lambda k: (-costs[k], k))]
