"""Serving results: per-system latency/QPS statistics, JSON round-trip.

:class:`ServingResult` is the third result kind of the sweep layer (beside
the training :class:`~repro.sim.results.ComparisonResult` and the batch
:class:`~repro.sim.results.InferenceResult`): one dataset, one offered
load, a :class:`ServingStats` per simulated system.  It follows its
siblings' mold exactly -- ``to_dict``/``from_dict`` round-trip, a
``speedup`` over the shared baseline (on the p99 tail, the number the
ROADMAP's serving story cares about), and a human-readable ``table()``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields as dc_fields
from typing import Any

from .simulator import QueueTrace
from .stats import percentile, percentile_label

__all__ = ["ServingStats", "ServingResult", "summarize"]

#: Stored queue-depth trajectories are downsampled to at most this many
#: ``[time, depth]`` points: enough to see ramp/saturation shape, small
#: enough that a saturated million-request run does not bloat the store.
MAX_TRAJECTORY_POINTS = 128


@dataclass
class ServingStats:
    """Latency/throughput summary of one system under one offered load.

    Latencies are milliseconds; ``p99_label``/``p999_label`` state the
    statistic honestly (``p99~max(n=40)`` when the sample cannot support
    an interior tail estimate).  ``saturated`` is the capacity verdict:
    the offered arrival rate exceeds the best sustainable batch rate
    ``capacity_qps = max_k k / service_seconds(k)``, so the queue grows
    without bound and latency is ramp-shaped rather than stationary.
    """

    n_requests: int
    mean_ms: float
    p50_ms: float
    p99_ms: float
    p999_ms: float
    max_ms: float
    p99_label: str
    p999_label: str
    sustained_qps: float
    offered_qps: float
    capacity_qps: float
    saturated: bool
    mean_batch: float
    max_queue_depth: int
    queue_depth: list[list[float]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ServingStats":
        kwargs: dict[str, Any] = {k: v for k, v in d.items() if k in _STAT_FIELDS}
        kwargs["queue_depth"] = [
            [float(t), float(depth)] for t, depth in kwargs.get("queue_depth", [])
        ]
        return cls(**kwargs)


_STAT_FIELDS = frozenset(f.name for f in dc_fields(ServingStats))


def _downsample(samples: list[tuple[float, int]], limit: int) -> list[list[float]]:
    """Evenly thin the dispatch-grid depth samples to at most ``limit``."""
    if len(samples) <= limit:
        return [[float(t), float(d)] for t, d in samples]
    step = (len(samples) - 1) / (limit - 1)
    picked = sorted({round(k * step) for k in range(limit)})
    return [[float(samples[j][0]), float(samples[j][1])] for j in picked]


def summarize(
    trace: QueueTrace, *, offered_qps: float, capacity_qps: float
) -> ServingStats:
    """Reduce one system's :class:`QueueTrace` to stored statistics."""
    n = int(trace.latencies_s.size)
    if n == 0:
        # A thin load over a short horizon can legitimately draw zero
        # arrivals; degenerate zeros (clearly labeled) beat NaN in JSON.
        return ServingStats(
            n_requests=0,
            mean_ms=0.0,
            p50_ms=0.0,
            p99_ms=0.0,
            p999_ms=0.0,
            max_ms=0.0,
            p99_label="p99 (n=0)",
            p999_label="p999 (n=0)",
            sustained_qps=0.0,
            offered_qps=float(offered_qps),
            capacity_qps=float(capacity_qps),
            saturated=False,
            mean_batch=0.0,
            max_queue_depth=0,
        )
    ms = trace.latencies_s * 1e3
    span = trace.last_finish_s - trace.first_arrival_s
    return ServingStats(
        n_requests=n,
        # A sequential Python sum, not NumPy's pairwise one: the stored
        # mean must not change with the summation order.
        mean_ms=float(sum(ms.tolist()) / n),
        p50_ms=percentile(ms, 50),
        p99_ms=percentile(ms, 99),
        p999_ms=percentile(ms, 99.9),
        max_ms=float(ms.max()),
        p99_label=percentile_label(99, n),
        p999_label=percentile_label(99.9, n),
        sustained_qps=float(n / span) if span > 0 else 0.0,
        offered_qps=float(offered_qps),
        capacity_qps=float(capacity_qps),
        saturated=bool(capacity_qps > 0 and offered_qps > capacity_qps),
        mean_batch=float(sum(trace.batch_sizes) / len(trace.batch_sizes))
        if trace.batch_sizes
        else 0.0,
        max_queue_depth=int(trace.max_queue_depth),
        queue_depth=_downsample(trace.queue_depth, MAX_TRAJECTORY_POINTS),
    )


@dataclass
class ServingResult:
    """Serving comparison on one dataset under one offered load."""

    dataset: str
    arrival: str
    policy: str
    offered_qps: float
    systems: dict[str, ServingStats]
    baseline: str = "ideal-32-core"
    params: dict[str, Any] = field(default_factory=dict)

    def stats(self, system: str) -> ServingStats:
        try:
            return self.systems[system]
        except KeyError:
            raise ValueError(
                f"system {system!r} is not part of this comparison "
                f"(have: {sorted(self.systems)})"
            ) from None

    def p99_ms(self, system: str) -> float:
        return self.stats(system).p99_ms

    def speedup(self, system: str, over: str | None = None) -> float:
        """p99-latency speedup of ``system`` over the baseline."""
        mine = self.stats(system).p99_ms
        if mine <= 0:
            raise ValueError(f"non-positive p99 latency for {system!r}")
        return self.stats(over or self.baseline).p99_ms / mine

    def to_dict(self) -> dict[str, Any]:
        return {
            "dataset": self.dataset,
            "arrival": self.arrival,
            "policy": self.policy,
            "offered_qps": self.offered_qps,
            "baseline": self.baseline,
            "systems": {name: st.to_dict() for name, st in self.systems.items()},
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ServingResult":
        return cls(
            dataset=d["dataset"],
            arrival=d.get("arrival", "poisson"),
            policy=d.get("policy", "batch"),
            offered_qps=float(d.get("offered_qps", 0.0)),
            systems={
                name: ServingStats.from_dict(st) for name, st in d["systems"].items()
            },
            baseline=d.get("baseline", "ideal-32-core"),
            params=dict(d.get("params", {})),
        )

    def table(self) -> str:
        """Human-readable serving table (p50/p99/QPS per system)."""
        from ..sim.report import render_table

        rows = []
        for name, st in self.systems.items():
            if self.baseline in self.systems and st.p99_ms > 0:
                speedup_cell = f"{self.speedup(name):.2f}x"
            else:
                speedup_cell = "-"
            rows.append(
                [
                    name,
                    f"{st.p50_ms:.4g}",
                    f"{st.p99_ms:.4g}",
                    f"{st.p999_ms:.4g}",
                    f"{st.sustained_qps:.4g}",
                    "yes" if st.saturated else "no",
                    speedup_cell,
                ]
            )
        label = next(
            (st.p99_label for st in self.systems.values() if st.n_requests), "p99"
        )
        title = (
            f"serving: {self.dataset}, {self.arrival} {self.offered_qps:g} qps, "
            f"policy={self.policy} ({label})"
        )
        return render_table(
            ["system", "p50 (ms)", "p99 (ms)", "p999 (ms)", "QPS", "saturated", "p99 speedup"],
            rows,
            title=title,
        )
