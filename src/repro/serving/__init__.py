"""Traffic-driven serving simulation on top of the timing models.

The paper's evaluation stops at one-batch inference numbers; this package
adds the arrival-trace layer the ROADMAP's "serving heavy traffic" north
star needs.  A :class:`ServingParams` describes an offered load (Poisson or
diurnal-modulated Poisson generators, or a recorded JSONL trace), a
batching policy (immediate, max-batch-N, timeout-T microbatching), and a
queue discipline (FIFO or priority); :func:`simulate` replays that load
through a single-server discrete-event loop whose batch costs come from
the same :class:`~repro.gbdt.workprofile.InferenceWork` scaling the batch
``repro inference`` path uses; :class:`ServingResult` carries the
per-system latency distribution (p50/p99/p999), sustained QPS, queue-depth
trajectory, and saturation verdict.

Everything here is deterministic: arrival generation uses only the
scenario-seeded :func:`numpy.random.default_rng` stream, the event loop is
a pure function of its inputs, and no wall-clock value ever reaches a
result -- the same seed and trace produce a bit-identical
:class:`ServingResult` in any process (the property the sweep layer's
content-keyed :class:`~repro.experiments.cache.ResultStore` relies on).

The package is dependency-free within ``repro`` (NumPy only), so the
experiments layer can attach :class:`ServingParams` to a
:class:`~repro.experiments.scenario.ScenarioSpec` and the executor can
drive :func:`simulate` without import cycles.  Exports resolve on first
use (PEP 562), so :mod:`repro.serving.params` imports without NumPy.
"""

from typing import TYPE_CHECKING

from .._lazy import export

if TYPE_CHECKING:
    from .arrivals import build_arrivals, diurnal_times, load_trace, poisson_times, trace_digest
    from .params import ARRIVAL_KINDS, POLICIES, QUEUE_DISCIPLINES, ServingParams
    from .result import ServingResult, ServingStats, summarize
    from .simulator import QueueTrace, simulate
    from .stats import percentile, percentile_label

_EXPORTS: dict[str, tuple[str, ...]] = {
    "arrivals": ("build_arrivals", "diurnal_times", "load_trace", "poisson_times", "trace_digest"),
    "params": ("ARRIVAL_KINDS", "POLICIES", "QUEUE_DISCIPLINES", "ServingParams"),
    "result": ("ServingResult", "ServingStats", "summarize"),
    "simulator": ("QueueTrace", "simulate"),
    "stats": ("percentile", "percentile_label"),
}

__all__ = [
    "ARRIVAL_KINDS",
    "POLICIES",
    "QUEUE_DISCIPLINES",
    "QueueTrace",
    "ServingParams",
    "ServingResult",
    "ServingStats",
    "build_arrivals",
    "diurnal_times",
    "load_trace",
    "percentile",
    "percentile_label",
    "poisson_times",
    "simulate",
    "summarize",
    "trace_digest",
]


def __getattr__(name: str) -> object:
    return export(__name__, _EXPORTS, name)
