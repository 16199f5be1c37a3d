"""Simulation orchestration: cost constants, executor, results, reports.

The executor is imported lazily: it depends on the hardware-model packages,
which themselves import the leaf modules here (``calibrate``), so an eager
import would be circular.
"""

from .calibrate import DEFAULT_COSTS, CostModel
from .report import format_speedup, render_series, render_table
from .results import ComparisonResult, InferenceResult, geomean

__all__ = [
    "ComparisonResult",
    "CostModel",
    "DEFAULT_COSTS",
    "Executor",
    "InferenceResult",
    "PAPER_TREES",
    "format_speedup",
    "geomean",
    "quick_compare",
    "render_series",
    "render_table",
]

_LAZY = {"Executor", "quick_compare", "PAPER_TREES"}


def __getattr__(name: str) -> object:
    if name in _LAZY:
        from . import executor as _executor

        return getattr(_executor, name)
    raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")
