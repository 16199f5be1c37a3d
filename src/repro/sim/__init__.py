"""Simulation orchestration: cost constants, executor, results, reports.

Exports resolve on first use (PEP 562, through ``repro/_lazy.py``): the
executor depends on the hardware-model packages, which themselves import
the leaf modules here (``calibrate``), and ``results`` loads NumPy through
``repro.serving.result``.  Importing one NumPy-free submodule -- ``repro
steal-status`` needs only ``repro.sim.report`` -- therefore loads nothing
else.
"""

from typing import TYPE_CHECKING

from .._lazy import export

if TYPE_CHECKING:
    from .calibrate import DEFAULT_COSTS, CostModel
    from .executor import PAPER_TREES, Executor, quick_compare
    from .report import format_speedup, render_series, render_table
    from .results import ComparisonResult, InferenceResult, geomean

_EXPORTS: dict[str, tuple[str, ...]] = {
    "calibrate": ("DEFAULT_COSTS", "CostModel"),
    "executor": ("Executor", "PAPER_TREES", "quick_compare"),
    "report": ("format_speedup", "render_series", "render_table"),
    "results": ("ComparisonResult", "InferenceResult", "geomean"),
}

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


def __getattr__(name: str) -> object:
    return export(__name__, _EXPORTS, name)
