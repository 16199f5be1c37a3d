"""Shared benchmark fixtures.

One session-scoped :class:`Executor` trains every benchmark dataset exactly
once; each bench file then derives its table/figure from the cached work
profiles.  Rendered tables go both to stdout (captured by pytest -s or the
bench log) and to ``results/<name>.txt`` so regenerated artifacts can be
diffed against EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments import ScenarioSpec
from repro.gbdt import TrainParams
from repro.sim import Executor

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: Boosting rounds for the benchmark suite; per-tree work is homogeneous so
#: ratios are stable (tests assert the same shapes at 6 rounds).
BENCH_TREES = 10

#: The suite's experiment configuration, declared once; training artifacts
#: are served from the persistent cache across sessions.
BENCH_SCENARIO = ScenarioSpec(train=TrainParams(n_trees=BENCH_TREES))


@pytest.fixture(scope="session")
def executor():
    return Executor(BENCH_SCENARIO)


@pytest.fixture(scope="session")
def emit():
    """Print a rendered artifact and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> str:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        return text

    return _emit
