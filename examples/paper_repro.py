#!/usr/bin/env python
"""Regenerate every paper table and figure in one run.

Thin wrapper around :mod:`repro.sim.artifacts` (the same builders the
benchmark suite and the ``repro figures`` CLI command use), so a reader can
see the whole reproduction without pytest.

Usage::

    python examples/paper_repro.py          # all artifacts
    python examples/paper_repro.py fig7     # just one
"""

import sys

from repro.experiments import ScenarioSpec
from repro.gbdt import TrainParams
from repro.sim.artifacts import ARTIFACTS, build_all
from repro.sim.executor import Executor


def main() -> None:
    wanted = sys.argv[1:] or list(ARTIFACTS)
    unknown = [w for w in wanted if w not in ARTIFACTS]
    if unknown:
        raise SystemExit(f"unknown artifacts {unknown}; choose from {sorted(ARTIFACTS)}")
    executor = Executor(ScenarioSpec(train=TrainParams(n_trees=10)))
    print(build_all(executor, wanted))


if __name__ == "__main__":
    main()
