#!/usr/bin/env python
"""Quickstart: train a GBDT model and compare hardware on identical work.

Runs the full pipeline on the Higgs-like benchmark at simulation scale:

1. synthesize the dataset (same structure as the paper's Table III row),
2. train a gradient-boosted tree ensemble with the instrumented trainer,
3. extrapolate the measured work profile to the paper's 10M-record /
   500-tree operating point,
4. time the Ideal 32-core, Ideal GPU, Inter-record ASIC, and Booster on it.

Usage::

    python examples/quickstart.py [dataset]

where ``dataset`` is one of: iot, higgs, allstate, mq2008, flight.
"""

import sys

from repro.experiments import ScenarioSpec
from repro.gbdt import TrainParams
from repro.sim import Executor


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "higgs"
    print(f"== Booster reproduction quickstart: {dataset} ==\n")

    # Declare the experiment once; the executor runs it.  Training is
    # served from the persistent profile cache on repeat runs.
    scenario = ScenarioSpec(dataset=dataset, train=TrainParams(n_trees=10))
    executor = Executor(scenario)

    result = executor.train_result(dataset)
    summary = result.profile.summary()
    print("functional training (simulation scale):")
    print(f"  records={summary['records']}  fields={summary['fields']}  "
          f"bins={summary['total_bins']}  trees trained={summary['trees']}")
    print(f"  loss: {result.losses[0]:.4f} -> {result.losses[-1]:.4f}")
    print(f"  mean leaf depth: {summary['mean_leaf_depth']}  "
          f"smaller-child fraction: {summary['smaller_child_fraction']}")
    print(f"  wall time: {result.profile.train_seconds_wall:.2f} s\n")

    comparison = executor.compare(dataset)
    print("hardware comparison (paper scale: Table III records, 500 trees):")
    print(comparison.table())

    booster = comparison.speedup("booster")
    gpu = comparison.speedup("ideal-gpu")
    print(f"\nBooster: {booster:.1f}x over the Ideal 32-core, "
          f"{booster / gpu:.1f}x over the Ideal GPU")
    print("(paper, Fig. 7: geomean 11.4x over the 32-core, 6.4x over the GPU)")


if __name__ == "__main__":
    main()
