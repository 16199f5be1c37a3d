#!/usr/bin/env python
"""Batch-inference serving study (Sec. III-D / Fig. 13).

For each benchmark, sizes a Booster deployment for offline batch scoring:
how many records per second one chip sustains with 500 trees (6 on-chip
ensemble replicas), how that compares to the Ideal 32-core, and how the
multi-chip round-robin extension behaves when the ensemble outgrows a chip.

Usage::

    python examples/inference_serving.py
"""

from repro.core import BoosterConfig, BoosterEngine
from repro.experiments import ScenarioSpec
from repro.gbdt import TrainParams
from repro.sim import Executor, geomean
from repro.sim.report import render_table


def main() -> None:
    executor = Executor(ScenarioSpec(train=TrainParams(n_trees=10)))

    print("== Batch inference: one chip, 500 trees ==\n")
    rows = []
    speedups = []
    for name in executor.all_datasets():
        result = executor.inference(name)
        booster_s = result.seconds["booster"]
        cpu_s = result.seconds["ideal-32-core"]
        prof = executor.profile(name)
        throughput = prof.n_records / booster_s
        speedups.append(result.speedup("booster"))
        rows.append(
            [
                name,
                f"{prof.n_records / 1e6:.0f}M",
                f"{booster_s * 1e3:.1f} ms",
                f"{cpu_s * 1e3:.0f} ms",
                f"{throughput / 1e6:.0f}M rec/s",
                f"{result.speedup('booster'):.1f}x",
            ]
        )
    print(
        render_table(
            ["dataset", "records", "Booster", "Ideal 32-core", "throughput", "speedup"],
            rows,
        )
    )
    print(f"\nmean speedup: {geomean(speedups):.1f}x (paper Fig. 13: 45x mean, "
          "~55.5x deep trees, 21.1x IoT)")

    # -- ensembles larger than one chip (Sec. III-D last paragraph) ---------------
    print("\n== Multi-chip round-robin for very large ensembles ==\n")
    result = executor.train_result("higgs")  # served from the cache: trained above
    engine = BoosterEngine(config=BoosterConfig(), bandwidth=executor.bandwidth)
    rows = []
    for n_trees in (500, 2000, 3200, 6400, 12800):
        # Training's own step-5 walk gives the path lengths: no re-traversal.
        work = result.profile.inference_work(n_trees)
        work = work.scaled(work.spec.paper_records / work.n_records)
        seconds = engine.inference_seconds(work)
        chips = max(1, -(-n_trees // engine.config.n_bus))
        rows.append([n_trees, chips, f"{seconds * 1e3:.1f} ms"])
    print(render_table(["trees", "chips", "batch time (10M records)"], rows))
    print("\ntrees beyond 3200 spill to additional chips in round-robin;")
    print("latency stays flat because every chip walks its trees in parallel.")


if __name__ == "__main__":
    main()
