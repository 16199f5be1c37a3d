#!/usr/bin/env python
"""Accelerator design-space exploration with the area/power model.

Sweeps Booster chip configurations (cluster count x SRAM size) on one
workload and prints the speedup / area / power frontier, annotating the
paper's published design point (50 clusters x 64 BUs x 2 KB = 60 mm^2,
23.2 W).  Demonstrates how the rate-matching argument (Sec. III-B) shows up
as a knee in the curve: past the point where on-chip throughput saturates
DRAM bandwidth, silicon buys nothing.

Usage::

    python examples/design_space.py [dataset]
"""

import sys

from repro.core import BoosterConfig, BoosterEngine
from repro.energy import AreaPowerModel
from repro.experiments import ScenarioSpec
from repro.gbdt import TrainParams
from repro.sim import Executor
from repro.sim.report import render_table


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "higgs"
    scenario = ScenarioSpec(dataset=dataset, train=TrainParams(n_trees=10))
    executor = Executor(scenario)
    profile = executor.profile(dataset)
    baseline = executor.model("ideal-32-core").training_seconds(profile)
    area_model = AreaPowerModel()

    rows = []
    best = None
    for clusters in (5, 10, 25, 50, 100):
        for sram_kb in (1, 2, 4):
            cfg = BoosterConfig(n_clusters=clusters, sram_bytes=sram_kb * 1024)
            engine = BoosterEngine(config=cfg, bandwidth=executor.bandwidth)
            mapping = engine.bin_mapping(profile)
            seconds = engine.training_times(profile).total
            speedup = baseline / seconds
            budget = area_model.estimate(
                n_bus=cfg.n_bus, n_clusters=clusters, sram_bytes=cfg.sram_bytes
            )
            efficiency = speedup / budget.total_mm2
            tag = " <= paper" if (clusters, sram_kb) == (50, 2) else ""
            rows.append(
                [
                    f"{clusters}x64",
                    f"{sram_kb} KB",
                    mapping.replicas,
                    f"{speedup:.2f}x",
                    f"{budget.total_mm2:.1f}",
                    f"{budget.total_w:.1f}",
                    f"{efficiency:.3f}{tag}",
                ]
            )
            if best is None or efficiency > best[0]:
                best = (efficiency, clusters, sram_kb)

    print(f"== Booster design space on {dataset} (speedup vs Ideal 32-core) ==\n")
    print(
        render_table(
            ["clusters", "BU SRAM", "replicas", "speedup", "area mm2", "power W", "speedup/mm2"],
            rows,
        )
    )
    assert best is not None
    print(
        f"\nbest speedup-per-area: {best[1]} clusters at {best[2]} KB "
        f"({best[0]:.3f} x/mm2)"
    )
    print("note the saturation past the DRAM rate-matching knee (Sec. III-B):")
    print("once on-chip throughput covers 6.25 blocks/cycle, extra BUs only add area.")


if __name__ == "__main__":
    main()
