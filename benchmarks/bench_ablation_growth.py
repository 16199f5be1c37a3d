"""Ablation C: vertex-by-vertex vs level-by-level growth on Booster.

The paper assumes vertex-by-vertex growth and notes the level-by-level
alternative "maintains a separate histogram per vertex" (Sec. II-A).  Both
schedules build the identical model, so each dataset is trained once and
its one work profile is priced twice, by a vertex-wise and a level-wise
``BoosterEngine``.  On Booster the schedules trade off differently:
level-wise batches a level's split decisions into one host round trip
(cheaper offload) but keeps one histogram per live vertex resident, eating
the replicas that vertex-wise growth spends on inter-record parallelism
(slower step 1).
"""

from repro.core import BoosterEngine
from repro.datasets import dataset_spec, generate
from repro.gbdt import TrainParams, train
from repro.sim.executor import PAPER_TREES
from repro.sim.report import render_table


def test_ablation_growth_strategy(benchmark, executor, emit):
    engines = {
        growth: BoosterEngine(
            config=executor.scenario.booster,
            costs=executor.scenario.costs(),
            bandwidth=executor.bandwidth,
            growth=growth,
        )
        for growth in ("vertex", "level")
    }

    def build():
        rows = []
        for name in ("higgs", "flight"):
            data = generate(dataset_spec(name, n_records=4000))
            prof = train(data, TrainParams(n_trees=6)).profile
            k = prof.spec.paper_records / prof.spec.n_records
            prof = prof.scaled(k).with_trees_scaled(PAPER_TREES)
            out = {growth: engine.training_times(prof) for growth, engine in engines.items()}
            rows.append(
                [
                    name,
                    f"{out['vertex'].step1:.3f}",
                    f"{out['level'].step1:.3f}",
                    f"{out['vertex'].other:.3f}",
                    f"{out['level'].other:.3f}",
                    f"{out['vertex'].total:.3f}",
                    f"{out['level'].total:.3f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    table = render_table(
        [
            "dataset",
            "step1 vertex (s)",
            "step1 level",
            "offload vertex",
            "offload level",
            "total vertex",
            "total level",
        ],
        rows,
        title="Ablation C -- growth schedule on Booster "
        "(level-wise: cheaper offload, costlier step-1 residency)",
    )
    emit("ablation_growth", table)

    for row in rows:
        assert float(row[2]) >= float(row[1])  # step 1: level >= vertex
        assert float(row[4]) <= float(row[3])  # offload: level <= vertex
