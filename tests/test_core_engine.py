"""Tests for the Booster engine, broadcast bus, and config (repro.core)."""

import numpy as np
import pytest

from repro.core import (
    BoosterConfig,
    BoosterEngine,
    BroadcastBus,
    PAPER_CONFIG,
    simulate_step1_micro,
)
from repro.core.engine import _admit_records
from repro.datasets import dataset_spec
from tests import oracles


class TestConfig:
    def test_paper_design_point(self):
        assert PAPER_CONFIG.n_bus == 3200
        assert PAPER_CONFIG.n_clusters == 50
        assert PAPER_CONFIG.sram_bytes == 2048
        assert PAPER_CONFIG.clock_ghz == 1.0

    def test_sram_entries(self):
        assert PAPER_CONFIG.sram_entries(8) == 256

    def test_total_sram(self):
        assert PAPER_CONFIG.total_sram_bytes == 3200 * 2048  # 6.4 MB

    def test_validation(self):
        with pytest.raises(ValueError):
            BoosterConfig(n_clusters=0)
        with pytest.raises(ValueError):
            BoosterConfig(sram_bytes=16)
        with pytest.raises(ValueError):
            BoosterConfig(clock_ghz=0)


class TestBroadcastBus:
    def test_paper_fill_latency(self):
        bus = BroadcastBus(PAPER_CONFIG, fanin=16)
        assert bus.fill_cycles == 200  # 3200 / 16, Sec. III-B

    def test_stream_cycles(self):
        bus = BroadcastBus(PAPER_CONFIG, fanin=16)
        assert bus.stream_cycles(1000) == 1200

    def test_fill_negligible_vs_millions(self):
        bus = BroadcastBus(PAPER_CONFIG, fanin=16)
        assert bus.fill_cycles / bus.stream_cycles(10_000_000) < 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            BroadcastBus(PAPER_CONFIG, fanin=0)
        bus = BroadcastBus(PAPER_CONFIG)
        with pytest.raises(ValueError):
            bus.stream_cycles(-1)


class TestEngineConstruction:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            BoosterEngine(mapping_strategy="bogus")

    def test_variants_exist(self, executor):
        assert executor.model("booster").column_format
        assert not executor.model("booster-no-opts").column_format
        assert executor.model("booster-no-opts").mapping_strategy == "naive"


class TestTrainingTimes:
    def test_all_steps_positive(self, executor):
        prof = executor.profile("higgs")
        times = executor.model("booster").training_times(prof)
        for v in (times.step1, times.step2, times.step3, times.step5, times.other):
            assert v > 0

    def test_accelerated_steps_shrink_vs_cpu(self, executor):
        prof = executor.profile("higgs")
        b = executor.model("booster").training_times(prof)
        cpu = executor.model("ideal-32-core").training_times(prof)
        assert b.step1 < cpu.step1 / 5
        assert b.step5 < cpu.step5 / 2

    def test_time_scales_with_records(self, executor):
        eng = executor.model("booster")
        p1 = executor.profile("higgs")
        p10 = executor.profile("higgs", extra_scale=10.0)
        t1 = eng.training_times(p1)
        t10 = eng.training_times(p10)
        assert t10.step1 == pytest.approx(10 * t1.step1, rel=0.05)
        # step 2 / offload overheads do not scale with records
        assert t10.step2 == pytest.approx(t1.step2, rel=0.01)

    def test_column_format_only_affects_steps_3_5(self, executor):
        prof = executor.profile("iot")
        full = executor.model("booster").training_times(prof)
        nocol = executor.model("booster-group-by-field").training_times(prof)
        assert nocol.step1 == pytest.approx(full.step1, rel=1e-9)
        assert nocol.step3 >= full.step3
        assert nocol.step5 >= full.step5

    def test_naive_mapping_hurts_categorical_step1(self, executor):
        prof = executor.profile("allstate")
        grouped = executor.model("booster-group-by-field").training_times(prof)
        naive = executor.model("booster-no-opts").training_times(prof)
        assert naive.step1 > grouped.step1

    def test_naive_mapping_noop_for_numerical(self, executor):
        prof = executor.profile("higgs")
        grouped = executor.model("booster-group-by-field").training_times(prof)
        naive = executor.model("booster-no-opts").training_times(prof)
        assert naive.step1 == pytest.approx(grouped.step1, rel=0.01)


class TestRateMatching:
    def test_bu_count_knee_on_higgs(self, executor):
        """Sec. III-B: speedup grows while step 1 is compute-bound, then
        flattens once the BUs saturate DRAM; 3200 BUs sit on the plateau."""
        prof = executor.profile("higgs")
        base = executor.compare("higgs", systems=["ideal-32-core"]).seconds("ideal-32-core")
        speedups = []
        for clusters in (2, 5, 10, 25, 50, 100, 200):
            engine = BoosterEngine(
                config=BoosterConfig(n_clusters=clusters), bandwidth=executor.bandwidth
            )
            speedups.append(base / engine.training_times(prof).total)
        knee = max(speedups)
        assert speedups[1] / speedups[0] > 1.2
        assert knee / speedups[0] > 3.0
        # Past the knee extra BUs only add broadcast fill and replica
        # reduction, so the curve stays flat (and may dip slightly).
        assert abs(speedups[-1] - speedups[-3]) / speedups[-3] < 0.05
        assert speedups[4] > 0.95 * knee  # 50 clusters = 3200 BUs


class TestMicroSimulation:
    """The paper's validation role: cycle-accurate pipeline vs analytic model."""

    @pytest.mark.parametrize("name", ["higgs", "flight", "mq2008"])
    def test_micro_matches_analytic(self, name):
        spec = dataset_spec(name, n_records=2000)
        res = simulate_step1_micro(2000, spec)
        assert res.relative_error < 0.15

    def test_micro_compute_bound_case(self):
        # A tiny chip makes step 1 compute-bound; the analytic max() must track.
        spec = dataset_spec("higgs", n_records=2000)
        cfg = BoosterConfig(n_clusters=1, bus_per_cluster=64)
        res = simulate_step1_micro(2000, spec, config=cfg)
        assert res.total_cycles > res.mem_cycles  # genuinely compute-bound
        assert res.relative_error < 0.15

    def test_busy_cycles_conserved(self):
        spec = dataset_spec("higgs", n_records=500)
        res = simulate_step1_micro(500, spec)
        # Each record occupies exactly bu_op_cycles of replica time.
        assert res.bu_busy_cycles == 500 * 8


class TestAdmissionVectorization:
    """The closed-form admission schedule must match the one-record-at-a-time
    oracle."""

    @pytest.mark.parametrize(
        "n,replicas,fill,per_record",
        [
            (0, 4, 200, 8),
            (1, 3200, 200, 8),
            (7, 3, 0, 1),
            (500, 5, 200, 16),
            (2000, 271, 200, 8),
            (999, 1, 50, 8),
            (64, 128, 10, 3),  # more replicas than records
        ],
    )
    def test_matches_scalar_reference(self, n, replicas, fill, per_record):
        arrivals = np.linspace(0, 12345, n, endpoint=False).astype(np.int64)
        assert _admit_records(arrivals, fill, per_record, replicas) == oracles.admit_records(
            arrivals, fill, per_record, replicas
        )

    def test_matches_on_random_nondecreasing_arrivals(self, rng):
        for _ in range(50):
            n = int(rng.integers(0, 300))
            replicas = int(rng.integers(1, 32))
            fill = int(rng.integers(0, 250))
            per_record = int(rng.integers(1, 40))
            arrivals = np.sort(rng.integers(0, 4000, size=n)).astype(np.int64)
            assert _admit_records(arrivals, fill, per_record, replicas) == oracles.admit_records(
                arrivals, fill, per_record, replicas
            )


class TestInference:
    def test_replica_count_paper(self, executor):
        # 500 trees over 3200 BUs -> 6 replicas (3000 BUs), Sec. V-H.
        inf = executor.inference("higgs")
        assert inf.speedup("booster") > 10

    def test_shallow_trees_lower_speedup(self, executor):
        # The Fig. 13 IoT effect: Booster pays max depth; CPUs pay actual path.
        iot = executor.inference("iot").speedup("booster")
        higgs = executor.inference("higgs").speedup("booster")
        assert iot < higgs

    def test_deep_tree_benchmarks_cluster(self, executor):
        # Four deep-tree benchmarks behave "similarly" (paper: ~55.5x).
        names = ("higgs", "allstate", "mq2008", "flight")
        vals = [executor.inference(n).speedup("booster") for n in names]
        assert max(vals) / min(vals) < 1.3
