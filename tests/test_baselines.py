"""Tests for the CPU/GPU/IR baseline models (repro.baselines)."""

import pytest

from repro.baselines.base import host_step2_seconds
from repro.sim.calibrate import DEFAULT_COSTS


class TestSequential:
    def test_slower_than_multicore(self, executor):
        prof = executor.profile("higgs")
        seq = executor.model("sequential").training_seconds(prof)
        par = executor.model("ideal-32-core").training_seconds(prof)
        assert seq > 10 * par  # near-linear scaling on the parallel steps

    def test_steps135_dominate_sequential(self, paper_comparisons):
        # Fig. 6: steps 1+3+5 are >98% of sequential time except for Mq2008.
        for name in ("iot", "higgs", "allstate", "flight"):
            st = paper_comparisons[name].systems["sequential"]
            share = (st.step1 + st.step3 + st.step5) / st.total
            assert share > 0.95, name

    def test_mq2008_step2_share_largest(self, paper_comparisons):
        # Fig. 6: Mq2008's small dataset gives step 2 its largest share.
        shares = {
            name: cmp.systems["sequential"].step2 / cmp.systems["sequential"].total
            for name, cmp in paper_comparisons.items()
        }
        assert shares["mq2008"] == max(shares.values())

    def test_iot_step1_share_largest(self, paper_comparisons):
        # Fig. 6: IoT's shallow trees make it the most step-1-heavy benchmark.
        shares = {
            name: cmp.systems["sequential"].step1 / cmp.systems["sequential"].total
            for name, cmp in paper_comparisons.items()
        }
        assert shares["iot"] == max(shares.values())


class TestIdealMulticore:
    def test_parallel_steps_scale_by_threads(self, executor):
        prof = executor.profile("higgs")
        seq = executor.model("sequential").training_times(prof)
        par = executor.model("ideal-32-core").training_times(prof)
        assert par.step1 == pytest.approx(seq.step1 / 32, rel=0.05)
        assert par.step5 == pytest.approx(seq.step5 / 32, rel=0.05)

    def test_step2_scales_worse_than_32x(self, executor):
        # Fig. 8: "The 32-core baseline relatively increases Step 2's
        # fraction of time."
        prof = executor.profile("mq2008")
        seq = executor.model("sequential").training_times(prof)
        par = executor.model("ideal-32-core").training_times(prof)
        assert par.step2 > seq.step2 / 32
        assert par.step2 / par.total > seq.step2 / seq.total


class TestIdealGPU:
    def test_speedup_band(self, paper_comparisons):
        # Fig. 7: "Ideal GPU achieves modest speedups between 1.6x and 1.9x"
        for name, cmp in paper_comparisons.items():
            s = cmp.speedup("ideal-gpu")
            assert 1.4 < s < 2.0, (name, s)

    def test_never_doubles_multicore(self, paper_comparisons):
        # 64 lanes vs 32 threads caps the ratio at 2; Amdahl keeps it below.
        for cmp in paper_comparisons.values():
            assert cmp.speedup("ideal-gpu") < 2.0


class TestRealModels:
    def test_ideal_bounds_real_cpu(self, executor):
        for name in executor.all_datasets():
            prof = executor.profile(name)
            ideal = executor.model("ideal-32-core").training_seconds(prof)
            real = executor.model("real-32-core").training_seconds(prof)
            assert real >= ideal  # Fig. 11 property 1

    def test_ideal_bounds_real_gpu(self, executor):
        for name in executor.all_datasets():
            prof = executor.profile(name)
            ideal = executor.model("ideal-gpu").training_seconds(prof)
            real = executor.model("real-gpu").training_seconds(prof)
            assert real >= ideal

    def test_real_gpu_loses_on_irregular_benchmarks(self, executor):
        # Fig. 11: "GPU performance is worse than that of the multicore for
        # two of the five benchmarks (Allstate and Mq2008)."
        losers = []
        for name in executor.all_datasets():
            prof = executor.profile(name)
            gpu = executor.model("real-gpu").training_seconds(prof)
            cpu = executor.model("real-32-core").training_seconds(prof)
            if gpu > cpu:
                losers.append(name)
        assert sorted(losers) == ["allstate", "mq2008"]

    def test_mq2008_fits_llc(self, executor):
        # The real-CPU derate for Mq2008 uses the cache-resident factor.
        model = executor.model("real-32-core")
        assert model._derate(executor.profile("mq2008")) == DEFAULT_COSTS.real_cpu_fit_factor
        assert model._derate(executor.profile("higgs")) == DEFAULT_COSTS.real_cpu_spill_factor


class TestInterRecord:
    def test_published_copy_counts(self, executor):
        # Sec. V-A: "IR can fit 271 copies ... for Higgs and 179 for Mq2008."
        ir = executor.model("inter-record")
        assert ir.copies(executor.profile("higgs")) == 271
        assert ir.copies(executor.profile("mq2008")) == 179

    def test_categorical_benchmarks_few_copies(self, executor):
        # Naive one-hot provisioning blows up the footprint (Sec. V-A:
        # "even one copy does not fit" without flexibility assumptions).
        ir = executor.model("inter-record")
        assert ir.copies(executor.profile("allstate")) <= 3
        assert ir.copies(executor.profile("flight")) <= 16

    def test_modest_speedup_on_numerical(self, paper_comparisons):
        # Fig. 7: IR achieves "some modest speedups over Ideal 32-core".
        s = paper_comparisons["higgs"].speedup("inter-record")
        assert 1.5 < s < 8.0

    def test_ir_well_behind_booster(self, paper_comparisons):
        for cmp in paper_comparisons.values():
            assert cmp.speedup("inter-record") < cmp.speedup("booster")


class TestHostStep2:
    def test_scales_with_copies(self, executor):
        prof = executor.profile("higgs")
        t0 = host_step2_seconds(prof, DEFAULT_COSTS, reduce_copies=0)
        t32 = host_step2_seconds(prof, DEFAULT_COSTS, reduce_copies=32)
        assert t32 > t0

    def test_sequential_variant_slower(self, executor):
        prof = executor.profile("higgs")
        par = host_step2_seconds(prof, DEFAULT_COSTS, 0, parallel=True)
        seq = host_step2_seconds(prof, DEFAULT_COSTS, 0, parallel=False)
        assert seq == pytest.approx(par * DEFAULT_COSTS.step2_parallel)
