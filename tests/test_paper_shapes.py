"""Integration tests: the paper's headline result *shapes* must reproduce.

These assertions encode the qualitative claims of the evaluation section --
who wins, by roughly what factor, where the crossovers fall -- with tolerant
bands, per the reproduction policy in DESIGN.md/EXPERIMENTS.md.  They are the
regression harness for the whole model stack.
"""

import pytest

from repro.sim import geomean


@pytest.fixture(scope="module")
def speedups(paper_comparisons):
    return {name: cmp.speedup("booster") for name, cmp in paper_comparisons.items()}


class TestFig7TrainingSpeedups:
    def test_geomean_band(self, speedups):
        # Paper: 11.4x geometric mean over Ideal 32-core.
        g = geomean(speedups.values())
        assert 8.0 < g < 16.0

    def test_iot_is_maximum(self, speedups):
        # Paper: IoT peaks at 30.6x.
        assert speedups["iot"] == max(speedups.values())
        assert speedups["iot"] > 20.0

    def test_flight_is_minimum(self, speedups):
        # Paper: Flight bottoms at 4.6x.
        assert speedups["flight"] == min(speedups.values())
        assert speedups["flight"] < 8.0

    def test_all_speedups_exceed_gpu(self, paper_comparisons):
        # Paper: 6.4x geomean over the Ideal GPU => Booster beats it everywhere.
        for cmp in paper_comparisons.values():
            assert cmp.speedup("booster") > cmp.speedup("ideal-gpu")

    def test_booster_over_gpu_geomean(self, paper_comparisons):
        over_gpu = [
            cmp.speedup("booster") / cmp.speedup("ideal-gpu")
            for cmp in paper_comparisons.values()
        ]
        g = geomean(over_gpu)
        assert 4.0 < g < 10.0  # paper: 6.4x

    def test_gpu_band(self, paper_comparisons):
        # Paper: "Ideal GPU achieves modest speedups between 1.6x and 1.9x."
        for name, cmp in paper_comparisons.items():
            assert 1.4 < cmp.speedup("ideal-gpu") < 2.0, name

    def test_categorical_benchmarks_below_numerical_large(self, speedups):
        # "Larger datasets that behave like smaller datasets (Allstate and
        # Flight) due to categorical data achieve lower speedups."
        assert speedups["allstate"] < speedups["higgs"]
        assert speedups["flight"] < speedups["higgs"]


class TestFig8Breakdown:
    def test_booster_residual_is_unaccelerated_work(self, paper_comparisons):
        # "Booster makes all the accelerated steps vanishingly small.
        # Booster's residual execution time is dominated by the unaccelerated
        # Step 2" (plus the offload path we account under `other`).
        for name, cmp in paper_comparisons.items():
            st = cmp.systems["booster"]
            accelerated = st.step1 + st.step3 + st.step5
            residual = st.step2 + st.other
            norm = cmp.normalized_breakdown("booster")
            assert norm["total"] < 0.35, name  # far below the baseline
            cpu = cmp.systems["ideal-32-core"]
            assert accelerated < 0.35 * (cpu.step1 + cpu.step3 + cpu.step5), name
            if name in ("mq2008",):  # bin-heavy: residual clearly dominates
                assert residual > accelerated

    def test_bin_heavy_dataset_residual_dominates(self, paper_comparisons):
        # "The speedups inversely correlate with the fraction of execution
        # time of Step 2": Mq2008, the bin-heavy benchmark, must have the
        # largest unaccelerated share and a below-median speedup.  (Flight's
        # low speedup has a different residual -- bandwidth on narrow
        # records -- see EXPERIMENTS.md.)
        shares = {}
        sps = {}
        for name, cmp in paper_comparisons.items():
            st = cmp.systems["booster"]
            shares[name] = (st.step2 + st.other) / st.total
            sps[name] = cmp.speedup("booster")
        assert shares["mq2008"] == max(shares.values())
        below_median = sorted(sps.values())[: len(sps) // 2 + 1]
        assert sps["mq2008"] in below_median

    def test_gpu_halves_parallel_steps_but_not_step2(self, paper_comparisons):
        # The Ideal GPU's 64 lanes halve the 32-core's steps 1/3/5; step 2
        # stays on the host and gains nothing.
        for name, cmp in paper_comparisons.items():
            cpu, gpu = cmp.systems["ideal-32-core"], cmp.systems["ideal-gpu"]
            assert 0.4 < gpu.step1 / cpu.step1 < 0.6, name
            assert gpu.step2 >= 0.99 * cpu.step2, name


class TestFig9Ablation:
    @pytest.fixture(scope="class")
    def ablation(self, executor):
        out = {}
        for name in executor.all_datasets():
            cmp = executor.compare(
                name,
                systems=[
                    "ideal-32-core",
                    "booster-no-opts",
                    "booster-group-by-field",
                    "booster",
                ],
            )
            out[name] = (
                cmp.speedup("booster-no-opts"),
                cmp.speedup("booster-group-by-field"),
                cmp.speedup("booster"),
            )
        return out

    def test_optimizations_monotone(self, ablation):
        for name, (no, gf, full) in ablation.items():
            assert no <= gf * 1.001, name
            assert gf <= full * 1.001, name

    def test_group_by_field_helps_only_categorical(self, ablation):
        # Paper: the mapping "shows improvements for the two benchmarks with
        # categorical fields"; numerical benchmarks see no change.
        for name in ("allstate",):
            no, gf, _ = ablation[name]
            assert gf > no * 1.05, name
        for name in ("iot", "higgs", "mq2008"):
            no, gf, _ = ablation[name]
            assert gf == pytest.approx(no, rel=0.02), name

    def test_column_format_always_helps(self, ablation):
        for name, (_, gf, full) in ablation.items():
            assert full > gf, name


class TestFig12Scaling:
    def test_speedups_grow_with_scale(self, executor, speedups):
        # Paper: every benchmark improves at 10x; geomean 11.4 -> 27.9 (the
        # model's growth is weaker but clearly positive).
        scaled = {}
        for name in executor.all_datasets():
            scaled[name] = executor.compare(
                name, systems=["ideal-32-core", "booster"], extra_scale=10.0
            ).speedup("booster")
            assert scaled[name] > speedups[name], name
        assert geomean(scaled.values()) > 1.2 * geomean(speedups.values())

    def test_gpu_gain_stays_flat(self, executor):
        # Paper: "The speedup of Ideal GPU ... remains modest (<2x) and
        # similar to the speedups with the unscaled datasets."
        for name in executor.all_datasets():
            cmp = executor.compare(
                name, systems=["ideal-32-core", "ideal-gpu"], extra_scale=10.0
            )
            assert cmp.speedup("ideal-gpu") < 2.0, name


class TestFig13Inference:
    def test_deep_tree_cluster_band(self, executor):
        # Paper: four deep-tree benchmarks behave similarly at ~55.5x.
        for name in ("higgs", "allstate", "mq2008", "flight"):
            s = executor.inference(name).speedup("booster")
            assert 35.0 < s < 80.0, name

    def test_iot_outlier_below_cluster(self, executor):
        # Paper: IoT's shallow trees cut its inference speedup (21.1x).
        iot = executor.inference("iot").speedup("booster")
        deep = executor.inference("higgs").speedup("booster")
        assert iot < 0.8 * deep

    def test_mean_band(self, executor):
        # Paper: 45x mean speedup for batch inference.
        vals = [executor.inference(n).speedup("booster") for n in executor.all_datasets()]
        assert 30.0 < geomean(vals) < 65.0
