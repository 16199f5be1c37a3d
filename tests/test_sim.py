"""Tests for the simulation layer: calibration, executor, results, report."""

import pytest

from repro.baselines import IdealGPU, IdealMulticore
from repro.baselines.base import StepTimes
from repro.core import BoosterConfig
from repro.experiments import ScenarioSpec
from repro.gbdt import TrainParams
from repro.sim import (
    ComparisonResult,
    DEFAULT_COSTS,
    Executor,
    geomean,
    render_table,
)


class TestCostModel:
    def test_hot_hit_is_cheap(self):
        c = DEFAULT_COSTS
        assert c.cpu_bin_update_cycles_from_hit(1.0) == c.cpu_bin_update_hit_cycles

    def test_full_miss_pays_penalty(self):
        c = DEFAULT_COSTS
        assert c.cpu_bin_update_cycles_from_hit(0.0) == pytest.approx(
            c.cpu_bin_update_hit_cycles + c.cpu_l1_miss_penalty_cycles
        )

    def test_hit_fraction_clamped(self):
        c = DEFAULT_COSTS
        assert c.cpu_bin_update_cycles_from_hit(2.0) == c.cpu_bin_update_cycles_from_hit(1.0)
        assert c.cpu_bin_update_cycles_from_hit(-1.0) == c.cpu_bin_update_cycles_from_hit(0.0)

    def test_paper_constants(self):
        c = DEFAULT_COSTS
        assert c.bu_op_cycles == 8  # Sec. III-B
        assert c.broadcast_fanin == 16
        # Table V, where the timing models read it.
        assert BoosterConfig().clock_ghz == 1.0
        assert c.cpu_clock_ghz == 2.2  # the Ideal 32-core's and Ideal GPU's clock
        assert IdealMulticore.threads == 32
        assert IdealGPU.threads == 64


class TestGeomean:
    def test_known_value(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        # A silent 0.0 used to poison downstream speedup aggregates.
        with pytest.raises(ValueError, match="empty"):
            geomean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestStepTimes:
    def test_total(self):
        st = StepTimes(step1=1, step2=2, step3=3, step5=4, other=0.5)
        assert st.total == 10.5

    def test_scaled(self):
        st = StepTimes(step1=1, step2=2).scaled(2.0)
        assert st.step1 == 2 and st.step2 == 4

    def test_as_dict_keys(self):
        d = StepTimes().as_dict()
        assert set(d) == {"step1", "step2", "step3", "step5", "other", "total"}


class TestComparisonResult:
    def make(self):
        return ComparisonResult(
            dataset="d",
            systems={
                "ideal-32-core": StepTimes(step1=8.0, step2=2.0),
                "booster": StepTimes(step1=0.5, step2=0.5),
            },
        )

    def test_speedup(self):
        assert self.make().speedup("booster") == pytest.approx(10.0)

    def test_speedup_over_other(self):
        cmp = self.make()
        assert cmp.speedup("ideal-32-core", over="booster") == pytest.approx(0.1)

    def test_normalized_breakdown_sums(self):
        cmp = self.make()
        nb = cmp.normalized_breakdown("booster")
        assert nb["total"] == pytest.approx(0.1)

    def test_table_renders(self):
        text = self.make().table()
        assert "booster" in text and "10.00x" in text

    def test_missing_system_is_clear_value_error(self):
        """Regression: a custom system list used to crash with a bare
        KeyError when the default baseline or booster was omitted."""
        cmp = ComparisonResult(
            dataset="d", systems={"sequential": StepTimes(step1=1.0)}
        )
        with pytest.raises(ValueError, match="'ideal-32-core'.*sequential"):
            cmp.speedup("booster")  # the default baseline is resolved first
        with pytest.raises(ValueError, match="'booster'.*sequential"):
            cmp.speedup("booster", over="sequential")
        with pytest.raises(ValueError, match="'ideal-32-core'"):
            cmp.normalized_breakdown("sequential")
        with pytest.raises(ValueError, match="'ideal-32-core'"):
            cmp.seconds("ideal-32-core")

    def test_table_renders_without_baseline(self):
        cmp = ComparisonResult(
            dataset="d", systems={"sequential": StepTimes(step1=1.0)}
        )
        assert "sequential" in cmp.table()

    def test_dict_roundtrip(self):
        cmp = self.make()
        cmp.profile_summary = {"records": 100, "trees": 6}
        again = ComparisonResult.from_dict(cmp.to_dict())
        assert again == cmp

    def test_inference_result_roundtrip_and_missing_system(self):
        from repro.sim import InferenceResult

        inf = InferenceResult(dataset="d", seconds={"ideal-32-core": 2.0, "booster": 0.5})
        assert InferenceResult.from_dict(inf.to_dict()) == inf
        assert inf.speedup("booster") == pytest.approx(4.0)
        with pytest.raises(ValueError, match="'gpu'"):
            inf.speedup("gpu")

    def test_steptimes_dict_roundtrip(self):
        st = StepTimes(step1=1.25, step2=2.5, step3=0.125, step5=4.0, other=0.5)
        assert StepTimes.from_dict(st.as_dict()) == st


class TestReport:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_render_table_validates(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["1", "2"]])


class TestExecutor:
    def test_training_cached(self, executor):
        a = executor.train_result("higgs")
        b = executor.train_result("higgs")
        assert a is b

    def test_profile_scaled_to_paper(self, executor):
        prof = executor.profile("higgs")
        assert prof.n_records == 10_000_000
        assert prof.n_trees == 500

    def test_extra_scale(self, executor):
        prof = executor.profile("higgs", extra_scale=10.0)
        assert prof.n_records == 100_000_000

    def test_compare_contains_requested_systems(self, executor):
        cmp = executor.compare("mq2008", systems=["ideal-32-core", "booster"])
        assert set(cmp.systems) == {"ideal-32-core", "booster"}

    def test_model_registry(self, executor):
        for name in (
            "sequential",
            "ideal-32-core",
            "real-32-core",
            "ideal-gpu",
            "real-gpu",
            "inter-record",
            "booster",
            "booster-no-opts",
            "booster-group-by-field",
        ):
            assert executor.model(name).name

    def test_quick_compare(self):
        from repro import quick_compare

        cmp = quick_compare("flight", train=TrainParams(n_trees=2))
        assert cmp.speedup("booster") > 1.0

    def test_unscaled_mode(self):
        ex = Executor(ScenarioSpec(train=TrainParams(n_trees=2), scale_to_paper=False))
        prof = ex.profile("flight")
        assert prof.n_records == 10_000  # registry sim scale, not paper scale
