"""Tests for the energy/area substrate (repro.energy): Tables V, VI, Fig. 10."""

import pytest

from repro.energy import (
    TABLE5_POINTS,
    TABLE6,
    AreaPowerModel,
    EnergyModel,
    SRAMEnergyModel,
)


class TestSRAMEnergyModel:
    def test_reproduces_table5_exactly(self):
        m = SRAMEnergyModel()
        assert m.validate_table5()
        for cap, banks, target in TABLE5_POINTS:
            assert m.normalized(cap, banks) == pytest.approx(target, rel=1e-9)

    def test_monotone_in_capacity(self):
        m = SRAMEnergyModel()
        vals = [m.normalized(kb * 1024) for kb in (1, 2, 8, 32, 128, 512)]
        assert vals == sorted(vals)

    def test_monotone_in_banking(self):
        m = SRAMEnergyModel()
        vals = [m.normalized(96 * 1024, b) for b in (1, 2, 8, 32)]
        assert vals == sorted(vals)

    def test_absolute_scale(self):
        m = SRAMEnergyModel()
        assert m.picojoules(32 * 1024) == pytest.approx(m.pj_at_ref)

    def test_validation(self):
        m = SRAMEnergyModel()
        with pytest.raises(ValueError):
            m.normalized(0)
        with pytest.raises(ValueError):
            m.normalized(1024, banks=0)


class TestAreaPowerModel:
    def test_reproduces_table6(self):
        budget = AreaPowerModel().estimate()
        for (name, area, power), (ref_a, ref_p) in zip(
            budget.rows(), [TABLE6["control"], TABLE6["fpu"], TABLE6["sram"], TABLE6["total"]]
        ):
            assert area == pytest.approx(ref_a, rel=0.02), name
            assert power == pytest.approx(ref_p, rel=0.02), name

    def test_sram_banking_overhead_structure(self):
        # Paper (Sec. V-G): 3200 banks cost ~70% more area and ~59% more
        # power than a 1-bank array of the same capacity.
        m = AreaPowerModel()
        many = m.estimate(n_bus=3200, sram_bytes=2048)
        one = m.estimate(n_bus=1, sram_bytes=3200 * 2048)
        assert many.sram_mm2 / one.sram_mm2 == pytest.approx(1.7, rel=0.02)
        assert many.sram_w / one.sram_w == pytest.approx(1.59, rel=0.02)

    def test_area_monotone_in_sram_size(self):
        m = AreaPowerModel()
        areas = [m.estimate(sram_bytes=b).total_mm2 for b in (512, 1024, 2048, 4096, 8192)]
        assert all(a < b for a, b in zip(areas, areas[1:]))

    def test_area_scales_with_bus(self):
        m = AreaPowerModel()
        half = m.estimate(n_bus=1600, n_clusters=25)
        full = m.estimate()
        assert half.total_mm2 < full.total_mm2
        assert half.fpu_mm2 == pytest.approx(full.fpu_mm2 / 2)

    def test_dynamic_power_scales_with_clock(self):
        m = AreaPowerModel()
        slow = m.estimate(clock_ghz=0.5)
        fast = m.estimate(clock_ghz=1.0)
        assert slow.fpu_w == pytest.approx(fast.fpu_w / 2)
        assert slow.sram_w == pytest.approx(fast.sram_w)  # static-dominated

    def test_validation(self):
        with pytest.raises(ValueError):
            AreaPowerModel().estimate(n_bus=0)


class TestEnergyModel:
    def test_fig10_sram_ratios(self, executor):
        em = EnergyModel()
        prof = executor.profile("higgs")
        cmp = em.compare(prof)
        base = cmp["ideal-32-core"].sram_joules
        # Same access counts, Table V per-access energies => exact ratios.
        assert cmp["ideal-gpu"].sram_joules / base == pytest.approx(2.64, rel=1e-6)
        assert cmp["booster"].sram_joules / base == pytest.approx(0.71, rel=1e-6)

    def test_fig10_booster_strictly_lower_both(self, executor):
        # "Booster is strictly better in both SRAM energy and DRAM energy."
        em = EnergyModel()
        dram_ratios = []
        for name in executor.all_datasets():
            cmp = em.compare(executor.profile(name))
            b, cpu = cmp["booster"], cmp["ideal-32-core"]
            assert b.sram_joules < cpu.sram_joules
            assert b.dram_joules < cpu.dram_joules
            dram_ratios.append(b.dram_joules / cpu.dram_joules)
        # On average the column-major copy saves over a fifth of the DRAM bytes.
        assert sum(dram_ratios) / len(dram_ratios) < 0.8

    def test_cpu_gpu_identical_dram(self, executor):
        # "Ideal 32-core and Ideal GPU are identical as they access the same
        # set of blocks."
        em = EnergyModel()
        cmp = em.compare(executor.profile("iot"))
        assert cmp["ideal-gpu"].dram_joules == cmp["ideal-32-core"].dram_joules

    def test_access_counts_track_work(self, executor):
        em = EnergyModel()
        p1 = executor.profile("higgs")
        p2 = executor.profile("higgs", extra_scale=2.0)
        assert em.sram_accesses(p2) == pytest.approx(2 * em.sram_accesses(p1), rel=0.01)

    def test_unknown_system_rejected(self, executor):
        em = EnergyModel()
        with pytest.raises(KeyError):
            em.training_energy(executor.profile("higgs"), "tpu")
