"""Programmatic validation of every reproduced paper claim.

``validate_all`` evaluates the full claim checklist against a shared
executor and returns structured verdicts; ``report`` renders them as the
EXPERIMENTS.md-style table.  The claim list is the machine-readable version
of the reproduction contract: each entry carries the paper's published value,
the measured value, and the acceptance band, so a regression anywhere in the
model stack shows up as a failed claim rather than a silently drifted number.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..energy import AreaPowerModel, EnergyModel, SRAMEnergyModel
from ..memory import bandwidth_profile
from .executor import Executor
from .report import render_table
from .results import geomean

__all__ = ["Claim", "validate_all", "report"]


@dataclass
class Claim:
    """One published claim with its measured value and acceptance band."""

    exp_id: str
    name: str
    paper: str
    measured: str
    passed: bool

    @property
    def verdict(self) -> str:
        return "ok" if self.passed else "FAIL"


def _speedups(ex: Executor) -> dict[str, float]:
    return {name: ex.compare(name).speedup("booster") for name in ex.all_datasets()}


def validate_all(ex: Executor) -> list[Claim]:
    """Evaluate the complete claim checklist; returns one Claim per row."""
    claims: list[Claim] = []

    def add(exp_id: str, name: str, paper: str, measured: str, passed: bool) -> None:
        claims.append(Claim(exp_id, name, paper, measured, passed))

    # -- Table III: structure ---------------------------------------------------
    from ..datasets import dataset_spec

    structure = {
        "iot": (115, 115), "higgs": (28, 28), "allstate": (32, 4232),
        "mq2008": (46, 46), "flight": (8, 666),
    }
    ok = all(
        (dataset_spec(n).n_fields, dataset_spec(n).n_features) == v
        for n, v in structure.items()
    )
    add(
        "Table III", "dataset structure (fields/features)", "exact",
        "exact" if ok else "mismatch", ok,
    )

    # -- Table IV: DRAM -----------------------------------------------------------
    bw = bandwidth_profile().sequential_gbps
    add("Table IV", "sustained streaming bandwidth", "~400 GB/s", f"{bw:.1f} GB/s", 360 < bw <= 384)

    # -- Table V: SRAM energies -----------------------------------------------------
    m = SRAMEnergyModel()
    vals = (m.normalized(32 * 1024), m.normalized(96 * 1024, 32), m.normalized(2 * 1024))
    ok = m.validate_table5()
    add("Table V", "normalized SRAM energies", "1.00 / 2.64 / 0.71",
        " / ".join(f"{v:.2f}" for v in vals), ok)

    # -- Table VI: ASIC budget ---------------------------------------------------------
    budget = AreaPowerModel().estimate()
    ok = abs(budget.total_mm2 - 60.0) / 60.0 < 0.02 and abs(budget.total_w - 23.2) / 23.2 < 0.02
    add("Table VI", "chip area / power", "60.0 mm2 / 23.2 W",
        f"{budget.total_mm2:.1f} mm2 / {budget.total_w:.1f} W", ok)

    # -- Fig. 6: sequential breakdown ------------------------------------------------------
    seq_shares = {}
    for name in ex.all_datasets():
        st = ex.model("sequential").training_times(ex.profile(name))
        seq_shares[name] = (st.step1 + st.step3 + st.step5) / st.total
    ok = all(v > 0.9 for v in seq_shares.values())
    add("Fig. 6", "steps 1/3/5 dominate sequential time", ">90-98%",
        f"min {100 * min(seq_shares.values()):.1f}%", ok)

    # -- Fig. 7: training speedups -----------------------------------------------------------
    sp = _speedups(ex)
    g = geomean(sp.values())
    add("Fig. 7", "Booster geomean over Ideal 32-core", "11.4x", f"{g:.2f}x", 8.0 < g < 16.0)
    add("Fig. 7", "maximum speedup benchmark", "IoT (30.6x)",
        f"{max(sp, key=sp.get)} ({max(sp.values()):.1f}x)", max(sp, key=sp.get) == "iot")
    add("Fig. 7", "minimum speedup benchmark", "Flight (4.6x)",
        f"{min(sp, key=sp.get)} ({min(sp.values()):.1f}x)", min(sp, key=sp.get) == "flight")
    gpu = [ex.compare(n).speedup("ideal-gpu") for n in ex.all_datasets()]
    add("Fig. 7", "Ideal GPU over Ideal 32-core", "1.6-1.9x",
        f"{min(gpu):.2f}-{max(gpu):.2f}x", all(1.4 < v < 2.0 for v in gpu))
    ir = ex.model("inter-record")
    ok = ir.copies(ex.profile("higgs")) == 271 and ir.copies(ex.profile("mq2008")) == 179
    add("Fig. 7", "IR histogram copies (Higgs/Mq2008)", "271 / 179",
        f"{ir.copies(ex.profile('higgs'))} / {ir.copies(ex.profile('mq2008'))}", ok)

    # -- Fig. 9: ablation orderings ------------------------------------------------------------
    ok = True
    for name in ex.all_datasets():
        cmp = ex.compare(name, systems=[
            "ideal-32-core", "booster-no-opts", "booster-group-by-field", "booster"])
        no, gf, full = (cmp.speedup(s) for s in
                        ("booster-no-opts", "booster-group-by-field", "booster"))
        ok &= no <= gf * 1.001 <= full * 1.001
    add("Fig. 9", "optimizations monotone (no-opts -> +mapping -> +column)", "monotone",
        "monotone" if ok else "violated", ok)

    # -- Fig. 10: energy -----------------------------------------------------------------------
    em = EnergyModel()
    ok = True
    for name in ex.all_datasets():
        e = em.compare(ex.profile(name))
        ok &= e["booster"].sram_joules < e["ideal-32-core"].sram_joules
        ok &= e["booster"].dram_joules < e["ideal-32-core"].dram_joules
    add("Fig. 10", "Booster strictly lower SRAM and DRAM energy", "both lower",
        "both lower" if ok else "violated", ok)

    # -- Fig. 11: real-hardware crossovers ---------------------------------------------------------
    losers = []
    for name in ex.all_datasets():
        prof = ex.profile(name)
        gpu_s = ex.model("real-gpu").training_seconds(prof)
        if gpu_s > ex.model("real-32-core").training_seconds(prof):
            losers.append(name)
    ok = sorted(losers) == ["allstate", "mq2008"]
    add("Fig. 11", "real GPU loses to real 32-core on", "Allstate, Mq2008",
        ", ".join(sorted(losers)) or "none", ok)

    # -- Fig. 12: scaling ------------------------------------------------------
    ok = True
    for name in ex.all_datasets():
        base = sp[name]
        scaled = ex.compare(name, systems=["ideal-32-core", "booster"],
                            extra_scale=10.0).speedup("booster")
        ok &= scaled > base
    add("Fig. 12", "speedups grow at 10x records", "all grow",
        "all grow" if ok else "violated", ok)

    # -- Fig. 13: inference ----------------------------------------------------
    inf = {n: ex.inference(n).speedup("booster") for n in ex.all_datasets()}
    mean = geomean(inf.values())
    deep = [v for n, v in inf.items() if n != "iot"]
    ok = (30 < mean < 65) and inf["iot"] < 0.8 * min(deep) and max(deep) / min(deep) < 1.3
    add("Fig. 13", "inference mean / IoT outlier / deep cluster", "45x / 21.1x / ~55.5x",
        f"{mean:.1f}x / {inf['iot']:.1f}x / {min(deep):.1f}-{max(deep):.1f}x", ok)

    return claims


def report(claims: list[Claim]) -> str:
    """Render the claims checklist as a fixed-width table."""
    rows = [[c.exp_id, c.name, c.paper, c.measured, c.verdict] for c in claims]
    n_ok = sum(c.passed for c in claims)
    return render_table(
        ["experiment", "claim", "paper", "measured", "verdict"],
        rows,
        title=f"reproduction claim checklist: {n_ok}/{len(claims)} passing",
    )
