"""Renderable reproductions of every paper table and figure.

Each builder takes a shared :class:`Executor` and returns the rendered text
artifact, with the paper's published values beside the measured ones where
the paper gives them.  ``repro figures`` renders them by name from
:data:`ARTIFACTS`, the one implementation of each table and figure.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..baselines import IdealGPU, IdealMulticore
from ..core import PAPER_CONFIG
from ..datasets import paper_seq_minutes, table3_rows
from ..energy import SYSTEM_SRAM, TABLE6, AreaPowerModel, EnergyModel, SRAMEnergyModel
from .executor import Executor
from .report import render_table
from .results import geomean

__all__ = ["ARTIFACTS"]

#: Fig. 7's published Booster speedups (Sec. V-B names only these two bars).
PAPER_FIG7 = {"iot": 30.6, "flight": 4.6}


def table3(ex: Executor) -> str:
    rows = []
    for meta in table3_rows():
        prof = ex.profile(meta["name"])
        mins = ex.model("sequential").training_seconds(prof) / 60
        rows.append(
            [
                meta["name"],
                f"{meta['paper_records'] / 1e6:.0f}M",
                meta["fields"],
                meta["categorical_fields"],
                meta["features_onehot"],
                f"{mins:.1f}",
                f"{paper_seq_minutes(meta['name']):.1f}",
            ]
        )
    return render_table(
        ["name", "records", "fields", "categ", "features", "model seq-min", "paper"],
        rows,
        title="Table III -- datasets",
    )


def table4(ex: Executor) -> str:
    stats = ex.bandwidth.stream
    cfg = stats.config
    return render_table(
        ["quantity", "value"],
        [
            ["channels", cfg.n_channels],
            ["banks/channel", cfg.n_banks],
            ["row size", f"{cfg.row_bytes} B"],
            ["tCAS-tRP-tRCD-tRAS", f"{cfg.t_cas}-{cfg.t_rp}-{cfg.t_rcd}-{cfg.t_ras}"],
            ["block", f"{cfg.block_bytes} B"],
            ["peak bandwidth", f"{cfg.peak_gbps:.0f} GB/s"],
            ["sustained stream", f"{stats.sustained_gbps:.1f} GB/s (paper ~400)"],
            ["row hit rate", f"{stats.row_hit_rate:.3f}"],
        ],
        title="Table IV -- DRAM",
    )


def table5(ex: Executor) -> str:
    # The values the timing models read: the Ideal GPU runs at the CPU clock.
    cpu_clock, booster = ex.scenario.costs().cpu_clock_ghz, ex.scenario.booster
    units = {
        "ideal-32-core": ("Ideal 32-core", f"{IdealMulticore.threads} cores", cpu_clock),
        "ideal-gpu": ("Ideal GPU", f"{IdealGPU.threads} SMs", cpu_clock),
        "booster": ("Booster", f"{booster.n_bus} BUs", booster.clock_ghz),
    }
    m = SRAMEnergyModel()
    rows = []
    for system, (capacity, banks) in SYSTEM_SRAM.items():
        label, cores, clock = units[system]
        sram = f"{capacity // 1024} KB" + (f" x{banks} banks" if banks > 1 else "")
        rows.append([label, cores, f"{clock}", sram, f"{m.normalized(capacity, banks):.2f}"])
    return render_table(
        ["config", "cores/units", "clock GHz", "SRAM", "energy (norm.)"],
        rows,
        title="Table V -- hardware parameters (paper energies: 1.00 / 2.64 / 0.71)",
    )


def table6(ex: Executor) -> str:
    model = AreaPowerModel()
    many = model.estimate()
    paper = [TABLE6[k] for k in ("control", "fpu", "sram", "total")]
    rows = [
        [name, f"{a:.1f}", f"{pa:.1f}", f"{p:.1f}", f"{pp:.1f}"]
        for (name, a, p), (pa, pp) in zip(many.rows(), paper)
    ]
    # Sec. V-G: the 3200 banks cost ~70% more area and ~59% more power than
    # one bank of the same 6.4 MB.
    one = model.estimate(n_bus=1, n_clusters=1, sram_bytes=PAPER_CONFIG.total_sram_bytes)
    area, power = many.sram_mm2 / one.sram_mm2, many.sram_w / one.sram_w
    rows.append(["SRAM 3200 / 1 bank (ratio)", f"{area:.2f}", "~1.70", f"{power:.2f}", "~1.59"])
    return render_table(
        ["component", "area mm2", "paper", "power W", "paper"],
        rows,
        title="Table VI -- ASIC area/power (45 nm, 1 GHz) and SRAM banking overhead",
    )


def fig6(ex: Executor) -> str:
    rows = []
    for name in ex.all_datasets():
        st = ex.model("sequential").training_times(ex.profile(name))
        rows.append(
            [name]
            + [f"{100 * v / st.total:.1f}%" for v in (st.step1, st.step2, st.step3, st.step5)]
        )
    return render_table(
        ["dataset", "step1", "step2", "step3", "step5"],
        rows,
        title="Fig. 6 -- sequential breakdown",
    )


def fig7(ex: Executor) -> str:
    rows, booster, gpu = [], [], []
    for name in ex.all_datasets():
        cmp = ex.compare(name)
        b, g = cmp.speedup("booster"), cmp.speedup("ideal-gpu")
        booster.append(b)
        gpu.append(g)
        ir = cmp.speedup("inter-record")
        paper = f"{PAPER_FIG7[name]:.1f}x" if name in PAPER_FIG7 else "-"
        rows.append([name, f"{g:.2f}x", f"{ir:.2f}x", f"{b:.2f}x", paper])
    rows.append(["geomean", f"{geomean(gpu):.2f}x", "-", f"{geomean(booster):.2f}x", "11.4x"])
    over_gpu = geomean(b / g for b, g in zip(booster, gpu))
    rows.append(["geomean over Ideal GPU", "-", "-", f"{over_gpu:.2f}x", "6.4x"])
    return render_table(
        ["dataset", "Ideal GPU", "IR", "Booster", "paper (Booster)"],
        rows,
        title="Fig. 7 -- speedup over Ideal 32-core",
    )


def fig8(ex: Executor) -> str:
    rows = []
    for name in ex.all_datasets():
        cmp = ex.compare(name, systems=["ideal-32-core", "ideal-gpu", "booster"])
        for s in ("ideal-32-core", "ideal-gpu", "booster"):
            nb = cmp.normalized_breakdown(s)
            rows.append(
                [name, s]
                + [f"{nb[k]:.3f}" for k in ("step1", "step2", "step3", "step5", "other", "total")]
            )
    return render_table(
        ["dataset", "system", "s1", "s2", "s3", "s5", "other", "total"],
        rows,
        title="Fig. 8 -- normalized breakdown",
    )


def fig9(ex: Executor) -> str:
    rows = []
    for name in ex.all_datasets():
        cmp = ex.compare(
            name,
            systems=["ideal-32-core", "booster-no-opts", "booster-group-by-field", "booster"],
        )
        rows.append(
            [
                name,
                f"{cmp.speedup('booster-no-opts'):.2f}x",
                f"{cmp.speedup('booster-group-by-field'):.2f}x",
                f"{cmp.speedup('booster'):.2f}x",
            ]
        )
    return render_table(
        ["dataset", "no-opts", "+group-by-field", "+column"],
        rows,
        title="Fig. 9 -- optimization ablation",
    )


def fig10(ex: Executor) -> str:
    em = EnergyModel()
    sram = {s: [] for s in ("ideal-32-core", "ideal-gpu", "booster")}
    dram = {s: [] for s in sram}
    for name in ex.all_datasets():
        cmp = em.compare(ex.profile(name))
        bs, bd = cmp["ideal-32-core"].sram_joules, cmp["ideal-32-core"].dram_joules
        for s, e in cmp.items():
            sram[s].append(e.sram_joules / bs)
            dram[s].append(e.dram_joules / bd)
    rows = [[s, f"{np.mean(sram[s]):.2f}", f"{np.mean(dram[s]):.2f}"] for s in sram]
    return render_table(
        ["system", "SRAM (norm.)", "DRAM (norm.)"],
        rows,
        title="Fig. 10 -- energy (mean over benchmarks)",
    )


def fig11(ex: Executor) -> str:
    rows = []
    for name in ex.all_datasets():
        cmp = ex.compare(
            name, systems=["ideal-32-core", "real-32-core", "ideal-gpu", "real-gpu"]
        )
        base = cmp.seconds("ideal-32-core")
        rows.append(
            [name]
            + [f"{cmp.seconds(s) / base:.2f}" for s in ("real-32-core", "ideal-gpu", "real-gpu")]
        )
    return render_table(
        ["dataset", "Real 32", "Ideal GPU", "Real GPU"],
        rows,
        title="Fig. 11 -- ideal vs real (time / Ideal 32-core)",
    )


def fig12(ex: Executor) -> str:
    rows, sps = [], []
    for name in ex.all_datasets():
        cmp = ex.compare(name, systems=["ideal-32-core", "booster"], extra_scale=10.0)
        s = cmp.speedup("booster")
        sps.append(s)
        rows.append([name, f"{s:.2f}x"])
    rows.append(["geomean", f"{geomean(sps):.2f}x"])
    return render_table(
        ["dataset", "Booster at 10x records"],
        rows,
        title="Fig. 12 -- 10x scaling (paper geomean 27.9x)",
    )


def fig13(ex: Executor) -> str:
    rows, sps = [], []
    for name in ex.all_datasets():
        s = ex.inference(name).speedup("booster")
        sps.append(s)
        rows.append([name, f"{s:.1f}x"])
    rows.append(["mean", f"{geomean(sps):.1f}x"])
    return render_table(
        ["dataset", "inference speedup"],
        rows,
        title="Fig. 13 -- batch inference (paper mean 45x)",
    )


ARTIFACTS: dict[str, Callable[[Executor], str]] = {
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
}
