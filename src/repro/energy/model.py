"""SRAM/DRAM energy accounting (Fig. 10, using Table V energies).

The paper "show[s] access energy comparisons for SRAM and DRAM separately"
because the two cannot be weighed against each other without a platform
ratio; Booster wins both, so it wins overall regardless.  Counts come from
the same work profiles the timing models use ("access activity from our
simulator"); per-access SRAM energies come from the CACTI-like model
calibrated at the Table V points; DRAM energy is proportional to bytes moved
("transfer activity"), so the redundant column-major format's byte savings
appear directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets.layout import RecordLayout
from ..gbdt.workprofile import WorkProfile
from ..sim.calibrate import DEFAULT_COSTS
from .cacti import SRAMEnergyModel

__all__ = ["EnergyBreakdown", "EnergyModel", "SYSTEM_SRAM"]

#: Per-system SRAM configuration used for per-access energy (Table V):
#: (capacity bytes, banks).  The CPU and GPU capacities are the default cost
#: model's, the ones the timing models read.  Energy takes no cost override:
#: ``repro figures`` and ``repro validate``, its only renderers, build their
#: scenario from ``--seed`` and ``--trees`` alone, so their costs are always
#: the defaults.
SYSTEM_SRAM = {
    "ideal-32-core": (DEFAULT_COSTS.cpu_l1_bytes, 1),  # L1 D-cache
    "ideal-gpu": (DEFAULT_COSTS.gpu_shared_bytes, 32),  # 32-way-banked Shared Memory
    "booster": (2 * 1024, 1),  # BU SRAM
}

#: HBM-class DRAM access energy, pJ per byte (absolute scale cancels in the
#: normalized Fig. 10 comparison).
DRAM_PJ_PER_BYTE = 30.0


@dataclass
class EnergyBreakdown:
    """Joules split by memory type, plus the underlying activity."""

    system: str
    sram_joules: float
    dram_joules: float
    sram_accesses: float
    dram_bytes: float


class EnergyModel:
    """Training-energy accounting for the three Fig. 10 systems."""

    def __init__(self) -> None:
        self.sram_model = SRAMEnergyModel()

    # -- activity counts (identical work across systems) ---------------------------

    def sram_accesses(self, profile: WorkProfile) -> float:
        """On-chip accesses per training run.

        Step 1 histogram updates are read-modify-write (2 accesses); step 3
        reads the replicated predicate once per record; step 5 reads one
        table entry per hop and read-modify-writes each record's g/h.
        """
        return float(
            2.0 * profile.binned_record_fields()
            + profile.partition_records()
            + profile.traversal_hops()
            + 2.0 * profile.traversal_records()
        )

    def dram_bytes(self, profile: WorkProfile, column_format: bool) -> float:
        """Off-chip traffic; the column format is Booster's saving."""
        layout = RecordLayout(profile.spec)
        return (
            profile.step1_bytes(layout)
            + profile.step3_bytes(layout, column_format=column_format)
            + profile.step5_bytes(layout, column_format=column_format)
        )

    # -- per-system energy ----------------------------------------------------------

    def training_energy(self, profile: WorkProfile, system: str) -> EnergyBreakdown:
        if system not in SYSTEM_SRAM:
            raise KeyError(f"unknown system {system!r}; known: {sorted(SYSTEM_SRAM)}")
        cap, banks = SYSTEM_SRAM[system]
        accesses = self.sram_accesses(profile)
        sram_pj = accesses * self.sram_model.picojoules(cap, banks)
        column = system == "booster"
        nbytes = self.dram_bytes(profile, column_format=column)
        dram_pj = nbytes * DRAM_PJ_PER_BYTE
        return EnergyBreakdown(
            system=system,
            sram_joules=sram_pj * 1e-12,
            dram_joules=dram_pj * 1e-12,
            sram_accesses=accesses,
            dram_bytes=nbytes,
        )

    def compare(self, profile: WorkProfile) -> dict[str, EnergyBreakdown]:
        """All three Fig. 10 systems on identical work."""
        return {s: self.training_energy(profile, s) for s in SYSTEM_SRAM}
