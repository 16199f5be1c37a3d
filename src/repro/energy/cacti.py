"""CACTI-like SRAM access-energy and area model.

The paper models SRAM access energy "using access activity from our simulator
and per-access energy cost from CACTI 7.0" (Sec. IV) and reports the
normalized per-access energies in Table V:

===========================  ==========  ==================
Configuration                SRAM        energy (norm.)
===========================  ==========  ==================
Ideal Multicore (L1D)        32 KB       1.00
Ideal GPU (Shared Memory)    96 KB (32-way banked)  2.64
Booster (BU SRAM)            2 KB        0.71
===========================  ==========  ==================

We do not re-run CACTI (unavailable offline); instead we fit a two-term
capacity/banking law through the paper's three published points:

    e(C, banks) = (C / 32 KB)^beta * (1 + kappa * (banks - 1))

``beta`` comes from the 2 KB vs 32 KB pair and ``kappa`` from the 96 KB
32-banked point, so the model reproduces Table V exactly and interpolates
plausibly for the ablation sweeps.  The 1.00 / 2.64 / 0.71 energies are
therefore fitted inputs, not reproduced outputs: ``repro figures table5`` and
the tests that assert them can catch only an arithmetic slip.  Area uses the
linear-capacity + per-bank-periphery decomposition calibrated in
:mod:`repro.energy.area`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SRAMEnergyModel", "TABLE5_POINTS"]

#: (capacity_bytes, banks, normalized energy) -- Table V of the paper.
TABLE5_POINTS = (
    (32 * 1024, 1, 1.00),  # Ideal 32-core L1D
    (96 * 1024, 32, 2.64),  # Ideal GPU Shared Memory
    (2 * 1024, 1, 0.71),  # Booster BU SRAM
)

_REF_CAP = 32 * 1024


@dataclass(frozen=True)
class SRAMEnergyModel:
    """Normalized (and optionally absolute) per-access SRAM energy.

    ``pj_at_ref`` anchors the absolute scale: ~15 pJ for a 32 KB L1D access
    at 45 nm (CACTI-7 ballpark); only ratios matter for Fig. 10.
    """

    beta: float = math.log(0.71) / math.log(2 / 32)
    kappa: float = (2.64 / (96 / 32) ** (math.log(0.71) / math.log(2 / 32)) - 1.0) / 31.0
    pj_at_ref: float = 15.0

    def normalized(self, capacity_bytes: int, banks: int = 1) -> float:
        """Per-access energy normalized to a 1-bank 32 KB array."""
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if banks < 1:
            raise ValueError("banks must be >= 1")
        cap_term = (capacity_bytes / _REF_CAP) ** self.beta
        return cap_term * (1.0 + self.kappa * (banks - 1))

    def picojoules(self, capacity_bytes: int, banks: int = 1) -> float:
        """Absolute per-access energy in pJ."""
        return self.pj_at_ref * self.normalized(capacity_bytes, banks)

    def validate_table5(self, tol: float = 1e-6) -> bool:
        """The model must reproduce all three published points."""
        return all(
            abs(self.normalized(cap, banks) - target) <= tol * max(target, 1.0)
            for cap, banks, target in TABLE5_POINTS
        )
