"""ASIC area/power model calibrated to the paper's synthesis (Table VI).

The paper synthesizes one 64-BU cluster (Synopsys DC, FreePDK45, CACTI for
the SRAM macros) and reports, for the full 50-cluster / 3200-BU chip at 1 GHz:

=============  ===========  =========
Component      Area (mm^2)  Power (W)
=============  ===========  =========
Control Logic  8.4          4.3
FPU            18.4         9.5
SRAM           33.1         9.4
Total          60.0         23.2
=============  ===========  =========

plus two structural facts: the 3200-bank SRAM area is "around 70% larger than
that of a 1-bank 6.4-MB SRAM array", and SRAM power is "only around 59% higher
than that of the 1-bank case" because static power dominates.

Our model decomposes each component into per-BU / per-cluster / per-byte terms
whose constants are solved *from those published numbers*, so the model
reproduces Table VI exactly at the design point and extrapolates smoothly for
the design-space ablations (BU count, SRAM size, cluster shape).

The Table VI values and the 1.70 / 1.59 banking ratios are therefore fitted
inputs, not reproduced outputs: ``_SRAM_BASE_MM2`` and ``_SRAM_BASE_W`` divide
them back out, so the ratios ``repro figures table6`` prints beside the
paper's, and the tests that assert them, can catch only an arithmetic slip.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AreaPowerModel", "ChipBudget", "TABLE6"]

#: Published Table VI values: component -> (area mm^2, power W).
TABLE6 = {
    "control": (8.4, 4.3),
    "fpu": (18.4, 9.5),
    "sram": (33.1, 9.4),
    "total": (60.0, 23.2),
}

_REF_BUS = 3200
_REF_CLUSTERS = 50
_REF_SRAM_BYTES = 2048
_REF_CLOCK_GHZ = 1.0

# SRAM area: paper says 3200 banks cost ~1.7x the 1-bank-equal-capacity array,
# so base (1-bank) area for 6.4 MB is 33.1 / 1.7 mm^2 and the remainder is
# per-bank periphery.
_SRAM_BASE_MM2 = TABLE6["sram"][0] / 1.7
_SRAM_MM2_PER_BYTE = _SRAM_BASE_MM2 / (_REF_BUS * _REF_SRAM_BYTES)
_SRAM_MM2_PER_BANK = (TABLE6["sram"][0] - _SRAM_BASE_MM2) / _REF_BUS

# SRAM power: 59% higher than 1-bank => static-per-byte plus per-bank terms.
_SRAM_BASE_W = TABLE6["sram"][1] / 1.59
_SRAM_W_PER_BYTE = _SRAM_BASE_W / (_REF_BUS * _REF_SRAM_BYTES)
_SRAM_W_PER_BANK = (TABLE6["sram"][1] - _SRAM_BASE_W) / _REF_BUS

# FPU: pure per-BU costs (each BU has the FP adder pair for G and H).
_FPU_MM2_PER_BU = TABLE6["fpu"][0] / _REF_BUS
_FPU_W_PER_BU = TABLE6["fpu"][1] / _REF_BUS

# Control: split between per-BU sequencing, per-cluster distribution/broadcast
# links, and a global front end.  The split (60% / 33% / 7%) follows the
# cluster-replicated structure of Fig. 5; only the total is published.
_CTRL_MM2_PER_BU = 0.60 * TABLE6["control"][0] / _REF_BUS
_CTRL_MM2_PER_CLUSTER = 0.33 * TABLE6["control"][0] / _REF_CLUSTERS
_CTRL_MM2_GLOBAL = 0.07 * TABLE6["control"][0]
_CTRL_W_PER_BU = 0.60 * TABLE6["control"][1] / _REF_BUS
_CTRL_W_PER_CLUSTER = 0.33 * TABLE6["control"][1] / _REF_CLUSTERS
_CTRL_W_GLOBAL = 0.07 * TABLE6["control"][1]


@dataclass(frozen=True)
class ChipBudget:
    """Area/power estimate for one chip configuration."""

    control_mm2: float
    fpu_mm2: float
    sram_mm2: float
    control_w: float
    fpu_w: float
    sram_w: float

    @property
    def total_mm2(self) -> float:
        return self.control_mm2 + self.fpu_mm2 + self.sram_mm2

    @property
    def total_w(self) -> float:
        return self.control_w + self.fpu_w + self.sram_w

    def rows(self) -> list[tuple[str, float, float]]:
        """(component, area, power) rows in Table VI order."""
        return [
            ("Control Logic", self.control_mm2, self.control_w),
            ("FPU", self.fpu_mm2, self.fpu_w),
            ("SRAM", self.sram_mm2, self.sram_w),
            ("Total", self.total_mm2, self.total_w),
        ]


class AreaPowerModel:
    """Area/power as a function of the Booster configuration."""

    def estimate(
        self,
        n_bus: int = _REF_BUS,
        n_clusters: int = _REF_CLUSTERS,
        sram_bytes: int = _REF_SRAM_BYTES,
        clock_ghz: float = _REF_CLOCK_GHZ,
    ) -> ChipBudget:
        if n_bus < 1 or n_clusters < 1 or sram_bytes < 1:
            raise ValueError("configuration values must be positive")
        total_sram = n_bus * sram_bytes
        # Dynamic power scales with clock; SRAM static power does not.
        f = clock_ghz / _REF_CLOCK_GHZ
        return ChipBudget(
            control_mm2=(
                _CTRL_MM2_PER_BU * n_bus
                + _CTRL_MM2_PER_CLUSTER * n_clusters
                + _CTRL_MM2_GLOBAL
            ),
            fpu_mm2=_FPU_MM2_PER_BU * n_bus,
            sram_mm2=_SRAM_MM2_PER_BYTE * total_sram + _SRAM_MM2_PER_BANK * n_bus,
            control_w=f
            * (
                _CTRL_W_PER_BU * n_bus
                + _CTRL_W_PER_CLUSTER * n_clusters
                + _CTRL_W_GLOBAL
            ),
            fpu_w=f * _FPU_W_PER_BU * n_bus,
            sram_w=_SRAM_W_PER_BYTE * total_sram + _SRAM_W_PER_BANK * n_bus,
        )
