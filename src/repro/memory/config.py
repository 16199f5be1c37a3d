"""DRAM configuration (Table IV of the paper).

The paper simulates memory with DRAMSim2 configured as a high-bandwidth
24-channel part derived from the Hynix JESD235 (HBM) standard and an Nvidia
HPCA'17 paper:

==============================  =================
Channels, banks, row            24, 16, 1 KB
tCAS-tRP-tRCD-tRAS              12-12-12-28
==============================  =================

"This memory achieves a sustained bandwidth of about 400 GB/s."  With a
16-byte-per-cycle data bus per channel at 1 GHz, a 64 B block occupies the bus
for 4 cycles, giving 16 GB/s/channel peak and 384 GB/s aggregate -- matching
the paper's sustained figure once row-buffer behaviour is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DRAMConfig"]


@dataclass(frozen=True)
class DRAMConfig:
    """Timing and geometry parameters (all times in memory-clock cycles)."""

    n_channels: int = 24
    n_banks: int = 16
    row_bytes: int = 1024
    block_bytes: int = 64
    t_cas: int = 12  # column access strobe: RD issue -> first data
    t_rp: int = 12  # row precharge
    t_rcd: int = 12  # row-to-column delay: ACT -> RD allowed
    t_ras: int = 28  # minimum row-open time: ACT -> PRE allowed
    bus_bytes_per_cycle: int = 16  # per-channel data bus width
    clock_ghz: float = 1.0

    def __post_init__(self) -> None:
        if self.n_channels < 1 or self.n_banks < 1:
            raise ValueError("need at least one channel and one bank")
        if self.row_bytes % self.block_bytes:
            raise ValueError("row_bytes must be a multiple of block_bytes")
        if self.block_bytes % self.bus_bytes_per_cycle:
            raise ValueError("block_bytes must be a multiple of bus width")
        for t in (self.t_cas, self.t_rp, self.t_rcd, self.t_ras):
            if t < 1:
                raise ValueError("timing parameters must be positive")

    @property
    def blocks_per_row(self) -> int:
        return self.row_bytes // self.block_bytes

    @property
    def burst_cycles(self) -> int:
        """Data-bus occupancy of one block transfer."""
        return self.block_bytes // self.bus_bytes_per_cycle

    @property
    def peak_bytes_per_cycle(self) -> float:
        return float(self.n_channels * self.bus_bytes_per_cycle)

    @property
    def peak_gbps(self) -> float:
        """Peak bandwidth in GB/s at the configured clock."""
        return self.peak_bytes_per_cycle * self.clock_ghz
