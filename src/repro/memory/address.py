"""Block-address to (channel, bank, row, column) mapping.

Block-interleaved across channels first, then banks, then row columns:
consecutive block addresses rotate across all 24 channels (streaming saturates
every data bus) and, within a channel, across all 16 banks (ACT/PRE latencies
of one bank hide under transfers on the others).  The mapping is bijective --
property-tested -- so no two blocks collide in one row slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DRAMConfig

__all__ = ["AddressMapping", "DecodedAddress"]


@dataclass(frozen=True)
class DecodedAddress:
    channel: int
    bank: int
    row: int
    column: int


class AddressMapping:
    """Vectorized block-address decode/encode for one DRAM config."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config

    def decode(
        self, block_addr: int | np.ndarray
    ) -> "DecodedAddress | tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """Decode block addresses (scalar or array) to channel/bank/row/col."""
        cfg = self.config
        a = np.asarray(block_addr, dtype=np.int64)
        if (a < 0).any():
            raise ValueError("block addresses must be non-negative")
        channel = a % cfg.n_channels
        rest = a // cfg.n_channels
        bank = rest % cfg.n_banks
        rest = rest // cfg.n_banks
        column = rest % cfg.blocks_per_row
        row = rest // cfg.blocks_per_row
        if np.ndim(block_addr) == 0:
            return DecodedAddress(int(channel), int(bank), int(row), int(column))
        return channel, bank, row, column

    def encode(
        self,
        channel: int | np.ndarray,
        bank: int | np.ndarray,
        row: int | np.ndarray,
        column: int | np.ndarray,
    ) -> int | np.ndarray:
        """Inverse of :meth:`decode` (scalar or arrays)."""
        cfg = self.config
        ch = np.asarray(channel, dtype=np.int64)
        bk = np.asarray(bank, dtype=np.int64)
        rw = np.asarray(row, dtype=np.int64)
        co = np.asarray(column, dtype=np.int64)
        if (
            (ch < 0).any()
            or (ch >= cfg.n_channels).any()
            or (bk < 0).any()
            or (bk >= cfg.n_banks).any()
            or (co < 0).any()
            or (co >= cfg.blocks_per_row).any()
            or (rw < 0).any()
        ):
            raise ValueError("component out of range")
        out = ((rw * cfg.blocks_per_row + co) * cfg.n_banks + bk) * cfg.n_channels + ch
        if np.ndim(channel) == 0 and np.ndim(row) == 0:
            return int(out)
        return out
