"""Cycle-level DRAM substrate (Table IV configuration).

Public API::

    from repro.memory import DRAMConfig, DRAMSimulator, bandwidth_profile
    stats = DRAMSimulator().run(sequential(10_000))
    prof = bandwidth_profile()        # sustained GB/s per access pattern
"""

from .address import AddressMapping, DecodedAddress
from .config import DRAMConfig
from .dram import DRAMSimulator, DRAMStats
from .profile import BandwidthProfile, bandwidth_profile
from .stream import gather_blocks, random_blocks, sequential, strided

__all__ = [
    "AddressMapping",
    "BandwidthProfile",
    "DRAMConfig",
    "DRAMSimulator",
    "DRAMStats",
    "DecodedAddress",
    "bandwidth_profile",
    "gather_blocks",
    "random_blocks",
    "sequential",
    "strided",
]
