"""Cycle-level DRAM substrate (Table IV configuration).

Public API::

    from repro.memory import DRAMConfig, DRAMSimulator, bandwidth_profile
    stats = DRAMSimulator().run(sequential(10_000))
    prof = bandwidth_profile()        # sustained streaming GB/s

``bandwidth_profile`` calibrates from one 24,000-block sequential stream,
served as 24 lanes (one per channel) of one ``DRAMSimulator.run`` call.
"""

from .address import AddressMapping, DecodedAddress
from .config import DRAMConfig
from .dram import DRAMSimulator, DRAMStats
from .profile import BandwidthProfile, bandwidth_profile
from .stream import sequential

__all__ = [
    "AddressMapping",
    "BandwidthProfile",
    "DRAMConfig",
    "DRAMSimulator",
    "DRAMStats",
    "DecodedAddress",
    "bandwidth_profile",
    "sequential",
]
