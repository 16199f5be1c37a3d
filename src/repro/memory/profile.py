"""Sustained-bandwidth calibration from the cycle-level DRAM model.

The analytic timing models need "effective bytes per cycle" for streaming
DRAM traffic.  Rather than invent an efficiency, we *measure* it once per
DRAM configuration by running one 24,000-block sequential stream through the
cycle-level simulator, its channels (24 in Table IV) as the lanes of one
:meth:`DRAMSimulator.run` call.  Gathers are priced as the blocks they touch
at this streaming rate: block-granular ascending gathers sustain at least 93%
of it at every selection density from 2% to 100%
(``tests/test_memory.py::TestBandwidthProfile::test_gathers_sustain_streaming_rate``).

A calibration is a pure function of the configuration, the simulation
parameters and this package's source, so it is done once per *store*, not
once per process: :func:`bandwidth_profile` looks in an in-process memo,
then in the caller's store (the run's trained-profile store, under
:func:`calibration_key`), and only then simulates -- writing the result back
to the store for the next process.  The store is duck-typed (``get``/``put``)
so this package does not depend on :mod:`repro.experiments`.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Any, Protocol

from .config import DRAMConfig
from .dram import DRAMSimulator, DRAMStats
from .stream import sequential

__all__ = ["BandwidthProfile", "bandwidth_profile", "calibration_key"]

#: Trace length used for calibration; long enough that fill/drain effects are
#: negligible (<1%), short enough to simulate in well under a second.
_CAL_BLOCKS = 24_000

# Content-keyed deterministic memo of pure simulation outputs; forked copies
# recompute identical profiles, so it is fork-safe.
_CACHE: dict[tuple, "BandwidthProfile"] = {}


@dataclass
class BandwidthProfile:
    """Measured sustained streaming bandwidth of one DRAM configuration."""

    #: Outcome of the calibration stream.
    stream: DRAMStats

    @property
    def config(self) -> DRAMConfig:
        return self.stream.config

    @property
    def sequential_bpc(self) -> float:
        """Sustained bytes per DRAM cycle."""
        return self.stream.bytes_per_cycle

    @property
    def sequential_gbps(self) -> float:
        return self.stream.sustained_gbps

    def seconds_for_bytes(self, nbytes: float) -> float:
        """Wall-clock seconds to move ``nbytes`` at the streaming rate."""
        if nbytes <= 0:
            return 0.0
        cycles = nbytes / max(self.sequential_bpc, 1e-9)
        return cycles / (self.config.clock_ghz * 1e9)


class _Store(Protocol):
    """What :func:`bandwidth_profile` needs of a store: a ``get`` that
    returns ``None`` on a miss, and a ``put``."""

    def get(self, key: str) -> Any | None: ...

    def put(self, key: str, value: Any) -> None: ...


@functools.cache
def _source_digest() -> str:
    """Digest of this package's source: editing the DRAM model re-keys."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def calibration_key(
    config: DRAMConfig | None = None, window: int = 16, n_blocks: int = _CAL_BLOCKS
) -> str:
    """Store key of the calibration :func:`bandwidth_profile` would run.

    Hashes every :class:`DRAMConfig` field, the simulation window and trace
    length, and the ``repro.memory`` source digest.  The ``dram`` prefix
    tells calibration entries apart from trained profiles in a store.
    """
    cfg = config or DRAMConfig()
    payload = repr((astuple(cfg), window, n_blocks, _source_digest()))
    return "dram" + hashlib.sha256(payload.encode()).hexdigest()[:20]


def bandwidth_profile(
    config: DRAMConfig | None = None,
    window: int = 16,
    n_blocks: int = _CAL_BLOCKS,
    store: _Store | None = None,
) -> BandwidthProfile:
    """Measure (and cache) the bandwidth profile for a DRAM configuration.

    Looks in the in-process memo, then in ``store``, and only then runs the
    simulation, writing the new profile to ``store``.  An entry that does
    not decode to a :class:`BandwidthProfile` is a miss and is overwritten.
    """
    cfg = config or DRAMConfig()
    key = (cfg, window, n_blocks)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    if store is not None:
        stored = store.get(calibration_key(cfg, window, n_blocks))
        if isinstance(stored, BandwidthProfile):
            _CACHE[key] = stored
            return stored

    profile = BandwidthProfile(DRAMSimulator(cfg, window=window).run(sequential(n_blocks)))
    _CACHE[key] = profile
    if store is not None:
        store.put(calibration_key(cfg, window, n_blocks), profile)
    return profile
