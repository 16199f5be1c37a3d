"""Sustained-bandwidth calibration from the cycle-level DRAM model.

The analytic timing models need "effective bytes per cycle" for each access
pattern.  Rather than invent efficiencies, we *measure* them once per DRAM
configuration by running representative traces through the cycle-level
simulator: a streaming trace, and ascending gathers at a ladder of selection
densities, all eight as one lane-parallel :meth:`DRAMSimulator.run_many` call.

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

import numpy as np

from .config import DRAMConfig
from .dram import DRAMSimulator
from .stream import gather_blocks, sequential

__all__ = ["BandwidthProfile", "bandwidth_profile", "calibration_key"]

#: Selection densities at which gather bandwidth is measured.
_DENSITY_LADDER = (0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0)

#: Trace length used for calibration; long enough that fill/drain effects are
#: negligible (<1%), short enough to simulate in well under a second.
_CAL_BLOCKS = 24_000

_CACHE: dict[tuple, "BandwidthProfile"] = {}  # repro: noqa RPR005 -- content-keyed deterministic memo of pure simulation outputs; fork copies recompute identical profiles


@dataclass
class BandwidthProfile:
    """Measured sustained bandwidth (bytes/DRAM-cycle) per access pattern."""

    config: DRAMConfig
    sequential_bpc: float
    gather_densities: np.ndarray
    gather_bpc: np.ndarray
    sequential_latency: float = 0.0

    @property
    def sequential_gbps(self) -> float:
        return self.sequential_bpc * self.config.clock_ghz

    def gather_bpc_at(self, density: float | np.ndarray) -> float | np.ndarray:
        """Interpolated gather bandwidth at arbitrary densities.

        Below the measured ladder the curve is clamped (sparse gathers bottom
        out at per-row activation cost); above, at the density-1.0 point,
        which equals streaming.
        """
        d = np.clip(np.asarray(density, dtype=np.float64), 0.0, 1.0)
        out = np.interp(d, self.gather_densities, self.gather_bpc)
        return out if out.ndim else float(out)

    def seconds_for_bytes(self, nbytes: float, density: float | None = None) -> float:
        """Wall-clock seconds to move ``nbytes`` with the given pattern."""
        bpc = self.sequential_bpc if density is None else float(self.gather_bpc_at(density))
        if nbytes <= 0:
            return 0.0
        cycles = nbytes / max(bpc, 1e-9)
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

    densities = np.asarray(_DENSITY_LADDER, dtype=np.float64)
    traces = [sequential(n_blocks)] + [
        gather_blocks(max(int(n_blocks / d), 1), d, seed=17) for d in densities
    ]
    seq_stats, *gathers = DRAMSimulator(cfg, window=window).run_many(traces)
    bpcs = np.array([stats.bytes_per_cycle for stats in gathers])

    profile = BandwidthProfile(
        config=cfg,
        sequential_bpc=seq_stats.bytes_per_cycle,
        gather_densities=densities,
        gather_bpc=bpcs,
        sequential_latency=seq_stats.mean_latency,
    )
    _CACHE[key] = profile
    if store is not None:
        store.put(calibration_key(cfg, window, n_blocks), profile)
    return profile
