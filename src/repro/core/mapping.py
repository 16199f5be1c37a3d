"""Bin-to-SRAM mapping strategies (Sec. III-A and the Fig. 9 ablation).

Because every record updates **exactly one bin per field** (the density
property from the one-hot optimization and the absent bins), the mapping of
histogram bins to SRAMs decides both serialization and load balance:

* **group-by-field** (Booster's): all bins of one field go to one SRAM (or a
  group of SRAMs when the field exceeds one SRAM's entries, extension (3) of
  Sec. III-C) -- every SRAM sees at most one update per record, full
  bandwidth;
* **naive packing** (the Fig. 9 "no-opts" baseline): bins fill SRAMs
  greedily by capacity, so several small fields can land in one SRAM, whose
  BU then serializes those fields' updates while other SRAMs idle.

The remaining BUs replicate the histogram so multiple records proceed in
parallel; replicas are reduced at step end (Sec. III-B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.schema import DatasetSpec
from .config import BoosterConfig

__all__ = ["BinMapping", "group_by_field_mapping", "naive_packing_mapping"]


@dataclass
class BinMapping:
    """One histogram copy's placement plus chip-level replication facts."""

    strategy: str
    #: SRAMs needed to hold one histogram copy.
    srams_per_copy: int
    #: Expected updates the busiest SRAM receives per record (1.0 is ideal;
    #: >1 means that SRAM's BU serializes while others idle).
    serialization: float
    #: Full histogram copies that fit across the chip (>= 1).
    replicas: int
    #: Passes over the record stream when one copy exceeds all BUs
    #: (field-partitioning, extension (1) of Sec. III-C).
    field_passes: int
    #: Fraction of allocated SRAM entries actually holding bins.
    utilization: float
    #: Expected updates per SRAM per record, one entry per SRAM of a copy.
    sram_load: np.ndarray

    def throughput_records_per_cycle(self, bu_op_cycles: int) -> float:
        """Step-1 record throughput of the whole chip.

        Each record occupies its copy's SRAMs for ``bu_op_cycles *
        serialization`` cycles; ``replicas`` records proceed concurrently.
        """
        per_record = bu_op_cycles * max(self.serialization, 1.0) * self.field_passes
        return self.replicas / per_record


def _field_bins(spec: DatasetSpec) -> np.ndarray:
    return np.array([f.n_total_bins for f in spec.fields], dtype=np.int64)


def group_by_field_mapping(
    spec: DatasetSpec, config: BoosterConfig, bin_bytes: int = 8
) -> BinMapping:
    """Booster's mapping: one field per SRAM (group of SRAMs if oversized)."""
    entries = config.sram_entries(bin_bytes)
    bins = _field_bins(spec)
    srams_per_field = np.maximum(1, -(-bins // entries))  # ceil
    srams_per_copy = int(srams_per_field.sum())

    if srams_per_copy <= config.n_bus:
        replicas = config.n_bus // srams_per_copy
        field_passes = 1
    else:
        # More fields than SRAMs: partition fields, one pass per partition.
        replicas = 1
        field_passes = -(-srams_per_copy // config.n_bus)

    # Oversized fields spread over k SRAMs: each record updates exactly one of
    # the k (the repeated-bin trick keeps the 1:1 field/SRAM distribution),
    # so per-SRAM expected load is 1/k -- never above one.
    load = np.concatenate(
        [np.full(k, 1.0 / k) for k in srams_per_field.tolist()]
    )
    used_entries = float(bins.sum())
    alloc_entries = float(srams_per_copy * entries)
    return BinMapping(
        strategy="group-by-field",
        srams_per_copy=srams_per_copy,
        serialization=1.0,
        replicas=int(replicas),
        field_passes=int(field_passes),
        utilization=used_entries / alloc_entries,
        sram_load=load,
    )


def naive_packing_mapping(
    spec: DatasetSpec, config: BoosterConfig, bin_bytes: int = 8
) -> BinMapping:
    """Capacity-greedy packing (Fig. 4 left / Fig. 9 "Booster-no-opts").

    Bins are appended left-to-right, splitting fields across SRAM boundaries.
    A record's expected updates to SRAM ``s`` equal the fraction of each
    field's bins resident there (each record updates one uniformly-placed bin
    per field, in expectation); the busiest SRAM serializes its BU.
    """
    entries = config.sram_entries(bin_bytes)
    bins = _field_bins(spec)
    total_bins = int(bins.sum())
    srams_per_copy = max(1, -(-total_bins // entries))

    load = np.zeros(srams_per_copy, dtype=np.float64)
    cursor = 0  # global entry index
    for nb in bins.tolist():
        start, end = cursor, cursor + nb
        first, last = start // entries, (end - 1) // entries
        for s in range(first, last + 1):
            lo = max(start, s * entries)
            hi = min(end, (s + 1) * entries)
            load[s] += (hi - lo) / nb
        cursor = end

    if srams_per_copy <= config.n_bus:
        replicas = config.n_bus // srams_per_copy
        field_passes = 1
    else:
        replicas = 1
        field_passes = -(-srams_per_copy // config.n_bus)

    return BinMapping(
        strategy="naive-packing",
        srams_per_copy=srams_per_copy,
        serialization=float(load.max()),
        replicas=int(replicas),
        field_passes=int(field_passes),
        utilization=total_bins / float(srams_per_copy * entries),
        sram_load=load,
    )
