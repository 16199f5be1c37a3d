"""Memory layouts and DRAM byte accounting for records.

Booster's third contribution is a *redundant* data representation: the input
records are stored both in the natural per-record row-major format (used by
histogram binning, step 1) and in a per-field column-major format (used by
single-predicate evaluation, step 3, and one-tree traversal, step 5).  The
redundancy costs pre-processing time and DRAM capacity but saves DRAM
*bandwidth*, which is what Booster is rate-matched against.

This module is the single source of truth for "how many DRAM bytes does it
take to read X" for every hardware model:

* row-major records: one byte per field (paper Sec. III-B), packed two to a
  64 B block when a record fits in half a block (extension (2), Sec. III-C);
* per-field columns: one element per record, gathered non-contiguously when
  only a subset of records is relevant -- modeled with an expected
  touched-block calculation;
* gradient statistics g/h: ``STAT_BYTES`` per record, stored as separate
  streams ("This stream efficiency motivates storing these fields
  separately", Sec. III-B);
* record-pointer streams produced/consumed by step 3.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .schema import DatasetSpec

__all__ = [
    "RecordLayout",
    "expected_touched_blocks",
    "field_element_bytes",
]

#: DRAM block (burst) size.
BLOCK_BYTES = 64
#: One record's first- and second-order gradient statistics (g, h) as two
#: float32 values.
STAT_BYTES = 8
#: One entry of the relevant-record pointer streams of steps 1/3.
POINTER_BYTES = 4


def field_element_bytes(n_total_bins: int) -> int:
    """Bytes needed to store one record's bin index for a field.

    The common case is one byte (<=256 bins, the paper's record format);
    huge-cardinality categorical fields widen to 2 or 4 bytes.
    """
    if n_total_bins <= 2**8:
        return 1
    if n_total_bins <= 2**16:
        return 2
    return 4


def expected_touched_blocks(
    n_selected: float | np.ndarray, n_universe: int, elems_per_block: int
) -> float | np.ndarray:
    """Expected number of blocks touched by a scattered subset read.

    When only ``n_selected`` of ``n_universe`` records are relevant (records
    reaching an interior tree vertex) and each block holds ``elems_per_block``
    record elements, a gather touches on average
    ``total_blocks * (1 - (1 - p)^k)`` blocks where ``p`` is the selection
    density.  This is the binomial approximation to sampling without
    replacement; it is exact at ``p in {0, 1}`` and never below the lower
    bound ``ceil(n_selected / elems_per_block)``.

    ``n_selected`` may be a scalar or an array (per-node counts); the return
    type matches.
    """
    if elems_per_block <= 0:
        raise ValueError("elems_per_block must be positive")
    if n_universe < 0:
        raise ValueError("counts must be non-negative")
    sel = np.asarray(n_selected, dtype=np.float64)
    if (sel < 0).any():
        raise ValueError("counts must be non-negative")
    if n_universe == 0:
        out = np.zeros_like(sel)
        return out if sel.ndim else 0.0
    sel = np.minimum(sel, n_universe)
    p = sel / n_universe
    total_blocks = -(-n_universe // elems_per_block)  # ceil division
    expected = total_blocks * (1.0 - (1.0 - p) ** elems_per_block)
    lower = np.ceil(sel / elems_per_block)
    out = np.maximum(expected, lower)
    out = np.where(sel == 0, 0.0, out)
    return out if out.ndim else float(out)


class RecordLayout:
    """Byte accounting for one dataset's row-major and column-major layouts."""

    def __init__(self, spec: DatasetSpec) -> None:
        self.spec = spec
        self.field_bytes = np.array(
            [field_element_bytes(f.n_total_bins) for f in spec.fields], dtype=np.int64
        )
        #: Payload bytes of one row-major record (fields only; g/h separate).
        self.record_bytes = int(self.field_bytes.sum())
        if self.record_bytes <= BLOCK_BYTES // 2:
            #: Extension (2): records at most half a block are packed.
            self.records_per_block = BLOCK_BYTES // self.record_bytes
            self.blocks_per_record = 1
        else:
            self.records_per_block = 1
            self.blocks_per_record = -(-self.record_bytes // BLOCK_BYTES)

    # -- row-major ------------------------------------------------------------

    def row_bytes_sequential(self, n_records: int) -> float:
        """Bytes to stream ``n_records`` contiguous row-major records."""
        if n_records <= 0:
            return 0.0
        blocks = -(-n_records // self.records_per_block) * self.blocks_per_record
        return float(blocks * BLOCK_BYTES)

    def row_bytes_gather(
        self, n_selected: float | np.ndarray, n_universe: int
    ) -> float | np.ndarray:
        """Bytes to fetch a scattered subset of row-major records.

        Each record is one or more *contiguous* blocks ("each record is one or
        more memory blocks of contiguous bytes, thus achieving good memory
        bandwidth", Sec. III-B), so waste only arises from block sharing when
        records are packed.  ``n_selected`` may be per-node arrays.
        """
        sel = np.asarray(n_selected, dtype=np.float64)
        if self.records_per_block == 1:
            out = sel * self.blocks_per_record * BLOCK_BYTES
            return out if out.ndim else float(out)
        blocks = expected_touched_blocks(sel, n_universe, self.records_per_block)
        out = np.asarray(blocks) * BLOCK_BYTES
        return out if out.ndim else float(out)

    # -- column-major (the redundant format) -----------------------------------

    def column_bytes_sequential(self, field_indices: Sequence[int], n_records: int) -> float:
        """Bytes to stream whole per-field columns for the given fields.

        Integer block arithmetic, vectorized over the (possibly repeated)
        field list -- exact, so summing many trees' field lists in one call
        equals summing per-tree calls.
        """
        fields = np.asarray(field_indices, dtype=np.int64)
        if n_records <= 0 or fields.size == 0:
            return 0.0
        elem = self.field_bytes[fields]
        blocks = -(-(n_records * elem) // BLOCK_BYTES)
        return float((blocks * BLOCK_BYTES).sum())

    def column_bytes_gather(
        self,
        field_index: int | np.ndarray,
        n_selected: float | np.ndarray,
        n_universe: int,
    ) -> float | np.ndarray:
        """Bytes to gather one field's column for a scattered record subset.

        The paper notes the single-field columns "would likely be more
        non-contiguous" than whole records; the expected-touched-block model
        quantifies exactly that.  ``field_index`` and ``n_selected`` may be
        matched arrays (one entry per split node).
        """
        fields = np.asarray(field_index, dtype=np.int64)
        sel = np.asarray(n_selected, dtype=np.float64)
        elem = self.field_bytes[fields]
        epb = BLOCK_BYTES // elem
        if fields.ndim == 0:
            blocks = expected_touched_blocks(sel, n_universe, int(epb))
            out = np.asarray(blocks) * BLOCK_BYTES
            return out if out.ndim else float(out)
        # Mixed element widths: group by epb value (at most 3 distinct).
        total = np.zeros_like(sel)
        for width in set(epb.tolist()):
            mask = epb == width
            total[mask] = expected_touched_blocks(sel[mask], n_universe, int(width))
        return total * BLOCK_BYTES

    # -- auxiliary streams ------------------------------------------------------

    def stats_bytes_sequential(self, n_records: int) -> float:
        """Bytes to stream g/h for ``n_records`` contiguous records."""
        if n_records <= 0:
            return 0.0
        blocks = -(-(n_records * STAT_BYTES) // BLOCK_BYTES)
        return float(blocks * BLOCK_BYTES)

    def stats_bytes_gather(
        self, n_selected: float | np.ndarray, n_universe: int
    ) -> float | np.ndarray:
        """Bytes to gather g/h for a scattered record subset."""
        epb = BLOCK_BYTES // STAT_BYTES
        blocks = expected_touched_blocks(n_selected, n_universe, epb)
        out = np.asarray(blocks) * BLOCK_BYTES
        return out if out.ndim else float(out)

    def pointer_bytes(self, n_records: float | np.ndarray) -> float | np.ndarray:
        """Bytes of a dense pointer stream (step 3 outputs, step 1 inputs)."""
        n = np.asarray(n_records, dtype=np.float64)
        blocks = np.ceil(n * POINTER_BYTES / BLOCK_BYTES)
        out = blocks * BLOCK_BYTES
        return out if out.ndim else float(out)
