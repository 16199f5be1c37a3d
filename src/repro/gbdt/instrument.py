"""Irregularity instrumentation: warp bin conflicts.

Section II-D argues GPUs fail on GB training because histogram updates are
read-modify-write and irregular: threads of a warp frequently hit the *same*
bin (serialized atomics) and records take different tree paths (SIMT
divergence).  Both are measurable properties of the data, so we measure them
and feed them to the "real GPU" derating model instead of inventing
constants: the bin conflicts here, the path-length spread in the trainer's
step 5.
"""

from __future__ import annotations

import numpy as np

__all__ = ["warp_conflict_factor", "max_run_lengths"]


def max_run_lengths(sorted_rows: np.ndarray) -> np.ndarray:
    """Per-row maximum run length of equal adjacent values.

    Rows must be sorted.  A run of length ``r`` means ``r`` lanes of the warp
    update the same histogram bin, which hardware serializes into ``r``
    sequential read-modify-writes.  Each position's run starts at the last
    position (at or before it) where the value changed, so its run so far is
    ``i - start + 1``, and the row maximum of that is the longest run.
    """
    if sorted_rows.ndim != 2:
        raise ValueError("expected a 2-D array of sorted rows")
    n_rows, width = sorted_rows.shape
    if width == 0:
        return np.zeros(n_rows, dtype=np.int64)
    # The narrowest signed dtype holding ``width``: a warp row fits in int8.
    position = np.arange(width, dtype=np.min_scalar_type(-width - 1))
    start = np.zeros((n_rows, width), dtype=position.dtype)
    np.not_equal(sorted_rows[:, 1:], sorted_rows[:, :-1], out=start[:, 1:])
    start[:, 1:] *= position[1:]
    np.maximum.accumulate(start, axis=1, out=start)
    np.subtract(position + 1, start, out=start)
    return start.max(axis=1).astype(np.int64)


def warp_conflict_factor(codes: np.ndarray, warp: int = 32, sample: int = 4096) -> float:
    """Expected max same-bin multiplicity within a warp, averaged over fields.

    ``codes`` is the (records x fields) bin-code matrix.  For each field, the
    first ``sample`` records are grouped into warps of ``warp`` consecutive
    records; the mean over warps of the maximum bin multiplicity estimates the
    atomic-serialization factor.  Uniform 256-bin fields give ~1.2-1.5;
    heavily skewed categorical fields approach ``warp`` itself.  Every field's
    warps are sorted and measured in one pass over the whole matrix; the
    per-warp maxima are integers, so each field's mean is exact in any order.
    """
    if warp < 1:
        raise ValueError("warp must be >= 1")
    n, n_fields = codes.shape
    use = min(n, sample)
    use -= use % warp
    if use < warp:
        return 1.0
    # Field-major keys of at least 16 bits, sorted in place: NumPy sorts
    # short uint8 rows several times slower.
    key_dtype = np.promote_types(codes.dtype, np.uint16)
    groups = np.ascontiguousarray(codes[:use].T, dtype=key_dtype).reshape(-1, warp)
    groups.sort(axis=1)
    factors = max_run_lengths(groups).reshape(n_fields, use // warp).mean(axis=1)
    return float(factors.mean())
