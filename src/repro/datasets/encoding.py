"""Binned dataset representation and the pre-processing the paper describes.

The paper's software pre-processing (Sec. II-A):

1. discretize floating-point fields into ~256 quantile bins, reserving one bin
   for missing values;
2. one-hot encode categorical fields;
3. include an 'absent' bin per categorical field;
4. apply the LightGBM optimization so that only the 'yes' bin per field is
   updated and the 'no' bins are reconstructed by subtraction -- i.e. each
   record touches exactly **one bin per field**.

The net effect is that a record is a dense vector of *bin indices*, one per
field.  That is exactly the representation this module produces:
``BinnedDataset.codes[i, j]`` is the histogram bin record ``i`` updates for
field ``j`` (the field's missing bin if the value is absent).  One byte per
field is also the record format Booster streams from DRAM ("Each field
consumes a byte", Sec. III-B), so this representation doubles as the layout
unit for byte accounting.

Step 1 argsorts each numerical column once (:class:`SortedColumn`).  The bin
edges are read off the sorted values with ``np.quantile``'s own ``linear``
arithmetic, and the codes are a step function over the sorted positions,
scattered back through the permutation.  That replaces a multi-kth partition
for the ~255 quantiles plus a binary search per record, and it is
bit-identical to ``np.quantile`` + :func:`discretize_numerical` (pinned in
``tests/`` against that pair as the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .schema import DatasetSpec, FieldSpec

__all__ = ["BinnedDataset", "SortedColumn", "discretize_numerical", "quantile_bin_edges"]


def sorted_quantile(sorted_values: np.ndarray, q: float | np.ndarray) -> Any:
    """``np.quantile(a, q)`` read off ``sorted_values = np.sort(a)``.

    Repeats the arithmetic of NumPy's default ``linear`` method (as NumPy
    2.4 performs it; the tests pin bit-equality on the installed release)
    for ``q`` in ``[0, 1]`` and NaN-free ``a`` with at least one element:
    the virtual index is ``(n - 1) * q``, an index at or above ``n - 1``
    reads the last value, and the two neighbours are blended as
    ``a + (b - a) * g``, or ``b - (b - a) * (1 - g)`` where ``g >= 0.5``.
    A scalar ``q`` gives a NumPy scalar, a vector ``q`` an array.
    """
    n = sorted_values.shape[0]
    virtual = (n - 1) * np.atleast_1d(np.asarray(q, dtype=np.float64))
    prev = np.floor(virtual)
    nxt = prev + 1
    above = virtual >= n - 1
    prev[above] = -1
    nxt[above] = -1
    prev_i, next_i = prev.astype(np.intp), nxt.astype(np.intp)
    gamma = virtual - prev_i
    a, b = sorted_values[prev_i], sorted_values[next_i]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out[0] if np.ndim(q) == 0 else out


class SortedColumn:
    """A numerical column argsorted once, for its edges and codes.

    Non-finite values sort to the ends (``-inf`` first; ``+inf`` and NaN
    last), so the finite ones are the contiguous run :attr:`finite`.
    """

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        self.order = np.argsort(values)
        ordered = values[self.order]
        n_finite = int(np.count_nonzero(np.isfinite(values)))
        self.lo = int(np.count_nonzero(values == -np.inf))
        #: The finite values in ascending order (a view of the sorted column).
        self.finite = ordered[self.lo : self.lo + n_finite]

    def bin_edges(self, n_bins: int) -> np.ndarray:
        """The ``n_bins - 1`` interior quantile edges (see :func:`quantile_bin_edges`)."""
        if n_bins < 2:
            raise ValueError(f"n_bins must be >= 2, got {n_bins}")
        if self.finite.size == 0:
            return np.zeros(n_bins - 1, dtype=np.float64)
        return sorted_quantile(self.finite, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])

    def codes(self, edges: np.ndarray, missing_bin: int) -> np.ndarray:
        """Per-value bin codes for sorted ``edges``; non-finite -> ``missing_bin``.

        A finite value's code counts the edges strictly below it
        (``np.searchsorted(edges, value, side="left")``).  Edge ``k`` lies
        below the sorted positions from ``searchsorted(finite, edge_k,
        side="right")`` on, so the sorted codes are a running count of those
        start positions.
        """
        n_finite = self.finite.size
        starts = np.searchsorted(self.finite, edges, side="right")
        ordered = np.full(self.order.size, missing_bin, dtype=np.int32)
        np.cumsum(
            np.bincount(starts, minlength=n_finite + 1)[:n_finite],
            out=ordered[self.lo : self.lo + n_finite],
        )
        codes = np.empty_like(ordered)
        codes[self.order] = ordered
        return codes


def quantile_bin_edges(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Compute quantile bin edges for a numerical column.

    Returns ``n_bins - 1`` interior edges so that ``np.searchsorted`` maps a
    value to a bin in ``[0, n_bins)``.  Duplicate quantiles (heavily repeated
    values) are allowed; they simply leave some bins empty, as in XGBoost's
    approximate sketch.  Non-finite values are ignored; an all-non-finite
    column gets all-zero edges.
    """
    return SortedColumn(values).bin_edges(n_bins)


def discretize_numerical(values: np.ndarray, edges: np.ndarray, missing_bin: int) -> np.ndarray:
    """Map raw numerical values to bin codes; NaN and +-inf go to ``missing_bin``.

    One binary search per value: for a column binned once,
    :meth:`SortedColumn.codes` reuses the column's sort instead.
    """
    codes = np.searchsorted(edges, values, side="left").astype(np.int32)
    codes[~np.isfinite(values)] = missing_bin
    return codes


@dataclass
class BinnedDataset:
    """Pre-processed dataset: dense per-field bin codes plus labels.

    Attributes
    ----------
    spec:
        The structural schema this data was generated from.
    codes:
        ``(n_records, n_fields)`` array of bin indices.  ``codes[i, j]`` lies
        in ``[0, spec.fields[j].n_total_bins)``; the top index of each field's
        range is its missing/absent bin.  Stored as the smallest integer dtype
        that fits the largest field (``uint8`` when all fields have <=256
        bins, matching the 1-byte-per-field record format).
    y:
        ``(n_records,)`` float64 labels (0/1 for binary, real for regression).
    """

    spec: DatasetSpec
    codes: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        n, f = self.codes.shape
        if n != self.spec.n_records:
            raise ValueError(
                f"codes has {n} rows but spec says {self.spec.n_records} records"
            )
        if f != self.spec.n_fields:
            raise ValueError(
                f"codes has {f} columns but spec says {self.spec.n_fields} fields"
            )
        if self.y.shape != (n,):
            raise ValueError(f"y has shape {self.y.shape}, expected ({n},)")

    # -- structural helpers ---------------------------------------------------

    @property
    def n_records(self) -> int:
        return self.codes.shape[0]

    @property
    def n_fields(self) -> int:
        return self.codes.shape[1]

    @property
    def fields(self) -> tuple[FieldSpec, ...]:
        return self.spec.fields

    def field_bin_counts(self) -> np.ndarray:
        """Total bins (incl. missing) per field, shape ``(n_fields,)``."""
        return np.array([f.n_total_bins for f in self.fields], dtype=np.int64)

    def bin_offsets(self) -> np.ndarray:
        """Exclusive prefix sum of per-field bin counts.

        ``bin_offsets()[j] + codes[i, j]`` is the *global* bin index used by
        flattened histograms, shape ``(n_fields + 1,)``.
        """
        counts = self.field_bin_counts()
        out = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=out[1:])
        return out

    def validate_codes(self) -> None:
        """Raise if any code is outside its field's bin range."""
        counts = self.field_bin_counts()
        if (self.codes < 0).any():
            raise ValueError("negative bin code")
        bad = self.codes >= counts[None, :]
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(
                f"record {i} field {j} code {self.codes[i, j]} out of range "
                f"(field has {counts[j]} bins)"
            )


def smallest_code_dtype(spec: DatasetSpec) -> np.dtype:
    """Smallest unsigned dtype holding every field's bin index.

    The paper's record format uses one byte per field; fields with more than
    256 bins are legal in our generator (huge-cardinality categoricals) and
    widen the stored dtype, while the *layout* model still accounts such
    fields as multi-byte (see :mod:`repro.datasets.layout`).
    """
    max_bins = max(f.n_total_bins for f in spec.fields)
    if max_bins <= 2**8:
        return np.dtype(np.uint8)
    if max_bins <= 2**16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)
