"""Histogram binning of gradient statistics (step 1 of Table I).

A histogram is, per bin: the record count and the summed gradient statistics
(G, H).  We store the three arrays *flattened across fields* (the group-by-
field view): bin ``offsets[j] + k`` is bin ``k`` of field ``j``, including
each field's trailing missing/absent bin.  Every record contributes exactly
one update per field -- the density property Booster's mapping exploits.

Also implements the smaller-child *subtraction trick* (Sec. II-A): after a
split, only the smaller child is binned explicitly; the larger child's
histogram is the parent's minus the smaller child's.

The **global-bin code matrix** (``codes + offsets``, int64) is computed once
per dataset in :meth:`HistogramBuilder.__init__`, so each ``build`` call is a
pure gather plus three ``np.bincount`` calls.  ``np.bincount`` accumulates
weights in input order, so a histogram depends only on the order of the
records in ``index``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.encoding import BinnedDataset

__all__ = ["Histogram", "HistogramBuilder"]


@dataclass
class Histogram:
    """Per-bin count / G / H, flattened across fields."""

    count: np.ndarray  # float64 (so subtraction never wraps), shape (n_bins,)
    grad: np.ndarray  # G per bin
    hess: np.ndarray  # H per bin

    def __post_init__(self) -> None:
        if not (self.count.shape == self.grad.shape == self.hess.shape):
            raise ValueError("histogram arrays must share a shape")

    @property
    def n_bins(self) -> int:
        return int(self.count.shape[0])

    def subtract(self, child: "Histogram") -> "Histogram":
        """Parent minus explicitly-binned child = the other child."""
        if child.n_bins != self.n_bins:
            raise ValueError("cannot subtract histograms of different sizes")
        return Histogram(
            count=self.count - child.count,
            grad=self.grad - child.grad,
            hess=self.hess - child.hess,
        )

    def totals_for_field(self, lo: int, hi: int) -> tuple[float, float, float]:
        """(count, G, H) summed over one field's bin range [lo, hi)."""
        return (
            float(self.count[lo:hi].sum()),
            float(self.grad[lo:hi].sum()),
            float(self.hess[lo:hi].sum()),
        )


class HistogramBuilder:
    """Vectorized histogram construction for one dataset.

    The builder owns the global bin space (offsets per field) and the
    precomputed global-bin code matrix.  ``np.bincount`` with weights is the
    NumPy analogue of the accumulate-into-SRAM operation each Booster BU
    performs.
    """

    def __init__(self, data: BinnedDataset) -> None:
        self.data = data
        self.offsets = data.bin_offsets()
        self.n_bins = int(self.offsets[-1])
        self._col_offsets = self.offsets[:-1].astype(np.int64)
        #: Global-bin codes (``codes + per-field offsets``), materialized once
        #: so binning is a pure gather + bincount.
        self._global_codes = data.codes.astype(np.int64) + self._col_offsets[None, :]

    def build(self, index: np.ndarray, g: np.ndarray, h: np.ndarray) -> Histogram:
        """Bin the records selected by ``index`` (positions into the dataset).

        Exactly ``len(index) * n_fields`` bin updates are performed -- the
        quantity the timing models charge for step 1.
        """
        if index.size == 0:
            z = np.zeros(self.n_bins, dtype=np.float64)
            return Histogram(count=z.copy(), grad=z.copy(), hess=z.copy())
        n_fields = self.data.n_fields
        flat = self._global_codes[index].ravel()
        gw = np.repeat(g[index], n_fields)
        hw = np.repeat(h[index], n_fields)
        return Histogram(
            count=np.bincount(flat, minlength=self.n_bins).astype(np.float64),
            grad=np.bincount(flat, weights=gw, minlength=self.n_bins),
            hess=np.bincount(flat, weights=hw, minlength=self.n_bins),
        )

    def field_slice(self, field: int) -> slice:
        """Global-bin slice of one field (missing bin included)."""
        return slice(int(self.offsets[field]), int(self.offsets[field + 1]))
