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
per dataset in :meth:`HistogramBuilder.__init__`.  Each ``build`` call gathers
the selected rows into a per-builder code buffer, broadcasts the gradient
statistics into a per-builder weight buffer, and takes one ``np.bincount``
per statistic (two when every selected ``h`` is 1.0, as with squared error:
the hess histogram is then the count histogram).  The buffers are sized for
the whole dataset once, so binning allocates no ``n x F`` temporaries.
``np.bincount`` accumulates weights in input order, so a histogram depends
only on the order of the records in ``index``.
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

    @property
    def unit_hess(self) -> bool:
        """Every binned record had ``h == 1``: ``hess`` is ``count`` itself."""
        return self.hess is self.count

    def subtract(self, child: "Histogram") -> "Histogram":
        """Parent minus explicitly-binned child = the other child."""
        if child.n_bins != self.n_bins:
            raise ValueError("cannot subtract histograms of different sizes")
        count = self.count - child.count
        return Histogram(
            count=count,
            grad=self.grad - child.grad,
            hess=count if self.unit_hess and child.unit_hess else self.hess - child.hess,
        )


class HistogramBuilder:
    """Vectorized histogram construction for one dataset.

    The builder owns the global bin space (offsets per field), the
    precomputed global-bin code matrix, and the code and weight scratch
    buffers every ``build`` reuses.  ``np.bincount`` with weights is the
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
        # Scratch for the gathered codes and the per-update weights; a build
        # of m records uses the first m rows.
        self._codes = np.empty_like(self._global_codes)
        self._weights = np.empty(self._global_codes.shape, dtype=np.float64)

    def build(self, index: np.ndarray, g: np.ndarray, h: np.ndarray) -> Histogram:
        """Bin the records selected by ``index`` (positions into the dataset).

        Exactly ``len(index) * n_fields`` bin updates are performed -- the
        quantity the timing models charge for step 1.  When every selected
        ``h`` is 1.0 (squared error), the hess histogram is the count
        histogram itself (:attr:`Histogram.unit_hess`): a sum of 1.0s is an
        exact integer.
        """
        if index.size == 0:
            z = np.zeros(self.n_bins, dtype=np.float64)
            return Histogram(count=z.copy(), grad=z.copy(), hess=z.copy())
        m = index.size
        # mode="wrap" lets take write straight into the buffer (the default
        # "raise" buffers ``out``) and reads a negative position from the end,
        # as ``g[index]`` does; ``g[index]`` raises for a position >= n.
        codes = np.take(self._global_codes, index, axis=0, out=self._codes[:m], mode="wrap")
        flat = codes.ravel()
        weights = self._weights[:m]
        count = np.bincount(flat, minlength=self.n_bins).astype(np.float64)
        weights[...] = g[index][:, None]
        grad = np.bincount(flat, weights=weights.ravel(), minlength=self.n_bins)
        hw = h[index]
        if (hw == 1.0).all():
            return Histogram(count=count, grad=grad, hess=count)
        weights[...] = hw[:, None]
        hess = np.bincount(flat, weights=weights.ravel(), minlength=self.n_bins)
        return Histogram(count=count, grad=grad, hess=hess)
