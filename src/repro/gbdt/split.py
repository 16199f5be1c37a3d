"""Best-split search over histogram bins (step 2 of Table I).

This is the step the paper *offloads to the host* because it is short (work
proportional to the number of bins, not records) and the gain formula is
"complex (i.e., hardware-unfriendly) and may vary across implementations".
We implement the XGBoost objective:

    gain = 0.5 * [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ] - gamma

For numerical fields candidates are the bin boundaries scanned left-to-right
with cumulative sums (exactly Fig. 3 of the paper); records with a missing
field are tried on both sides and the better direction kept.  For categorical
fields (one-hot semantics) candidates are one-vs-rest on each category.

The whole search is vectorized over the flattened bin space: segmented
cumulative sums give every candidate's left aggregate in O(total bins), and
:meth:`SplitSearcher.best_split` then scores only the bins that can win
(exact bin compaction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.schema import DatasetSpec, FieldKind
from .histogram import Histogram

__all__ = ["SplitParams", "SplitDecision", "SplitSearcher", "segment_cumsum", "leaf_weight"]

@dataclass(frozen=True)
class SplitParams:
    """Regularization and stopping knobs (XGBoost naming and defaults).

    ``min_child_weight=1`` (the XGBoost default) is what produces the paper's
    IoT behaviour: once a logistic leaf is well fit its records' hessians
    ``p(1-p)`` collapse toward zero, further splits violate the constraint,
    and trees come out shallow.
    """

    lambda_: float = 1.0
    gamma: float = 1e-3
    min_child_weight: float = 1.0
    min_child_records: int = 2

    def __post_init__(self) -> None:
        if self.lambda_ < 0:
            raise ValueError("lambda_ must be >= 0")
        if self.min_child_records < 1:
            raise ValueError("min_child_records must be >= 1")


@dataclass(frozen=True)
class SplitDecision:
    """Chosen split for one node (or no-split when ``gain <= 0``)."""

    field: int
    #: For numerical fields: the last *local* value-bin index that goes left
    #: (predicate "bin <= threshold_bin").  For categorical fields: the
    #: category whose one-hot feature goes left (predicate "category == bin").
    threshold_bin: int
    is_categorical: bool
    missing_left: bool
    gain: float
    grad_left: float
    hess_left: float
    count_left: float
    grad_right: float
    hess_right: float
    count_right: float

    @property
    def valid(self) -> bool:
        return self.gain > 0.0


def leaf_weight(grad: float, hess: float, lambda_: float) -> float:
    """Optimal leaf weight  w* = -G / (H + lambda)."""
    return -grad / (hess + lambda_)


def _no_split(best_gain: float, g_tot: float, h_tot: float, c_tot: float) -> SplitDecision:
    """The no-split decision: every record stays right of a non-positive gain."""
    return SplitDecision(
        field=-1,
        threshold_bin=-1,
        is_categorical=False,
        missing_left=False,
        gain=best_gain if np.isfinite(best_gain) else -np.inf,
        grad_left=0.0,
        hess_left=0.0,
        count_left=0.0,
        grad_right=float(g_tot),
        hess_right=float(h_tot),
        count_right=float(c_tot),
    )


def segment_cumsum(
    values: np.ndarray,
    offsets: np.ndarray,
    at: np.ndarray | None = None,
    segment_of_at: np.ndarray | None = None,
) -> np.ndarray:
    """Cumulative sum restarting at each segment boundary.

    ``offsets`` is the (n_segments + 1) exclusive prefix of segment sizes;
    element ``i`` of the result is the sum of its segment's elements up to and
    including ``i``.

    With ``at`` (and ``segment_of_at``, each position's segment index) only
    those positions are returned, bit-identical to
    ``segment_cumsum(values, offsets)[at]``: the one running sum over the
    whole array is still taken, but its segment base is subtracted only at
    ``at``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("segment_cumsum expects a 1-D array")
    starts = offsets[:-1]
    sizes = np.diff(offsets)
    if sizes.sum() != values.shape[0]:
        raise ValueError("offsets do not cover the array")
    c = np.cumsum(values)
    base_vals = c[starts] - values[starts]
    if at is None:
        return c - np.repeat(base_vals, sizes)
    if segment_of_at is None:
        raise ValueError("segment_cumsum needs segment_of_at together with at")
    return c[at] - base_vals[segment_of_at]


class SplitSearcher:
    """Vectorized best-split search for a dataset's bin space."""

    def __init__(self, spec: DatasetSpec, offsets: np.ndarray, params: SplitParams) -> None:
        self.spec = spec
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.params = params
        n_bins = int(self.offsets[-1])
        sizes = np.diff(self.offsets)
        self._field_of_bin = np.repeat(np.arange(spec.n_fields, dtype=np.int64), sizes)
        self._local_bin = np.arange(n_bins, dtype=np.int64) - np.repeat(self.offsets[:-1], sizes)
        is_cat = np.array([f.kind is FieldKind.CATEGORICAL for f in spec.fields])
        self._bin_is_cat = is_cat[self._field_of_bin]
        value_bins = np.array([f.n_value_bins for f in spec.fields], dtype=np.int64)
        bins_value_count = value_bins[self._field_of_bin]
        self._is_missing_bin = self._local_bin == bins_value_count
        # Numerical candidates: local value bin v with v <= n_value_bins - 2
        # (a split after the last value bin leaves the right side empty).
        self._num_candidate = (
            ~self._bin_is_cat & ~self._is_missing_bin & (self._local_bin <= bins_value_count - 2)
        )
        # Categorical candidates: any value bin (one-vs-rest).
        self._cat_candidate = self._bin_is_cat & ~self._is_missing_bin
        self._n_bins = n_bins
        self._miss_idx = self.offsets[1:] - 1
        # Local value bin 0 of every field with numerical candidates: always
        # scored by best_split's compacted kernel (see there).
        self._num_bin0 = self._num_candidate & (self._local_bin == 0)
        self._cat_bins = np.flatnonzero(self._cat_candidate)
        self._cat_fields = self._field_of_bin[self._cat_bins]
        # Variant families with no candidate bins at all (e.g. the categorical
        # variants of a pure-numerical dataset) are skipped by the search:
        # their gain bands would be uniformly -inf and can never win.
        self._has_num = bool(self._num_candidate.any())
        self._has_cat = bool(self._cat_candidate.any())

    # -- gain math --------------------------------------------------------------

    def _gain(
        self,
        gl: np.ndarray,
        hl: np.ndarray,
        cl: np.ndarray,
        g_tot: float,
        h_tot: float,
        c_tot: float,
    ) -> np.ndarray:
        """Vector gain for candidate left aggregates; invalid -> -inf."""
        p = self.params
        gr = g_tot - gl
        hr = h_tot - hl
        cr = c_tot - cl
        parent_term = (g_tot * g_tot) / (h_tot + p.lambda_)
        # 0.5 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - parent) - gamma, in
        # that operation order, updated in place: a few large temporaries
        # instead of one per operator.
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = gl * gl
            gain /= hl + p.lambda_
            gr *= gr
            gr /= hr + p.lambda_
            gain += gr
            gain -= parent_term
            gain *= 0.5
            gain -= p.gamma
        invalid = hl < p.min_child_weight
        invalid |= hr < p.min_child_weight
        invalid |= cl < p.min_child_records
        invalid |= cr < p.min_child_records
        gain[invalid] = -np.inf
        return gain

    # -- search -----------------------------------------------------------------

    def best_split(
        self, hist: Histogram, g_tot: float, h_tot: float, c_tot: float
    ) -> SplitDecision:
        """The best candidate split over every bin of every field.

        ``g_tot``/``h_tot``/``c_tot`` are the node's record totals.  (They
        cannot be recovered by summing the flattened histogram, which counts
        every record once *per field*.)  The modelled step-2 work
        (:class:`~repro.gbdt.workprofile.TreeWork` and the timing models) is
        O(total bins) regardless of how many records reached the node -- the
        property that justifies offloading step 2 to the host.  Only this host
        software skips the bins that cannot win (exact bin compaction):

        * variant families without candidate bins are not scored;
        * the numerical bands score only bins whose ``count``, ``grad`` or
          ``hess`` is non-zero, plus each field's local bin 0.  An all-zero
          bin's left aggregates equal its predecessor's, so its gain ties an
          earlier bin and can never be the first maximum.  Bin 0 has no
          predecessor in its field and must stay: with missing records sent
          left, an empty bin 0 splits off exactly the missing records;
        * the missing-left bands score only fields with a non-empty missing
          bin.  Elsewhere adding the missing aggregates adds zeros, so every
          gain equals the missing-right band's at the same bin, which comes
          first in variant order and wins the tie;
        * the segmented cumsum is gathered at the kept bins with the same
          ``c - base`` arithmetic as the dense scan;
        * each band's first maximum is found, then the first maximum in
          variant order -- the dense ``(variant, bin)`` scan's tie-breaking.

        The decision is bit-identical to a dense scan that scores every bin
        (property-tested against the dense oracle in ``tests/``).
        """
        if hist.n_bins != self._n_bins:
            raise ValueError("histogram does not match this dataset's bin space")
        count, grad, hess = hist.count, hist.grad, hist.hess
        miss = self._miss_idx
        g_miss, h_miss, c_miss = grad[miss], hess[miss], count[miss]

        # (variant, bins, left grad, left hess, left count), in variant order.
        bands: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        has_missing = (c_miss != 0) | (g_miss != 0) | (h_miss != 0)

        def add_bands(
            variant: int,
            bins: np.ndarray,
            fields: np.ndarray,
            gl: np.ndarray,
            hl: np.ndarray,
            cl: np.ndarray,
        ) -> None:
            """The missing-right band, then missing-left where it can differ."""
            bands.append((variant, bins, gl, hl, cl))
            keep = has_missing[fields]
            if not keep.any():
                return
            if not keep.all():
                bins, fields, gl, hl, cl = bins[keep], fields[keep], gl[keep], hl[keep], cl[keep]
            gm, hm, cm = g_miss[fields], h_miss[fields], c_miss[fields]
            bands.append((variant + 1, bins, gl + gm, hl + hm, cl + cm))

        if self._has_num:
            occupied = (count != 0) | (grad != 0) | (hess != 0)
            bins = np.flatnonzero((occupied & self._num_candidate) | self._num_bin0)
            fields = self._field_of_bin[bins]
            gl, hl, cl = (
                segment_cumsum(v, self.offsets, bins, fields) for v in (grad, hess, count)
            )
            add_bands(0, bins, fields, gl, hl, cl)
        if self._has_cat:
            bins, fields = self._cat_bins, self._cat_fields
            add_bands(2, bins, fields, grad[bins], hess[bins], count[bins])
        if not bands:
            return _no_split(-np.inf, g_tot, h_tot, c_tot)

        args: list[int] = []
        maxes: list[float] = []
        for _, _, gl, hl, cl in bands:
            gain = self._gain(gl, hl, cl, g_tot, h_tot, c_tot)
            arg = int(np.argmax(gain))
            args.append(arg)
            maxes.append(gain[arg])
        best = int(np.argmax(maxes))
        best_gain = float(maxes[best])
        if not np.isfinite(best_gain) or best_gain <= 0.0:
            return _no_split(best_gain, g_tot, h_tot, c_tot)

        variant, bins, gl, hl, cl = bands[best]
        k = args[best]
        bin_idx = int(bins[k])
        gl_v, hl_v, cl_v = float(gl[k]), float(hl[k]), float(cl[k])
        return SplitDecision(
            field=int(self._field_of_bin[bin_idx]),
            threshold_bin=int(self._local_bin[bin_idx]),
            is_categorical=variant >= 2,
            missing_left=variant in (1, 3),
            gain=best_gain,
            grad_left=gl_v,
            hess_left=hl_v,
            count_left=cl_v,
            grad_right=g_tot - gl_v,
            hess_right=h_tot - hl_v,
            count_right=c_tot - cl_v,
        )

    @property
    def n_bins(self) -> int:
        return self._n_bins
