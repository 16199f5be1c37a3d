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
cumulative sums give every candidate's left aggregate in O(total bins).
:meth:`SplitSearcher.best_split` scores a vertex that holds records in at
least :data:`DENSE_MIN_OCCUPANCY` of its bins densely, every bin of every
variant family in the searcher's scratch buffers; a sparser vertex it scores
only at the bins that can win (exact bin compaction).  Both give the dense
scan's decision bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.schema import DatasetSpec, FieldKind
from .histogram import Histogram

__all__ = ["SplitParams", "SplitDecision", "SplitSearcher", "segment_cumsum", "leaf_weight"]

#: The share of bins holding records from which :meth:`SplitSearcher.best_split`
#: scores a vertex densely.  Below it the compacted scorer's gathers cost less
#: than the bins they skip (docs/performance.md, "Sort-once binning and the
#: dense split scorer").
DENSE_MIN_OCCUPANCY = 0.3

#: One variant family's winner: (variant, gain, global bin, left grad, left
#: hess, left count).  Variants: 0/1 numerical with missing records sent
#: right/left, 2/3 categorical likewise.
_Band = tuple[int, float, int, float, float, float]


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
    if offsets[-1] - offsets[0] != values.shape[0]:
        raise ValueError("offsets do not cover the array")
    c = np.cumsum(values)
    base_vals = c[starts] - values[starts]
    if at is None:
        return c - np.repeat(base_vals, np.diff(offsets))
    if segment_of_at is None:
        raise ValueError("segment_cumsum needs segment_of_at together with at")
    return c[at] - base_vals[segment_of_at]


@dataclass(frozen=True)
class _Family:
    """One variant family's columns, as the dense scorer reads them."""

    #: 0 for the numerical variants, 2 for the categorical ones.
    variant: int
    #: The bins of the fields from the family's first candidate to its last.
    cols: slice
    #: Non-candidate bins of the span (masked to ``-inf``).
    excluded: np.ndarray
    #: Per span bin, its field's index among the span's fields.
    fields: np.ndarray
    #: The first and the missing bin of each of the span's fields.
    starts: np.ndarray
    miss: np.ndarray

    @classmethod
    def of(
        cls, variant: int, candidate: np.ndarray, offsets: np.ndarray, field_of_bin: np.ndarray
    ) -> "_Family":
        bins = np.flatnonzero(candidate)
        first, last = int(field_of_bin[bins[0]]), int(field_of_bin[bins[-1]])
        cols = slice(int(offsets[first]), int(offsets[last + 1]))
        return cls(
            variant=variant,
            cols=cols,
            excluded=~candidate[cols],
            fields=field_of_bin[cols] - first,
            starts=offsets[first : last + 1],
            miss=offsets[first + 1 : last + 2] - 1,
        )


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
        # Each field's first bin: always kept by the compacted cumsums, so
        # the kept columns still split into one segment per field.
        self._field_start = np.zeros(n_bins, dtype=bool)
        self._field_start[self.offsets[:-1]] = True
        # The dense scorer scores each variant family over the span of its
        # fields.  Its scratch is rewritten by every dense search (a
        # decision holds only Python scalars): the left sums of the
        # missing-right/left rows, and the gain with its float and bool
        # temporaries, whose float rows first hold the running sums and the
        # per-field spreads the left sums are built from.
        self._families = [
            _Family.of(variant, candidate, self.offsets, self._field_of_bin)
            for variant, candidate in ((0, self._num_candidate), (2, self._cat_candidate))
            if candidate.any()
        ]
        self._left = np.empty((2, 3, n_bins))
        self._gain_work = np.empty((3, 2, n_bins))
        self._mask_work = np.empty((2, 2, n_bins), dtype=bool)

    def cannot_split(self, h_tot: float) -> bool:
        """True when ``h_tot < 2 * min_child_weight`` (and the weight is > 0).

        Such a node has no valid split, so the trainer does not search it.  A
        candidate with ``hl >= mcw`` either has ``hl <= h_tot < 2 * hl``, so
        ``h_tot - hl`` is exact (Sterbenz's lemma) and below ``mcw``, or has
        ``hl > h_tot``, so ``h_tot - hl`` is negative.  Either way its right
        child breaks the weight constraint and its gain is ``-inf``.
        """
        mcw = self.params.min_child_weight
        return mcw > 0 and h_tot < 2 * mcw

    # -- gain math --------------------------------------------------------------

    def _gain(
        self,
        gl: np.ndarray,
        hl: np.ndarray,
        cl: np.ndarray,
        g_tot: float,
        h_tot: float,
        c_tot: float,
        excluded: np.ndarray | None = None,
        work: tuple[np.ndarray, ...] | None = None,
    ) -> np.ndarray:
        """Vector gain for candidate left aggregates; invalid or excluded -> -inf.

        ``work`` is ``(gain, float temp, float temp, bool temp, bool temp)``
        of ``gl``'s shape; with it the call allocates nothing, and the gain
        is written to ``work[0]``.
        """
        p = self.params
        if work is None:
            shape = np.shape(gl)
            work = (np.empty(shape), np.empty(shape), np.empty(shape))
            work += (np.empty(shape, dtype=bool), np.empty(shape, dtype=bool))
        gain, t, gr, invalid, below = work
        parent_term = (g_tot * g_tot) / (h_tot + p.lambda_)
        # 0.5 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - parent) - gamma, in
        # that operation order.  A side is too light where the smaller of
        # its two weights is below the floor: ``fmin`` skips a NaN exactly
        # as ``hl < mcw | hr < mcw`` does.
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(gl, gl, out=gain)
            np.add(hl, p.lambda_, out=t)
            gain /= t
            np.subtract(h_tot, hl, out=t)
            np.less(np.fmin(hl, t, out=gr), p.min_child_weight, out=invalid)
            t += p.lambda_
            np.subtract(g_tot, gl, out=gr)
            gr *= gr
            gr /= t
            gain += gr
            gain -= parent_term
            gain *= 0.5
            gain -= p.gamma
        np.subtract(c_tot, cl, out=t)
        invalid |= np.less(np.fmin(cl, t, out=t), p.min_child_records, out=below)
        if excluded is not None:
            invalid |= excluded
        np.copyto(gain, -np.inf, where=invalid)
        return gain

    # -- search -----------------------------------------------------------------

    def best_split(
        self, hist: Histogram, g_tot: float, h_tot: float, c_tot: float
    ) -> SplitDecision:
        """The best candidate split over every bin of every field.

        ``g_tot``/``h_tot``/``c_tot`` are the node's record totals.  (They
        cannot be recovered by summing the flattened histogram, which counts
        every record once *per field*.)  The modelled step-2 work
        (:class:`~repro.gbdt.workprofile.WorkProfile` and the timing models) is
        O(total bins) regardless of how many records reached the node -- the
        property that justifies offloading step 2 to the host.  This host
        software scores a vertex one of two ways, both exact:

        * records in at least :data:`DENSE_MIN_OCCUPANCY` of the bins
          (non-zero ``count``): the dense scorer (:meth:`_dense_bands`) scores
          every bin of every variant family in the searcher's scratch
          buffers, non-candidates masked to ``-inf``;
        * fewer: the compacted scorer (:meth:`_compacted_bands`) scores only
          the bins that can win.

        Either way variant families without candidate bins are not scored,
        the missing-left bands are skipped when no field has a non-empty
        missing bin (adding zeros ties the missing-right band, which comes
        first in variant order and wins the tie), and with unit hessians
        (:attr:`Histogram.unit_hess`) the hess cumsum is the count cumsum,
        taken once.  Each band's first maximum is found, then the first
        maximum in variant order -- the dense ``(variant, bin)`` scan's
        tie-breaking.

        The decision is bit-identical to a dense scan that scores every bin
        (property-tested against the dense oracle in ``tests/``).
        """
        if hist.n_bins != self._n_bins:
            raise ValueError("histogram does not match this dataset's bin space")
        occupied = np.not_equal(hist.count, 0, out=self._mask_work[0, 0])
        if np.count_nonzero(occupied) < DENSE_MIN_OCCUPANCY * self._n_bins:
            bands = self._compacted_bands(hist, occupied, g_tot, h_tot, c_tot)
        else:
            bands = self._dense_bands(hist, g_tot, h_tot, c_tot)
        if not bands:
            return _no_split(-np.inf, g_tot, h_tot, c_tot)

        best = int(np.argmax([band[1] for band in bands]))
        variant, best_gain, bin_idx, gl_v, hl_v, cl_v = bands[best]
        if not np.isfinite(best_gain) or best_gain <= 0.0:
            return _no_split(best_gain, g_tot, h_tot, c_tot)
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

    def _dense_bands(
        self, hist: Histogram, g_tot: float, h_tot: float, c_tot: float
    ) -> list[_Band]:
        """Every variant family's winner, scoring every bin of its span in scratch.

        A family's missing-right row holds the left sums of every bin of its
        span: segmented cumsums for the numerical family (the running sum
        from bin 0 minus each field's base, as :func:`segment_cumsum`), the
        bins themselves for the categorical one.  Its missing-left row adds
        each bin's field's missing aggregates, and is skipped when no field
        has a non-empty missing bin.  One gain pass scores both rows,
        non-candidates masked to ``-inf``, and each row's first maximum is
        its band's winner.  Nothing is gathered at kept bins and no
        ``n_bins`` temporary is allocated.
        """
        unit = hist.unit_hess
        sums: tuple[np.ndarray, ...] = (hist.grad, hist.count)
        if not unit:
            sums += (hist.hess,)
        k = len(sums)
        bands: list[_Band] = []
        # Running sums and spreads live in the gain's float rows until the
        # gain is taken.
        prefixes, spreads = self._gain_work[:, 0], self._gain_work[:, 1]
        for fam in self._families:
            span = fam.cols.stop - fam.cols.start
            left, spread = self._left[:, :k, :span], spreads[:k, :span]
            if fam.variant == 0:
                for values, prefix, base, out in zip(sums, prefixes, spread, left[0]):
                    c = np.cumsum(values[: fam.cols.stop], out=prefix[: fam.cols.stop])
                    field_base = c[fam.starts] - values[fam.starts]
                    # "clip" writes straight into ``out`` ("raise" buffers it).
                    np.take(field_base, fam.fields, out=base, mode="clip")
                    np.subtract(c[fam.cols], base, out=out)
            else:
                for values, out in zip(sums, left[0]):
                    np.copyto(out, values[fam.cols])
            missing = np.stack([values[fam.miss] for values in sums])
            n_rows = 1
            if missing.any():
                np.take(missing, fam.fields, axis=1, out=spread, mode="clip")
                np.add(left[0], spread, out=left[1])
                n_rows = 2
            gl, cl = left[:n_rows, 0], left[:n_rows, 1]
            hl = cl if unit else left[:n_rows, 2]
            work = (*self._gain_work[:, :n_rows, :span], *self._mask_work[:, :n_rows, :span])
            gain = self._gain(gl, hl, cl, g_tot, h_tot, c_tot, fam.excluded, work)
            for i, b in enumerate(np.argmax(gain, axis=1).tolist()):
                left_sums = (float(gl[i, b]), float(hl[i, b]), float(cl[i, b]))
                bands.append((fam.variant + i, float(gain[i, b]), fam.cols.start + b, *left_sums))
        return bands

    def _compacted_bands(
        self, hist: Histogram, occupied: np.ndarray, g_tot: float, h_tot: float, c_tot: float
    ) -> list[_Band]:
        """Every variant family's winner, scoring only the bins that can win.

        * the numerical bands score only occupied bins (non-zero ``count``,
          ``grad`` or ``hess``), plus each field's local bin 0.  An all-zero
          bin's left aggregates equal its predecessor's, so its gain ties an
          earlier bin and can never be the first maximum.  Bin 0 has no
          predecessor in its field and must stay: with missing records sent
          left, an empty bin 0 splits off exactly the missing records;
        * their running sums are taken over the occupied columns plus each
          field's first bin only, and gathered at the kept bins with the
          same ``c - base`` arithmetic as the dense scan: an all-zero column
          adds ``+0.0`` to a running sum and cannot move it;
        * the missing-left bands score only fields with a non-empty missing
          bin.  Elsewhere adding the missing aggregates adds zeros, so every
          gain equals the missing-right band's at the same bin, which comes
          first in variant order and wins the tie.
        """
        count, grad, hess = hist.count, hist.grad, hist.hess
        miss = self._miss_idx
        g_miss, h_miss, c_miss = grad[miss], hess[miss], count[miss]
        has_missing = (c_miss != 0) | (g_miss != 0) | (h_miss != 0)
        bands: list[_Band] = []

        def winner(
            variant: int, bins: np.ndarray, gl: np.ndarray, hl: np.ndarray, cl: np.ndarray
        ) -> None:
            gain = self._gain(gl, hl, cl, g_tot, h_tot, c_tot)
            k = int(np.argmax(gain))
            left_sums = (float(gl[k]), float(hl[k]), float(cl[k]))
            bands.append((variant, float(gain[k]), int(bins[k]), *left_sums))

        def add_bands(
            variant: int,
            bins: np.ndarray,
            fields: np.ndarray,
            gl: np.ndarray,
            hl: np.ndarray,
            cl: np.ndarray,
        ) -> None:
            """The missing-right band, then missing-left where it can differ."""
            winner(variant, bins, gl, hl, cl)
            keep = has_missing[fields]
            if not keep.any():
                return
            if not keep.all():
                bins, fields, gl, hl, cl = bins[keep], fields[keep], gl[keep], hl[keep], cl[keep]
            gm, hm, cm = g_miss[fields], h_miss[fields], c_miss[fields]
            winner(variant + 1, bins, gl + gm, hl + hm, cl + cm)

        if self._has_num:
            occupied |= grad != 0
            if not hist.unit_hess:
                occupied |= hess != 0
            bins = np.flatnonzero((occupied & self._num_candidate) | self._num_bin0)
            fields = self._field_of_bin[bins]
            # Compacted columns; their field starts are a segment partition.
            cols = np.flatnonzero(occupied | self._field_start)
            offsets = np.searchsorted(cols, self.offsets)
            at = np.searchsorted(cols, bins)
            gl = segment_cumsum(grad[cols], offsets, at, fields)
            cl = segment_cumsum(count[cols], offsets, at, fields)
            hl = cl if hist.unit_hess else segment_cumsum(hess[cols], offsets, at, fields)
            add_bands(0, bins, fields, gl, hl, cl)
        if self._has_cat:
            bins, fields = self._cat_bins, self._cat_fields
            add_bands(2, bins, fields, grad[bins], hess[bins], count[bins])
        return bands

    @property
    def n_bins(self) -> int:
        return self._n_bins
