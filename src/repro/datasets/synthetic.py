"""Synthetic dataset generation matched to the paper's benchmark structure.

The paper evaluates on five public datasets (Table III).  We cannot ship those
datasets, and the timing models do not need their semantic content -- only the
structural and statistical properties that drive the work profile:

* record/field/feature counts (Table III columns),
* categorical cardinalities and popularity skew (drives the lopsided 99%/1%
  one-vs-rest splits the paper reports for Allstate and Flight, Sec. IV),
* target separability (drives tree depth: IoT's near-separable target yields
  the shallow trees called out in Sec. IV; Higgs's many weak signals yield
  full-depth trees),
* missing-value rates (exercise the default/absent bins).

Each generator draws per-field latent contributions to a score and then
thresholds (binary) or emits (regression) the label, so trees trained on the
data recover axis-aligned structure exactly like trees trained on the real
datasets would.

Each numerical column is sorted once (:class:`~repro.datasets.encoding.
SortedColumn`): its step threshold, its quantile bin edges and its bin codes
are all read off that one sorted copy.
"""

from __future__ import annotations

import numpy as np

from .encoding import BinnedDataset, SortedColumn, smallest_code_dtype, sorted_quantile
from .schema import DatasetSpec, FieldKind, TaskKind

__all__ = ["generate", "zipf_probabilities"]


def zipf_probabilities(n_categories: int, skew: float) -> np.ndarray:
    """Zipf-like category popularity: ``p_k ~ 1 / (k+1)^skew`` (normalized).

    ``skew == 0`` is uniform.  With ``skew >= 1`` the head category absorbs a
    large majority of the mass, which is what makes one-vs-rest categorical
    splits extremely lopsided.
    """
    if n_categories < 1:
        raise ValueError("need at least one category")
    ranks = np.arange(1, n_categories + 1, dtype=np.float64)
    weights = ranks ** (-float(skew))
    return weights / weights.sum()


def _median(ordered: np.ndarray) -> float:
    """``np.median`` of the sample ``ordered`` sorts to: the middle value,
    or the mean of the middle two, summed and halved as ``np.mean`` does."""
    half = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2)


def _categorical_column(
    rng: np.random.Generator, n: int, n_categories: int, skew: float
) -> np.ndarray:
    """Sample category codes in ``[0, n_categories)`` with Zipf skew."""
    if skew == 0.0:
        return rng.integers(0, n_categories, size=n, dtype=np.int64)
    p = zipf_probabilities(n_categories, skew)
    # Inverse-CDF sampling: O(n log c), far cheaper than rng.choice for big c.
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    u = rng.random(n)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def _step_effect(
    rng: np.random.Generator, x: np.ndarray, column: SortedColumn, weight: float
) -> np.ndarray:
    """Axis-aligned step contribution for a numerical field.

    A step at a random quantile gives tree-recoverable structure (a single
    split captures the whole effect), which is what produces early-pure leaves
    and shallow trees when weights are large.  The threshold is read off
    ``column``, the field's one sorted copy of ``x``.
    """
    threshold = sorted_quantile(column.finite, rng.uniform(0.25, 0.75))
    return weight * np.where(x >= threshold, 1.0, -1.0)


def generate(spec: DatasetSpec) -> BinnedDataset:
    """Instantiate a :class:`BinnedDataset` from a :class:`DatasetSpec`.

    Deterministic in ``spec.seed`` (and the spec structure); the same spec
    always yields the same data, which the tests rely on.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_records
    dtype = smallest_code_dtype(spec)
    codes = np.zeros((n, spec.n_fields), dtype=dtype)
    score = np.zeros(n, dtype=np.float64)

    for j, f in enumerate(spec.fields):
        if f.kind is FieldKind.CATEGORICAL:
            cats = _categorical_column(rng, n, f.n_categories, f.skew)
            if f.target_weight != 0.0:
                # Sparse per-category effects: a small random set of (mostly
                # tail) categories carries large effects -- think "rare device
                # model implies fraud".  The best one-vs-rest splits peel those
                # rare categories off, reproducing the paper's "extremely
                # lopsided (99%-1%)" splits for Allstate/Flight (Sec. IV).
                n_eff = min(f.n_categories, max(3, f.n_categories // 40))
                hot = rng.choice(f.n_categories, size=n_eff, replace=False)
                effects = np.zeros(f.n_categories)
                effects[hot] = f.target_weight * rng.choice([-2.0, 2.0], size=n_eff)
                score += effects[cats]
            col = cats
        else:
            x = rng.standard_normal(n)
            column = SortedColumn(x)
            if f.target_weight != 0.0:
                score += _step_effect(rng, x, column, f.target_weight)
                # Also a small linear term so deeper splits keep finding gain.
                score += 0.15 * f.target_weight * x
            col = column.codes(column.bin_edges(f.n_bins), f.missing_bin)

        if f.missing_rate > 0.0:
            missing = rng.random(n) < f.missing_rate
            col = np.where(missing, f.missing_bin, col)
        codes[:, j] = col.astype(dtype)

    score += spec.noise * rng.standard_normal(n)

    # Order statistics come off one sort: np.median / np.quantile would
    # import numpy.ma (see docs/development.md) for the same values.
    if spec.task is TaskKind.BINARY:
        y = (score > _median(np.sort(score))).astype(np.float64)
    elif spec.task is TaskKind.RANKING:
        # Pointwise relevance labels in {0, 1, 2} from score terciles, as a
        # stand-in for LETOR-style graded relevance.
        terciles = sorted_quantile(np.sort(score), np.array([1.0 / 3.0, 2.0 / 3.0]))
        y = np.digitize(score, terciles).astype(np.float64)
    else:
        y = score.copy()

    ds = BinnedDataset(spec=spec, codes=codes, y=y)
    ds.validate_codes()
    return ds
