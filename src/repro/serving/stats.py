"""Percentile estimation with honest small-sample labeling.

Used by the serving latency statistics.  The estimator is the classic
linear-interpolation one (NumPy's default ``method="linear"``): rank
position ``(n - 1) * q / 100``, interpolated between the two bracketing
order statistics.  That is a well-defined number for any ``n >= 1`` -- but
for small samples a high percentile is *not an interior estimate*: with
fewer than ``ceil(100 / (100 - q))`` samples the rank position lands inside
the top inter-sample gap and the estimate collapses to (essentially) the
sample maximum.  Reporting that value as "p99" would mislead: the number
is fine, the label is not.  :func:`percentile_label` makes the collapse
explicit (``p99~max(n=3)``) so every consumer renders the statistic
honestly.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["percentile", "percentile_label", "min_samples_for_percentile"]


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of ``values``.

    ``q`` is in percent (``50`` = median).  Raises on an empty sample --
    callers that may see one decide the degenerate rendering themselves.
    """
    sample = values if isinstance(values, np.ndarray) else list(values)
    vals = np.asarray(sample, dtype=np.float64)
    if vals.size == 0:
        raise ValueError("percentile of an empty sequence is undefined")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must lie in [0, 100], got {q!r}")
    return float(np.percentile(vals, q, method="linear"))


def min_samples_for_percentile(q: float) -> int:
    """Smallest ``n`` for which the ``q``-th percentile is an interior
    estimate (the interpolation rank falls below the top order statistic's
    gap) rather than (essentially) the sample maximum."""
    if not 0 <= q < 100:
        raise ValueError(f"percentile q must lie in [0, 100), got {q!r}")
    # Round off float noise first: 100 / (100 - 99.9) computes to
    # 1000.0000000000568, and a naive ceil would demand 1001 samples.
    return max(1, math.ceil(round(100.0 / (100.0 - q), 9)))


def percentile_label(q: float, n: int) -> str:
    """Honest display label for the ``q``-th percentile of ``n`` samples.

    ``"p99"`` when the sample supports an interior estimate,
    ``"p99~max(n=3)"`` when it does not (the estimate is essentially the
    observed maximum) -- so tables never dress a max up as a tail
    percentile.
    """
    name = f"p{q:g}".replace(".", "")
    if n >= min_samples_for_percentile(q):
        return name
    return f"{name}~max(n={n})"
