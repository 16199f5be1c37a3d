"""Batch inference over a tree ensemble (Sec. II-B / III-D).

In batch inference each record traverses all trees; per tree one predicate is
evaluated per level until a leaf emits a weak prediction, and the trees'
outputs are summed (plus the base margin) into the strong prediction.  The
:class:`EnsemblePredictor` performs this functionally.  The Fig. 13 timing
models price inference from
:meth:`~repro.gbdt.workprofile.WorkProfile.inference_work` instead: training's
step 5 already walked every record through every tree, so no second walk is
needed to learn the path lengths.
"""

from __future__ import annotations

import numpy as np

from .losses import Loss
from .tree import Tree

__all__ = ["EnsemblePredictor"]


class EnsemblePredictor:
    """Functional batch inference over a trained ensemble."""

    def __init__(self, trees: list[Tree], base_margin: float, loss: Loss) -> None:
        if not trees:
            raise ValueError("ensemble needs at least one tree")
        self.trees = trees
        self.base_margin = base_margin
        self.loss = loss

    def predict_margin(self, codes: np.ndarray) -> np.ndarray:
        out = np.full(codes.shape[0], self.base_margin, dtype=np.float64)
        for t in self.trees:
            out += t.predict(codes)
        return out

    def predict(self, codes: np.ndarray) -> np.ndarray:
        """Predictions in the loss's natural space (probability for binary)."""
        return self.loss.predict_transform(self.predict_margin(codes))
