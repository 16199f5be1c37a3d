"""From-scratch histogram GBDT substrate (the paper's Sec. II algorithm).

Public API::

    from repro.gbdt import train, TrainParams
    result = train(load("higgs"), TrainParams(n_trees=30))
    result.profile          # WorkProfile consumed by the timing models
    result.predict(codes)   # functional predictions
"""

from .histogram import Histogram, HistogramBuilder
from .instrument import max_run_lengths, path_length_cv, warp_conflict_factor
from .losses import LogisticLoss, Loss, SquaredErrorLoss, loss_for_task
from .predict import EnsemblePredictor
from .split import SplitDecision, SplitParams, SplitSearcher, leaf_weight, segment_cumsum
from .trainer import GBDTTrainer, TrainParams, TrainResult, train
from .tree import NodeTable, Tree
from .workprofile import InferenceWork, TreeWork, WorkProfile

__all__ = [
    "EnsemblePredictor",
    "GBDTTrainer",
    "Histogram",
    "HistogramBuilder",
    "InferenceWork",
    "LogisticLoss",
    "Loss",
    "NodeTable",
    "SplitDecision",
    "SplitParams",
    "SplitSearcher",
    "SquaredErrorLoss",
    "TrainParams",
    "TrainResult",
    "Tree",
    "TreeWork",
    "WorkProfile",
    "leaf_weight",
    "loss_for_task",
    "max_run_lengths",
    "path_length_cv",
    "segment_cumsum",
    "train",
    "warp_conflict_factor",
]
