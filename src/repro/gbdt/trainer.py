"""The GBDT training loop (steps 1-6 of Table I) with work instrumentation.

The trainer grows the ensemble one tree at a time; each tree grows vertex by
vertex ("GB implementations can be configured to proceed vertex by vertex or
level by level.  The above assumes the former", Sec. II-A):

1. histogram-bin the gradient statistics of the records reaching the vertex
   (with the smaller-child subtraction optimization);
2. choose the best split from the histogram (the host-offloaded step);
3. partition the vertex's records with the new predicate;
4. repeat to the configured depth or until gain stops exceeding gamma;
5. traverse the finished tree with *all* records, updating every record's
   g/h and the total loss;
6. start the next tree.

Step 5's result is read off the partition: the records of each leaf's
``index`` are exactly the records a walk of the finished tree sends there, so
each record's leaf weight and path length (the leaf's depth) are written
when the leaf is made.  :meth:`Tree.predict` stays the inference path.

The host skips work that cannot change the model, and charges the modelled
work as if it were done: a vertex whose hessian total is below twice
``min_child_weight`` has no valid split (:meth:`SplitSearcher.cannot_split`),
so it is recorded as evaluated but not searched, and a smaller child is not
binned when neither child will be searched.

Every step records its work in the round's :class:`TreeWork`; the rounds
concatenate into one :class:`WorkProfile`, which every hardware timing model
prices.  Like the paper, the models price vertex-by-vertex growth only.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np

from ..datasets.encoding import BinnedDataset
from .histogram import Histogram, HistogramBuilder
from .instrument import warp_conflict_factor
from .losses import Loss, loss_for_task
from .split import SplitDecision, SplitParams, SplitSearcher, leaf_weight
from .tree import Tree
from .workprofile import TreeWork, WorkProfile

__all__ = ["TrainParams", "TrainResult", "GBDTTrainer", "train"]


@dataclass(frozen=True)
class TrainParams:
    """Training hyper-parameters (XGBoost-style defaults).

    The paper's models are 500 trees of depth up to 6; functional simulation
    defaults to fewer trees because per-tree work is statistically homogeneous
    after the first few rounds and every reported figure is a time *ratio*.
    """

    n_trees: int = 30
    max_depth: int = 6
    learning_rate: float = 0.3  # XGBoost's default eta
    split: SplitParams = dc_field(default_factory=SplitParams)
    conflict_sample: int = 4096

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")


@dataclass
class TrainResult:
    """Trained ensemble plus the work profile of the run."""

    trees: list[Tree]
    profile: WorkProfile
    losses: np.ndarray
    base_margin: float
    loss: Loss
    params: TrainParams

    def predict_margin(self, codes: np.ndarray) -> np.ndarray:
        out = np.full(codes.shape[0], self.base_margin, dtype=np.float64)
        for t in self.trees:
            out += t.predict(codes)
        return out

    def predict(self, codes: np.ndarray) -> np.ndarray:
        return self.loss.predict_transform(self.predict_margin(codes))


@dataclass
class _NodeTask:
    """Queue entry for vertex-by-vertex growth."""

    depth: int
    index: np.ndarray
    hist: Histogram | None  # None => not searched (the root is binned when popped)
    g_tot: float
    h_tot: float
    c_tot: float
    parent: int  # tree node id of the parent, -1 for root
    is_left: bool
    #: Records explicitly binned at the parent to produce ``hist`` (the
    #: smaller-child optimization does the binning there); step-1 work is
    #: charged when this task is popped so accounting is order-independent.
    binned_at_parent: int = 0


class GBDTTrainer:
    """Instrumented histogram-GBDT trainer for one dataset."""

    def __init__(self, data: BinnedDataset, params: TrainParams | None = None) -> None:
        self.data = data
        self.params = params or TrainParams()
        self.builder = HistogramBuilder(data)
        self.searcher = SplitSearcher(data.spec, self.builder.offsets, self.params.split)
        self.loss: Loss = loss_for_task(data.spec.task)

    # -- public API ---------------------------------------------------------------

    def fit(self) -> TrainResult:
        t_start = time.perf_counter()
        data = self.data
        params = self.params
        n = data.n_records
        y = data.y
        margin = np.full(n, self.loss.base_margin(y), dtype=np.float64)
        base_margin = float(margin[0]) if n else 0.0

        trees: list[Tree] = []
        tree_works: list[TreeWork] = []
        losses = np.empty(params.n_trees, dtype=np.float64)

        path_sum = 0.0
        path_sq_sum = 0.0
        path_count = 0
        child_fracs: list[float] = []

        root_bin_counts: np.ndarray | None = None
        for round_ix in range(params.n_trees):
            g, h = self.loss.gradients(margin, y)
            tree, work, fracs, root_counts, pred, depths = self._grow_tree(g, h)
            trees.append(tree)
            if root_bin_counts is None and root_counts is not None:
                root_bin_counts = root_counts

            # Step 5: every record's leaf weight and path length, updating margins.
            margin += pred  # leaf weights already include the learning rate
            losses[round_ix] = self.loss.value(margin, y)

            work.sum_path_len = float(depths.sum())
            work.mean_path_len = float(depths.mean()) if n else 0.0
            tree_works.append(work)

            path_sum += float(depths.sum())
            path_sq_sum += float(np.square(depths, dtype=np.float64).sum())
            path_count += int(depths.size)
            child_fracs.extend(fracs)

        cv = 0.0
        if path_count and path_sum > 0:
            mean = path_sum / path_count
            var = max(path_sq_sum / path_count - mean * mean, 0.0)
            cv = float(np.sqrt(var) / mean)

        profile = WorkProfile.of_trees(
            data.spec,
            tree_works,
            warp_conflict_factor=warp_conflict_factor(
                data.codes, sample=params.conflict_sample
            ),
            path_len_cv=cv,
            smaller_child_fraction_mean=float(np.mean(child_fracs)) if child_fracs else 0.5,
            train_seconds_wall=time.perf_counter() - t_start,
            losses=losses.copy(),
            root_bin_counts=root_bin_counts,
        )
        return TrainResult(
            trees=trees,
            profile=profile,
            losses=losses,
            base_margin=base_margin,
            loss=self.loss,
            params=params,
        )

    # -- tree growth ----------------------------------------------------------------

    def _may_split(self, task: _NodeTask) -> bool:
        """Depth and size limits allow a split, so step 2 is charged at ``task``."""
        return (
            task.depth < self.params.max_depth
            and task.index.size >= 2 * self.params.split.min_child_records
        )

    def _searchable(self, task: _NodeTask) -> bool:
        """Step 2 runs on the host: ``task`` may split and its hessian allows it."""
        return self._may_split(task) and not self.searcher.cannot_split(task.h_tot)

    def _grow_tree(
        self, g: np.ndarray, h: np.ndarray
    ) -> tuple[Tree, TreeWork, list[float], np.ndarray | None, np.ndarray, np.ndarray]:
        """Grow one tree; also returns each record's leaf weight and path length."""
        data = self.data
        params = self.params
        spec = data.spec
        lam = params.split.lambda_
        lr = params.learning_rate
        n = data.n_records
        tree = Tree(spec)
        leaf_weights = np.empty(n, dtype=np.float64)
        path_lens = np.empty(n, dtype=np.int64)

        depths: list[int] = []
        reaches: list[int] = []
        binneds: list[int] = []
        evals: list[bool] = []
        issplits: list[bool] = []
        sfields: list[int] = []
        child_fracs: list[float] = []

        root_counts: np.ndarray | None = None
        all_idx = np.arange(n, dtype=np.int64)
        root = _NodeTask(
            depth=0,
            index=all_idx,
            hist=None,
            g_tot=float(g.sum()),
            h_tot=float(h.sum()),
            c_tot=float(n),
            parent=-1,
            is_left=False,
        )
        queue: deque[_NodeTask] = deque([root])

        while queue:
            task = queue.popleft()
            n_reach = int(task.index.size)

            can_split = self._may_split(task)

            # Step 1: the root is binned explicitly whenever it may split;
            # below it the parent supplied the histogram (smaller child binned,
            # larger by subtraction), or none if neither child is searched.
            hist = task.hist
            n_binned = task.binned_at_parent
            if task.parent < 0 and can_split:
                hist = self.builder.build(task.index, g, h)
                n_binned = n_reach
                root_counts = hist.count.copy()

            decision: SplitDecision | None = None
            if self._searchable(task):
                assert hist is not None
                # Step 2 (host-offloaded): scan all bins for the best split.
                decision = self.searcher.best_split(
                    hist, task.g_tot, task.h_tot, task.c_tot
                )

            node_is_split = decision is not None and decision.valid
            left_idx = right_idx = None
            if node_is_split:
                # Step 3: partition the node's records with the new predicate.
                left_mask = self._predicate_mask(task.index, decision)
                left_idx = task.index[left_mask]
                right_idx = task.index[~left_mask]
                if left_idx.size == 0 or right_idx.size == 0:
                    node_is_split = False  # degenerate split; make a leaf

            depths.append(task.depth)
            reaches.append(n_reach)
            binneds.append(n_binned)
            evals.append(bool(can_split))
            issplits.append(bool(node_is_split))
            sfields.append(int(decision.field) if node_is_split else -1)

            if not node_is_split:
                w = lr * leaf_weight(task.g_tot, task.h_tot, lam)
                node = tree.add_leaf(task.depth, w)
                self._attach(tree, task, node)
                leaf_weights[task.index] = w
                path_lens[task.index] = task.depth
                continue

            assert decision is not None and left_idx is not None and right_idx is not None
            node = tree.add_split(
                task.depth,
                decision.field,
                decision.threshold_bin,
                decision.is_categorical,
                decision.missing_left,
            )
            self._attach(tree, task, node)
            child_fracs.append(min(left_idx.size, right_idx.size) / n_reach)

            # Smaller child is binned explicitly; larger gets parent - smaller.
            left_task = _NodeTask(
                depth=task.depth + 1,
                index=left_idx,
                hist=None,
                g_tot=decision.grad_left,
                h_tot=decision.hess_left,
                c_tot=decision.count_left,
                parent=node,
                is_left=True,
            )
            right_task = _NodeTask(
                depth=task.depth + 1,
                index=right_idx,
                hist=None,
                g_tot=decision.grad_right,
                h_tot=decision.hess_right,
                c_tot=decision.count_right,
                parent=node,
                is_left=False,
            )
            small, large = (
                (left_task, right_task)
                if left_idx.size <= right_idx.size
                else (right_task, left_task)
            )
            if task.depth + 1 < params.max_depth:
                # Children may split, so they need histograms: bin the smaller
                # child explicitly and derive the larger one by subtraction.
                # The binning is charged even when neither child is searched
                # and the host skips it.
                small.binned_at_parent = int(small.index.size)
                if self._searchable(left_task) or self._searchable(right_task):
                    assert hist is not None
                    small.hist = self.builder.build(small.index, g, h)
                    large.hist = hist.subtract(small.hist)
            queue.append(left_task)
            queue.append(right_task)

        tree.validate()
        work = TreeWork(
            depth=np.asarray(depths, dtype=np.int64),
            n_reach=np.asarray(reaches, dtype=np.int64),
            n_binned=np.asarray(binneds, dtype=np.int64),
            split_evaluated=np.asarray(evals, dtype=bool),
            is_split=np.asarray(issplits, dtype=bool),
            split_field=np.asarray(sfields, dtype=np.int64),
            relevant_fields=tree.relevant_fields(),
            sum_path_len=0.0,
            mean_path_len=0.0,
        )
        return tree, work, child_fracs, root_counts, leaf_weights, path_lens

    def _attach(self, tree: Tree, task: _NodeTask, node: int) -> None:
        if task.parent < 0:
            return
        left = tree.left[task.parent]
        right = tree.right[task.parent]
        if task.is_left:
            tree.set_children(task.parent, node, right)
        else:
            tree.set_children(task.parent, left, node)

    def _predicate_mask(self, index: np.ndarray, decision: SplitDecision) -> np.ndarray:
        """Evaluate the split predicate over the node's records."""
        field_spec = self.data.spec.fields[decision.field]
        codes = self.data.codes[index, decision.field].astype(np.int64)
        missing = codes == field_spec.missing_bin
        if decision.is_categorical:
            left = codes == decision.threshold_bin
        else:
            left = codes <= decision.threshold_bin
        return np.where(missing, decision.missing_left, left)


def train(data: BinnedDataset, params: TrainParams | None = None) -> TrainResult:
    """Convenience wrapper: ``train(load("higgs"))``."""
    return GBDTTrainer(data, params).fit()
