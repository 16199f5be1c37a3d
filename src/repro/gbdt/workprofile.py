"""Work profiles: the contract between functional training and timing models.

The paper's simulator derives time from *work quantities* -- how many records
each step touches at each tree vertex, how many bytes each layout moves, how
many bins step 2 scans -- because Booster's compute is hidden under memory by
construction (Sec. III-B) and the baselines are idealized to pure parallelism
limits (Sec. IV).  :class:`WorkProfile` captures exactly those quantities from
a real training run; every hardware model consumes it, so all systems are
timed on *identical* work.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..datasets.layout import RecordLayout
from ..datasets.schema import DatasetSpec
from .tree import NODE_ENTRY_BYTES

__all__ = ["TreeWork", "WorkProfile", "InferenceWork"]


@dataclass
class TreeWork:
    """Per-node and per-tree work quantities for one boosting round."""

    depth: np.ndarray  # per-node depth
    n_reach: np.ndarray  # records reaching the node
    n_binned: np.ndarray  # records explicitly histogram-binned (0 => subtraction)
    split_evaluated: np.ndarray  # bool: step 2 scanned this node's histogram
    is_split: np.ndarray  # bool: node became interior
    split_field: np.ndarray  # field id used at interior nodes, -1 otherwise
    relevant_fields: np.ndarray  # unique fields used by the tree
    sum_path_len: float  # total interior hops over all records (step 5)
    mean_path_len: float
    max_path_len: int
    loss_after: float

    @property
    def n_nodes(self) -> int:
        return int(self.depth.shape[0])

    @property
    def n_splits(self) -> int:
        return int(self.is_split.sum())

    @property
    def n_leaves(self) -> int:
        return self.n_nodes - self.n_splits

    @property
    def max_depth(self) -> int:
        return int(self.depth.max()) if self.n_nodes else 0

    @property
    def n_relevant_fields(self) -> int:
        return int(self.relevant_fields.shape[0])


@dataclass
class _StackedWork:
    """Per-node arrays of the measured trees concatenated, plus per-tree
    scalars, and the cycle a tree-scaled profile replays them in.

    The whole-run reductions (``binned_records``, ``step1_bytes``, ...) used
    to loop ``sum(... for t in profile.trees)``; stacking once and reducing
    with single NumPy calls removes the per-tree interpreted passes.  Built
    lazily and cached on the profile (tree lists are never mutated after
    construction; ``scaled``/``with_trees_scaled`` return fresh profiles).

    A :meth:`WorkProfile.with_trees_scaled` copy keeps its source's arrays
    and records the cycle instead of tiling them: ``full`` whole copies of
    these trees, then the first ``rest`` of them again.  A per-node term is
    computed once on the measured entries; :meth:`per_node` lays it out as
    the concatenated replicated trees would hold it, so a float sum over it
    adds the same terms in the same order, and :meth:`node_total` adds
    integers exactly as ``full * base + partial``.
    """

    n_binned: np.ndarray  # per-node, all measured trees
    n_reach: np.ndarray
    depth: np.ndarray
    split_evaluated: np.ndarray
    is_split: np.ndarray
    split_field: np.ndarray
    relevant_fields: np.ndarray  # all measured trees' relevant fields, concatenated
    sum_path_len: np.ndarray  # per-tree
    max_depth: np.ndarray  # per-tree
    n_nodes: np.ndarray  # per-tree
    full: int = 1
    rest: int = 0
    #: ``relevant_fields`` entries of the first ``rest`` trees.
    rest_relevant: int = 0

    @classmethod
    def of(cls, trees: list[TreeWork]) -> "_StackedWork":
        """The stack of ``trees``, each tree once."""

        def cat(name: str, dtype: type = np.int64) -> np.ndarray:
            parts = [getattr(t, name) for t in trees]
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        return cls(
            n_binned=cat("n_binned"),
            n_reach=cat("n_reach"),
            depth=cat("depth"),
            split_evaluated=cat("split_evaluated", bool),
            is_split=cat("is_split", bool),
            split_field=cat("split_field"),
            relevant_fields=cat("relevant_fields"),
            sum_path_len=np.array([t.sum_path_len for t in trees], dtype=np.float64),
            max_depth=np.array([t.max_depth for t in trees], dtype=np.int64),
            n_nodes=np.array([t.n_nodes for t in trees], dtype=np.int64),
        )

    @cached_property
    def binned(self) -> np.ndarray:
        """Bool per node: explicitly binned (step-1 gathers and fills)."""
        return self.n_binned > 0

    @cached_property
    def binned_nonzero(self) -> np.ndarray:
        """Per-node explicit-binning counts, zeros dropped (step-1 gathers)."""
        return self.n_binned[self.binned]

    @cached_property
    def split_reach(self) -> np.ndarray:
        """Records reaching each split node (step-3 partitions)."""
        return self.n_reach[self.is_split]

    @cached_property
    def split_fields(self) -> np.ndarray:
        """Predicate field of each split node."""
        return self.split_field[self.is_split]

    @cached_property
    def rest_nodes(self) -> int:
        """Nodes of the first ``rest`` trees."""
        return int(self.n_nodes[: self.rest].sum())

    def _cut(self, where: np.ndarray | None) -> int:
        """Entries of the first ``rest`` trees' nodes (``where``-selected)."""
        nodes = self.rest_nodes
        return nodes if where is None else int(np.count_nonzero(where[:nodes]))

    def per_node(self, values: np.ndarray, where: np.ndarray | None = None) -> np.ndarray:
        """Per-node ``values`` of the measured nodes (those ``where``
        selects, if given), laid out over the cycle."""
        return _cycle(values, self.full, self._cut(where))

    def per_tree(self, values: np.ndarray) -> np.ndarray:
        """Per-tree ``values`` of the measured trees, laid out over the cycle."""
        return _cycle(values, self.full, self.rest)

    def node_total(self, values: np.ndarray, where: np.ndarray | None = None) -> int:
        """Exact integer total of per-node ``values`` over the cycle."""
        return self.full * int(values.sum()) + int(values[: self._cut(where)].sum())

    def tree_total(self, values: np.ndarray) -> int:
        """Exact integer total of per-tree ``values`` over the cycle."""
        return self.full * int(values.sum()) + int(values[: self.rest].sum())


def _cycle(values: np.ndarray, full: int, cut: int) -> np.ndarray:
    """``full`` copies of ``values``, then its first ``cut`` entries."""
    if full == 1 and cut == 0:
        return values
    return np.concatenate([np.tile(values, full), values[:cut]])


@dataclass
class WorkProfile:
    """All work quantities from one training run.

    ``warp_conflict_factor`` is the expected maximum same-bin multiplicity
    within a 32-record group, averaged over fields -- the quantity that
    serializes GPU atomic histogram updates (Sec. II-D).  ``path_len_cv`` is
    the coefficient of variation of traversal path lengths, the SIMT
    divergence proxy.  ``smaller_child_fraction_mean`` documents split
    lopsidedness (the Allstate/Flight 99/1 behaviour).

    ``measured`` is False on :meth:`scaled` / :meth:`with_trees_scaled`
    copies: their totals are extrapolations, so :meth:`inference_work`
    (which must match a walk over the training records) refuses them.
    """

    spec: DatasetSpec
    trees: list[TreeWork]
    warp_conflict_factor: float = 1.0
    path_len_cv: float = 0.0
    smaller_child_fraction_mean: float = 0.5
    train_seconds_wall: float = 0.0
    losses: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Per-bin access counts measured at the root of the first tree; drives
    #: the CPU cache model (skewed data concentrates updates in few hot bins).
    root_bin_counts: np.ndarray | None = None
    measured: bool = True

    @property
    def stacked(self) -> _StackedWork:
        """The measured trees' stack and its cycle (cached; see :class:`_StackedWork`)."""
        cached = getattr(self, "_stacked", None)
        if cached is None:
            cached = self._stacked = _StackedWork.of(self.trees)
        return cached

    def total_levels(self) -> int:
        """Tree levels processed across the run (level-wise sync points)."""
        stk = self.stacked
        return stk.tree_total(stk.max_depth + 1)

    def mean_live_vertices(self) -> float:
        """Average vertices evaluated per level (level-wise histogram
        residency requirement: this many per-vertex histograms live on chip)."""
        levels = self.total_levels()
        if levels == 0:
            return 1.0
        return max(1.0, self.step2_evaluations() / levels)

    def scaled(self, factor: float) -> "WorkProfile":
        """Extrapolate the profile to a larger/smaller record count.

        Per-node record counts, traversal hops, and the record total scale
        linearly; tree *structure* (node counts, depths, fields, bins) and the
        per-record statistics (conflict factor, path lengths) are record-count
        invariant.  Used to report results at the paper's dataset sizes
        (Table III) and for the Fig. 12 10x scaling study, mirroring the
        paper's own record-replication methodology.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        trees = [
            TreeWork(
                depth=t.depth,
                n_reach=np.round(t.n_reach * factor).astype(np.int64),
                n_binned=np.round(t.n_binned * factor).astype(np.int64),
                split_evaluated=t.split_evaluated,
                is_split=t.is_split,
                split_field=t.split_field,
                relevant_fields=t.relevant_fields,
                sum_path_len=t.sum_path_len * factor,
                mean_path_len=t.mean_path_len,
                max_path_len=t.max_path_len,
                loss_after=t.loss_after,
            )
            for t in self.trees
        ]
        return WorkProfile(
            spec=self.spec.with_records(max(1, int(round(self.spec.n_records * factor)))),
            trees=trees,
            warp_conflict_factor=self.warp_conflict_factor,
            path_len_cv=self.path_len_cv,
            smaller_child_fraction_mean=self.smaller_child_fraction_mean,
            train_seconds_wall=self.train_seconds_wall,
            losses=self.losses,
            root_bin_counts=self.root_bin_counts,
            measured=False,
        )

    def with_trees_scaled(self, n_trees_target: int) -> "WorkProfile":
        """Extrapolate to the paper's tree count (500) by replicating the
        measured per-tree work cyclically.  Per-tree work is statistically
        homogeneous after the first few boosting rounds, and every reported
        metric is a ratio of sums over trees.  The copy's ``trees`` list
        repeats references; its stack is this profile's plus the cycle (see
        :class:`_StackedWork`), so no per-node array is replicated."""
        if n_trees_target < 1:
            raise ValueError("n_trees_target must be >= 1")
        if not self.trees:
            return self
        reps = [self.trees[i % len(self.trees)] for i in range(n_trees_target)]
        out = WorkProfile(
            spec=self.spec,
            trees=reps,
            warp_conflict_factor=self.warp_conflict_factor,
            path_len_cv=self.path_len_cv,
            smaller_child_fraction_mean=self.smaller_child_fraction_mean,
            train_seconds_wall=self.train_seconds_wall,
            losses=self.losses,
            root_bin_counts=self.root_bin_counts,
            measured=False,
        )
        stack = self.stacked
        if (stack.full, stack.rest) != (1, 0):  # a cycled source: stack its own trees
            stack = _StackedWork.of(self.trees)
        full, rest = divmod(n_trees_target, len(self.trees))
        relevant = sum(t.n_relevant_fields for t in self.trees[:rest])
        out._stacked = replace(stack, full=full, rest=rest, rest_relevant=relevant)
        return out

    # -- structural shortcuts -----------------------------------------------------

    @property
    def n_records(self) -> int:
        return self.spec.n_records

    @property
    def n_fields(self) -> int:
        return self.spec.n_fields

    @property
    def n_total_bins(self) -> int:
        return self.spec.n_total_bins

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def total_nodes(self) -> int:
        """Tree nodes across the run (table entries replicated per tree)."""
        stk = self.stacked
        return stk.tree_total(stk.n_nodes)

    # -- step 1: histogram binning ---------------------------------------------

    def binned_records(self) -> float:
        """Total records explicitly binned across all nodes and trees."""
        stk = self.stacked
        return float(stk.node_total(stk.n_binned))

    def binned_nodes(self) -> int:
        """Nodes with an explicitly binned histogram, all trees."""
        stk = self.stacked
        return stk.node_total(stk.binned)

    def binned_record_fields(self) -> float:
        """Total (record, field) histogram updates -- the step-1 op count."""
        return self.binned_records() * self.n_fields

    def step1_bytes(self, layout: RecordLayout) -> float:
        """DRAM bytes for step 1: pointer stream + row-major records + g/h."""
        stk = self.stacked
        binned = stk.binned_nonzero
        if binned.size == 0:
            return 0.0
        rows = layout.row_bytes_gather(binned, self.n_records)
        pointers = layout.pointer_bytes(binned)
        return float(
            np.sum(stk.per_node(rows, stk.binned))
            + self.step1_stats_bytes(layout)
            + np.sum(stk.per_node(pointers, stk.binned))
        )

    def step1_stats_bytes(self, layout: RecordLayout) -> float:
        """The g/h gathers of step 1 alone (a part of :meth:`step1_bytes`)."""
        stk = self.stacked
        stats = layout.stats_bytes_gather(stk.binned_nonzero, self.n_records)
        return float(np.sum(stk.per_node(stats, stk.binned)))

    def hot_access_fraction(self, n_hot_bins: int) -> float:
        """Fraction of histogram updates that land in the ``n_hot_bins``
        most-accessed bins (measured at the first tree's root).

        This is the access-weighted cache-hit fraction for a cache holding
        ``n_hot_bins`` bin entries: near 1 for skewed categorical benchmarks
        (Allstate/Flight concentrate updates on head categories), near
        ``n_hot_bins / total_bins`` for uniform numerical ones (IoT, Higgs).
        """
        if n_hot_bins <= 0:
            return 0.0
        counts = self.root_bin_counts
        if counts is None or counts.size == 0:
            return min(1.0, n_hot_bins / max(self.n_total_bins, 1))
        if n_hot_bins >= counts.size:
            return 1.0
        total = float(counts.sum())
        if total <= 0:
            return 1.0
        top = np.partition(counts, counts.size - n_hot_bins)[-n_hot_bins:]
        return float(top.sum() / total)

    # -- step 2: split choice (host) ----------------------------------------------

    def step2_evaluations(self) -> int:
        """Nodes whose histogram was scanned for a split."""
        stk = self.stacked
        return stk.node_total(stk.split_evaluated)

    def step2_bin_scans(self) -> float:
        """Total bins scanned by step 2 (evaluations x total bins)."""
        return float(self.step2_evaluations() * self.n_total_bins)

    # -- step 3: single-predicate evaluation ---------------------------------------

    def split_nodes(self) -> int:
        """Interior (split) nodes, all trees."""
        stk = self.stacked
        return stk.node_total(stk.is_split)

    def partition_records(self) -> float:
        """Total records partitioned at split nodes (step-3 op count)."""
        stk = self.stacked
        return float(stk.node_total(stk.split_reach, stk.is_split))

    def step3_bytes(self, layout: RecordLayout, column_format: bool) -> float:
        """DRAM bytes for step 3.

        With the redundant column format only the predicate's single-field
        column is gathered; without it the whole row-major record is fetched
        to use one field (the waste the paper's third contribution removes).
        Both variants read and write the record-pointer streams.
        """
        n = self.n_records
        stk = self.stacked
        reach = stk.split_reach
        if reach.size == 0:
            return 0.0
        if column_format:
            gathers = layout.column_bytes_gather(stk.split_fields, reach, n)
        else:
            gathers = layout.row_bytes_gather(reach, n)
        total = float(np.sum(stk.per_node(gathers, stk.is_split)))
        # Read the incoming pointer stream, write true/false streams.
        pointers = stk.per_node(layout.pointer_bytes(reach), stk.is_split)
        return total + 2.0 * float(np.sum(pointers))

    # -- step 5: one-tree traversal --------------------------------------------------

    def traversal_hops(self) -> float:
        """Total interior-node visits over all records and trees."""
        stk = self.stacked
        return float(stk.per_tree(stk.sum_path_len).sum())

    def traversal_records(self) -> float:
        return float(self.n_records * self.n_trees)

    def step5_bytes(self, layout: RecordLayout, column_format: bool) -> float:
        """DRAM bytes for step 5: record fetch + g/h read/update + labels.

        With the column format only the tree's relevant-field columns stream
        in; otherwise full row-major records do.
        """
        n = self.n_records
        n_trees = self.n_trees
        if n_trees == 0:
            return 0.0
        if column_format:
            # All trees' relevant-field column streams as exact integer
            # blocks (column bytes are per-field, so concatenating across
            # trees sums the same terms): the block totals are integers far
            # below 2**53, so ``full * base + partial`` is exact.
            stk = self.stacked
            fields = stk.relevant_fields
            total = stk.full * layout.column_bytes_sequential(fields, n)
            total += layout.column_bytes_sequential(fields[: stk.rest_relevant], n)
        else:
            total = n_trees * layout.row_bytes_sequential(n)
        total += n_trees * (2.0 * layout.stats_bytes_sequential(n))  # g/h read + write
        total += n_trees * float(layout.pointer_bytes(n))  # ground-truth labels
        return total

    # -- batch inference (Sec. III-D / Fig. 13) ------------------------------------

    def inference_work(self, n_trees_target: int | None = None) -> "InferenceWork":
        """Batch-inference work over the training records, from step 5.

        Step 5 already recorded every training record's path through every
        tree (read off the partition, equal to a walk of the finished tree),
        so the per-tree path sums, depths and node counts recorded here are
        exactly what a separate inference pass over the same records would
        measure.  ``n_trees_target`` (default: the measured tree count)
        extrapolates to the paper's 500-tree models: path-length statistics
        are per-tree properties, so totals scale linearly in the tree count.

        Only a measured profile qualifies: a :meth:`scaled` copy carries
        rounded record counts and a :meth:`with_trees_scaled` copy replicated
        trees, so both raise ``ValueError`` -- scale the returned
        :class:`InferenceWork` instead.
        """
        if not self.measured:
            raise ValueError("inference_work needs the measured profile, not a scaled copy")
        if not self.trees:
            raise ValueError("ensemble needs at least one tree")
        measured_trees = self.n_trees
        target = measured_trees if n_trees_target is None else n_trees_target
        if target < 1:
            raise ValueError("n_trees_target must be >= 1")
        stk = self.stacked
        scale = target / measured_trees
        # Per-tree hop counts are integers stored as floats, so this sum is
        # exact: a walk adding them tree by tree gets the same value.
        sum_len = self.traversal_hops()
        n_nodes = int(stk.n_nodes.sum())
        return InferenceWork(
            spec=self.spec,
            n_records=self.n_records,
            n_trees=target,
            max_depth=int(stk.max_depth.max()),
            mean_path_len=sum_len / (self.n_records * measured_trees),
            sum_path_len=sum_len * scale,
            path_len_cv=self.path_len_cv,
            mean_tree_nodes=n_nodes / measured_trees,
            table_bytes_total=float(NODE_ENTRY_BYTES * n_nodes) * scale,
        )

    # -- whole-run summaries -----------------------------------------------------------

    def mean_leaf_depth(self) -> float:
        stk = self.stacked
        if stk.depth.size == 0:
            return 0.0
        # Integer depth totals: the exact quotient ``np.mean`` also rounds.
        leaves = ~stk.is_split
        return stk.node_total(stk.depth[leaves], leaves) / stk.node_total(leaves)

    def mean_max_depth(self) -> float:
        if not self.trees:
            return 0.0
        return float(np.mean([t.max_depth for t in self.trees]))

    def mean_path_len(self) -> float:
        if not self.trees:
            return 0.0
        return float(np.mean([t.mean_path_len for t in self.trees]))

    def summary(self) -> dict:
        """Human-readable run summary used by reports and EXPERIMENTS.md."""
        return {
            "dataset": self.spec.name,
            "records": self.n_records,
            "fields": self.n_fields,
            "total_bins": self.n_total_bins,
            "trees": self.n_trees,
            "mean_leaf_depth": round(self.mean_leaf_depth(), 3),
            "mean_path_len": round(self.mean_path_len(), 3),
            "binned_records": self.binned_records(),
            "partition_records": self.partition_records(),
            "traversal_hops": self.traversal_hops(),
            "step2_evaluations": self.step2_evaluations(),
            "warp_conflict_factor": round(self.warp_conflict_factor, 3),
            "path_len_cv": round(self.path_len_cv, 4),
            "smaller_child_fraction": round(self.smaller_child_fraction_mean, 4),
        }


@dataclass
class InferenceWork:
    """Work quantities for batch inference (Sec. III-D / Fig. 13).

    Booster's per-record cost in a BU is bounded by the *maximum* tree depth
    (the table walk always provisions max-depth lookups); CPU/GPU cost follows
    the actual path lengths.  Both are captured here.
    """

    spec: DatasetSpec
    n_records: int
    n_trees: int
    max_depth: int
    mean_path_len: float
    sum_path_len: float
    path_len_cv: float
    mean_tree_nodes: float
    table_bytes_total: float

    def scaled(self, factor: float) -> "InferenceWork":
        """Extrapolate to a larger/smaller record count, returning a copy.

        Totals (record count, summed path length) scale linearly; per-record
        statistics (mean/max path lengths, divergence) and per-ensemble
        quantities (tree count, table bytes) are record-count invariant.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        n = max(1, int(round(self.n_records * factor)))
        return InferenceWork(
            spec=self.spec.with_records(n),
            n_records=n,
            n_trees=self.n_trees,
            max_depth=self.max_depth,
            mean_path_len=self.mean_path_len,
            sum_path_len=self.sum_path_len * factor,
            path_len_cv=self.path_len_cv,
            mean_tree_nodes=self.mean_tree_nodes,
            table_bytes_total=self.table_bytes_total,
        )

    @property
    def total_hops_actual(self) -> float:
        """CPU/GPU traversal work: actual interior hops."""
        return self.sum_path_len

    @property
    def total_hops_padded(self) -> float:
        """Booster traversal work: max-depth-padded lookups per record-tree."""
        return float(self.n_records) * self.n_trees * self.max_depth
