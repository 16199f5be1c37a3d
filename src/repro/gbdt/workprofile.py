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
from typing import Any

import numpy as np

from ..datasets.layout import RecordLayout
from ..datasets.schema import DatasetSpec
from .tree import NODE_ENTRY_BYTES

__all__ = ["TreeWork", "WorkProfile", "InferenceWork"]


@dataclass
class TreeWork:
    """Per-node and per-tree work quantities of one boosting round, as the
    trainer records them; :meth:`WorkProfile.of_trees` concatenates them."""

    depth: np.ndarray  # per-node depth
    n_reach: np.ndarray  # records reaching the node
    n_binned: np.ndarray  # records explicitly histogram-binned (0 => subtraction)
    split_evaluated: np.ndarray  # bool: step 2 scanned this node's histogram
    is_split: np.ndarray  # bool: node became interior
    split_field: np.ndarray  # field id used at interior nodes, -1 otherwise
    relevant_fields: np.ndarray  # unique fields used by the tree
    sum_path_len: float  # total interior hops over all records (step 5)
    mean_path_len: float


def _cycle(values: np.ndarray, full: int, cut: int) -> np.ndarray:
    """``full`` copies of ``values``, then its first ``cut`` entries."""
    if full == 1 and cut == 0:
        return values
    return np.concatenate([np.tile(values, full), values[:cut]])


@dataclass
class WorkProfile:
    """All work quantities from one training run.

    The measured trees' per-node arrays are concatenated in training order;
    the per-tree arrays hold one entry per measured tree.  A
    :meth:`with_trees_scaled` copy keeps those arrays and records the cycle
    it replays them in: ``full`` whole copies of the measured trees, then
    the first ``rest`` of them again.  Every reduction prices the cycle: a
    per-node term is computed once on the measured entries and
    :meth:`per_node` lays it out as the replicated trees would hold it, so a
    float sum over it adds the same terms in the same order, and
    :meth:`node_total` adds integers exactly as ``full * base + partial``.
    Price through the reduction methods, never through the raw arrays,
    which hold the measured trees only.

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
    # Per node, all measured trees (see :class:`TreeWork`).
    depth: np.ndarray
    n_reach: np.ndarray
    n_binned: np.ndarray
    split_evaluated: np.ndarray
    is_split: np.ndarray
    split_field: np.ndarray
    # Per measured tree.
    n_nodes: np.ndarray
    n_relevant: np.ndarray  # relevant fields of each tree
    sum_path_len: np.ndarray
    mean_path_lens: np.ndarray
    #: Every measured tree's relevant fields, concatenated.
    relevant_fields: np.ndarray
    warp_conflict_factor: float = 1.0
    path_len_cv: float = 0.0
    smaller_child_fraction_mean: float = 0.5
    train_seconds_wall: float = 0.0
    losses: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Per-bin access counts measured at the root of the first tree; drives
    #: the CPU cache model (skewed data concentrates updates in few hot bins).
    root_bin_counts: np.ndarray | None = None
    measured: bool = True
    full: int = 1
    rest: int = 0

    @classmethod
    def of_trees(cls, spec: DatasetSpec, trees: list[TreeWork], **scalars: Any) -> "WorkProfile":
        """The profile of ``trees`` in training order, each tree once;
        ``scalars`` sets the run-level fields."""

        def cat(name: str, dtype: type = np.int64) -> np.ndarray:
            parts = [getattr(t, name) for t in trees]
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        return cls(
            spec=spec,
            depth=cat("depth"),
            n_reach=cat("n_reach"),
            n_binned=cat("n_binned"),
            split_evaluated=cat("split_evaluated", bool),
            is_split=cat("is_split", bool),
            split_field=cat("split_field"),
            n_nodes=np.array([t.depth.size for t in trees], dtype=np.int64),
            n_relevant=np.array([t.relevant_fields.size for t in trees], dtype=np.int64),
            sum_path_len=np.array([t.sum_path_len for t in trees], dtype=np.float64),
            mean_path_lens=np.array([t.mean_path_len for t in trees], dtype=np.float64),
            relevant_fields=cat("relevant_fields"),
            **scalars,
        )

    # -- the cycle -------------------------------------------------------------------

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

    def _rest_relevant(self) -> int:
        """``relevant_fields`` entries of the first ``rest`` trees."""
        return int(self.n_relevant[: self.rest].sum())

    # -- extrapolation -----------------------------------------------------------------

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
        return replace(
            self,
            spec=self.spec.with_records(max(1, int(round(self.spec.n_records * factor)))),
            n_reach=np.round(self.n_reach * factor).astype(np.int64),
            n_binned=np.round(self.n_binned * factor).astype(np.int64),
            sum_path_len=self.sum_path_len * factor,
            measured=False,
        )

    def with_trees_scaled(self, n_trees_target: int) -> "WorkProfile":
        """Extrapolate to the paper's tree count (500) by replicating the
        measured per-tree work cyclically.  Per-tree work is statistically
        homogeneous after the first few boosting rounds, and every reported
        metric is a ratio of sums over trees.  The copy keeps this profile's
        arrays and records the cycle, so no array is replicated; only a
        profile of explicit trees can be cycled."""
        if n_trees_target < 1:
            raise ValueError("n_trees_target must be >= 1")
        if (self.full, self.rest) != (1, 0):
            raise ValueError("profile is already cycled; cycle its uncycled source")
        if not self.n_nodes.size:
            return self
        full, rest = divmod(n_trees_target, self.n_nodes.size)
        return replace(self, full=full, rest=rest, measured=False)

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
        return self.full * self.n_nodes.size + self.rest

    def total_nodes(self) -> int:
        """Tree nodes across the run (table entries replicated per tree)."""
        return self.tree_total(self.n_nodes)

    # -- step 1: histogram binning ---------------------------------------------

    def binned_records(self) -> float:
        """Total records explicitly binned across all nodes and trees."""
        return float(self.node_total(self.n_binned))

    def binned_nodes(self) -> int:
        """Nodes with an explicitly binned histogram, all trees."""
        return self.node_total(self.binned)

    def binned_record_fields(self) -> float:
        """Total (record, field) histogram updates -- the step-1 op count."""
        return self.binned_records() * self.n_fields

    def step1_bytes(self, layout: RecordLayout) -> float:
        """DRAM bytes for step 1: pointer stream + row-major records + g/h."""
        binned = self.binned_nonzero
        if binned.size == 0:
            return 0.0
        rows = layout.row_bytes_gather(binned, self.n_records)
        pointers = layout.pointer_bytes(binned)
        return float(
            np.sum(self.per_node(rows, self.binned))
            + self.step1_stats_bytes(layout)
            + np.sum(self.per_node(pointers, self.binned))
        )

    def step1_stats_bytes(self, layout: RecordLayout) -> float:
        """The g/h gathers of step 1 alone (a part of :meth:`step1_bytes`)."""
        stats = layout.stats_bytes_gather(self.binned_nonzero, self.n_records)
        return float(np.sum(self.per_node(stats, self.binned)))

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
        return self.node_total(self.split_evaluated)

    # -- step 3: single-predicate evaluation ---------------------------------------

    def split_nodes(self) -> int:
        """Interior (split) nodes, all trees."""
        return self.node_total(self.is_split)

    def partition_records(self) -> float:
        """Total records partitioned at split nodes (step-3 op count)."""
        return float(self.node_total(self.split_reach, self.is_split))

    def step3_bytes(self, layout: RecordLayout, column_format: bool) -> float:
        """DRAM bytes for step 3.

        With the redundant column format only the predicate's single-field
        column is gathered; without it the whole row-major record is fetched
        to use one field (the waste the paper's third contribution removes).
        Both variants read and write the record-pointer streams.
        """
        n = self.n_records
        reach = self.split_reach
        if reach.size == 0:
            return 0.0
        if column_format:
            gathers = layout.column_bytes_gather(self.split_fields, reach, n)
        else:
            gathers = layout.row_bytes_gather(reach, n)
        total = float(np.sum(self.per_node(gathers, self.is_split)))
        # Read the incoming pointer stream, write true/false streams.
        pointers = self.per_node(layout.pointer_bytes(reach), self.is_split)
        return total + 2.0 * float(np.sum(pointers))

    # -- step 5: one-tree traversal --------------------------------------------------

    def traversal_hops(self) -> float:
        """Total interior-node visits over all records and trees."""
        return float(self.per_tree(self.sum_path_len).sum())

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
            fields = self.relevant_fields
            total = self.full * layout.column_bytes_sequential(fields, n)
            total += layout.column_bytes_sequential(fields[: self._rest_relevant()], n)
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
        if not self.n_nodes.size:
            raise ValueError("ensemble needs at least one tree")
        measured_trees = self.n_trees
        target = measured_trees if n_trees_target is None else n_trees_target
        if target < 1:
            raise ValueError("n_trees_target must be >= 1")
        scale = target / measured_trees
        # Per-tree hop counts are integers stored as floats, so this sum is
        # exact: a walk adding them tree by tree gets the same value.
        sum_len = self.traversal_hops()
        n_nodes = int(self.n_nodes.sum())
        return InferenceWork(
            spec=self.spec,
            n_records=self.n_records,
            n_trees=target,
            max_depth=int(self.depth.max()),
            sum_path_len=sum_len * scale,
            path_len_cv=self.path_len_cv,
            table_bytes_total=float(NODE_ENTRY_BYTES * n_nodes) * scale,
        )

    # -- whole-run summaries -----------------------------------------------------------

    def mean_leaf_depth(self) -> float:
        if self.depth.size == 0:
            return 0.0
        # Integer depth totals: the exact quotient ``np.mean`` also rounds.
        leaves = ~self.is_split
        return self.node_total(self.depth[leaves], leaves) / self.node_total(leaves)

    def mean_path_len(self) -> float:
        if not self.n_nodes.size:
            return 0.0
        return float(np.mean(self.per_tree(self.mean_path_lens)))

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
    sum_path_len: float
    path_len_cv: float
    table_bytes_total: float

    def scaled(self, factor: float) -> "InferenceWork":
        """Extrapolate to a larger/smaller record count, returning a copy.

        Totals (record count, summed path length) scale linearly; per-record
        statistics (max depth, divergence) and per-ensemble quantities (tree
        count, table bytes) are record-count invariant.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        n = max(1, int(round(self.n_records * factor)))
        return InferenceWork(
            spec=self.spec.with_records(n),
            n_records=n,
            n_trees=self.n_trees,
            max_depth=self.max_depth,
            sum_path_len=self.sum_path_len * factor,
            path_len_cv=self.path_len_cv,
            table_bytes_total=self.table_bytes_total,
        )

    @property
    def total_hops_actual(self) -> float:
        """CPU/GPU traversal work: actual interior hops."""
        return self.sum_path_len
