"""Equivalence oracles for the production GBDT kernels and serving queue.

Plain, slow statements of what the vectorized paths in ``repro.gbdt``,
``repro.serving``, ``repro.memory`` and ``repro.core`` must compute.  Tests
pin the production code bit-identical to them (to 1e-12 where a float sum
is re-associated):

* :func:`build_brute_force` -- histogram binning with pure Python loops;
* :func:`best_split_many` -- the dense split search: every bin of every
  vertex scored, no bin compaction;
* :class:`LevelWiseOracle` -- level-by-level tree growth (Sec. II-A), one
  vertex at a time, with the smaller-child subtraction at every level, every
  vertex searched and step 5 as a walk of the finished tree;
* :func:`simulate_oracle` -- the serving queue as a heap-driven
  discrete-event loop, one dispatch at a time;
* :class:`ChannelSim` and :func:`dram_run_oracle` -- the DRAM oracle: one
  channel's FR-FCFS scheduler as a ``while pending`` loop, one request per
  iteration, and a trace run channel by channel through it;
* :func:`admit_records` -- step-1 record admission into the BU replicas,
  earliest-free replica first, one record at a time;
* :func:`tree_works` -- a profile's trees, one :class:`TreeWork` each, laid
  out over its cycle;
* :func:`binned_records` ... :func:`step5_bytes` -- the whole-run
  :class:`~repro.gbdt.workprofile.WorkProfile` reductions as per-tree loops
  over :func:`tree_works` instead of sums over the concatenated arrays;
* :func:`inference_work` -- batch-inference work measured by walking every
  record through every tree again, instead of reading training's step-5
  walk off the profile;
* :func:`quantile_bin_edges` -- numerical bin edges by ``np.quantile`` over
  the finite values, instead of read off one sort per column;
* :func:`warp_conflict_factor` -- warp bin conflicts measured field by field,
  counting each warp's runs with ``np.add.at``.

They live here, not in ``src``: nothing in the package runs them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.datasets.encoding import BinnedDataset
from repro.datasets.layout import RecordLayout
from repro.gbdt import GBDTTrainer
from repro.gbdt.histogram import Histogram, HistogramBuilder
from repro.gbdt.split import SplitDecision, SplitSearcher, _no_split, leaf_weight
from repro.gbdt.tree import NODE_ENTRY_BYTES, Tree
from repro.gbdt.workprofile import InferenceWork, TreeWork, WorkProfile
from repro.memory import DRAMConfig, DRAMStats
from repro.memory.address import AddressMapping
from repro.serving.params import POLICIES, QUEUE_DISCIPLINES
from repro.serving.simulator import FloatArray, IntArray, QueueTrace

__all__ = [
    "BankState",
    "ChannelSim",
    "LevelWiseOracle",
    "admit_records",
    "best_split_many",
    "binned_records",
    "build_brute_force",
    "dram_run_oracle",
    "inference_work",
    "partition_records",
    "quantile_bin_edges",
    "simulate_oracle",
    "step1_bytes",
    "step2_evaluations",
    "step3_bytes",
    "step5_bytes",
    "traversal_hops",
    "tree_works",
    "warp_conflict_factor",
]


def build_brute_force(
    builder: HistogramBuilder, index: np.ndarray, g: np.ndarray, h: np.ndarray
) -> Histogram:
    """``builder.build`` with one scalar update per (record, field)."""
    count = np.zeros(builder.n_bins, dtype=np.float64)
    grad = np.zeros(builder.n_bins, dtype=np.float64)
    hess = np.zeros(builder.n_bins, dtype=np.float64)
    for i in index:
        for j in range(builder.data.n_fields):
            b = int(builder.offsets[j]) + int(builder.data.codes[i, j])
            count[b] += 1.0
            grad[b] += g[i]
            hess[b] += h[i]
    return Histogram(count=count, grad=grad, hess=hess)


def best_split_many(
    searcher: SplitSearcher,
    count: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    g_tot: np.ndarray,
    h_tot: np.ndarray,
    c_tot: np.ndarray,
) -> list[SplitDecision]:
    """The dense best-split search, batched over ``k`` vertices.

    ``count``/``grad``/``hess`` are ``(k, n_bins)`` stacked histograms
    (row ``j`` = vertex ``j``) and the totals are length-``k`` arrays.  Every
    candidate gain of every row is scored; the per-row argmax scans the
    flattened ``(variant, bin)`` order, which is the tie-breaking
    ``SplitSearcher.best_split`` must reproduce while skipping bins.
    """
    count = np.atleast_2d(np.asarray(count, dtype=np.float64))
    grad = np.atleast_2d(np.asarray(grad, dtype=np.float64))
    hess = np.atleast_2d(np.asarray(hess, dtype=np.float64))
    k = count.shape[0]
    if count.shape[1] != searcher.n_bins:
        raise ValueError("histogram matrix does not match this dataset's bin space")
    if not (count.shape == grad.shape == hess.shape):
        raise ValueError("histogram matrices must share a shape")
    g_tot = np.asarray(g_tot, dtype=np.float64).reshape(k)
    h_tot = np.asarray(h_tot, dtype=np.float64).reshape(k)
    c_tot = np.asarray(c_tot, dtype=np.float64).reshape(k)
    if k == 0:
        return []

    starts = searcher.offsets[:-1]
    sizes = np.diff(searcher.offsets)

    def seg_cumsum_rows(values: np.ndarray) -> np.ndarray:
        c = np.cumsum(values, axis=1)
        base = np.repeat(c[:, starts] - values[:, starts], sizes, axis=1)
        return c - base

    cum_g = cum_h = cum_c = None
    if searcher._has_num:
        cum_g = seg_cumsum_rows(grad)
        cum_h = seg_cumsum_rows(hess)
        cum_c = seg_cumsum_rows(count)

    miss_idx = searcher.offsets[1:] - 1
    g_miss = np.repeat(grad[:, miss_idx], sizes, axis=1)
    h_miss = np.repeat(hess[:, miss_idx], sizes, axis=1)
    c_miss = np.repeat(count[:, miss_idx], sizes, axis=1)

    gt, ht, ct = g_tot[:, None], h_tot[:, None], c_tot[:, None]
    rows_idx = np.arange(k)

    # Per-band winners in variant order, minus the candidate-free families
    # (uniformly -inf, can never win).  The two-stage argmax -- first bin
    # within each band, then band -- scans the same (variant, bin) C order as
    # one argmax over the stacked bands, so ties break identically.
    variant_ids: list[int] = []
    band_args: list[np.ndarray] = []
    band_maxes: list[np.ndarray] = []

    def add_band(
        gl: np.ndarray, hl: np.ndarray, cl: np.ndarray, candidate: np.ndarray, variant: int
    ) -> None:
        band = searcher._gain(gl, hl, cl, gt, ht, ct)
        band[:, ~candidate] = -np.inf
        arg = np.argmax(band, axis=1)
        band_args.append(arg)
        band_maxes.append(band[rows_idx, arg])
        variant_ids.append(variant)

    if searcher._has_num:
        add_band(cum_g, cum_h, cum_c, searcher._num_candidate, 0)
        add_band(cum_g + g_miss, cum_h + h_miss, cum_c + c_miss, searcher._num_candidate, 1)
    if searcher._has_cat:
        add_band(grad, hess, count, searcher._cat_candidate, 2)
        add_band(grad + g_miss, hess + h_miss, count + c_miss, searcher._cat_candidate, 3)

    if band_maxes:
        max_stack = np.stack(band_maxes)  # (bands, k)
        band_best = np.argmax(max_stack, axis=0)
        best_gains = max_stack[band_best, rows_idx]
        variants = np.asarray(variant_ids, dtype=np.int64)[band_best]
        bin_idxs = np.stack(band_args)[band_best, rows_idx]
    else:  # no candidate bins anywhere: every vertex is a no-split
        best_gains = np.full(k, -np.inf)
        variants = np.zeros(k, dtype=np.int64)
        bin_idxs = np.zeros(k, dtype=np.int64)

    decisions: list[SplitDecision] = []
    for j in range(k):
        best_gain = float(best_gains[j])
        if not np.isfinite(best_gain) or best_gain <= 0.0:
            decisions.append(_no_split(best_gain, g_tot[j], h_tot[j], c_tot[j]))
            continue
        variant = int(variants[j])
        bin_idx = int(bin_idxs[j])
        missing_left = variant in (1, 3)
        is_cat = variant >= 2
        if is_cat:
            gl_v = float(grad[j, bin_idx])
            hl_v = float(hess[j, bin_idx])
            cl_v = float(count[j, bin_idx])
        else:
            gl_v = float(cum_g[j, bin_idx])
            hl_v = float(cum_h[j, bin_idx])
            cl_v = float(cum_c[j, bin_idx])
        if missing_left:
            gl_v += float(g_miss[j, bin_idx])
            hl_v += float(h_miss[j, bin_idx])
            cl_v += float(c_miss[j, bin_idx])
        decisions.append(
            SplitDecision(
                field=int(searcher._field_of_bin[bin_idx]),
                threshold_bin=int(searcher._local_bin[bin_idx]),
                is_categorical=is_cat,
                missing_left=missing_left,
                gain=best_gain,
                grad_left=gl_v,
                hess_left=hl_v,
                count_left=cl_v,
                grad_right=float(g_tot[j]) - gl_v,
                hess_right=float(h_tot[j]) - hl_v,
                count_right=float(c_tot[j]) - cl_v,
            )
        )
    return decisions


@dataclass
class _LevelNode:
    """One live vertex during level-wise growth."""

    tree_node: int  # id in the Tree being built
    g_tot: float
    h_tot: float
    c_tot: float
    hist: Histogram | None = None
    binned_here: int = 0  # records explicitly binned for this vertex
    n_reach: int = 0


class LevelWiseOracle(GBDTTrainer):
    """``GBDTTrainer`` with trees grown level by level (Sec. II-A).

    Every record carries its current vertex; each level evaluates all live
    vertices, then one pass re-assigns the records of every vertex that
    split and bins each split's smaller child (the sibling is the parent's
    histogram minus it).  Level-local vertex ids run ``0..L-1``; split ``i``
    of a level owns children ``2i`` and ``2i + 1`` of the next, which is the
    breadth-first order the vertex-by-vertex trainer's queue produces.  So
    the tree, its ``TreeWork`` arrays and the smaller-child fractions must
    match ``GBDTTrainer`` exactly.
    """

    def _grow_tree(
        self, g: np.ndarray, h: np.ndarray
    ) -> tuple[Tree, TreeWork, list[float], np.ndarray | None, np.ndarray, np.ndarray]:
        data = self.data
        params = self.params
        n = data.n_records
        tree = Tree(data.spec)

        depths: list[int] = []
        reaches: list[int] = []
        binneds: list[int] = []
        evals: list[bool] = []
        issplits: list[bool] = []
        sfields: list[int] = []
        child_fracs: list[float] = []

        root_hist = self.builder.build(np.arange(n, dtype=np.int64), g, h)
        root_counts = root_hist.count.copy()
        root = _LevelNode(
            tree_node=-1,  # assigned below
            g_tot=float(g.sum()),
            h_tot=float(h.sum()),
            c_tot=float(n),
            hist=root_hist,
            binned_here=n,
            n_reach=n,
        )
        live = {0: root}  # level-local vertex id -> node state
        vertex_of_record = np.zeros(n, dtype=np.int64)
        # Vertex bookkeeping of the level above: child vid -> (parent vid,
        # is_left) and parent vid -> tree node id.
        parent_of: dict[int, tuple[int, bool]] = {}
        parent_node_ids: dict[int, int] = {}

        for depth in range(params.max_depth + 1):
            if not live:
                break
            splits_this_level: dict[int, SplitDecision] = {}

            # Step 2 for every vertex at this level (one host round trip).
            for vid, node in live.items():
                can_split = (
                    depth < params.max_depth
                    and node.n_reach >= 2 * params.split.min_child_records
                    and node.hist is not None
                )
                decision = None
                if can_split:
                    decision = self.searcher.best_split(
                        node.hist, node.g_tot, node.h_tot, node.c_tot
                    )
                is_split = decision is not None and decision.valid

                depths.append(depth)
                reaches.append(node.n_reach)
                binneds.append(node.binned_here)
                evals.append(bool(can_split))

                if not is_split:
                    issplits.append(False)
                    sfields.append(-1)
                    w = params.learning_rate * leaf_weight(
                        node.g_tot, node.h_tot, params.split.lambda_
                    )
                    node.tree_node = tree.add_leaf(depth, w)
                else:
                    assert decision is not None
                    issplits.append(True)
                    sfields.append(decision.field)
                    node.tree_node = tree.add_split(
                        depth,
                        decision.field,
                        decision.threshold_bin,
                        decision.is_categorical,
                        decision.missing_left,
                    )
                    splits_this_level[vid] = decision

            # Attach children pointers now that parents have real node ids.
            if depth > 0:
                for vid, node in live.items():
                    parent_vid, is_left = parent_of[vid]
                    parent_node = parent_node_ids[parent_vid]
                    if is_left:
                        tree.set_children(parent_node, node.tree_node, tree.right[parent_node])
                    else:
                        tree.set_children(parent_node, tree.left[parent_node], node.tree_node)

            if not splits_this_level:
                break

            parent_node_ids = {vid: node.tree_node for vid, node in live.items()}
            live, parent_of, vertex_of_record, fracs = self._partition_level(
                live, splits_this_level, vertex_of_record, g, h, depth
            )
            child_fracs.extend(fracs)

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
        # Step 5: walk the finished tree with every record.
        leaf_weights, path_lens = tree.predict(data.codes, return_depth=True)
        return tree, work, child_fracs, root_counts, leaf_weights, path_lens

    def _partition_level(
        self,
        live: dict[int, _LevelNode],
        splits: dict[int, SplitDecision],
        vertex_of_record: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        depth: int,
    ) -> tuple[dict[int, _LevelNode], dict[int, tuple[int, bool]], np.ndarray, list[float]]:
        """Steps 3 + 1 for one level: per-vertex record scans and builds."""
        data = self.data
        params = self.params
        n = vertex_of_record.shape[0]
        next_live: dict[int, _LevelNode] = {}
        parent_of: dict[int, tuple[int, bool]] = {}
        fracs: list[float] = []
        new_assignment = np.full(n, -1, dtype=np.int64)
        next_vid = 0
        explicit_children: list[tuple[int, np.ndarray]] = []
        for vid, decision in splits.items():
            member = np.nonzero(vertex_of_record == vid)[0]
            codes = data.codes[member, decision.field].astype(np.int64)
            fspec = data.spec.fields[decision.field]
            missing = codes == fspec.missing_bin
            if decision.is_categorical:
                left = codes == decision.threshold_bin
            else:
                left = codes <= decision.threshold_bin
            left = np.where(missing, decision.missing_left, left)
            left_idx = member[left]
            right_idx = member[~left]
            fracs.append(min(left_idx.size, right_idx.size) / max(member.size, 1))

            lvid, rvid = next_vid, next_vid + 1
            next_vid += 2
            new_assignment[left_idx] = lvid
            new_assignment[right_idx] = rvid
            parent_of[lvid] = (vid, True)
            parent_of[rvid] = (vid, False)
            next_live[lvid] = _LevelNode(
                tree_node=-1,
                g_tot=decision.grad_left,
                h_tot=decision.hess_left,
                c_tot=decision.count_left,
                n_reach=int(left_idx.size),
            )
            next_live[rvid] = _LevelNode(
                tree_node=-1,
                g_tot=decision.grad_right,
                h_tot=decision.hess_right,
                c_tot=decision.count_right,
                n_reach=int(right_idx.size),
            )
            # Smaller-child rule, per vertex: bin the smaller explicitly,
            # derive the sibling by subtraction.
            if depth + 1 < params.max_depth:
                small_vid = lvid if left_idx.size <= right_idx.size else rvid
                small_idx = left_idx if small_vid == lvid else right_idx
                explicit_children.append((small_vid, small_idx))

        for small_vid, small_idx in explicit_children:
            small_hist = self.builder.build(small_idx, g, h)
            next_live[small_vid].hist = small_hist
            next_live[small_vid].binned_here = int(small_idx.size)
            parent_vid, small_is_left = parent_of[small_vid]
            sibling_vid = small_vid + 1 if small_is_left else small_vid - 1
            parent_hist = live[parent_vid].hist
            assert parent_hist is not None
            next_live[sibling_vid].hist = parent_hist.subtract(small_hist)

        return next_live, parent_of, new_assignment, fracs


def simulate_oracle(
    times: FloatArray,
    priorities: IntArray,
    *,
    policy: str,
    max_batch: int,
    timeout_s: float,
    queue: str,
    records_per_request: int,
    service_seconds: Callable[[int], float],
) -> QueueTrace:
    """The heap-driven event loop, for every policy and queue discipline.

    Pool entries are ``(rank, arrival, index)``; ``service_seconds`` is
    called once per dispatched batch.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown batching policy {policy!r}; known: {list(POLICIES)}")
    if queue not in QUEUE_DISCIPLINES:
        raise ValueError(
            f"unknown queue discipline {queue!r}; known: {list(QUEUE_DISCIPLINES)}"
        )
    if max_batch < 1 or records_per_request < 1:
        raise ValueError("max_batch and records_per_request must be >= 1")
    if not math.isfinite(timeout_s) or timeout_s < 0:
        raise ValueError(f"timeout_s must be finite and >= 0, got {timeout_s!r}")
    order = np.argsort(times, kind="stable")
    ts = np.asarray(times, dtype=np.float64)[order]
    ranks = np.asarray(priorities, dtype=np.int64)[order]
    n = int(ts.size)
    latencies = np.zeros(n, dtype=np.float64)
    if n == 0:
        return QueueTrace(latencies_s=latencies)

    use_priority = queue == "priority"
    cap = 1 if policy == "immediate" else max_batch
    # Pool entries are (rank, arrival, index): heap order IS the service
    # order -- FIFO collapses rank to 0, priority serves lower values first.
    pool: list[tuple[int, float, int]] = []
    i = 0
    free_at = 0.0
    max_depth = 0
    batch_sizes: list[int] = []
    dispatch_times: list[float] = []
    depths: list[int] = []

    def admit_until(t: float) -> int:
        """Move every arrival at or before ``t`` into the pool."""
        nonlocal i, max_depth
        admitted = 0
        while i < n and float(ts[i]) <= t:
            rank = int(ranks[i]) if use_priority else 0
            heapq.heappush(pool, (rank, float(ts[i]), i))
            i += 1
            admitted += 1
        max_depth = max(max_depth, len(pool))
        return admitted

    while i < n or pool:
        if not pool:
            admit_until(float(ts[i]))  # idle server: jump to the next arrival
            continue
        # The batch window opens when the server is free AND the request it
        # would serve first is waiting.
        open_t = max(free_at, pool[0][1])
        if admit_until(open_t):
            continue  # new arrivals may change the (priority) head; recompute
        dispatch_t = open_t
        if policy == "timeout" and timeout_s > 0 and len(pool) < cap:
            deadline = open_t + timeout_s
            while i < n and len(pool) < cap and float(ts[i]) <= deadline:
                t_next = float(ts[i])
                admit_until(t_next)
                dispatch_t = max(open_t, t_next)
            if len(pool) < cap:
                # The window expired unfilled; the server launches what it
                # has at the deadline (it could not know nothing more was
                # coming).
                dispatch_t = deadline
        k = min(cap, len(pool))
        members = [heapq.heappop(pool) for _ in range(k)]
        cost = float(service_seconds(k * records_per_request))
        if not math.isfinite(cost) or cost <= 0:
            raise ValueError(
                f"service_seconds({k * records_per_request}) must be finite "
                f"and positive, got {cost!r}"
            )
        done_t = dispatch_t + cost
        for _, arrival, idx in members:
            latencies[idx] = done_t - arrival
        free_at = done_t
        batch_sizes.append(k)
        dispatch_times.append(dispatch_t)
        depths.append(len(pool))

    return QueueTrace(
        latencies_s=latencies,
        batch_sizes=np.array(batch_sizes, dtype=np.int64),
        dispatch_s=np.array(dispatch_times, dtype=np.float64),
        queue_depth=np.array(depths, dtype=np.int64),
        first_arrival_s=float(ts[0]),
        last_finish_s=free_at,
        max_queue_depth=max_depth,
    )


@dataclass
class BankState:
    """Row-buffer and timing state of one bank (open-page policy)."""

    open_row: int = -1
    act_time: int = -(10**9)  # when the current row was activated
    row_ready_at: int = 0  # act_time + tRCD: first RD allowed
    precharged_at: int = 0  # when the bank finished precharging
    rd_ready_at: int = 0  # earliest next RD (column-to-column spacing)

    def is_hit(self, row: int) -> bool:
        return self.open_row == row


class ChannelSim:
    """One channel: 16 banks, a data bus, and an FR-FCFS scheduling window."""

    def __init__(self, config: DRAMConfig, window: int = 16) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.config = config
        self.window = window
        self.banks = [BankState() for _ in range(config.n_banks)]
        self.bus_free_at = 0
        self.row_hits = 0

    def _service(self, arrival: int, bank_ix: int, row: int) -> int:
        """Issue one block read; returns the data completion cycle."""
        cfg = self.config
        bank = self.banks[bank_ix]
        now = max(arrival, 0)

        if bank.is_hit(row):
            self.row_hits += 1
            rd_issue = max(now, bank.row_ready_at, bank.rd_ready_at)
        else:
            if bank.open_row >= 0:
                # Row conflict: precharge (respecting tRAS), then activate.
                pre_issue = max(now, bank.act_time + cfg.t_ras, bank.rd_ready_at)
                bank.precharged_at = pre_issue + cfg.t_rp
            # Closed bank (or just precharged): activate the new row.
            act_issue = max(now, bank.precharged_at)
            bank.open_row = row
            bank.act_time = act_issue
            bank.row_ready_at = act_issue + cfg.t_rcd
            rd_issue = bank.row_ready_at
        data_start = max(rd_issue + cfg.t_cas, self.bus_free_at)
        completion = data_start + cfg.burst_cycles
        self.bus_free_at = completion
        # Back-to-back column commands on one bank are spaced by the burst.
        bank.rd_ready_at = rd_issue + cfg.burst_cycles
        return completion

    def run_reference(
        self, arrivals: np.ndarray, banks: np.ndarray, rows: np.ndarray
    ) -> tuple[int, float]:
        """FR-FCFS service of a request stream; returns (makespan, latency sum).

        The scheduler looks at the next ``window`` pending requests and
        services a row-buffer hit first (first-ready), falling back to the
        oldest request -- DRAMSim2's default policy.  Scalar reference
        implementation; ``repro.memory.dram.serve_lanes`` reproduces this
        schedule exactly, lane by lane.
        """
        n = len(arrivals)
        if n == 0:
            return 0, 0.0
        pending = list(range(n))
        latency_sum = 0.0
        makespan = 0
        while pending:
            # Only *arrived* requests are eligible for first-ready selection;
            # a scheduler cannot reorder around the future.  The channel's
            # notion of "now" is its bus progress, or the oldest pending
            # arrival when the bus has run dry.
            now = max(self.bus_free_at, int(arrivals[pending[0]]))
            limit = min(self.window, len(pending))
            chosen = 0
            for k in range(limit):
                ix = pending[k]
                if int(arrivals[ix]) > now:
                    continue  # not arrived yet: ineligible for first-ready
                if self.banks[banks[ix]].is_hit(int(rows[ix])):
                    chosen = k
                    break
            ix = pending.pop(chosen)
            done = self._service(int(arrivals[ix]), int(banks[ix]), int(rows[ix]))
            latency_sum += done - int(arrivals[ix])
            if done > makespan:
                makespan = done
        return makespan, latency_sum


def dram_run_oracle(
    addrs: np.ndarray,
    config: DRAMConfig | None = None,
    window: int = 16,
    arrivals: np.ndarray | None = None,
) -> DRAMStats:
    """``DRAMSimulator.run``, one fresh :class:`ChannelSim` per channel."""
    cfg = config or DRAMConfig()
    addrs = np.asarray(addrs, dtype=np.int64)
    if arrivals is None:
        arrivals = np.zeros(addrs.size, dtype=np.int64)
    channel, bank, row, _col = AddressMapping(cfg).decode(addrs)
    makespan = 0
    latency_sum = 0.0
    row_hits = 0
    for ch in range(cfg.n_channels):
        mask = channel == ch
        if not mask.any():
            continue
        sim = ChannelSim(cfg, window)
        span, lat = sim.run_reference(arrivals[mask], bank[mask], row[mask])
        latency_sum += lat
        row_hits += sim.row_hits
        makespan = max(makespan, span)
    return DRAMStats(
        n_requests=int(addrs.size),
        total_cycles=makespan,
        bytes_moved=int(addrs.size) * cfg.block_bytes,
        row_hits=row_hits,
        latency_sum=latency_sum,
        config=cfg,
    )


def admit_records(
    arrivals: np.ndarray, fill: int, per_record: int, replicas: int
) -> tuple[int, int]:
    """``core.engine._admit_records``: earliest-free replica, one record at a time."""
    replica_free = np.zeros(replicas, dtype=np.int64)
    finish = 0
    busy = 0
    for i in range(arrivals.size):
        r = int(np.argmin(replica_free))
        start = max(int(arrivals[i]) + fill, int(replica_free[r]))
        end = start + per_record
        replica_free[r] = end
        busy += per_record
        finish = max(finish, end)
    return finish, busy


# -- WorkProfile reductions, one tree at a time ----------------------------------


def tree_works(profile: WorkProfile) -> list[TreeWork]:
    """Per-tree slices of ``profile``'s arrays, laid out over its cycle:
    ``profile.n_trees`` entries, tree ``i`` being measured tree ``i mod m``.

    Per-tree scalars come back as Python ``float``/``int``, as the trainer
    records them.
    """
    cuts = np.cumsum(profile.n_nodes)[:-1]
    per_node = {
        name: np.split(getattr(profile, name), cuts)
        for name in ("depth", "n_reach", "n_binned", "split_evaluated", "is_split", "split_field")
    }
    fields = np.split(profile.relevant_fields, np.cumsum(profile.n_relevant)[:-1])
    measured = [
        TreeWork(
            **{name: arrays[i] for name, arrays in per_node.items()},
            relevant_fields=fields[i],
            sum_path_len=float(profile.sum_path_len[i]),
            mean_path_len=float(profile.mean_path_lens[i]),
        )
        for i in range(profile.n_nodes.size)
    ]
    return [measured[i % len(measured)] for i in range(profile.n_trees)]


def binned_records(profile: WorkProfile) -> float:
    """``WorkProfile.binned_records`` as a per-tree loop."""
    return float(sum(t.n_binned.sum() for t in tree_works(profile)))


def step1_bytes(profile: WorkProfile, layout: RecordLayout) -> float:
    """``WorkProfile.step1_bytes`` as a per-tree loop."""
    n = profile.n_records
    total = 0.0
    for t in tree_works(profile):
        binned = t.n_binned[t.n_binned > 0]
        if binned.size == 0:
            continue
        total += float(np.sum(layout.row_bytes_gather(binned, n)))
        total += float(np.sum(layout.stats_bytes_gather(binned, n)))
        total += float(np.sum(layout.pointer_bytes(binned)))
    return total


def step2_evaluations(profile: WorkProfile) -> int:
    """``WorkProfile.step2_evaluations`` as a per-tree loop."""
    return int(sum(t.split_evaluated.sum() for t in tree_works(profile)))


def partition_records(profile: WorkProfile) -> float:
    """``WorkProfile.partition_records`` as a per-tree loop."""
    return float(sum(t.n_reach[t.is_split].sum() for t in tree_works(profile)))


def step3_bytes(profile: WorkProfile, layout: RecordLayout, column_format: bool) -> float:
    """``WorkProfile.step3_bytes`` as a per-tree loop."""
    n = profile.n_records
    total = 0.0
    for t in tree_works(profile):
        mask = t.is_split
        if not mask.any():
            continue
        reach = t.n_reach[mask]
        if column_format:
            fields = t.split_field[mask]
            total += float(np.sum(layout.column_bytes_gather(fields, reach, n)))
        else:
            total += float(np.sum(layout.row_bytes_gather(reach, n)))
        total += 2.0 * float(np.sum(layout.pointer_bytes(reach)))
    return total


def traversal_hops(profile: WorkProfile) -> float:
    """``WorkProfile.traversal_hops`` as a per-tree loop."""
    return float(sum(t.sum_path_len for t in tree_works(profile)))


def step5_bytes(profile: WorkProfile, layout: RecordLayout, column_format: bool) -> float:
    """``WorkProfile.step5_bytes`` as a per-tree loop."""
    n = profile.n_records
    total = 0.0
    for t in tree_works(profile):
        if column_format:
            total += layout.column_bytes_sequential(t.relevant_fields.tolist(), n)
        else:
            total += layout.row_bytes_sequential(n)
        total += 2.0 * layout.stats_bytes_sequential(n)  # g/h read + write
        total += float(layout.pointer_bytes(n))  # ground-truth labels
    return total


def inference_work(
    trees: list[Tree], data: BinnedDataset, n_trees_target: int | None = None
) -> InferenceWork:
    """``WorkProfile.inference_work`` by walking ``data`` through ``trees``."""
    if not trees:
        raise ValueError("ensemble needs at least one tree")
    codes = data.codes
    sum_len = 0.0
    sq_sum = 0.0
    count = 0
    max_depth = 0
    table_bytes = 0.0
    for t in trees:
        _, depths = t.predict(codes, return_depth=True)
        sum_len += float(depths.sum())
        sq_sum += float(np.square(depths, dtype=np.float64).sum())
        count += int(depths.size)
        max_depth = max(max_depth, t.max_depth)
        table_bytes += NODE_ENTRY_BYTES * t.n_nodes

    measured_trees = len(trees)
    target = measured_trees if n_trees_target is None else n_trees_target
    scale = target / measured_trees
    mean_len = sum_len / count if count else 0.0
    var = max(sq_sum / count - mean_len * mean_len, 0.0) if count else 0.0
    cv = float(np.sqrt(var) / mean_len) if mean_len > 0 else 0.0
    return InferenceWork(
        spec=data.spec,
        n_records=codes.shape[0],
        n_trees=target,
        max_depth=max_depth,
        sum_path_len=sum_len * scale,
        path_len_cv=cv,
        table_bytes_total=table_bytes * scale,
    )


def quantile_bin_edges(values: np.ndarray, n_bins: int) -> np.ndarray:
    """The ``n_bins - 1`` interior quantile edges by ``np.quantile``."""
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return np.zeros(n_bins - 1, dtype=np.float64)
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    return np.quantile(finite, qs).astype(np.float64)


def warp_conflict_factor(codes: np.ndarray, warp: int = 32, sample: int = 4096) -> float:
    """Mean over fields of each field's mean per-warp maximum bin multiplicity."""
    n, n_fields = codes.shape
    use = min(n, sample)
    use -= use % warp
    if use < warp:
        return 1.0
    factors = np.empty(n_fields, dtype=np.float64)
    for j in range(n_fields):
        groups = np.sort(codes[:use, j].reshape(-1, warp), axis=1)
        n_rows = groups.shape[0]
        change = np.ones((n_rows, warp), dtype=np.int64)
        change[:, 1:] = (groups[:, 1:] != groups[:, :-1]).astype(np.int64)
        run_id = np.cumsum(change, axis=1) - 1
        counts = np.zeros((n_rows, warp), dtype=np.int64)
        np.add.at(counts, (np.repeat(np.arange(n_rows), warp), run_id.ravel()), 1)
        factors[j] = counts.max(axis=1).mean()
    return float(factors.mean())
