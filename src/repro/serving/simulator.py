"""Single-server discrete-event loop: arrivals x batching policy x queue.

The server is the accelerator (or baseline) running batch inference: at
any moment it is either idle or executing one batch whose cost comes from
the caller's ``service_seconds(n_records)`` function (in practice a
memoized :meth:`~repro.baselines.base.HardwareModel.inference_seconds`
over :meth:`~repro.gbdt.workprofile.InferenceWork.scaled` work).  Requests
queue while it is busy; the batching policy decides when the next batch
launches and how many queued requests it takes:

* ``immediate`` -- one request per batch, launched as soon as the server
  is free and a request is waiting;
* ``batch`` -- greedy max-batch-N: when the server frees, take up to
  ``max_batch`` of the requests already waiting;
* ``timeout`` -- microbatching: once the server is free and the
  next-to-be-served request is waiting, hold the batch open up to
  ``timeout_s`` for it to fill to ``max_batch``, then launch.

The queue discipline orders the pool: ``fifo`` by arrival, ``priority``
by the trace's priority value (lower first; ties by arrival).  Everything
is a pure function of its inputs -- no randomness, no wall clock -- so
identical inputs give bit-identical outputs in any process.

Two exact implementations share the work, chosen by the inputs alone:

* the **array path** (:func:`_simulate_arrival_order`) runs the
  ``immediate`` and ``batch`` policies whenever the service order is the
  arrival order: ``queue="fifo"``, or ``queue="priority"`` with one rank
  for every request (generated arrivals all carry priority 0).  It
  speculates that every request is served alone at its arrival, checks
  that guess in one vectorized pass, and replays only the stretches where
  it fails;
* the **event loop** (a heap of ``(rank, arrival, index)``) runs the
  ``timeout`` policy and priority queues with mixed ranks.

Both produce the same :class:`QueueTrace` to the bit, per-batch telemetry
included.  The telemetry is NumPy arrays, so the array path makes Python
objects only for the stretches it replays.  It calls ``service_seconds``
once per distinct batch size, in the order those sizes are first
dispatched; the loop calls it at every dispatch.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from numpy.typing import NDArray

from .params import POLICIES, QUEUE_DISCIPLINES

__all__ = ["QueueTrace", "simulate"]

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]


def _empty(dtype: type) -> Any:
    return field(default_factory=lambda: np.zeros(0, dtype=dtype))


@dataclass
class QueueTrace:
    """Raw outcome of one simulated system: per-request latencies plus the
    queue/batch telemetry the summary statistics are computed from.

    ``latencies_s`` is indexed in arrival-time order (stable-sorted).  The
    other three arrays hold one entry per batch launch, in dispatch order
    -- the natural event grid of a single-server queue: ``batch_sizes``
    (int64 requests served), ``dispatch_s`` (float64 launch time) and
    ``queue_depth`` (int64 requests left waiting at that launch).
    """

    latencies_s: FloatArray
    batch_sizes: IntArray = _empty(np.int64)
    dispatch_s: FloatArray = _empty(np.float64)
    queue_depth: IntArray = _empty(np.int64)
    first_arrival_s: float = 0.0
    last_finish_s: float = 0.0
    max_queue_depth: int = 0


def simulate(
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
    """Replay one arrival trace through the single-server batch queue."""
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
    ts = np.asarray(times, dtype=np.float64)
    ranks = np.asarray(priorities, dtype=np.int64)
    if ranks.shape != ts.shape:
        raise ValueError(f"{ranks.size} priorities for {ts.size} arrival times")
    if not (ts[1:] >= ts[:-1]).all():  # generated arrivals come sorted
        order = np.argsort(ts, kind="stable")
        ts, ranks = ts[order], ranks[order]
    n = int(ts.size)
    if n == 0:
        return QueueTrace(latencies_s=np.zeros(0, dtype=np.float64))

    use_priority = queue == "priority"
    cap = 1 if policy == "immediate" else max_batch
    one_rank = not use_priority or bool((ranks == ranks[0]).all())
    if policy != "timeout" and one_rank:
        return _simulate_arrival_order(ts, cap, records_per_request, service_seconds)
    latencies = np.zeros(n, dtype=np.float64)
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
        done_t = dispatch_t + _checked_cost(service_seconds, k * records_per_request)
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


def _checked_cost(service_seconds: Callable[[int], float], n_records: int) -> float:
    cost = float(service_seconds(n_records))
    if not math.isfinite(cost) or cost <= 0:
        raise ValueError(f"service_seconds({n_records}) must be finite and positive, got {cost!r}")
    return cost


def _simulate_arrival_order(
    ts: FloatArray,
    cap: int,
    records_per_request: int,
    service_seconds: Callable[[int], float],
) -> QueueTrace:
    """The event loop for a pool served in arrival order, as array passes.

    Every batch is then a contiguous run of the sorted arrivals ``ts``.
    Request ``q`` is an *idle start* when it arrives strictly after the
    previous completion and (for ``cap > 1``) strictly before the next
    arrival: the server is free and nothing else waits, so ``q``
    dispatches alone at ``ts[q]`` and finishes at ``ts[q] + c(1)`` -- the
    loop's own ``dispatch_t + cost``.  One pass speculates that for every
    request and flags each ``q`` with ``ts[q] <= done[q - 1]``.  An
    unflagged request after an idle start is an idle start too, so only
    the flagged stretches need the loop: :func:`replay` reruns each from
    the idle start ``q - 1`` before it up to the next idle start.  Batch
    sizes, dispatch times and queue depths then follow from the schedule.
    """
    n = int(ts.size)
    costs: dict[int, float] = {}

    def cost(k: int) -> float:
        c = costs.get(k)
        if c is None:
            c = costs[k] = _checked_cost(service_seconds, k * records_per_request)
        return c

    # The replayed batches, in dispatch order: head index, size, dispatch
    # time and completion time.
    r_head: list[int] = []
    r_size: list[int] = []
    r_start: list[float] = []
    r_end: list[float] = []

    def replay(h: int, free: float) -> tuple[int, float]:
        """Run the loop from batch head ``h`` on a server free at ``free``
        until the next idle start; return its index (``n`` at the end) and
        the completion time before it."""
        # ``tl[j] == ts[base + j]`` as Python floats, converted only as far
        # as the run reads: replays usually cover a small share of ``ts``.
        base = h
        tl: list[float] = []
        while True:
            # A batch reads at most ``ts[h : h + cap + 2]``: its admission
            # search, then the two arrivals after it.
            end = min(n, h + cap + 2)
            if base + len(tl) < end:
                tl += ts[base + len(tl) : max(end, base + 2 * len(tl))].tolist()
            j = h - base
            dispatch_t = max(free, tl[j])
            k = bisect_right(tl, dispatch_t, j, min(n, h + cap) - base) - j
            free = dispatch_t + cost(k)
            r_head.append(h)
            r_size.append(k)
            r_start.append(dispatch_t)
            r_end.append(free)
            h += k
            j += k
            if h == n or (tl[j] > free and (cap == 1 or h + 1 == n or tl[j + 1] > tl[j])):
                return h, free

    done = np.empty(n, dtype=np.float64)
    # The server starts free at 0.0 with nothing queued; the first batch
    # always goes through the loop, which also keeps its ``max(0.0, t)``.
    h, free = replay(0, 0.0)
    if h < n:
        np.add(ts[h:], cost(1), out=done[h:])
        # ``<=`` also flags every tie ``ts[q] == ts[q - 1]``, as c(1) > 0.
        suspect = ts[h + 1 :] <= done[h:-1]
        for q in (np.flatnonzero(suspect) + (h + 1)).tolist():
            if q > h:  # not already covered by the previous replay
                h, free = replay(q - 1, free if q - 1 == h else float(done[q - 2]))

    heads = np.asarray(r_head)
    sizes = np.asarray(r_size)
    # Every request a replayed batch served, batch by batch.
    members = np.arange(int(sizes.sum())) + np.repeat(heads - (np.cumsum(sizes) - sizes), sizes)
    done[members] = np.repeat(r_end, sizes)
    is_head = np.ones(n, dtype=bool)  # speculated requests head their own batch
    is_head[members] = False
    is_head[heads] = True
    heads_all = np.flatnonzero(is_head)
    sizes_all = np.diff(heads_all, append=n)
    replayed = np.searchsorted(heads_all, heads)
    dispatch = ts[heads_all]
    dispatch[replayed] = r_start
    # A speculated head ``q`` is served alone and ``q + 1`` arrives strictly
    # later (else it would have been flagged and ``q`` replayed), so nobody
    # waits at its dispatch.  Only the replayed dispatches count arrivals.
    waiting = np.zeros(heads_all.size, dtype=np.int64)
    r_waiting = np.searchsorted(ts, r_start, side="right") - (heads + sizes)
    waiting[replayed] = r_waiting
    last_finish = float(done[-1])
    return QueueTrace(
        latencies_s=np.subtract(done, ts, out=done),
        batch_sizes=sizes_all,
        dispatch_s=dispatch,
        queue_depth=waiting,
        first_arrival_s=float(ts[0]),
        last_finish_s=last_finish,
        # A speculated batch holds one request with none waiting; the first
        # batch always replays and holds at least one, so the replayed
        # batches hold the maximum.
        max_queue_depth=int((r_waiting + sizes).max()),
    )
