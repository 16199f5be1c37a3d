"""Cycle-level DRAM model: banks, channels, FR-FCFS scheduling.

The model follows DRAMSim2's structure at the granularity the paper's results
depend on: per-bank row-buffer state machines with tRCD/tCAS/tRP/tRAS timing,
an open-page policy, a first-ready-first-come-first-served (FR-FCFS) window
scheduler per channel, and a shared per-channel data bus whose occupancy
(4 cycles per 64 B block) sets the peak bandwidth.  Channels are independent,
exactly as in hardware.

Used two ways:

* directly, to study a trace's bandwidth, row hits and latency;
* through :mod:`repro.memory.profile`, which calibrates the sustained
  streaming bandwidth (~400 GB/s, Table IV) the analytic timing models price
  with, from one 24,000-block sequential stream.

Because channels never interact, each channel of a trace is an independent
*lane* with its own banks, data bus and scheduling window.
:func:`serve_lanes` runs any number of lanes in lock step: every step serves
exactly one request of every lane that has requests left, in a few NumPy
operations over all of them.  :meth:`DRAMSimulator.run` serves a trace's
channels as its lanes (calibration's stream: 24 channels, 24 lanes).

* Bank state lives in flat arrays indexed by ``lane * n_banks + bank``.  A
  step gathers the bank each lane's chosen request addresses, updates it, and
  scatters it back; two lanes never share a bank, so the scatter is exact.
* The FR-FCFS window is a ``(window, lanes)`` array of trace positions.
  First-ready picks the smallest position among the arrived row hits, else
  the smallest position, and the lane's next request takes its place.
* Lanes are sorted longest first, so the lanes still running are a shrinking
  prefix of every per-lane array, sliced once per distinct lane length.

The plain ``while pending`` loop over one channel, one request per
iteration, is the oracle in ``tests/oracles.py``; the tests pin every lane to
it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .address import AddressMapping
from .config import DRAMConfig

__all__ = ["DRAMSimulator", "DRAMStats", "serve_lanes"]


@dataclass
class DRAMStats:
    """Aggregate outcome of one simulated trace."""

    n_requests: int
    total_cycles: int
    bytes_moved: int
    row_hits: int
    latency_sum: float
    config: DRAMConfig

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.n_requests if self.n_requests else 0.0

    @property
    def bytes_per_cycle(self) -> float:
        return self.bytes_moved / self.total_cycles if self.total_cycles else 0.0

    @property
    def sustained_gbps(self) -> float:
        return self.bytes_per_cycle * self.config.clock_ghz

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.n_requests if self.n_requests else 0.0

    @property
    def efficiency(self) -> float:
        """Fraction of peak bandwidth actually delivered."""
        peak = self.config.peak_bytes_per_cycle
        return self.bytes_per_cycle / peak if peak else 0.0


#: Row of the padding request behind the last lane.  Open rows are >= 0 and a
#: closed bank reads -1, so the padding request is never a row hit.
_PAD_ROW = -2


def _narrowest(top: int) -> type[np.signedinteger]:
    """The smallest signed integer type, int16 or wider, that holds ``top``."""
    return next((t for t in (np.int16, np.int32) if top <= np.iinfo(t).max), np.int64)


def serve_lanes(
    config: DRAMConfig,
    window: int,
    bounds: np.ndarray,
    slot: np.ndarray,
    row: np.ndarray,
    arrival: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FR-FCFS service of packed lanes in lock step.

    Lane ``i`` is the request stream at positions ``bounds[i]:bounds[i + 1]``
    of the packed arrays, in trace order: ``slot`` holds ``i * n_banks +
    bank``, ``row`` the row and ``arrival`` the issue cycle of each request.
    Each array has one more entry, at position ``bounds[-1]``: a padding
    request with row ``_PAD_ROW``, which fills the window places of a lane
    whose requests have run out.  ``arrival`` may be a stride-0 view.

    Returns the per-lane makespan, latency sum and row-hit count, in lane
    order, as int64 arrays.
    """
    n_lanes = len(bounds) - 1
    lengths = np.diff(bounds)
    order = np.argsort(-lengths, kind="stable")
    length = lengths[order]
    end = bounds[1:][order]
    pad = int(bounds[-1])
    span = pad + 1  # added to a position, ranks it after every real position

    places = np.arange(window)[:, None]
    start = bounds[:-1][order]
    win = np.where(places < length, start + places, pad)
    head = start + np.minimum(length, window)  # next request to enter the window

    n_slots = n_lanes * config.n_banks
    open_row = np.full(n_slots, -1, dtype=row.dtype)
    act_at = np.full(n_slots, -(10**9), dtype=np.int64)
    row_ready = np.zeros(n_slots, dtype=np.int64)  # act_at + tRCD: first RD
    precharged = np.zeros(n_slots, dtype=np.int64)
    rd_ready = np.zeros(n_slots, dtype=np.int64)  # burst-spaced next RD
    bus = np.zeros(n_lanes, dtype=np.int64)
    latency = np.zeros(n_lanes, dtype=np.int64)
    hits = np.zeros(n_lanes, dtype=np.int64)

    t_cas, t_rp, t_rcd, t_ras = config.t_cas, config.t_rp, config.t_rcd, config.t_ras
    burst = config.burst_cycles
    # A stride-0 ``arrival`` gives every request the same cycle, so every
    # request in a window has arrived by the channel's "now".
    all_arrived = arrival.strides[0] == 0
    steps = 0
    for live in range(n_lanes, 0, -1):
        stop = int(length[live - 1])  # the shortest of the first ``live`` lanes
        if stop <= steps:
            continue
        pos, nxt, last = win[:, :live], head[:live], end[:live]
        bus_l, lat_l, hits_l = bus[:live], latency[:live], hits[:live]
        for _ in range(stop - steps):
            # First-ready among the window's arrived requests.  The channel's
            # "now" is its bus progress, or the oldest arrival once the bus
            # has run dry.
            oldest = pos.min(0)
            ready = open_row.take(slot.take(pos)) == row.take(pos)
            if not all_arrived:
                ready &= arrival.take(pos) <= np.maximum(bus_l, arrival.take(oldest))
            key = pos + span
            np.copyto(key, pos, where=ready)
            first = key.min(0)
            pick = np.where(first < span, first, oldest)
            np.copyto(pos, np.where(nxt < last, nxt, pad), where=pos == pick)
            nxt += 1

            # Service the picked request on its bank.
            s = slot.take(pick)
            r = row.take(pick)
            a = arrival[pick]  # indexed: ``take`` would copy a stride-0 view
            t0 = np.maximum(a, 0)
            was_open = open_row.take(s)
            hit = was_open == r
            miss = ~hit
            act = act_at.take(s)
            ready_at = row_ready.take(s)
            pre = precharged.take(s)
            rd = rd_ready.take(s)
            # Row conflict: precharge (respecting tRAS), then activate.
            conflict = miss & (was_open >= 0)
            np.copyto(pre, np.maximum(np.maximum(t0, act + t_ras), rd) + t_rp, where=conflict)
            act_new = np.maximum(t0, pre)
            np.copyto(act, act_new, where=miss)
            np.copyto(ready_at, act_new + t_rcd, where=miss)
            # A hit reads at max(t0, row ready, rd ready).  A miss reads at the
            # new row-ready cycle, which the same max returns: it is past t0,
            # and past rd ready (0 for a bank never opened, else earlier than
            # the precharge it follows).
            issue = np.maximum(np.maximum(t0, ready_at), rd)
            open_row[s] = r
            act_at[s] = act
            row_ready[s] = ready_at
            precharged[s] = pre
            rd_ready[s] = issue + burst
            # The shared data bus: a transfer starts t_cas after its read,
            # once the previous one has finished.
            np.maximum(issue + t_cas, bus_l, out=bus_l)
            bus_l += burst
            lat_l += bus_l
            lat_l -= a
            hits_l += hit
        steps = stop

    back = np.argsort(order)
    return bus[back], latency[back], hits[back]


class DRAMSimulator:
    """Multi-channel DRAM: distributes block traces and aggregates stats."""

    def __init__(self, config: DRAMConfig | None = None, window: int = 16) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.config = config or DRAMConfig()
        self.window = window
        self.mapping = AddressMapping(self.config)

    def run(self, block_addrs: np.ndarray, arrivals: np.ndarray | None = None) -> DRAMStats:
        """Simulate reads of the given block addresses on a fresh DRAM.

        Every channel is one lane of a single :func:`serve_lanes` call.
        ``arrivals`` defaults to all-at-zero (throughput measurement); pass
        issue cycles to study latency under a paced stream.
        """
        cfg = self.config
        addrs = np.asarray(block_addrs, dtype=np.int64)
        if arrivals is not None and np.shape(arrivals) != addrs.shape:
            raise ValueError("arrivals must match block_addrs in shape")

        # Pack the trace channel-major, with one padding entry at the end.
        # Slot and row take the narrowest signed type that holds them (int16
        # for calibration) to keep the process's peak memory low.
        n_ch, n = cfg.n_channels, addrs.size
        channel, bank, rows, _col = self.mapping.decode(addrs)
        order = np.argsort(channel, kind="stable")
        bounds = np.zeros(n_ch + 1, dtype=np.int64)
        bounds[1:] = np.cumsum(np.bincount(channel, minlength=n_ch))
        max_row = (int(addrs.max()) if n else 0) // (n_ch * cfg.n_banks * cfg.blocks_per_row)
        slot = np.empty(n + 1, dtype=_narrowest(n_ch * cfg.n_banks))
        row = np.empty(n + 1, dtype=_narrowest(max_row))
        slot[:n] = (channel * cfg.n_banks + bank)[order]
        row[:n] = rows[order]
        slot[n] = 0
        row[n] = _PAD_ROW
        if arrivals is None:
            arrival = np.broadcast_to(np.int64(0), (n + 1,))
        else:
            arrival = np.zeros(n + 1, dtype=np.int64)
            arrival[:n] = np.asarray(arrivals, dtype=np.int64)[order]

        cycles, latency, hits = serve_lanes(cfg, self.window, bounds, slot, row, arrival)
        # Latencies are summed as integers; below 2**53 the float of the sum
        # equals a per-request float running sum exactly.
        return DRAMStats(
            n_requests=n,
            total_cycles=int(cycles.max()),
            bytes_moved=n * cfg.block_bytes,
            row_hits=int(hits.sum()),
            latency_sum=float(latency.sum()),
            config=cfg,
        )
