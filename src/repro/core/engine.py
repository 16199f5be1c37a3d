"""Booster training engine: timing for the accelerated steps 1, 3, 5.

Timing follows the paper's construction (Sec. III-B): the accelerated steps
are *rate-matched* to DRAM, so each step's time is the maximum of its memory
time (bytes at the sustained bandwidth measured from the cycle-level DRAM
model) and its on-chip compute time (BU occupancy under the bin-to-SRAM
mapping), plus the per-vertex overheads the host offload introduces:

* broadcast-pipeline fill per vertex stream (200 cycles at the design point);
* on-chip reduction of the histogram replicas (log2(replicas) pipelined
  passes over each SRAM's entries);
* shipping the reduced histogram to the host over PCIe and receiving the
  chosen predicate back (step 2 runs on the host for *every* system).

A micro cycle-by-cycle simulation of step 1 (`simulate_step1_micro`) walks
individual records through the fetch/broadcast/BU pipeline against the
cycle-level DRAM model; tests assert it agrees with the analytic rate-match
equations, which is how the paper validates that compute hides under memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.base import HardwareModel, StepTimes, _log2ceil, host_step2_seconds
from ..datasets.layout import RecordLayout
from ..datasets.schema import DatasetSpec
from ..gbdt.workprofile import InferenceWork, WorkProfile
from ..memory.dram import DRAMSimulator
from ..memory.profile import BandwidthProfile
from ..sim.calibrate import CostModel
from .broadcast import BroadcastBus
from .config import BoosterConfig, PAPER_CONFIG
from .mapping import BinMapping, group_by_field_mapping, naive_packing_mapping

__all__ = ["BoosterEngine", "Step1MicroResult", "simulate_step1_micro"]


class BoosterEngine(HardwareModel):
    """The full Booster accelerator model.

    ``mapping_strategy`` and ``column_format`` select the optimization level
    for the Fig. 9 ablation:

    * ``("naive", False)``  -> Booster-no-opts (BU parallelism only),
    * ``("field", False)``  -> + group-by-field mapping,
    * ``("field", True)``   -> + redundant column-major format (full Booster).

    Like the paper ("The above assumes the former", Sec. II-A), it prices
    vertex-by-vertex growth: one histogram per vertex, one host round trip
    per evaluated vertex.
    """

    name = "booster"

    def __init__(
        self,
        config: BoosterConfig | None = None,
        costs: CostModel | None = None,
        bandwidth: BandwidthProfile | None = None,
        mapping_strategy: str = "field",
        column_format: bool = True,
    ) -> None:
        super().__init__(costs=costs, bandwidth=bandwidth)
        self.config = config or PAPER_CONFIG
        if mapping_strategy not in ("field", "naive"):
            raise ValueError(f"unknown mapping strategy {mapping_strategy!r}")
        self.mapping_strategy = mapping_strategy
        self.column_format = column_format
        self.bus = BroadcastBus(self.config, fanin=self.costs.broadcast_fanin)

    # -- mapping --------------------------------------------------------------------

    def bin_mapping(self, profile: WorkProfile) -> BinMapping:
        if self.mapping_strategy == "field":
            return group_by_field_mapping(
                profile.spec, self.config, self.costs.sram_bin_bytes
            )
        return naive_packing_mapping(profile.spec, self.config, self.costs.sram_bin_bytes)

    def _cycles_to_seconds(self, cycles: float) -> float:
        return cycles / (self.config.clock_ghz * 1e9)

    # -- training --------------------------------------------------------------------

    def training_times(self, profile: WorkProfile) -> StepTimes:
        c = self.costs
        layout = RecordLayout(profile.spec)
        mapping = self.bin_mapping(profile)

        n_evals = profile.step2_evaluations()

        # ---- Step 1: histogram binning ------------------------------------------
        throughput = mapping.throughput_records_per_cycle(c.bu_op_cycles)
        compute_cycles = profile.binned_records() / throughput
        mem_bytes = profile.step1_bytes(layout)
        if mapping.field_passes > 1:
            # Field partitioning refetches g/h once per extra pass (Sec. III-C (1)).
            mem_bytes += (mapping.field_passes - 1) * profile.step1_stats_bytes(layout)
        fill_cycles = profile.binned_nodes() * self.bus.fill_cycles
        s1 = max(
            self._cycles_to_seconds(compute_cycles),
            self.mem_seconds(mem_bytes),
        ) + self._cycles_to_seconds(fill_cycles)

        # ---- Step 2: host offload -------------------------------------------------
        s2 = host_step2_seconds(profile, c, reduce_copies=0)

        # On-chip replica reduction: log2(replicas) pipelined passes over each
        # SRAM's entries (pairwise adder-tree across neighbouring copies).
        entries = self.config.sram_entries(c.sram_bin_bytes)
        reduce_cycles = (
            n_evals
            * _log2ceil(mapping.replicas)
            * entries
            * c.reduce_cycles_per_entry
        )
        # Ship the reduced histograms up, get the predicates back: one round
        # trip per evaluated vertex.
        pcie_s = (
            n_evals * profile.n_total_bins * c.offload_bin_bytes / (c.pcie_gbps * 1e9)
            + n_evals * c.booster_node_overhead_s
        )
        other = self._cycles_to_seconds(reduce_cycles) + pcie_s

        # ---- Step 3: single-predicate evaluation ------------------------------------
        s3_compute = profile.partition_records() * c.bu_predicate_cycles / self.config.n_bus
        s3_mem = profile.step3_bytes(layout, column_format=self.column_format)
        s3_fill = profile.split_nodes() * self.bus.fill_cycles
        s3 = max(self._cycles_to_seconds(s3_compute), self.mem_seconds(s3_mem)) + (
            self._cycles_to_seconds(s3_fill)
        )

        # ---- Step 5: one-tree traversal ----------------------------------------------
        s5_compute = profile.traversal_hops() * c.bu_hop_cycles / self.config.n_bus
        s5_mem = profile.step5_bytes(layout, column_format=self.column_format)
        # Tree-table replication into every BU, once per tree.
        s5_fill = self.bus.replicate_table_cycles(profile.total_nodes())
        s5 = max(self._cycles_to_seconds(s5_compute), self.mem_seconds(s5_mem)) + (
            self._cycles_to_seconds(s5_fill)
        )

        return StepTimes(step1=s1, step2=s2, step3=s3, step5=s5, other=other)

    # -- inference -------------------------------------------------------------------

    def inference_seconds(self, work: InferenceWork) -> float:
        """Batch inference (Sec. III-D): tree replicas across BUs.

        Each tree loads into one BU; replicas of the whole ensemble raise
        record throughput.  A BU's table walk provisions ``max_depth`` lookups
        per record regardless of the actual path -- the reason IoT's shallow
        trees do *not* speed Booster up (Fig. 13 discussion).
        """
        c = self.costs
        n_bus = self.config.n_bus
        # Too many trees: round-robin across chips (Sec. III-D); each chip
        # holds a distinct slice of the ensemble and sees every record.
        chips = max(1, -(-work.n_trees // n_bus))
        # Whole-ensemble replicas across all chips' BUs: each replica group
        # walks one record through all its trees concurrently, so throughput
        # scales with replicas, and per-record latency is depth-bound.
        replicas = max(1, (n_bus * chips) // work.n_trees)
        per_record_cycles = work.max_depth * c.bu_hop_cycles
        compute_cycles = work.n_records * per_record_cycles / replicas
        # Every chip streams the full record set once (records are broadcast
        # on-chip to the replica groups).
        layout = RecordLayout(work.spec)
        mem_bytes = chips * layout.row_bytes_sequential(work.n_records)
        return max(self._cycles_to_seconds(compute_cycles), self.mem_seconds(mem_bytes))


@dataclass
class Step1MicroResult:
    """Outcome of the cycle-by-cycle step-1 pipeline simulation."""

    n_records: int
    total_cycles: int
    analytic_cycles: float
    bu_busy_cycles: int
    mem_cycles: int

    @property
    def relative_error(self) -> float:
        if self.analytic_cycles == 0:
            return 0.0
        return abs(self.total_cycles - self.analytic_cycles) / self.analytic_cycles


def _admit_records(
    arrivals: np.ndarray, fill: int, per_record: int, replicas: int
) -> tuple[int, int]:
    """(makespan, busy cycles) of admitting ``arrivals`` into the BU replicas.

    With equal service times and non-decreasing arrivals, earliest-free
    replica selection degenerates to deterministic round-robin (record ``i``
    runs on replica ``i % R``): end times are non-decreasing in admission
    order, so the least-loaded replica is always the least recently assigned
    one.  Per replica the recurrence ``end_j = max(a_j + fill, end_{j-1}) +
    p`` unrolls to ``end_j = max_{k<=j}(a_k + fill - k*p) + (j+1)*p``, a
    running maximum NumPy computes in one pass over ``arrivals`` reshaped by
    replica.
    """
    n = int(arrivals.size)
    if n == 0:
        return 0, 0
    rows = -(-n // replicas)
    slack = np.full(rows * replicas, np.iinfo(np.int64).min // 2, dtype=np.int64)
    j = np.repeat(np.arange(rows, dtype=np.int64), replicas)[:n]
    slack[:n] = arrivals + fill - j * per_record
    run_max = np.maximum.accumulate(slack.reshape(rows, replicas), axis=0)
    ends = run_max + (np.arange(rows, dtype=np.int64)[:, None] + 1) * per_record
    finish = int(ends.reshape(-1)[:n].max())
    return finish, n * per_record


def simulate_step1_micro(
    n_records: int,
    spec: DatasetSpec,
    config: BoosterConfig | None = None,
    costs: CostModel | None = None,
) -> Step1MicroResult:
    """Walk records one by one through fetch -> broadcast -> BU pipeline.

    Double-buffering is modeled by letting the DRAM stream run ahead of the
    BUs (records are admitted when both their data and a replica slot are
    ready).  The analytic model says total cycles ~= max(memory, compute) +
    broadcast fill; this micro-simulation checks that equation for real
    configurations, mirroring the paper's RTL-validation role.  Records map
    to BUs by field group, as in the full Booster.
    """
    config = config or PAPER_CONFIG
    costs = costs or CostModel()
    layout = RecordLayout(spec)
    mapping = group_by_field_mapping(spec, config, costs.sram_bin_bytes)

    # Memory: stream the records' blocks through the cycle-level DRAM model.
    blocks_per_record = layout.blocks_per_record
    records_per_block = layout.records_per_block
    if records_per_block > 1:
        n_blocks = -(-n_records // records_per_block)
    else:
        n_blocks = n_records * blocks_per_record
    dram = DRAMSimulator()
    stats = dram.run(np.arange(n_blocks, dtype=np.int64))
    mem_cycles = stats.total_cycles

    # Compute: replicas admit one record each per (bu_op * serialization).
    fill = BroadcastBus(config, costs.broadcast_fanin).fill_cycles
    per_record = costs.bu_op_cycles * max(mapping.serialization, 1.0) * mapping.field_passes
    # Record i's data is available once its block has streamed in; approximate
    # arrival as a linear schedule against the measured stream makespan.
    arrivals = np.linspace(0, mem_cycles, n_records, endpoint=False).astype(np.int64)
    finish, busy = _admit_records(
        arrivals, fill, int(round(per_record)), mapping.replicas
    )

    throughput = mapping.throughput_records_per_cycle(costs.bu_op_cycles)
    analytic = max(mem_cycles, n_records / throughput) + fill
    return Step1MicroResult(
        n_records=n_records,
        total_cycles=finish,
        analytic_cycles=float(analytic),
        bu_busy_cycles=busy,
        mem_cycles=mem_cycles,
    )
