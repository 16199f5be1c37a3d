"""Cost-model constants: the single source of truth for all timing models.

Calibration policy (see DESIGN.md Sec. 7): every constant is either

* taken **directly from the paper** -- BU op latency (8 cycles, Sec. III-B),
  clocks (Table V), SRAM sizes, DRAM parameters (Table IV), broadcast link
  fan-in (16 BUs/link), histogram replica counts implied by the mapping; or
* a **microarchitectural constant chosen once** from first principles
  (e.g., an L2 hit costs ~14 cycles, a PCIe transaction ~5 us) and then held
  fixed across *all* datasets, figures, and tables.

No per-figure or per-dataset tuning exists anywhere: per-dataset behaviour
emerges from measured work profiles (tree shapes, bins, fields, conflict
factors) interacting with these shared constants.

The one structural modeling choice worth calling out: the Ideal 32-core's
cost per histogram update depends on whether the *whole histogram* fits in
its 32 KB L1 (Table V).  This is the paper's own argument for why multicores
underperform ("limited on-chip cache to hold the replicated histograms",
Sec. II-D): IoT's 236 KB histogram thrashes L1 (expensive updates), Flight's
7 KB histogram does not (cheap updates) -- which is precisely what spreads
the Booster speedups from 4.6x (Flight) to 30.6x (IoT) in Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel", "DEFAULT_COSTS"]


@dataclass(frozen=True)
class CostModel:
    """Shared microarchitectural cost constants."""

    # -- clocks (Table V) -------------------------------------------------------
    #: The Ideal 32-core's clock, which the paper's Ideal GPU shares.  Booster's
    #: clock is ``BoosterConfig.clock_ghz``; the thread counts are the
    #: multicore and GPU models' ``threads``.
    cpu_clock_ghz: float = 2.2
    ir_clock_ghz: float = 1.0  # IR simulated "with the same clock speed as Booster"

    # -- CPU core cost model ------------------------------------------------------
    #: Cycles for a histogram update when the bin line hits in L1.
    cpu_bin_update_hit_cycles: float = 3.0
    #: Added cycles when the histogram exceeds L1 and the update misses to L2.
    cpu_l1_miss_penalty_cycles: float = 14.0
    #: L1 data cache capacity (Table V: 32 KB).
    cpu_l1_bytes: int = 32 * 1024
    #: Per-record overhead in step 1 (fetch record, read g/h).
    cpu_record_overhead_cycles: float = 4.0
    #: Step 3: evaluate one predicate and append a pointer.
    cpu_partition_cycles: float = 4.0
    #: Step 5: one tree-level hop (load node, compare, branch).
    cpu_hop_cycles: float = 5.0
    #: Step 5: per-record g/h/loss update at the leaf.
    cpu_record_update_cycles: float = 12.0
    #: Inference tree hop: 500 cold tree tables thrash L1 and the branch
    #: predictor, unlike training's single hot tree (used for Fig. 13).
    cpu_inference_hop_cycles: float = 10.0
    #: Bytes per histogram bin in CPU/GPU memory (count + G + H packed).
    host_bin_bytes: int = 16

    # -- step 2 on the host (identical structure for every system) ----------------
    #: Cycles to evaluate one bin as a split candidate (cumulative adds plus
    #: the gain formula's divisions, both missing directions).
    step2_scan_cycles_per_bin: float = 30.0
    #: Cycles per (bin, copy) to reduce replicated histograms.
    step2_reduce_cycles_per_bin: float = 2.0
    #: Effective parallel speedup of step 2 on the 32-core host (reduction and
    #: scan parallelize poorly; Fig. 8 "Step 2 does not see much improvement").
    step2_parallel: float = 8.0
    #: Per-vertex host overhead (thread barrier / driver dispatch).
    host_node_overhead_s: float = 3e-6

    # -- Booster offload path -------------------------------------------------------
    pcie_gbps: float = 16.0
    #: Per-vertex accelerator<->host round-trip (result ship + predicate back).
    booster_node_overhead_s: float = 10e-6
    #: Bytes per histogram bin shipped to the host (count + G + H).
    offload_bin_bytes: int = 24

    # -- Booster microarchitecture (Sec. III-B) ---------------------------------------
    #: BU occupancy per field update: "a short integer subtract, an SRAM read,
    #: two pipelined floating-point adds, and an SRAM write ... 8 cycles".
    bu_op_cycles: int = 8
    #: SRAM lookups per tree hop in steps 5 / inference (table walk step).
    bu_hop_cycles: int = 8
    #: Step 3 predicate evaluation occupancy per record at a BU.
    bu_predicate_cycles: int = 2
    #: BUs per broadcast link ("a simple, pipelined broadcast ... 16 BUs per link").
    broadcast_fanin: int = 16
    #: On-chip bin entry (G and H as fp32: 2 KB SRAM / 256 entries, Sec. III-C).
    sram_bin_bytes: int = 8
    #: Cycles per entry per reduction round of the cluster-replica reduction.
    reduce_cycles_per_entry: float = 2.0

    # -- Real-hardware derating (Fig. 11 only) -----------------------------------------
    #: Real multicore over Ideal when the working set fits in L3 ...
    real_cpu_fit_factor: float = 1.1
    #: ... and when it streams from DRAM (cache misses, prefetch limits).
    real_cpu_spill_factor: float = 1.8
    #: Aggregate last-level cache of the 32-core part.
    cpu_l3_bytes: int = 64 * 1024 * 1024
    #: Real GPU: base kernel inefficiency before irregularity penalties.
    real_gpu_base_factor: float = 1.3
    #: Weight of the measured warp bin-conflict factor (atomic serialization);
    #: applies in proportion to shared-memory pressure (histogram vs 96 KB).
    real_gpu_conflict_weight: float = 0.45
    gpu_shared_bytes: int = 96 * 1024
    #: Per-vertex kernel-launch/sync overhead on the real GPU (three launches
    #: per vertex: bin, choose, partition).
    gpu_launch_overhead_s: float = 60e-6
    #: Weight of the measured path-length divergence in traversal steps.
    real_gpu_divergence_weight: float = 2.0

    # -- Inter-record (IR) baseline (Sec. II-E / V-A) -------------------------------------
    #: On-chip budget IR spends on (histogram copy + processing unit) pairs in
    #: SRAM-equivalent bytes.  Together with ``ir_pu_overhead_bytes`` this is
    #: solved from the paper's two published copy counts (271 for Higgs, 179
    #: for Mq2008): 271*(28*256*8 + pu) = 179*(46*256*8 + pu).
    ir_sram_budget_bytes: int = 19_440_000
    ir_pu_overhead_bytes: int = 14_380
    #: IR stores 256 bins per one-hot *feature* (no group-by-field insight).
    ir_bins_per_feature: int = 256
    ir_bin_bytes: int = 8
    #: IR processes a record's fields serially in its processing unit.
    ir_field_cycles: float = 8.0
    ir_hop_cycles: float = 8.0
    ir_partition_cycles: float = 2.0

    def cpu_bin_update_cycles_from_hit(self, hit_fraction: float) -> float:
        """Per-update cost given the access-weighted L1 hit fraction.

        Hits cost the base update; misses add the next-level penalty.  The
        hit fraction comes from measured root-histogram access counts
        (``WorkProfile.hot_access_fraction``): skewed categorical benchmarks
        concentrate updates on head categories (high hit, cheap -- why the
        paper's Allstate trains in 1.6 min despite 10M records), while
        uniform numerical benchmarks thrash L1 (IoT's 29.5k bins).
        """
        hit = min(max(hit_fraction, 0.0), 1.0)
        return self.cpu_bin_update_hit_cycles + (1.0 - hit) * self.cpu_l1_miss_penalty_cycles


#: The constants used by every experiment in this repository.
DEFAULT_COSTS = CostModel()
