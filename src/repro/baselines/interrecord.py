"""The Inter-record (IR) prior-work baseline (Sec. II-E, compared in Sec. V-A).

IR [Tanaka et al.] parallelizes GB training *only across records*, like a
multicore: each processing unit (PU) owns a full private histogram copy and
consumes whole records serially, field by field.  Two structural weaknesses
versus Booster:

1. **Capacity**: without the group-by-field insight, IR provisions the naive
   256 bins for every one-hot *feature*, so one histogram copy costs
   ``features * 256 * 8 B``.  The paper reports the area-limited copy counts
   for an IR ASIC with Booster's area: 271 copies for Higgs and 179 for
   Mq2008, and "for the other benchmarks, even one copy does not fit".  Our
   budget/PU-overhead constants are solved from those two published numbers,
   so Higgs/Mq2008 reproduce exactly and the categorical benchmarks come out
   at a handful of copies.
2. **Serial fields**: a PU performs one field update per ``ir_field_cycles``,
   so per-record latency grows with the field count, unlike Booster's
   field-parallel BU fan-out.
"""

from __future__ import annotations

from ..datasets.layout import RecordLayout
from ..gbdt.workprofile import InferenceWork, WorkProfile
from .base import HardwareModel, StepTimes, _log2ceil, host_step2_seconds

__all__ = ["InterRecordAccelerator"]


class InterRecordAccelerator(HardwareModel):
    """Area-limited inter-record-parallel ASIC at Booster's clock."""

    name = "inter-record"

    def copies(self, profile: WorkProfile) -> int:
        """Histogram copies (= PUs) that fit in the area budget."""
        c = self.costs
        features = profile.spec.n_features
        hist_bytes = features * c.ir_bins_per_feature * c.ir_bin_bytes
        per_copy = hist_bytes + c.ir_pu_overhead_bytes
        return max(1, c.ir_sram_budget_bytes // per_copy)

    def _compute_seconds(self, cycles: float, copies: int) -> float:
        return cycles / copies / (self.costs.ir_clock_ghz * 1e9)

    def training_times(self, profile: WorkProfile) -> StepTimes:
        c = self.costs
        layout = RecordLayout(profile.spec)
        n_copies = self.copies(profile)

        # Step 1: each PU streams whole records, updating its private
        # histogram one field at a time.
        s1_cycles = profile.binned_record_fields() * c.ir_field_cycles
        s1 = max(
            self._compute_seconds(s1_cycles, n_copies),
            self.mem_seconds(profile.step1_bytes(layout)),
        )

        # Step 2 on the host; the PU histograms are reduced on-chip (adder
        # per PU), charged as a per-vertex overhead below.
        s2 = host_step2_seconds(profile, c, reduce_copies=0)
        bins = profile.n_total_bins
        evals = profile.step2_evaluations()
        reduce_cycles = evals * _log2ceil(n_copies) * bins * c.reduce_cycles_per_entry
        offload = evals * (
            bins * c.offload_bin_bytes / (c.pcie_gbps * 1e9) + c.booster_node_overhead_s
        )
        other = reduce_cycles / (c.ir_clock_ghz * 1e9) + offload

        # Step 3: inter-record parallel predicate evaluation (row-major --
        # IR has no redundant column format).
        s3_cycles = profile.partition_records() * c.ir_partition_cycles
        s3 = max(
            self._compute_seconds(s3_cycles, n_copies),
            self.mem_seconds(profile.step3_bytes(layout, column_format=False)),
        )

        # Step 5: inter-record parallel tree traversal.
        s5_cycles = (
            profile.traversal_hops() * c.ir_hop_cycles
            + profile.traversal_records() * c.cpu_record_update_cycles
        )
        s5 = max(
            self._compute_seconds(s5_cycles, n_copies),
            self.mem_seconds(profile.step5_bytes(layout, column_format=False)),
        )
        return StepTimes(step1=s1, step2=s2, step3=s3, step5=s5, other=other)

    def inference_seconds(self, work: InferenceWork) -> float:
        c = self.costs
        # Inference needs trees, not histograms; reuse the PU count from a
        # tree-table footprint of the same budget.
        per_copy = max(work.table_bytes_total / max(work.n_trees, 1), 1.0)
        pus = max(1, int(c.ir_sram_budget_bytes // (per_copy + c.ir_pu_overhead_bytes)))
        cycles = work.total_hops_actual * c.ir_hop_cycles
        return cycles / min(pus, 4096) / (c.ir_clock_ghz * 1e9)
