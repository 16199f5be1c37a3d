"""Edge-case tests for the Booster engine and microarch extensions (Sec. III-C)."""

import numpy as np
import pytest

from repro.core import BoosterConfig, BoosterEngine
from repro.datasets import RecordLayout, dataset_spec
from repro.gbdt.workprofile import InferenceWork


class TestFieldPartitioning:
    """Extension (1): more fields than SRAMs -> per-pass record streaming."""

    def test_tiny_chip_partitions_iot(self, executor):
        prof = executor.profile("iot")  # 115 fields
        tiny = BoosterConfig(n_clusters=1, bus_per_cluster=32)
        engine = BoosterEngine(config=tiny, bandwidth=executor.bandwidth)
        mapping = engine.bin_mapping(prof)
        assert mapping.field_passes == -(-115 // 32)
        assert mapping.replicas == 1

    def test_partitioning_costs_extra_stat_fetches(self, executor):
        prof = executor.profile("iot")
        tiny = BoosterConfig(n_clusters=1, bus_per_cluster=32)
        small = BoosterEngine(config=tiny, bandwidth=executor.bandwidth)
        big = BoosterEngine(bandwidth=executor.bandwidth)
        assert small.training_times(prof).step1 > big.training_times(prof).step1


class TestRecordPacking:
    """Extension (2): small records pack two-plus per memory block."""

    def test_flight_packs_seven(self):
        # 7 one-byte fields plus one 301-bin categorical (2-byte code) give
        # 9-byte records: seven pack into a 64 B block.
        layout = RecordLayout(dataset_spec("flight", n_records=512))
        assert layout.record_bytes == 9
        assert layout.records_per_block == 7

    def test_higgs_packs_two(self):
        layout = RecordLayout(dataset_spec("higgs", n_records=512))
        assert layout.records_per_block == 2

    def test_iot_spans_two_blocks(self):
        layout = RecordLayout(dataset_spec("iot", n_records=512))
        assert layout.blocks_per_record == 2


class TestOversizedFields:
    """Extension (3): fields with more bins than one SRAM span a group."""

    def test_allstate_biggest_field_groups(self, executor):
        prof = executor.profile("allstate")
        engine = executor.model("booster")
        mapping = engine.bin_mapping(prof)
        # 1500-category field + absent bin -> ceil(1501/256) = 6 SRAMs.
        assert mapping.srams_per_copy > prof.n_fields
        assert mapping.serialization == 1.0  # repeated-bin trick preserved


class TestMultiChipInference:
    """Sec. III-D: trees beyond one chip round-robin across chips."""

    def make_work(self, executor, n_trees):
        spec = dataset_spec("higgs")
        return InferenceWork(
            spec=spec,
            n_records=1_000_000,
            n_trees=n_trees,
            max_depth=6,
            sum_path_len=6.0 * 1_000_000 * n_trees,
            path_len_cv=0.0,
            table_bytes_total=800.0 * n_trees,
        )

    def test_latency_flat_beyond_one_chip(self, executor):
        engine = executor.model("booster")
        t1 = engine.inference_seconds(self.make_work(executor, 3200))
        t2 = engine.inference_seconds(self.make_work(executor, 6400))
        t4 = engine.inference_seconds(self.make_work(executor, 12800))
        # Chips work on the same records concurrently: more trees, same time.
        assert t2 == pytest.approx(t1, rel=0.01)
        assert t4 == pytest.approx(t1, rel=0.01)

    def test_replication_speeds_small_ensembles(self, executor):
        engine = executor.model("booster")
        t500 = engine.inference_seconds(self.make_work(executor, 500))
        t3200 = engine.inference_seconds(self.make_work(executor, 3200))
        assert t500 < t3200  # 6 replicas vs 1

    def test_depth_bound_not_path_bound(self, executor):
        # Booster pays max depth: halving the mean path does not help it.
        engine = executor.model("booster")
        w = self.make_work(executor, 500)
        shallow = self.make_work(executor, 500)
        shallow.sum_path_len /= 2
        assert engine.inference_seconds(shallow) == pytest.approx(
            engine.inference_seconds(w)
        )


class TestWideFieldBytes:
    """Fields above 256 bins store 2-byte codes; layouts must account it."""

    def test_allstate_mixed_element_widths(self):
        spec = dataset_spec("allstate", n_records=256)
        layout = RecordLayout(spec)
        assert set(np.unique(layout.field_bytes)) == {1, 2}
        assert layout.record_bytes > spec.n_fields  # some 2-byte fields

    def test_column_gather_handles_mixed_widths(self):
        spec = dataset_spec("allstate", n_records=4096)
        layout = RecordLayout(spec)
        wide = int(np.argmax(layout.field_bytes))
        narrow = int(np.argmin(layout.field_bytes))
        b_wide = layout.column_bytes_gather(wide, 4096, 4096)
        b_narrow = layout.column_bytes_gather(narrow, 4096, 4096)
        assert b_wide == pytest.approx(2 * b_narrow, rel=0.05)
