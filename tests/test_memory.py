"""Tests for the cycle-level DRAM substrate (repro.memory)."""

import pickle
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    AddressMapping,
    DRAMConfig,
    DRAMSimulator,
    bandwidth_profile,
    gather_blocks,
    random_blocks,
    sequential,
    strided,
)
from repro.memory import profile as profile_mod
from repro.memory.profile import BandwidthProfile, calibration_key


class TestConfig:
    def test_paper_defaults(self):
        cfg = DRAMConfig()
        assert cfg.n_channels == 24
        assert cfg.n_banks == 16
        assert cfg.row_bytes == 1024
        assert (cfg.t_cas, cfg.t_rp, cfg.t_rcd, cfg.t_ras) == (12, 12, 12, 28)

    def test_peak_near_400(self):
        cfg = DRAMConfig()
        assert cfg.peak_gbps == pytest.approx(384.0)

    def test_burst_cycles(self):
        assert DRAMConfig().burst_cycles == 4

    def test_blocks_per_row(self):
        assert DRAMConfig().blocks_per_row == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            DRAMConfig(row_bytes=100)
        with pytest.raises(ValueError):
            DRAMConfig(t_cas=0)
        with pytest.raises(ValueError):
            DRAMConfig(n_channels=0)


class TestAddressMapping:
    def test_decode_fields_in_range(self):
        m = AddressMapping(DRAMConfig())
        ch, bk, row, col = m.decode(np.arange(100_000))
        assert ch.max() < 24 and bk.max() < 16 and col.max() < 16
        assert ch.min() >= 0 and row.min() >= 0

    def test_consecutive_blocks_rotate_channels(self):
        m = AddressMapping(DRAMConfig())
        ch, _, _, _ = m.decode(np.arange(48))
        assert ch.tolist() == list(range(24)) * 2

    def test_scalar_decode(self):
        m = AddressMapping(DRAMConfig())
        d = m.decode(0)
        assert (d.channel, d.bank, d.row, d.column) == (0, 0, 0, 0)

    def test_rejects_negative(self):
        m = AddressMapping(DRAMConfig())
        with pytest.raises(ValueError):
            m.decode(-1)

    @given(st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_bijection(self, addr):
        m = AddressMapping(DRAMConfig())
        d = m.decode(addr)
        assert m.encode(d.channel, d.bank, d.row, d.column) == addr

    def test_encode_validates_ranges(self):
        m = AddressMapping(DRAMConfig())
        with pytest.raises(ValueError):
            m.encode(24, 0, 0, 0)
        with pytest.raises(ValueError):
            m.encode(0, 16, 0, 0)

    def test_byte_to_block(self):
        m = AddressMapping(DRAMConfig())
        assert m.byte_to_block(63) == 0
        assert m.byte_to_block(64) == 1


class TestDRAMSimulator:
    def test_streaming_near_peak(self):
        stats = DRAMSimulator().run(sequential(12_000))
        assert stats.efficiency > 0.95  # paper: ~400 of 384 GB/s peak

    def test_streaming_row_hits_dominate(self):
        stats = DRAMSimulator().run(sequential(12_000))
        assert stats.row_hit_rate > 0.85  # 16 col hits per row activation

    def test_bandwidth_never_exceeds_peak(self):
        for trace in (sequential(5000), random_blocks(5000, 10**7)):
            stats = DRAMSimulator().run(trace)
            assert stats.bytes_per_cycle <= DRAMConfig().peak_bytes_per_cycle + 1e-9

    def test_single_block_latency(self):
        # One cold read: ACT(tRCD) + CAS + burst = 12 + 12 + 4 = 28 cycles.
        stats = DRAMSimulator().run(np.array([0]))
        assert stats.total_cycles == 28
        assert stats.row_hit_rate == 0.0

    def test_row_hit_faster_than_conflict(self):
        cfg = DRAMConfig()
        # Two reads in the same row vs two reads in different rows, same bank.
        m = AddressMapping(cfg)
        same_row = np.array([m.encode(0, 0, 0, 0), m.encode(0, 0, 0, 1)])
        conflict = np.array([m.encode(0, 0, 0, 0), m.encode(0, 0, 1, 0)])
        t_same = DRAMSimulator().run(same_row).total_cycles
        t_conf = DRAMSimulator().run(conflict).total_cycles
        assert t_conf >= t_same + cfg.t_rp  # precharge penalty visible

    def test_tras_respected(self):
        cfg = DRAMConfig()
        m = AddressMapping(cfg)
        # Immediate row conflict: PRE cannot issue before ACT + tRAS.
        conflict = np.array([m.encode(0, 0, 0, 0), m.encode(0, 0, 1, 0)])
        stats = DRAMSimulator().run(conflict)
        # ACT@0, RD@12, data@24..28; PRE earliest @28 (tRAS), ACT2@40,
        # RD2@52, data@64..68.
        assert stats.total_cycles == cfg.t_ras + cfg.t_rp + cfg.t_rcd + cfg.t_cas + cfg.burst_cycles

    def test_bank_parallelism_hides_activates(self):
        cfg = DRAMConfig()
        m = AddressMapping(cfg)
        # 16 reads, one per bank of one channel: activates overlap.
        addrs = np.array([m.encode(0, b, 0, 0) for b in range(16)])
        stats = DRAMSimulator().run(addrs)
        serial = 16 * 28
        assert stats.total_cycles < serial / 2

    def test_gather_slower_or_equal_to_stream(self):
        seq = DRAMSimulator().run(sequential(8000))
        gat = DRAMSimulator().run(gather_blocks(80_000, 0.1, seed=3))
        assert gat.bytes_per_cycle <= seq.bytes_per_cycle + 1e-9

    def test_empty_trace(self):
        stats = DRAMSimulator().run(np.array([], dtype=np.int64))
        assert stats.total_cycles == 0
        assert stats.bytes_moved == 0

    def test_arrivals_shape_checked(self):
        with pytest.raises(ValueError):
            DRAMSimulator().run(np.arange(4), arrivals=np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            DRAMSimulator().run_many([np.arange(4)], arrivals=[None, None])

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected_up_front(self, window):
        # Rejected at construction, before any trace (even an empty one) runs.
        with pytest.raises(ValueError, match="window"):
            DRAMSimulator(window=window)

    def test_run_many_equals_separate_runs(self):
        traces = [sequential(3000), np.array([], dtype=np.int64), gather_blocks(9000, 0.2, seed=4)]
        sim = DRAMSimulator()
        assert sim.run_many(traces) == [sim.run(t) for t in traces]
        assert sim.run_many([]) == []

    def test_paced_arrivals_lower_latency(self):
        # Spreading arrivals out reduces queueing latency vs all-at-zero.
        trace = sequential(2400)
        burst = DRAMSimulator().run(trace)
        paced = DRAMSimulator().run(trace, arrivals=np.arange(2400) * 4)
        assert paced.mean_latency < burst.mean_latency


class TestStreams:
    def test_sequential(self):
        assert sequential(4, start=10).tolist() == [10, 11, 12, 13]

    def test_gather_density(self):
        trace = gather_blocks(100_000, 0.25, seed=1)
        assert 0.23 < len(trace) / 100_000 < 0.27
        assert np.all(np.diff(trace) > 0)  # ascending

    def test_gather_validation(self):
        with pytest.raises(ValueError):
            gather_blocks(10, 1.5)

    def test_strided(self):
        assert strided(3, 5, start=1).tolist() == [1, 6, 11]
        with pytest.raises(ValueError):
            strided(3, 0)

    def test_random_blocks_in_range(self):
        r = random_blocks(1000, 500, seed=2)
        assert r.min() >= 0 and r.max() < 500


class TestBandwidthProfile:
    def test_sequential_is_the_table4_stream(self):
        # Table IV reads the calibration's streaming figure instead of
        # simulating the same 24,000-block trace again.
        assert (
            bandwidth_profile().sequential_gbps
            == DRAMSimulator().run(sequential(24_000)).sustained_gbps
        )

    def test_sequential_matches_paper(self, bw_profile):
        assert 370 < bw_profile.sequential_gbps < 384

    def test_gather_interpolation_monotoneish(self, bw_profile):
        lo = bw_profile.gather_bpc_at(0.02)
        hi = bw_profile.gather_bpc_at(1.0)
        assert hi >= lo * 0.95

    def test_seconds_for_bytes(self, bw_profile):
        t = bw_profile.seconds_for_bytes(384e9)
        assert t == pytest.approx(1.0, rel=0.05)  # ~1 s at full bandwidth

    def test_cached(self):
        a = bandwidth_profile()
        b = bandwidth_profile()
        assert a is b

    def test_zero_bytes(self, bw_profile):
        assert bw_profile.seconds_for_bytes(0.0) == 0.0


#: A short calibration trace: the store logic does not depend on its length.
_SHORT = 2_000


def _assert_same_profile(a, b):
    """Field-by-field equality, value types and array dtypes included."""
    for f in fields(BandwidthProfile):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert type(x) is type(y), f.name
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


class TestStoredCalibration:
    """``bandwidth_profile(store=...)``: one calibration per store."""

    @pytest.fixture()
    def runs(self, monkeypatch):
        """Empty the in-process memo and count ``run_many`` calls."""
        monkeypatch.setattr(profile_mod, "_CACHE", {})
        calls = []
        real = DRAMSimulator.run_many

        def counted(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(DRAMSimulator, "run_many", counted)
        return calls

    def test_key_covers_config_window_blocks_and_source(self, monkeypatch):
        base = calibration_key()
        assert base == calibration_key(DRAMConfig(), 16, 24_000)
        assert base.startswith("dram")
        others = {
            calibration_key(DRAMConfig(n_channels=12)),
            calibration_key(DRAMConfig(t_cas=13)),
            calibration_key(DRAMConfig(clock_ghz=2.0)),
            calibration_key(window=8),
            calibration_key(n_blocks=_SHORT),
        }
        assert len(others) == 5 and base not in others
        monkeypatch.setattr(profile_mod, "_source_digest", lambda: "edited dram model")
        assert calibration_key() not in others | {base}

    def test_loaded_profile_equals_fresh_calibration(self, tmp_path, runs):
        from repro.experiments.cache import ProfileCache

        fresh = bandwidth_profile(n_blocks=_SHORT, store=ProfileCache(root=tmp_path))
        assert (tmp_path / f"{calibration_key(n_blocks=_SHORT)}.pkl").is_file()
        profile_mod._CACHE.clear()
        loaded = bandwidth_profile(n_blocks=_SHORT, store=ProfileCache(root=tmp_path))
        assert len(runs) == 1
        assert loaded is not fresh
        _assert_same_profile(loaded, fresh)
        # Later store-less calls read the memo the store lookup filled.
        assert bandwidth_profile(n_blocks=_SHORT) is loaded

    @pytest.mark.parametrize("damage", ["truncated", "foreign"])
    def test_corrupt_entry_is_a_miss_and_rewritten(self, tmp_path, runs, damage):
        from repro.experiments.cache import ProfileCache

        bandwidth_profile(n_blocks=_SHORT, store=ProfileCache(root=tmp_path))
        entry = tmp_path / f"{calibration_key(n_blocks=_SHORT)}.pkl"
        good = entry.read_bytes()
        bad = good[: len(good) // 2] if damage == "truncated" else pickle.dumps({"not": 1})
        entry.write_bytes(bad)
        profile_mod._CACHE.clear()
        bandwidth_profile(n_blocks=_SHORT, store=ProfileCache(root=tmp_path))
        assert len(runs) == 2
        assert entry.read_bytes() == good
