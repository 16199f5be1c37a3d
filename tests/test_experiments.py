"""Tests for the experiments layer: scenarios, persistent stores, sweeps."""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest

import repro.experiments.runner as runner_mod
from repro.core import BoosterConfig
from repro.experiments import (
    Coordinator,
    ProfileCache,
    ResultStore,
    ScenarioSpec,
    SweepResult,
    SweepRunner,
    apply_axis,
    benchmark_dataset,
    expand_axes,
    lease_name,
    parse_axis_specs,
    result_store_key,
    run_scenario,
    scenario_key,
    train_scenario,
)
from repro.gbdt import TrainParams
from repro.gbdt.split import SplitParams

#: A deliberately tiny scenario: fast functional training for cache tests.
TINY = ScenarioSpec(
    dataset="mq2008",
    sim_records=500,
    train=TrainParams(n_trees=2),
    systems=("ideal-32-core", "booster"),
)

SRC_DIR = str(pathlib.Path(__file__).resolve().parent.parent / "src")


class TestScenarioSpec:
    def test_json_roundtrip(self):
        scenario = replace(
            TINY,
            cost_overrides=(("pcie_gbps", 32.0),),
            booster=BoosterConfig(n_clusters=25),
            extra_scale=2.0,
        )
        again = ScenarioSpec.from_json(scenario.to_json())
        assert again == scenario
        assert again.train_key() == scenario.train_key()
        assert again.cache_key() == scenario.cache_key()

    def test_hashable_and_equal(self):
        assert hash(TINY) == hash(ScenarioSpec.from_dict(TINY.to_dict()))

    def test_systems_default_normalization(self):
        assert ScenarioSpec(systems=()).systems == ScenarioSpec().systems

    def test_cost_overrides_applied(self):
        scenario = replace(TINY, cost_overrides=(("pcie_gbps", 32.0),))
        assert scenario.costs().pcie_gbps == 32.0
        with pytest.raises(ValueError, match="unknown cost-model field"):
            replace(TINY, cost_overrides=(("no_such_knob", 1.0),))

    def test_resolved_records_registry_default(self):
        assert ScenarioSpec(dataset="mq2008").resolved_records() == 1000
        assert TINY.resolved_records() == 500

    def test_train_key_covers_every_train_param(self):
        """Regression for the old (dataset, records, trees, seed) cache key:
        depth/split/learning-rate changes must produce distinct keys."""
        base = TINY.train_key()
        variants = [
            replace(TINY, train=replace(TINY.train, max_depth=3)),
            replace(TINY, train=replace(TINY.train, n_trees=3)),
            replace(TINY, train=replace(TINY.train, learning_rate=0.1)),
            replace(TINY, train=replace(TINY.train, conflict_sample=128)),
            replace(TINY, train=replace(TINY.train, split=SplitParams(gamma=0.5))),
            replace(TINY, train=replace(TINY.train, split=SplitParams(lambda_=9.0))),
            replace(TINY, seed=11),
            replace(TINY, sim_records=600),
            replace(TINY, dataset="flight"),
        ]
        keys = [v.train_key() for v in variants]
        assert base not in keys
        assert len(set(keys)) == len(keys)

    def test_hardware_changes_share_training_artifact(self):
        """Booster/cost/system/scale knobs must NOT fragment the train cache."""
        variants = [
            replace(TINY, booster=BoosterConfig(n_clusters=10)),
            replace(TINY, cost_overrides=(("pcie_gbps", 32.0),)),
            replace(TINY, systems=("booster",)),
            replace(TINY, extra_scale=10.0),
            replace(TINY, scale_to_paper=False),
        ]
        for v in variants:
            assert v.train_key() == TINY.train_key()
            assert v.cache_key() != TINY.cache_key()

    def test_train_key_covers_training_source_code(self, monkeypatch):
        """Editing the trainer/generators must invalidate persisted
        artifacts: the code fingerprint participates in the key."""
        import repro.experiments.cache as cache_mod

        before = TINY.train_key()
        monkeypatch.setattr(cache_mod, "_CODE_FINGERPRINT", "deadbeefdeadbeef")
        assert TINY.train_key() != before

    def test_hash_stable_across_processes(self):
        """Keys are content hashes: a fresh interpreter with a different
        PYTHONHASHSEED must derive the identical keys."""
        code = (
            "from repro.experiments import ScenarioSpec\n"
            f"s = ScenarioSpec.from_json({TINY.to_json()!r})\n"
            "print(s.train_key()); print(s.cache_key())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "31337"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.split()
        assert out == [TINY.train_key(), TINY.cache_key()]


class TestProfileCache:
    def test_miss_then_hit_identity(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        result = train_scenario(TINY, cache)
        assert cache.misses == 1 and cache.stores == 1
        assert train_scenario(TINY, cache) is result
        assert cache.hits == 1

    def test_persists_across_instances(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        first = train_scenario(TINY, cache)
        reopened = ProfileCache(root=tmp_path)  # fresh memory layer, same disk
        loaded = train_scenario(TINY, reopened)
        assert loaded is not first  # came off disk, not the old dict
        assert loaded.profile.summary() == first.profile.summary()
        assert reopened.hits == 1 and reopened.misses == 0

    def test_no_retrain_on_disk_hit(self, tmp_path, monkeypatch):
        cache = ProfileCache(root=tmp_path)
        train_scenario(TINY, cache)

        def boom(*a, **k):  # any training call after warm-up is a bug
            raise AssertionError("train() called despite warm cache")

        monkeypatch.setattr("repro.experiments.pipeline.train", boom)
        train_scenario(TINY, ProfileCache(root=tmp_path))

    def test_param_change_invalidates(self, tmp_path, monkeypatch):
        cache = ProfileCache(root=tmp_path)
        train_scenario(TINY, cache)
        calls = []
        from repro.gbdt import train as real_train

        monkeypatch.setattr(
            "repro.experiments.pipeline.train",
            lambda data, params: calls.append(params) or real_train(data, params),
        )
        deeper = replace(TINY, train=replace(TINY.train, max_depth=2))
        result = train_scenario(deeper, cache)
        assert len(calls) == 1 and calls[0].max_depth == 2
        assert result.profile.mean_max_depth() <= 2

    def test_explicit_invalidate_and_corruption(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        key = TINY.train_key()
        train_scenario(TINY, cache)
        assert cache.contains(key)
        cache.invalidate(key)
        assert not cache.contains(key)
        # A truncated entry is a miss, not a crash.
        train_scenario(TINY, cache)
        cache.backend.put(key + cache.suffix, b"not a pickle")
        fresh = ProfileCache(root=tmp_path)
        assert fresh.get(key) is None
        assert fresh.misses == 1

    def test_memory_only_mode(self):
        cache = ProfileCache(root=None)
        assert cache.backend is None and cache.root is None
        assert cache.get_raw("k") is None
        result = train_scenario(TINY, cache)
        assert train_scenario(TINY, cache) is result

    def test_clear_sweeps_orphaned_tmp_and_resets_counters(self, tmp_path):
        """A SIGKILL'd worker can abandon *.tmp files mid-atomic-write;
        clear() must remove them (once stale) and zero the counters."""
        cache = ProfileCache(root=tmp_path)
        train_scenario(TINY, cache)
        orphan = tmp_path / "abandoned1234.tmp"
        orphan.write_bytes(b"partial write")
        os.utime(orphan, (0, 0))  # ancient: unambiguously not in flight
        assert cache.misses == 1 and cache.stores == 1
        cache.clear()
        assert list(tmp_path.glob("*.pkl")) == []
        assert list(tmp_path.glob("*.tmp")) == []
        assert (cache.hits, cache.misses, cache.stores) == (0, 0, 0)
        # And the cleared store behaves like a cold one.
        assert not cache.contains(TINY.train_key())

    def test_clear_spares_fresh_tmp_files(self, tmp_path):
        """A just-written *.tmp may be a concurrent worker's atomic write in
        flight; clear() must not clobber it."""
        cache = ProfileCache(root=tmp_path)
        in_flight = tmp_path / "live5678.tmp"
        in_flight.write_bytes(b"concurrent worker writing")
        cache.clear()
        assert in_flight.exists()

    def test_clear_does_not_touch_sibling_result_files(self, tmp_path):
        """ProfileCache.clear() and ResultStore.clear() share a directory
        but own different suffixes (plus the orphaned *.tmp garbage)."""
        cache = ProfileCache(root=tmp_path)
        results = ResultStore(root=tmp_path)
        cache.put("tdeadbeef", {"k": 1})
        results.put("sdeadbeef", {"k": 2})
        cache.clear()
        assert list(tmp_path.glob("*.pkl")) == []
        assert ResultStore(root=tmp_path).get("sdeadbeef") == {"k": 2}  # off disk


class TestSweepExpansion:
    def test_cartesian_counts(self):
        scenarios = expand_axes(
            TINY, {"max_depth": [2, 3, 4], "n_bus": [1600, 3200]}
        )
        assert len(scenarios) == 6
        assert len({s.cache_key() for s in scenarios}) == 6
        # 3 distinct training configs: n_bus is hardware-only.
        assert len({s.train_key() for s in scenarios}) == 3

    def test_no_axes_returns_base(self):
        assert expand_axes(TINY, {}) == [TINY]

    def test_axis_targets(self):
        assert apply_axis(TINY, "dataset", "flight").dataset == "flight"
        assert apply_axis(TINY, "n_clusters", 10).booster.n_clusters == 10
        assert apply_axis(TINY, "max_depth", 3).train.max_depth == 3
        assert apply_axis(TINY, "gamma", 0.5).train.split.gamma == 0.5
        assert apply_axis(TINY, "pcie_gbps", 32.0).cost_overrides == (
            ("pcie_gbps", 32.0),
        )
        n_bus = apply_axis(TINY, "n_bus", 1600)
        assert n_bus.booster.n_clusters == 25 and n_bus.booster.n_bus == 1600

    def test_n_bus_resolves_against_swept_bus_per_cluster(self):
        """n_bus is derived: it must be applied after bus_per_cluster no
        matter the axis declaration order."""
        from repro.experiments import read_axis

        for axes in (
            {"n_bus": [1600], "bus_per_cluster": [16]},
            {"bus_per_cluster": [16], "n_bus": [1600]},
        ):
            (scenario,) = expand_axes(TINY, axes)
            assert scenario.booster.n_bus == 1600
            assert scenario.booster.bus_per_cluster == 16
            assert scenario.booster.n_clusters == 100
            assert read_axis(scenario, "n_bus") == 1600

    def test_read_axis_inverts_apply_axis(self):
        from repro.experiments import read_axis

        for name, value in [
            ("dataset", "flight"),
            ("max_depth", 3),
            ("gamma", 0.5),
            ("n_clusters", 10),
            ("pcie_gbps", 32.0),
            ("seed", 11),
        ]:
            assert read_axis(apply_axis(TINY, name, value), name) == value
        assert read_axis(TINY, "records") == 500
        with pytest.raises(ValueError, match="unknown sweep axis"):
            read_axis(TINY, "warp_speed")

    def test_n_bus_must_divide(self):
        with pytest.raises(ValueError, match="not a multiple"):
            apply_axis(TINY, "n_bus", 1000)

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            apply_axis(TINY, "warp_speed", 9)

    def test_non_numeric_value_rejected(self):
        for name in ("max_depth", "n_bus", "pcie_gbps", "seed"):
            with pytest.raises(ValueError, match="needs a numeric value"):
                apply_axis(TINY, name, "abc")
        assert apply_axis(TINY, "dataset", "flight").dataset == "flight"

    def test_integer_axes_reject_fractions(self):
        for name, value in [
            ("seed", 1.5),
            ("max_depth", 2.5),
            ("n_trees", 2.5),
            ("seed", float("inf")),
            ("seed", float("nan")),
        ]:
            with pytest.raises(ValueError, match="needs an integer value"):
                apply_axis(TINY, name, value)
        # Integral floats coerce cleanly; genuinely-float axes stay float.
        assert apply_axis(TINY, "seed", 3.0).seed == 3
        assert apply_axis(TINY, "learning_rate", 0.1).train.learning_rate == 0.1

    def test_aliased_duplicate_axes_rejected(self):
        with pytest.raises(ValueError, match="duplicate axis"):
            parse_axis_specs(["trees=2,3", "n_trees=4"])
        with pytest.raises(ValueError, match="duplicate axis"):
            parse_axis_specs(["records=500", "sim_records=600"])

    def test_parse_axis_specs(self):
        axes = parse_axis_specs(["n_bus=1600,3200", "dataset=higgs, flight"])
        assert axes == {"n_bus": [1600, 3200], "dataset": ["higgs", "flight"]}
        assert parse_axis_specs(["learning_rate=0.1,0.3"]) == {
            "learning_rate": [0.1, 0.3]
        }
        for bad in (["n_bus"], ["seed=,"], ["=1,2"], ["seed="]):
            with pytest.raises(ValueError, match="bad axis spec"):
                parse_axis_specs(bad)
        with pytest.raises(ValueError, match="duplicate axis"):
            parse_axis_specs(["seed=1,2", "seed=3"])

    def test_n_bus_float_value_yields_int_clusters(self):
        scenario = apply_axis(TINY, "n_bus", 1600.0)
        assert scenario.booster.n_clusters == 25
        assert isinstance(scenario.booster.n_clusters, int)
        assert scenario.cache_key() == apply_axis(TINY, "n_bus", 1600).cache_key()

    def test_parse_axis_specs_canonicalizes_aliases(self):
        """Regression: the raw alias used to survive as the axes-dict key,
        so `trees=` and `n_trees=` sweeps carried different axis metadata
        (labels, manifest keys) for identical scenarios."""
        assert parse_axis_specs(["trees=4,8"]) == {"n_trees": [4, 8]}
        assert parse_axis_specs(["records=500"]) == {"sim_records": [500]}
        assert parse_axis_specs(["scale=2.0"]) == {"extra_scale": [2.0]}
        spelled = expand_axes(TINY, parse_axis_specs(["trees=4,8"]))
        canonical = expand_axes(TINY, parse_axis_specs(["n_trees=4,8"]))
        assert spelled == canonical
        assert [s.cache_key() for s in spelled] == [s.cache_key() for s in canonical]

    def test_cost_override_values_validated(self):
        """NaN/negative/zero cost overrides poison cache keys and every
        comparison built on them; apply_axis must reject them up front."""
        for bad in (float("nan"), float("inf"), -1.0, 0.0):
            with pytest.raises(ValueError, match="finite, positive"):
                apply_axis(TINY, "pcie_gbps", bad)
        # Int-typed cost fields reject non-positive values too (NaN/inf
        # already fail their integer check).
        with pytest.raises(ValueError, match="finite, positive"):
            apply_axis(TINY, "host_bin_bytes", -16)
        ok = apply_axis(TINY, "pcie_gbps", 32.0)
        assert ok.cost_overrides == (("pcie_gbps", 32.0),)

    def test_scenario_spec_rejects_poisoned_cost_overrides(self):
        """The same guard holds at construction (manifest/JSON inputs)."""
        for bad in (float("nan"), -2.0, "fast"):
            with pytest.raises(ValueError, match="finite, positive"):
                replace(TINY, cost_overrides=(("pcie_gbps", bad),))


class TestInferenceSweeps:
    def test_run_scenario_inference_stores_then_replays(self, tmp_path, monkeypatch):
        """Inference sweeps ride the same result store: a completed scenario
        replays with zero training and zero simulation."""
        first = run_scenario(TINY, ProfileCache(root=tmp_path), mode="inference")
        assert first.kind == "inference" and first.ok and not first.stored
        assert first.comparison is None and first.inference is not None
        assert first.inference.speedup("booster") > 1.0
        assert first.booster_speedup == first.inference.speedup("booster")
        monkeypatch.setattr(
            "repro.experiments.pipeline.train",
            _tripwire("train() despite stored inference result"),
        )
        monkeypatch.setattr(
            "repro.sim.executor.Executor.from_scenario",
            _tripwire("simulated despite stored inference result"),
        )
        second = run_scenario(TINY, ProfileCache(root=tmp_path), mode="inference")
        assert second.stored and second.cache_hit and second.ok
        assert second.inference.seconds == first.inference.seconds

    def test_modes_use_disjoint_store_namespaces(self, tmp_path):
        """A stored compare result must never be replayed as an inference
        result (or vice versa): the two kinds key separately."""
        assert result_store_key(TINY, "compare") != result_store_key(TINY, "inference")
        cache = ProfileCache(root=tmp_path)
        run_scenario(TINY, cache)  # completes + stores the compare payload
        inf = run_scenario(TINY, cache, mode="inference")
        assert not inf.stored  # computed fresh, not replayed from compare
        again = run_scenario(TINY, cache, mode="inference")
        assert again.stored

    def test_inference_manifest_roundtrip(self, tmp_path):
        result = run_scenario(TINY, ProfileCache(root=tmp_path), mode="inference")
        again = SweepResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert again.kind == "inference"
        assert again.comparison is None
        assert again.inference.seconds == result.inference.seconds
        assert again.scenario == result.scenario

    def test_inference_honors_extra_scale(self, tmp_path):
        """Regression: inference mode used to drop scenario.extra_scale,
        so a scale axis produced distinct cache keys over byte-identical
        measurements."""
        cache = ProfileCache(root=tmp_path)
        base = run_scenario(TINY, cache, mode="inference")
        scaled = run_scenario(
            replace(TINY, extra_scale=4.0), cache, mode="inference"
        )
        for system, seconds in base.inference.seconds.items():
            assert scaled.inference.seconds[system] > 2.0 * seconds

    def test_runner_inference_mode(self, tmp_path):
        scenarios = expand_axes(TINY, {"max_depth": [2, 3]})
        results = SweepRunner(
            cache=ProfileCache(root=tmp_path), parallel=False, mode="inference"
        ).run_all(scenarios)
        assert len(results) == 2
        assert all(r.kind == "inference" and r.inference is not None for r in results)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep mode"):
            run_scenario(TINY, ProfileCache(root=None), mode="bogus")
        with pytest.raises(ValueError, match="unknown sweep mode"):
            SweepRunner(mode="bogus")
        with pytest.raises(ValueError, match="unknown sweep mode"):
            result_store_key(TINY, "bogus")


class TestSharding:
    """Splitting a sweep across workers: lease files arbitrate ownership,
    so every worker must derive the same lease for the same scenario."""

    def test_duplicate_scenarios_share_an_owner(self, tmp_path, monkeypatch):
        calls = []

        def fake(scenario, cache=None, results=None, mode="compare"):
            calls.append(scenario_key(scenario))
            return SweepResult(scenario=scenario, comparison=None, kind=mode)

        monkeypatch.setattr(runner_mod, "run_scenario", fake)
        other = replace(TINY, seed=11)
        coordinator = Coordinator(tmp_path / "coord", ttl=60.0)
        results = list(
            SweepRunner(cache=ProfileCache(root=tmp_path), parallel=False).run_stealing(
                [TINY, other, TINY, TINY], coordinator
            )
        )
        assert sorted(calls) == sorted([scenario_key(TINY), scenario_key(other)])
        assert [r.scenario for r in results].count(TINY) == 1
        leases = coordinator.leases()
        assert len(leases) == 2 and all(lease.done for lease in leases)

    def test_partition_stable_across_processes(self):
        """Lease names are a content hash: a fresh interpreter with a
        different PYTHONHASHSEED derives the same lease for every scenario,
        unkeyable ones included."""
        bad = replace(TINY, dataset="not-a-benchmark")
        scenarios = expand_axes(TINY, {"max_depth": [2, 3, 4]}) + [bad]
        names = [lease_name(scenario_key(s)) for s in scenarios]
        code = (
            "from dataclasses import replace\n"
            "from repro.experiments import (ScenarioSpec, expand_axes,\n"
            "    lease_name, scenario_key)\n"
            f"base = ScenarioSpec.from_json({TINY.to_json()!r})\n"
            "scenarios = expand_axes(base, {'max_depth': [2, 3, 4]})\n"
            "scenarios.append(replace(base, dataset='not-a-benchmark'))\n"
            "print(*[lease_name(scenario_key(s)) for s in scenarios])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "31337"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.split()
        assert out == names


@pytest.fixture(scope="module")
def sweep_scenarios():
    """Four scenarios over two axes (the acceptance-criteria shape)."""
    return expand_axes(TINY, {"max_depth": [2, 3], "seed": [3, 5]})


class TestSweepRunner:
    def test_parallel_cold_then_warm(self, tmp_path, sweep_scenarios, monkeypatch):
        cache = ProfileCache(root=tmp_path)
        runner = SweepRunner(cache=cache, max_workers=4)
        cold = runner.run_all(sweep_scenarios)
        assert len(cold) == 4
        assert not any(r.cache_hit for r in cold)
        # Genuinely spread across multiple worker processes, none of them us.
        pids = {r.worker_pid for r in cold}
        assert len(pids) >= 2
        assert os.getpid() not in pids

        # Re-running the identical sweep performs ZERO functional-training
        # calls: every worker is served from the on-disk cache.  train() is
        # replaced with a tripwire; the fork-started workers inherit it, so
        # any training call in any process fails the run.
        def boom(*a, **k):
            raise AssertionError("train() called during warm sweep")

        monkeypatch.setattr("repro.experiments.pipeline.train", boom)
        if multiprocessing.get_start_method() != "fork":  # pragma: no cover
            pytest.skip("tripwire inheritance requires fork start method")
        warm = SweepRunner(cache=ProfileCache(root=tmp_path), max_workers=4).run_all(
            sweep_scenarios
        )
        assert all(r.cache_hit for r in warm)
        for a, b in zip(cold, warm):
            assert a.scenario == b.scenario
            assert {k: v.as_dict() for k, v in a.comparison.systems.items()} == {
                k: v.as_dict() for k, v in b.comparison.systems.items()
            }

    def test_serial_equals_parallel(self, tmp_path, sweep_scenarios):
        """A from-scratch serial run reproduces the parallel results exactly."""
        parallel = SweepRunner(
            cache=ProfileCache(root=tmp_path / "par"), max_workers=4
        ).run_all(sweep_scenarios)
        serial = SweepRunner(
            cache=ProfileCache(root=tmp_path / "ser"), parallel=False
        ).run_all(sweep_scenarios)
        assert [r.scenario for r in serial] == [r.scenario for r in parallel]
        for p, s in zip(parallel, serial):
            assert {k: v.as_dict() for k, v in p.comparison.systems.items()} == {
                k: v.as_dict() for k, v in s.comparison.systems.items()
            }
        # Serial mode runs in this process.
        assert {r.worker_pid for r in serial} == {os.getpid()}

    def test_serial_counts_training_calls(self, tmp_path, monkeypatch):
        calls = []
        from repro.gbdt import train as real_train

        monkeypatch.setattr(
            "repro.experiments.pipeline.train",
            lambda data, params: calls.append(1) or real_train(data, params),
        )
        scenarios = expand_axes(TINY, {"n_bus": [1600, 3200]})  # 1 training config
        runner = SweepRunner(cache=ProfileCache(root=tmp_path), parallel=False)
        first = runner.run_all(scenarios)
        assert len(first) == 2 and len(calls) == 1  # shared artifact
        calls.clear()
        second = runner.run_all(scenarios)
        assert len(second) == 2 and calls == []  # zero retraining
        assert all(r.cache_hit for r in second)

    def test_parallel_trains_hardware_axes_once(self, tmp_path):
        """Scenarios differing only in hardware knobs share one cold
        training: the representative trains, siblings are cache hits."""
        scenarios = expand_axes(TINY, {"n_bus": [1600, 3200, 6400, 12800]})
        assert len({s.train_key() for s in scenarios}) == 1
        results = SweepRunner(
            cache=ProfileCache(root=tmp_path), max_workers=4
        ).run_all(scenarios)
        assert len(results) == 4
        assert sum(not r.cache_hit for r in results) == 1

    def test_diskless_cache_falls_back_to_serial(self):
        """A memory-only cache cannot be shared with pool workers; the
        runner must keep the train-once guarantee by running in-process."""
        scenarios = expand_axes(TINY, {"n_bus": [1600, 3200]})
        results = SweepRunner(cache=ProfileCache(root=None), max_workers=4).run_all(
            scenarios
        )
        assert {r.worker_pid for r in results} == {os.getpid()}
        assert [r.cache_hit for r in results] == [False, True]

    def test_run_all_keeps_duplicate_scenarios(self, tmp_path):
        results = SweepRunner(
            cache=ProfileCache(root=tmp_path), parallel=False
        ).run_all([TINY, TINY, TINY])
        assert len(results) == 3
        assert [r.scenario for r in results] == [TINY, TINY, TINY]

    def test_run_scenario_result_shape(self, tmp_path):
        result = run_scenario(TINY, ProfileCache(root=tmp_path))
        assert set(result.comparison.systems) == {"ideal-32-core", "booster"}
        assert result.booster_speedup > 1.0
        assert result.scenario == TINY


def _tripwire(message):
    def boom(*a, **k):
        raise AssertionError(message)

    return boom


class TestResultStore:
    def test_run_scenario_stores_then_replays(self, tmp_path, monkeypatch):
        """A completed scenario is served from the result store with zero
        functional-training AND zero simulation calls."""
        first = run_scenario(TINY, ProfileCache(root=tmp_path))
        assert not first.stored and first.ok
        monkeypatch.setattr(
            "repro.experiments.pipeline.train", _tripwire("train() despite stored result")
        )
        monkeypatch.setattr(
            "repro.sim.executor.Executor.from_scenario",
            _tripwire("simulated despite stored result"),
        )
        second = run_scenario(TINY, ProfileCache(root=tmp_path))
        assert second.stored and second.cache_hit and second.ok
        assert second.scenario == first.scenario
        assert {k: v.as_dict() for k, v in second.comparison.systems.items()} == {
            k: v.as_dict() for k, v in first.comparison.systems.items()
        }

    def test_sim_code_change_invalidates_stored_results(self, tmp_path, monkeypatch):
        """Editing simulation source must not replay stale timings: the
        stored payload records a sim fingerprint checked on load."""
        import repro.experiments.cache as cache_mod

        run_scenario(TINY, ProfileCache(root=tmp_path))
        monkeypatch.setattr(cache_mod, "_SIM_FINGERPRINT", "feedfacefeedface")
        again = run_scenario(TINY, ProfileCache(root=tmp_path))
        assert not again.stored  # recomputed, not replayed

    def test_corrupt_stored_result_is_miss(self, tmp_path):
        first = run_scenario(TINY, ProfileCache(root=tmp_path))
        store = ResultStore(root=tmp_path)
        store.backend.put(TINY.cache_key() + store.suffix, b"not json {")
        again = run_scenario(TINY, ProfileCache(root=tmp_path))
        assert not again.stored and again.ok
        assert {k: v.as_dict() for k, v in again.comparison.systems.items()} == {
            k: v.as_dict() for k, v in first.comparison.systems.items()
        }

    def test_sweep_result_json_roundtrip(self, tmp_path):
        result = run_scenario(TINY, ProfileCache(root=tmp_path))
        line = json.dumps(result.to_dict())  # plain json, as the manifest writes
        again = SweepResult.from_dict(json.loads(line))
        assert again.scenario == result.scenario
        assert again.comparison == result.comparison
        assert again.cache_hit == result.cache_hit
        assert again.worker_pid == result.worker_pid
        assert again.error is None and result.error is None

    def test_error_result_json_roundtrip(self, tmp_path):
        bad = replace(TINY, systems=("no-such-system",))
        (result,) = SweepRunner(
            cache=ProfileCache(root=tmp_path), parallel=False
        ).run_all([bad])
        assert result.error is not None and result.comparison is None
        again = SweepResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert again.error == result.error
        assert again.comparison is None
        assert again.scenario == bad
        with pytest.raises(ValueError, match="failed"):
            again.booster_speedup


class TestDurations:
    """Recorded wall times: the calibration corpus for the work-stealing
    claim order (see test_schedule.py for the ordering itself)."""

    def test_fresh_run_records_wall_time(self, tmp_path):
        result = run_scenario(TINY, ProfileCache(root=tmp_path))
        assert result.duration_s is not None
        assert result.duration_s > 0

    def test_stored_replay_keeps_original_duration(self, tmp_path, monkeypatch):
        """A replayed result reports the wall time of the execution that
        actually ran, not the (near-zero) replay."""
        first = run_scenario(TINY, ProfileCache(root=tmp_path))
        monkeypatch.setattr(
            "repro.experiments.pipeline.train", _tripwire("train() on replay")
        )
        monkeypatch.setattr(
            "repro.sim.executor.Executor.from_scenario",
            _tripwire("simulated on replay"),
        )
        second = run_scenario(TINY, ProfileCache(root=tmp_path))
        assert second.stored
        assert second.duration_s == first.duration_s

    def test_duration_json_roundtrip(self, tmp_path):
        result = run_scenario(TINY, ProfileCache(root=tmp_path))
        again = SweepResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert again.duration_s == pytest.approx(result.duration_s)

    def test_missing_duration_loads_as_none(self, tmp_path):
        """Manifests and store payloads written before durations existed
        must load as ``duration_s=None``, not crash resume/merge/report."""
        result = run_scenario(TINY, ProfileCache(root=tmp_path))
        d = result.to_dict()
        del d["duration_s"]  # a pre-duration manifest line
        again = SweepResult.from_dict(json.loads(json.dumps(d)))
        assert again.duration_s is None
        assert again.comparison is not None and again.ok

    def test_error_results_carry_no_duration(self, tmp_path):
        bad = replace(TINY, systems=("no-such-system",))
        (result,) = SweepRunner(
            cache=ProfileCache(root=tmp_path), parallel=False
        ).run_all([bad])
        assert result.error is not None
        assert result.duration_s is None
        assert SweepResult.from_dict(result.to_dict()).duration_s is None


class TestImportHardening:
    """`repro cache import DIR` copies store entries and nothing else."""

    def test_flat_non_entries_are_skipped(self, capsys, monkeypatch, tmp_path):
        """Only flat ``.pkl``/``.json`` entries cross: subdirectories, temp
        files, the work-stealing descriptor, and other files stay behind."""
        import repro.experiments.cache as cache_mod
        from repro.cli import main

        source = tmp_path / "media"
        (source / "nested").mkdir(parents=True)
        (source / "nested" / "tdeep.pkl").write_bytes(b"nested")
        (source / "sub.json").mkdir()  # a directory with an entry suffix
        (source / "tinflight.pkl.tmp").write_bytes(b"partial")
        (source / "sweep.json").write_text("{}")
        (source / "README.txt").write_text("notes")
        (source / "sdeadbeef.json").write_text("{}")
        (source / "t1.pkl").write_bytes(b"pickle")
        store = tmp_path / "store"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(store))
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)
        assert main(["cache", "import", str(source)]) == 0
        assert "imported 2 entr(ies)" in capsys.readouterr().out
        assert sorted(p.name for p in store.iterdir()) == ["sdeadbeef.json", "t1.pkl"]
        assert (store / "t1.pkl").read_bytes() == b"pickle"


class TestFaultTolerance:
    def test_serial_sweep_survives_failing_scenario(self, tmp_path):
        """One bad scenario yields a structured error; the rest complete."""
        bad = replace(TINY, systems=("no-such-system",))
        scenarios = [expand_axes(TINY, {"n_bus": [1600]})[0], bad, TINY]
        results = SweepRunner(
            cache=ProfileCache(root=tmp_path), parallel=False
        ).run_all(scenarios)
        assert len(results) == 3
        assert [r.error is not None for r in results] == [False, True, False]
        assert "no-such-system" in results[1].error
        # Failed scenarios are never persisted: a later run re-executes them.
        assert ResultStore(root=tmp_path).get(bad.cache_key()) is None

    def test_parallel_failed_representative_releases_siblings(self, tmp_path):
        """Scenarios queued behind a failed representative are re-dispatched
        (promoted), not silently dropped with the old future.result() abort."""
        bad = replace(TINY, systems=("no-such-system",))
        good = expand_axes(TINY, {"n_bus": [1600, 3200, 6400]})
        scenarios = [bad, *good]  # all four share one train key; bad leads
        assert len({s.train_key() for s in scenarios}) == 1
        results = SweepRunner(
            cache=ProfileCache(root=tmp_path), max_workers=2
        ).run_all(scenarios)
        assert len(results) == 4
        errors = [r for r in results if r.error is not None]
        assert len(errors) == 1 and errors[0].scenario == bad
        assert all(r.comparison is not None for r in results if r.error is None)

    def test_parallel_pretrain_failure_promotes_every_sibling(
        self, tmp_path, monkeypatch
    ):
        """When the representative dies before publishing the artifact, the
        promotion chain gives every queued sibling its own error result."""
        if multiprocessing.get_start_method() != "fork":  # pragma: no cover
            pytest.skip("tripwire inheritance requires fork start method")

        def boom(data, params):
            raise RuntimeError("trainer exploded")

        monkeypatch.setattr("repro.experiments.pipeline.train", boom)
        scenarios = expand_axes(TINY, {"n_bus": [1600, 3200, 6400]})
        results = SweepRunner(
            cache=ProfileCache(root=tmp_path), max_workers=2
        ).run_all(scenarios)
        assert len(results) == 3
        assert all(r.error is not None and "trainer exploded" in r.error for r in results)

    def test_parallel_unkeyable_scenario_reports_error(self, tmp_path):
        """A scenario whose cache key cannot even be derived (unknown
        dataset) becomes an error result instead of crashing the runner."""
        bad = replace(TINY, dataset="not-a-benchmark")
        results = SweepRunner(
            cache=ProfileCache(root=tmp_path), max_workers=2
        ).run_all([bad, TINY])
        assert len(results) == 2
        by_ok = {r.error is None: r for r in results}
        assert by_ok[False].scenario == bad
        assert by_ok[True].scenario == TINY

    def test_resume_runs_zero_train_zero_simulate(self, tmp_path, monkeypatch):
        """The acceptance criterion: re-running a completed sweep touches
        neither the trainer nor the simulator."""
        scenarios = expand_axes(TINY, {"max_depth": [2, 3]})
        first = SweepRunner(cache=ProfileCache(root=tmp_path), parallel=False).run_all(
            scenarios
        )
        assert all(r.ok and not r.stored for r in first)
        monkeypatch.setattr(
            "repro.experiments.pipeline.train", _tripwire("train() on resumed sweep")
        )
        monkeypatch.setattr(
            "repro.sim.executor.Executor.from_scenario",
            _tripwire("simulated on resumed sweep"),
        )
        second = SweepRunner(cache=ProfileCache(root=tmp_path), parallel=False).run_all(
            scenarios
        )
        assert all(r.stored and r.cache_hit and r.ok for r in second)
        for a, b in zip(first, second):
            assert a.scenario == b.scenario
            assert {k: v.as_dict() for k, v in a.comparison.systems.items()} == {
                k: v.as_dict() for k, v in b.comparison.systems.items()
            }


class TestExecutorFacade:
    def test_from_scenario_roundtrip(self, tmp_path):
        from repro.sim import Executor

        scenario = replace(TINY, cost_overrides=(("pcie_gbps", 32.0),))
        executor = Executor.from_scenario(scenario, cache=ProfileCache(root=tmp_path))
        assert executor.scenario("mq2008") == replace(scenario, systems=())
        assert executor.costs.pcie_gbps == 32.0
        assert executor.sim_trees == scenario.train.n_trees

    @pytest.mark.parametrize("remote", [False, True], ids=["directory", "url"])
    def test_warm_store_skips_calibration(self, tmp_path, monkeypatch, served_url, remote):
        """An executor in a fresh process (empty memo) over a warm store --
        a directory or a `repro store-serve` URL -- loads the DRAM
        calibration instead of simulating it."""
        import pickle

        import repro.memory.profile as profile_mod
        from repro.memory.dram import DRAMSimulator
        from repro.sim import Executor

        root = served_url if remote else tmp_path / "store"
        monkeypatch.setattr(profile_mod, "_CACHE", {})
        cold = Executor.from_scenario(TINY, cache=ProfileCache(root=root))
        monkeypatch.setattr(profile_mod, "_CACHE", {})
        runs = []
        monkeypatch.setattr(DRAMSimulator, "run_many", lambda *a, **k: runs.append(a))
        warm = Executor.from_scenario(TINY, cache=ProfileCache(root=root))
        assert runs == []
        assert warm.bandwidth is not cold.bandwidth
        assert pickle.dumps(warm.bandwidth) == pickle.dumps(cold.bandwidth)

    def test_executor_shares_sweep_artifacts(self, tmp_path):
        """The facade and the sweep runner hit the same persistent cache."""
        from repro.sim import Executor

        cache = ProfileCache(root=tmp_path)
        SweepRunner(cache=cache, parallel=False).run_all([TINY])
        executor = Executor.from_scenario(TINY, cache=ProfileCache(root=tmp_path))
        hits_before = executor._cache.hits
        executor.train_result("mq2008")
        assert executor._cache.hits == hits_before + 1

    def test_inference_and_serve_generate_no_dataset(self, tmp_path, monkeypatch):
        """Inference and serving are priced from the training profile: once
        training is done, neither generates a dataset -- not even through
        the process-wide memo, which is cleared here."""
        from repro.experiments import pipeline
        from repro.serving import ServingParams
        from repro.sim import Executor

        executor = Executor.from_scenario(TINY, cache=ProfileCache(root=tmp_path))
        executor.train_result("mq2008")
        pipeline._DATASET_MEMO.clear()
        generations = []
        real_generate = pipeline.generate
        monkeypatch.setattr(
            pipeline,
            "generate",
            lambda spec: generations.append(spec) or real_generate(spec),
        )
        executor.inference("mq2008", n_trees=4)
        executor.serve("mq2008", serving=ServingParams(qps=100.0, duration_s=0.2))
        assert generations == []

    def test_inference_rejects_zero_trees(self, tmp_path):
        """Regression: ``n_trees=0`` used to price the measured tree count."""
        from repro.sim import Executor

        executor = Executor.from_scenario(TINY, cache=ProfileCache(root=tmp_path))
        with pytest.raises(ValueError, match="n_trees_target"):
            executor.inference("mq2008", n_trees=0)

    def test_inference_does_not_mutate_work(self, tmp_path):
        """Regression: the paper-scaling used to mutate InferenceWork in place."""
        from repro.sim import Executor
        from tests.oracles import inference_work

        executor = Executor.from_scenario(TINY, cache=ProfileCache(root=tmp_path))
        result = executor.train_result("mq2008")
        data = benchmark_dataset("mq2008", TINY.sim_records, TINY.seed)
        work = inference_work(result.trees, data, n_trees_target=4)
        before = (work.n_records, work.sum_path_len, work.spec.n_records)
        first = executor.inference("mq2008", n_trees=4)
        second = executor.inference("mq2008", n_trees=4)
        assert (work.n_records, work.sum_path_len, work.spec.n_records) == before
        assert first.seconds == second.seconds

    def test_inference_scaled_copy(self):
        from tests.oracles import inference_work

        result = train_scenario(TINY, ProfileCache(root=None))
        data = benchmark_dataset("mq2008", 500)
        work = inference_work(result.trees, data, n_trees_target=4)
        scaled = work.scaled(10.0)
        assert scaled is not work
        assert scaled.n_records == work.n_records * 10
        assert scaled.sum_path_len == pytest.approx(work.sum_path_len * 10)
        assert scaled.mean_path_len == work.mean_path_len
        assert scaled.table_bytes_total == work.table_bytes_total
