"""Serving as a sweep kind: key namespaces, axes, store replay, round-trips."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import (
    SERVING_AXIS_NAMES,
    ProfileCache,
    ScenarioSpec,
    ServingParams,
    apply_axis,
    read_axis,
    result_store_key,
    run_scenario,
)
from repro.gbdt import TrainParams
from repro.serving import ServingResult

#: Tiny, fast scenario with a short offered load (mirrors TINY in
#: test_experiments.py, plus the serving half).
TINY_SERVE = ScenarioSpec(
    dataset="mq2008",
    sim_records=500,
    train=TrainParams(n_trees=2),
    systems=("ideal-32-core", "booster"),
    serving=ServingParams(qps=150.0, duration_s=1.0),
)


class TestKeys:
    def test_modes_share_suffix_under_distinct_namespaces(self):
        key = TINY_SERVE.cache_key()
        compare = result_store_key(TINY_SERVE, "compare")
        inference = result_store_key(TINY_SERVE, "inference")
        serving = result_store_key(TINY_SERVE, "serving")
        assert compare == key and key.startswith("s")
        assert inference == "i" + key[1:]
        assert serving == "v" + key[1:]

    def test_serving_block_omitted_when_absent(self):
        """Scenarios without a serving half must serialize and key exactly as
        they did before the serving field existed (store compatibility)."""
        plain = replace(TINY_SERVE, serving=None)
        assert "serving" not in plain.to_dict()
        assert ScenarioSpec.from_dict(plain.to_dict()) == plain

    def test_serving_knobs_change_the_key(self):
        base = TINY_SERVE.cache_key()
        variants = [
            replace(TINY_SERVE, serving=None),
            replace(TINY_SERVE, serving=replace(TINY_SERVE.serving, qps=300.0)),
            replace(TINY_SERVE, serving=replace(TINY_SERVE.serving, policy="timeout")),
            replace(TINY_SERVE, serving=replace(TINY_SERVE.serving, max_batch=8)),
            replace(TINY_SERVE, serving=replace(TINY_SERVE.serving, queue="priority")),
        ]
        keys = [v.cache_key() for v in variants]
        assert base not in keys
        assert len(set(keys)) == len(keys)

    def test_trace_keys_hash_content_not_path(self):
        def with_trace(path, sha):
            return replace(
                TINY_SERVE,
                serving=ServingParams(arrival="trace", trace_path=path, trace_sha=sha),
            )

        here = with_trace("/data/trace.jsonl", "a" * 20)
        moved = with_trace("/mnt/elsewhere/trace.jsonl", "a" * 20)
        edited = with_trace("/data/trace.jsonl", "b" * 20)
        assert here.cache_key() == moved.cache_key()  # moving a file: same experiment
        assert here.cache_key() != edited.cache_key()  # editing it: different one

    def test_serving_round_trips_through_json(self):
        again = ScenarioSpec.from_json(TINY_SERVE.to_json())
        assert again == TINY_SERVE
        assert again.cache_key() == TINY_SERVE.cache_key()
        assert isinstance(again.serving, ServingParams)


class TestAxes:
    def test_serving_axes_are_registered(self):
        assert {"arrival_qps", "policy", "max_batch", "queue"} <= SERVING_AXIS_NAMES

    def test_apply_and_read_round_trip(self):
        sc = apply_axis(TINY_SERVE, "arrival_qps", 425.0)
        assert read_axis(sc, "arrival_qps") == 425.0
        sc = apply_axis(sc, "policy", "timeout")
        assert read_axis(sc, "policy") == "timeout"
        assert sc.serving.qps == 425.0  # earlier axis survives the later one

    def test_qps_alias_matches_canonical_axis(self):
        assert apply_axis(TINY_SERVE, "qps", 99.0) == apply_axis(
            TINY_SERVE, "arrival_qps", 99.0
        )

    def test_axis_on_serving_free_scenario_installs_defaults(self):
        sc = apply_axis(replace(TINY_SERVE, serving=None), "arrival_qps", 50.0)
        assert sc.serving == ServingParams(qps=50.0)

    def test_max_batch_axis_keeps_integer_type(self):
        sc = apply_axis(TINY_SERVE, "max_batch", 8)
        assert read_axis(sc, "max_batch") == 8
        assert isinstance(sc.serving.max_batch, int)

    def test_string_value_on_numeric_axis_rejected(self):
        with pytest.raises(ValueError):
            apply_axis(TINY_SERVE, "arrival_qps", "fast")


class TestStoreReplay:
    def test_run_scenario_serving_stores_then_replays(self, tmp_path, monkeypatch):
        first = run_scenario(TINY_SERVE, ProfileCache(root=tmp_path), mode="serving")
        assert first.kind == "serving" and first.ok and not first.stored
        assert first.comparison is None and first.inference is None
        assert isinstance(first.serving, ServingResult)
        assert first.payload is first.serving
        booster = first.serving.stats("booster")
        assert booster.n_requests > 0
        assert booster.p99_ms >= booster.p50_ms > 0
        assert first.serving.speedup("booster") > 0

        def boom(*a, **k):
            raise AssertionError("re-simulated despite stored serving result")

        monkeypatch.setattr("repro.experiments.pipeline.train", boom)
        monkeypatch.setattr("repro.sim.executor.Executor.__post_init__", boom)
        second = run_scenario(TINY_SERVE, ProfileCache(root=tmp_path), mode="serving")
        assert second.stored and second.cache_hit and second.ok
        assert second.serving.to_dict() == first.serving.to_dict()

    def test_sweep_result_round_trips_serving_payload(self, tmp_path):
        from repro.experiments import SweepResult

        result = run_scenario(TINY_SERVE, ProfileCache(root=tmp_path), mode="serving")
        again = SweepResult.from_dict(result.to_dict())
        assert again.kind == "serving"
        assert again.serving.to_dict() == result.serving.to_dict()

    def test_serving_mode_rejects_unknown_mode_string(self, tmp_path):
        with pytest.raises(ValueError, match="unknown sweep mode"):
            run_scenario(TINY_SERVE, ProfileCache(root=tmp_path), mode="latency")
