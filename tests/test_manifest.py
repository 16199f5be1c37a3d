"""Tests for the manifest rules shared by merge, report and --resume
(repro.experiments.manifest): which lines count, how they are keyed, and
which line wins."""

import json
from dataclasses import replace

import pytest

from repro.baselines.base import StepTimes
from repro.experiments import ScenarioSpec, SweepResult, scenario_key
from repro.experiments import manifest
from repro.sim.results import ComparisonResult, InferenceResult

A = ScenarioSpec(dataset="mq2008", sim_records=500)
B = replace(A, seed=8)


def line(scenario=A, kind="compare", error=None, booster=1.0) -> dict:
    """One manifest line, exactly as ``repro sweep --out`` writes it."""
    comparison = inference = None
    if error is None and kind == "compare":
        comparison = ComparisonResult(
            dataset=scenario.dataset,
            systems={"ideal-32-core": StepTimes(step1=2.0), "booster": StepTimes(step1=booster)},
        )
    elif error is None:
        inference = InferenceResult(
            dataset=scenario.dataset, seconds={"ideal-32-core": 2.0, "booster": booster}
        )
    return SweepResult(
        scenario=scenario,
        comparison=comparison,
        cache_hit=False,
        worker_pid=1,
        error=error,
        inference=inference,
        kind=kind,
    ).to_dict()


def write(path, rows) -> None:
    path.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in rows))


class TestRead:
    def test_skips_and_counts_every_line_sweep_result_rejects(self, tmp_path):
        good = line()
        underivable = {"scenario": {"dataset": "mq2008", "train": {"bogus": 1}}}
        rejected = dict(line(B), comparison={"systems": {}})  # no "dataset"
        path = tmp_path / "m.jsonl"
        write(
            path,
            [
                good,
                "",  # blank: ignored, not counted
                "   ",
                "{corrupt",
                "[1, 2]",  # JSON, but not an object
                {"kind": "compare", "cache_key": "s0"},  # no scenario
                underivable,  # no cache_key, and no spec to derive one from
                rejected,  # carries a cache_key, but SweepResult rejects it
                json.dumps(line(B))[:40],  # partial tail of an interrupted run
            ],
        )
        lines, skipped = manifest.read(path)
        assert lines == [(good["cache_key"], good)]
        assert skipped == 6

    def test_recorded_key_else_derived(self, tmp_path):
        recorded = dict(line(), cache_key="s-recorded")
        missing = line(B)
        del missing["cache_key"]  # manifests from before lines carried one
        foreign = dict(line(replace(A, seed=9)), cache_key=5)
        path = tmp_path / "m.jsonl"
        write(path, [recorded, missing, foreign])
        keys = [key for key, _ in manifest.read(path)[0]]
        assert keys == ["s-recorded", scenario_key(B), scenario_key(replace(A, seed=9))]


class TestLatest:
    def test_error_never_replaces_success(self):
        ok, err = line(), line(error="RuntimeError: boom")
        assert manifest.latest([("k", ok), ("k", err)]) == ([ok], 1)
        assert manifest.latest([("k", err), ("k", ok)]) == ([ok], 1)

    def test_later_line_supersedes(self):
        old, new = line(booster=1.0), line(booster=0.5)
        assert manifest.latest([("k", old), ("k", new)]) == ([new], 1)
        e1, e2 = line(error="first"), line(error="second")
        assert manifest.latest([("k", e1), ("k", e2)]) == ([e2], 1)

    def test_kinds_never_collapse(self):
        compare, inference = line(), line(kind="inference")
        assert manifest.latest([("k", compare), ("k", inference)]) == ([compare, inference], 0)

    def test_first_appearance_order(self):
        a1, b, a2 = line(A), line(B), line(A, booster=0.5)
        winners, collapsed = manifest.latest([("a", a1), ("b", b), ("a", a2)])
        assert winners == [a2, b]
        assert collapsed == 1


class TestResumable:
    def test_only_current_successes_of_the_mode(self, tmp_path):
        ok = line(A)
        path = tmp_path / "m.jsonl"
        write(
            path,
            [
                ok,
                line(B, error="RuntimeError: boom"),
                line(B, kind="inference"),
                dict(line(B), sim_code="stale"),
            ],
        )
        pairs = manifest.resumable(path, "compare")
        assert [(key, result.scenario) for key, result in pairs] == [(ok["cache_key"], A)]
        assert [r.scenario for _, r in manifest.resumable(path, "inference")] == [B]

    def test_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write(path, [line(), dict(line(B), kind="holographic")])
        with pytest.raises(ValueError, match="unknown sweep kind 'holographic'"):
            manifest.resumable(path, "compare")
