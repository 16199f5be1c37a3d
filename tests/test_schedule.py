"""Tests for claim-order pricing (repro.experiments.schedule).

Covers the analytic estimator, the result-store calibration corpus, the
cost-descending claim order work-stealing workers follow (including its
cross-process determinism), the ``repro report`` golden, and the usage
errors that replaced the static-sharding flags and ``repro plan``.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments import (
    ProfileCache,
    ResultStore,
    ScenarioSpec,
    cost_order,
    estimate_cost,
    expand_axes,
    observed_durations,
    run_scenario,
    scenario_costs,
    scenario_key,
)
from repro.gbdt import TrainParams

TINY = ScenarioSpec(
    dataset="mq2008",
    sim_records=500,
    train=TrainParams(n_trees=2),
    systems=("ideal-32-core", "booster"),
)

SRC_DIR = str(pathlib.Path(__file__).resolve().parent.parent / "src")
DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"

#: Heterogeneous costs spanning ~two orders of magnitude: the claim order
#: has to interleave both axes to stay cost-descending.
HETERO_AXES = {"n_trees": [50, 400], "extra_scale": [1.0, 8.0]}


class TestEstimateCost:
    def test_monotonic_in_each_knob(self):
        base = estimate_cost(TINY)
        assert base > 0
        heavier = [
            replace(TINY, train=replace(TINY.train, n_trees=20)),
            replace(TINY, train=replace(TINY.train, max_depth=12)),
            replace(TINY, sim_records=5000),
            replace(TINY, extra_scale=8.0),
        ]
        for scenario in heavier:
            assert estimate_cost(scenario) > base

    def test_hardware_knobs_do_not_move_the_estimate(self):
        """The estimator prices wall time, which hardware axes (analytic
        simulation inputs) barely touch."""
        from repro.core import BoosterConfig

        assert estimate_cost(
            replace(TINY, booster=BoosterConfig(n_clusters=10))
        ) == estimate_cost(TINY)

    def test_observed_duration_overrides(self):
        observed = {scenario_key(TINY): 12.5}
        assert estimate_cost(TINY, observed=observed) == 12.5
        other = replace(TINY, seed=11)
        assert estimate_cost(other, observed=observed) == estimate_cost(other)

    def test_unkeyable_scenario_still_priced(self):
        """An unknown dataset must not crash the partitioner's pricing."""
        bad = replace(TINY, dataset="not-a-benchmark")
        assert estimate_cost(bad) > 0

    def test_approx_records_fallback(self):
        bad = replace(TINY, dataset="not-a-benchmark")
        assert bad.approx_records() == 500  # sim_records stands in
        assert (
            replace(bad, sim_records=None).approx_records()
            == ScenarioSpec.FALLBACK_RECORDS
        )
        assert TINY.approx_records() == TINY.resolved_records()

    def test_both_modes_positive(self):
        assert estimate_cost(TINY, mode="inference") > 0


class TestScenarioCosts:
    def test_uncalibrated_passthrough(self):
        scenarios = expand_axes(TINY, {"n_trees": [2, 4]})
        costs = scenario_costs(scenarios)
        assert costs == {
            scenario_key(s): estimate_cost(s) for s in scenarios
        }

    def test_calibration_rescales_unobserved(self):
        """Observed scenarios cost their measured seconds; unobserved ones
        are rescaled by the corpus ratio so both live on one scale."""
        a, b = expand_axes(TINY, {"n_trees": [2, 4]})
        observed = {scenario_key(a): 2.0 * estimate_cost(a)}
        costs = scenario_costs([a, b], observed=observed)
        assert costs[scenario_key(a)] == observed[scenario_key(a)]
        assert costs[scenario_key(b)] == pytest.approx(2.0 * estimate_cost(b))

    def test_equal_analytic_costs_tie_exactly(self):
        """A sibling with the observed scenario's analytic cost costs exactly
        its measured seconds, so the key tie-break orders the two; the
        rescale ``a * (d / a)`` rounds above ``d`` for some ``d``."""
        a, b = expand_axes(TINY, {"clock_ghz": [0.8, 1.0]})
        analytic = estimate_cost(a)
        assert estimate_cost(b) == analytic
        durations = [0.01 + k * 0.000245 for k in range(2001)]
        assert any(analytic * (d / analytic) > d for d in durations)
        for d in durations:
            costs = scenario_costs([a, b], observed={scenario_key(a): d})
            assert costs[scenario_key(b)] == d

    def test_foreign_observations_ignored(self):
        costs = scenario_costs([TINY], observed={"s-not-in-sweep": 1e9})
        assert costs == {scenario_key(TINY): estimate_cost(TINY)}


class TestCostOrder:
    def test_cost_descending_with_duplicates_collapsed(self):
        scenarios = expand_axes(TINY, HETERO_AXES)
        ordered = cost_order(scenarios + [scenarios[0]])
        assert sorted(map(scenario_key, ordered)) == sorted(map(scenario_key, scenarios))
        costs = [estimate_cost(s) for s in ordered]
        assert costs == sorted(costs, reverse=True)
        assert ordered[0].train.n_trees == 400 and ordered[0].extra_scale == 8.0

    def test_siblings_follow_their_most_expensive_member(self):
        """Scenarios sharing a training artifact are claimed back to back,
        behind the group's most expensive member: plain cost order would
        put the other group's (2, 5.0) before the (8, 1.0) sibling."""
        scenarios = expand_axes(TINY, {"n_trees": [2, 8], "extra_scale": [1.0, 5.0]})
        assert estimate_cost(scenarios[1]) > estimate_cost(scenarios[2])  # (2, 5.0), (8, 1.0)
        ordered = cost_order(scenarios)
        assert [(s.train.n_trees, s.extra_scale) for s in ordered] == [
            (8, 5.0), (8, 1.0), (2, 5.0), (2, 1.0)
        ]

    def test_order_stable_across_processes(self):
        """The claim order is a pure function of scenario content: a fresh
        interpreter with a different PYTHONHASHSEED yields the identical
        scenario_key sequence.  Seeds do not move the cost, so every cost
        level is a tie that only the key may break."""
        axes = {**HETERO_AXES, "seed": [1, 2, 3]}
        keys = [scenario_key(s) for s in cost_order(expand_axes(TINY, axes))]
        code = (
            "from repro.experiments import (ScenarioSpec, cost_order,\n"
            "    expand_axes, scenario_key)\n"
            f"base = ScenarioSpec.from_json({TINY.to_json()!r})\n"
            f"scenarios = expand_axes(base, {axes!r})\n"
            "print(*[scenario_key(s) for s in cost_order(scenarios)])\n"
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
        assert out == keys


class TestCostPartition:
    """The claim order is the partition now: leases arbitrate ownership,
    and every distinct scenario is offered for claiming exactly once."""

    def test_unkeyable_scenario_owned_by_one_shard(self):
        bad = replace(TINY, dataset="not-a-benchmark")
        with pytest.raises(Exception):
            bad.cache_key()  # the premise: this scenario is unkeyable
        ordered = cost_order([bad, TINY, bad])
        assert ordered.count(bad) == 1 and ordered.count(TINY) == 1
        assert len(ordered) == 2


class TestObservedDurations:
    def test_harvests_recorded_wall_times(self, tmp_path):
        run_scenario(TINY, ProfileCache(root=tmp_path))
        store = ResultStore(root=tmp_path)
        other = replace(TINY, seed=11)  # never ran
        observed = observed_durations(store, [TINY, other])
        assert set(observed) == {scenario_key(TINY)}
        assert observed[scenario_key(TINY)] > 0

    def test_mode_namespaces_are_disjoint(self, tmp_path):
        run_scenario(TINY, ProfileCache(root=tmp_path))  # compare only
        store = ResultStore(root=tmp_path)
        assert observed_durations(store, [TINY], mode="inference") == {}

    def test_durationless_payload_is_not_an_observation(self, tmp_path):
        """Stores written before durations existed calibrate nothing (and
        crash nothing)."""
        run_scenario(TINY, ProfileCache(root=tmp_path))
        store = ResultStore(root=tmp_path)
        key = TINY.cache_key()
        payload = store.get(key)
        del payload["result"]["duration_s"]
        ResultStore(root=tmp_path).put(key, payload)
        assert observed_durations(ResultStore(root=tmp_path), [TINY]) == {}


class TestReportGolden:
    def test_report_matches_golden_snapshot(self, capsys):
        """Regression lock on `repro report --from-manifest` formatting
        (including the duration column and the wall-time total): a checked
        -in fixture manifest must render byte-for-byte like the golden."""
        manifest = DATA_DIR / "report_golden.jsonl"
        assert main(["report", "--from-manifest", str(manifest)]) == 0
        captured = capsys.readouterr()
        golden = (DATA_DIR / "report_golden.txt").read_text()
        assert captured.out == golden
        assert captured.err == ""


class TestPlanCLI:
    def test_plan_validates_inputs(self, capsys):
        """`repro plan` is gone with static sharding: every invocation that
        once reached its validation is now an argparse usage error."""
        for argv in (
            ["plan", "--axis", "bogus=1", "--trees", "2"],
            ["plan", "--axis", "seed=1", "--shards", "0", "--trees", "2"],
            ["plan", "--axis", "seed=1", "--shards", "2", "--trees", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "invalid choice: 'plan'" in capsys.readouterr().err


class TestBalanceCLI:
    def test_balance_requires_axes(self, capsys):
        """--balance left with static sharding: with or without axes it is
        an argparse usage error, never a silently ignored flag."""
        for argv in (
            ["sweep", "--trees", "2", "--balance", "cost"],
            ["sweep", "--axis", "seed=1", "--trees", "2", "--balance", "cost"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --balance" in capsys.readouterr().err
