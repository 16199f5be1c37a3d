"""Work-stealing coordination: lease lifecycle, races, reclaim, equivalence.

The fast tests monkeypatch ``run_scenario`` so claiming/stealing semantics
are exercised without training anything; the equivalence tests run real
(tiny) scenarios so the steal-mode manifests can be compared against the
one-piece sweep's payloads byte for byte.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments import (
    Coordinator,
    LeaseLost,
    ProfileCache,
    ResultStore,
    ScenarioSpec,
    SweepResult,
    SweepRunner,
    cost_order,
    lease_name,
    scenario_key,
    steal_status,
)
from repro.experiments.steal import LEASE_SUFFIX, SWEEP_FILE, Lease
from repro.gbdt import TrainParams


def tiny_scenario(seed: int = 1, depth: int = 3) -> ScenarioSpec:
    return ScenarioSpec(
        dataset="mq2008",
        seed=seed,
        train=TrainParams(n_trees=2, max_depth=depth),
        systems=("ideal-32-core", "booster"),
    )


def dead_pid() -> int:
    """A pid that provably belonged to a now-dead process."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


class TestLeaseName:
    def test_content_keys_pass_through(self):
        assert lease_name("s0123abc") == "s0123abc"
        assert lease_name("t99.v2") == "t99.v2"

    def test_unsafe_keys_are_hashed_flat(self):
        spec = ScenarioSpec(dataset="mq2008")
        unkeyable = "!" + spec.to_json()  # the scenario_key fallback form
        name = lease_name(unkeyable)
        assert name.startswith("x")
        assert "/" not in name and "\\" not in name and len(name) <= 64

    def test_hostile_keys_cannot_escape(self):
        for evil in ("../evil", "/abs/path", "a/b", ".", "..", ""):
            name = lease_name(evil)
            assert os.path.basename(name) == name and name not in (".", "..")

    def test_hashing_is_stable_and_injective_enough(self):
        assert lease_name("../a") == lease_name("../a")
        assert lease_name("../a") != lease_name("../b")


class TestLeaseLifecycle:
    def test_claim_is_exclusive(self, tmp_path):
        c1 = Coordinator(tmp_path, ttl=60.0, host="h1", pid=101)
        c2 = Coordinator(tmp_path, ttl=60.0, host="h2", pid=202)
        assert c1.claim("sk1") is True
        assert c2.claim("sk1") is False
        assert c1.claimed == 1 and c2.claimed == 0

    def test_lease_stamp_contents(self, tmp_path):
        before = time.time()
        c = Coordinator(tmp_path, ttl=60.0, host="h1", pid=101)
        assert c.claim("sk1")
        lease = c.read("sk1")
        assert lease.key == "sk1" and lease.holder == "h1:101"
        assert before <= lease.started <= lease.renewed <= time.time()
        assert not lease.done and lease.error is None
        assert (tmp_path / ("sk1" + LEASE_SUFFIX)).is_file()

    def test_renew_advances_timestamp(self, tmp_path):
        c = Coordinator(tmp_path, ttl=60.0)
        c.claim("sk1")
        first = c.read("sk1").renewed
        time.sleep(0.01)
        fresh = c.renew("sk1")
        assert fresh.renewed > first
        assert c.read("sk1").renewed == fresh.renewed

    def test_renew_of_unheld_lease_raises(self, tmp_path):
        ours = Coordinator(tmp_path, ttl=60.0, host="h1", pid=101)
        theirs = Coordinator(tmp_path, ttl=60.0, host="h2", pid=202)
        with pytest.raises(LeaseLost, match="gone"):
            ours.renew("sk1")
        theirs.claim("sk1")
        with pytest.raises(LeaseLost, match="h2:202"):
            ours.renew("sk1")

    def test_mark_done_is_permanent(self, tmp_path):
        c1 = Coordinator(tmp_path, ttl=0.01, host="h1", pid=101)
        c2 = Coordinator(tmp_path, ttl=0.01, host="h2", pid=202)
        c1.claim("sk1")
        c1.mark_done("sk1")
        time.sleep(0.05)
        # Done leases never go stale, even far past the TTL.
        assert c2.claim("sk1") is False
        lease = c2.read("sk1")
        assert lease.done and lease.error is None

    def test_mark_done_records_error(self, tmp_path):
        c = Coordinator(tmp_path, ttl=60.0)
        c.claim("sk1")
        c.mark_done("sk1", error="ValueError: boom")
        assert c.read("sk1").error == "ValueError: boom"

    def test_release_hands_the_scenario_back(self, tmp_path):
        c1 = Coordinator(tmp_path, ttl=60.0, host="h1", pid=101)
        c2 = Coordinator(tmp_path, ttl=60.0, host="h2", pid=202)
        c1.claim("sk1")
        c1.release("sk1")
        assert c1.read("sk1") is None
        assert c2.claim("sk1") is True

    def test_release_never_touches_others_leases(self, tmp_path):
        c1 = Coordinator(tmp_path, ttl=60.0, host="h1", pid=101)
        c2 = Coordinator(tmp_path, ttl=60.0, host="h2", pid=202)
        c1.claim("sk1")
        c2.release("sk1")
        assert c1.read("sk1").holder == "h1:101"

    def test_renewing_context_keeps_lease_fresh(self, tmp_path):
        c = Coordinator(tmp_path, ttl=0.4, host="h1", pid=101)
        thief = Coordinator(tmp_path, ttl=0.4, host="h2", pid=202)
        c.claim("sk1")
        with c.renewing("sk1") as renewer:
            time.sleep(1.0)  # several TTLs: renewal must keep it live
            assert thief.claim("sk1") is False
        assert not renewer.lost


class TestStaleReclaim:
    def test_ttl_expiry_allows_steal(self, tmp_path):
        holder = Coordinator(tmp_path, ttl=0.05, host="h1", pid=101)
        thief = Coordinator(tmp_path, ttl=0.05, host="h2", pid=202)
        holder.claim("sk1")
        assert thief.claim("sk1") is False  # still fresh
        time.sleep(0.1)
        assert thief.claim("sk1") is True
        assert thief.stolen == 1
        assert thief.read("sk1").holder == "h2:202"

    def test_stolen_holder_loses_renewal(self, tmp_path):
        holder = Coordinator(tmp_path, ttl=0.05, host="h1", pid=101)
        thief = Coordinator(tmp_path, ttl=0.05, host="h2", pid=202)
        holder.claim("sk1")
        time.sleep(0.1)
        thief.claim("sk1")
        with pytest.raises(LeaseLost):
            holder.renew("sk1")

    def test_dead_holder_on_this_host_is_stale_immediately(self, tmp_path):
        crashed = Coordinator(tmp_path, ttl=9999.0, pid=dead_pid())
        crashed.claim("sk1")
        fresh = Coordinator(tmp_path, ttl=9999.0)
        # Hours of TTL left, but the kernel already knows the holder died.
        assert fresh.claim("sk1") is True
        assert fresh.stolen == 1

    def test_live_holder_on_this_host_is_not_stale(self, tmp_path):
        mine = Coordinator(tmp_path, ttl=9999.0)  # our own live pid
        other = Coordinator(tmp_path, ttl=9999.0, host=mine.host, pid=mine.pid + 0)
        other.claim("sk1")
        contender = Coordinator(tmp_path, ttl=9999.0, host=mine.host, pid=123456789)
        lease = contender.read("sk1")
        assert contender.is_stale(lease) is False

    def test_slow_breaker_cannot_remove_a_freshly_stolen_lease(self, tmp_path):
        """The double-steal hole `_break` exists to close.

        A slow thief that judged the lease stale a moment ago must not
        unlink the fresh lease a faster thief has already re-stamped --
        that would hand one scenario to two workers.  ``_break``
        re-verifies staleness under its exclusive marker, so the late
        break is a no-op.
        """
        crashed = Coordinator(tmp_path, ttl=9999.0, pid=dead_pid())
        crashed.claim("sk1")
        # Same host, live pids: the dead holder is stale to both thieves,
        # and the winner's fresh lease is live (pid 1 always exists).
        fast = Coordinator(tmp_path, ttl=9999.0, pid=1)
        slow = Coordinator(tmp_path, ttl=9999.0, pid=2)
        # `slow` observed the stale lease ... but `fast` steals it first.
        assert slow.is_stale(slow.read("sk1"))
        assert fast.claim("sk1") is True
        # ... now `slow` finally gets around to breaking: must refuse.
        assert slow._break("sk1") is False
        assert slow.read("sk1").pid == 1
        assert slow.claim("sk1") is False

    def test_break_marker_of_crashed_breaker_ages_out(self, tmp_path):
        # Same-host dead holder: stale immediately, so only the marker
        # governs whether the break may proceed.
        crashed = Coordinator(tmp_path, ttl=60.0, pid=dead_pid())
        crashed.claim("sk1")
        marker = tmp_path / ("sk1" + LEASE_SUFFIX + ".break")
        marker.write_bytes(b"")  # a breaker crashed mid-break
        thief = Coordinator(tmp_path, ttl=60.0)
        assert thief.claim("sk1") is False  # fresh marker blocks the break
        old = time.time() - 120.0
        os.utime(marker, (old, old))
        thief.claim("sk1")  # aged marker is cleaned up ...
        assert not marker.exists()
        assert thief.claim("sk1") is True  # ... and the steal goes through

    def test_corrupt_lease_blocks_until_ttl_then_steals(self, tmp_path):
        c = Coordinator(tmp_path, ttl=60.0)
        path = c.lease_path("sk1")
        path.write_bytes(b"{not json")
        lease = c.read("sk1")
        assert lease.host == "?" and lease.pid == 0
        assert c.claim("sk1") is False  # fresh garbage: maybe a mid-claim peer
        old = time.time() - 120.0
        os.utime(path, (old, old))
        assert c.claim("sk1") is True  # aged garbage: abandoned, reclaimed


def _race_claim(payload):
    """Subprocess body for the claim race (module-level so it pickles)."""
    root, key, start_at = payload
    from repro.experiments.steal import Coordinator

    while time.time() < start_at:
        time.sleep(0.001)
    return Coordinator(root, ttl=60.0).claim(key)


class TestConcurrentClaimRace:
    def test_exactly_one_process_wins(self, tmp_path):
        """N processes slam the same lease at the same instant: one winner.

        The whole claim race is a single ``O_CREAT | O_EXCL`` create, so
        this holds no matter how the processes interleave.
        """
        n = 4
        start_at = time.time() + 0.5
        with ProcessPoolExecutor(max_workers=n) as pool:
            outcomes = list(
                pool.map(_race_claim, [(str(tmp_path), "sk1", start_at)] * n)
            )
        assert sum(outcomes) == 1, outcomes

    def test_stale_break_race_has_one_winner(self, tmp_path):
        """Racing thieves over one stale lease: exactly one reclaims it."""
        crashed = Coordinator(tmp_path, ttl=9999.0, pid=dead_pid())
        crashed.claim("sk1")
        n = 4
        start_at = time.time() + 0.5
        with ProcessPoolExecutor(max_workers=n) as pool:
            outcomes = list(
                pool.map(_race_claim, [(str(tmp_path), "sk1", start_at)] * n)
            )
        assert sum(outcomes) == 1, outcomes


class TestEnsureSweep:
    def test_first_worker_publishes_descriptor(self, tmp_path):
        c = Coordinator(tmp_path, ttl=60.0)
        sweep = c.ensure_sweep(["sk1", "sk2"], "compare")
        assert sweep["n_scenarios"] == 2 and sweep["mode"] == "compare"
        assert (tmp_path / SWEEP_FILE).is_file()

    def test_same_sweep_matches_regardless_of_order_and_dups(self, tmp_path):
        c1 = Coordinator(tmp_path, ttl=60.0)
        c2 = Coordinator(tmp_path, ttl=60.0)
        c1.ensure_sweep(["sk1", "sk2"], "compare")
        c2.ensure_sweep(["sk2", "sk1", "sk1"], "compare")  # no raise

    def test_different_sweep_is_rejected(self, tmp_path):
        Coordinator(tmp_path, ttl=60.0).ensure_sweep(["sk1", "sk2"], "compare")
        with pytest.raises(ValueError, match="different sweep"):
            Coordinator(tmp_path, ttl=60.0).ensure_sweep(["sk3"], "compare")

    def test_different_mode_is_rejected(self, tmp_path):
        Coordinator(tmp_path, ttl=60.0).ensure_sweep(["sk1"], "compare")
        with pytest.raises(ValueError, match="different sweep"):
            Coordinator(tmp_path, ttl=60.0).ensure_sweep(["sk1"], "inference")

    def test_bad_ttl_rejected(self, tmp_path):
        for ttl in (0, -1.0):
            with pytest.raises(ValueError, match="TTL"):
                Coordinator(tmp_path, ttl=ttl)


@pytest.fixture()
def fake_runs(monkeypatch):
    """Replace ``run_scenario`` with an instant fake; returns the call log."""
    calls: list[str] = []
    lock = threading.Lock()

    def fake(scenario, cache=None, results=None, mode="compare"):
        with lock:
            calls.append(scenario_key(scenario))
        if scenario.seed == 99:
            raise ValueError("seed 99 always fails")
        return SweepResult(
            scenario=scenario,
            comparison=None,
            cache_hit=True,
            worker_pid=os.getpid(),
            kind=mode,
            duration_s=0.01,
        )

    monkeypatch.setattr(runner_mod, "run_scenario", fake)
    return calls


def _runner(tmp_path) -> SweepRunner:
    cache = ProfileCache(root=tmp_path / "cache")
    return SweepRunner(cache=cache, parallel=False, results=ResultStore(root=cache.root))


class TestRunStealing:
    def test_single_worker_drains_everything_in_cost_order(self, tmp_path, fake_runs):
        scenarios = [tiny_scenario(seed=s, depth=d) for s in (1, 2) for d in (2, 5)]
        coordinator = Coordinator(tmp_path / "coord", ttl=60.0)
        results = list(_runner(tmp_path).run_stealing(scenarios, coordinator))
        assert {scenario_key(r.scenario) for r in results} == {
            scenario_key(s) for s in scenarios
        }
        # Claimed most-expensive-first: the fake ran deep trees before shallow.
        expected = [scenario_key(s) for s in cost_order(scenarios)]
        assert fake_runs == expected
        # One lease per scenario, all done.
        leases = coordinator.leases()
        assert len(leases) == len(scenarios) and all(lease.done for lease in leases)

    def test_two_workers_split_without_double_running(self, tmp_path, fake_runs):
        scenarios = [tiny_scenario(seed=s, depth=d) for s in (1, 2, 3) for d in (2, 4)]
        coord_dir = tmp_path / "coord"
        outputs: dict[str, list] = {"a": [], "b": []}

        def worker(name):
            # Distinct *hosts* (not fake pids: a nonexistent pid on this
            # host would look like a crashed worker and invite stealing).
            coordinator = Coordinator(coord_dir, ttl=60.0, host=f"host-{name}")
            runner = _runner(tmp_path)
            outputs[name] = list(
                runner.run_stealing(scenarios, coordinator, poll_interval=0.01)
            )

        threads = [
            threading.Thread(target=worker, args=("a",)),
            threading.Thread(target=worker, args=("b",)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        keys_a = {scenario_key(r.scenario) for r in outputs["a"]}
        keys_b = {scenario_key(r.scenario) for r in outputs["b"]}
        assert keys_a.isdisjoint(keys_b)
        assert keys_a | keys_b == {scenario_key(s) for s in scenarios}
        # The lease files enforced exactly one execution per scenario.
        assert sorted(fake_runs) == sorted({scenario_key(s) for s in scenarios})

    def test_fresh_worker_completes_after_a_crash(self, tmp_path, fake_runs):
        """Kill a worker mid-sweep; a fresh one still completes every scenario."""
        scenarios = [tiny_scenario(seed=s) for s in (1, 2, 3)]
        coord_dir = tmp_path / "coord"
        # The "crashed" worker: claimed a scenario, died without renewing
        # (its stamp carries a provably dead pid).
        crashed = Coordinator(coord_dir, ttl=9999.0, pid=dead_pid())
        assert crashed.claim(scenario_key(scenarios[0]))
        fresh = Coordinator(coord_dir, ttl=9999.0)
        results = list(_runner(tmp_path).run_stealing(scenarios, fresh))
        assert {scenario_key(r.scenario) for r in results} == {
            scenario_key(s) for s in scenarios
        }
        assert fresh.stolen == 1
        assert all(lease.done for lease in fresh.leases())

    def test_ttl_reclaim_between_worker_generations(self, tmp_path, fake_runs):
        """A remote host's abandoned lease ages out and is stolen."""
        scenarios = [tiny_scenario(seed=s) for s in (1, 2)]
        coord_dir = tmp_path / "coord"
        remote = Coordinator(coord_dir, ttl=0.05, host="elsewhere", pid=4242)
        assert remote.claim(scenario_key(scenarios[0]))
        time.sleep(0.1)
        fresh = Coordinator(coord_dir, ttl=0.05)
        results = list(
            _runner(tmp_path).run_stealing(scenarios, fresh, poll_interval=0.01)
        )
        assert len(results) == len(scenarios) and fresh.stolen == 1

    def test_peer_completions_are_skipped_not_rerun(self, tmp_path, fake_runs):
        scenarios = [tiny_scenario(seed=s) for s in (1, 2, 3)]
        coord_dir = tmp_path / "coord"
        peer = Coordinator(coord_dir, ttl=60.0, host="peer", pid=777)
        done_key = scenario_key(scenarios[1])
        peer.claim(done_key)
        peer.mark_done(done_key)
        results = list(_runner(tmp_path).run_stealing(scenarios, Coordinator(coord_dir, ttl=60.0)))
        assert done_key not in {scenario_key(r.scenario) for r in results}
        assert done_key not in fake_runs
        assert len(results) == 2

    def test_completed_keys_mark_done_without_running(self, tmp_path, fake_runs):
        scenarios = [tiny_scenario(seed=s) for s in (1, 2)]
        coordinator = Coordinator(tmp_path / "coord", ttl=60.0)
        done_key = scenario_key(scenarios[0])
        results = list(
            _runner(tmp_path).run_stealing(scenarios, coordinator, completed=[done_key])
        )
        assert [scenario_key(r.scenario) for r in results] == [scenario_key(scenarios[1])]
        assert done_key not in fake_runs
        lease = coordinator.read(done_key)
        assert lease is not None and lease.done

    def test_failed_scenario_lease_is_done_with_error(self, tmp_path, fake_runs):
        scenarios = [tiny_scenario(seed=99)]  # the fake raises for seed 99
        coordinator = Coordinator(tmp_path / "coord", ttl=60.0)
        (result,) = _runner(tmp_path).run_stealing(scenarios, coordinator)
        assert result.error is not None and "seed 99" in result.error
        lease = coordinator.read(scenario_key(scenarios[0]))
        assert lease.done and "seed 99" in lease.error
        status = steal_status(tmp_path / "coord")
        assert status["counts"]["failed"] == 1

    def test_worker_waits_for_live_peer_to_finish(self, tmp_path, fake_runs):
        scenarios = [tiny_scenario(seed=s) for s in (1, 2)]
        coord_dir = tmp_path / "coord"
        held_key = scenario_key(cost_order(scenarios)[0])
        peer = Coordinator(coord_dir, ttl=9999.0)  # live pid: not stealable
        assert peer.claim(held_key)
        collected = []

        def worker():
            runner = _runner(tmp_path)
            coordinator = Coordinator(coord_dir, ttl=9999.0, pid=31337)
            collected.extend(
                runner.run_stealing(scenarios, coordinator, poll_interval=0.01)
            )

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.3)
        assert thread.is_alive()  # polling: one scenario is held by the peer
        peer.mark_done(held_key)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert [scenario_key(r.scenario) for r in collected] == [
            k for k in (scenario_key(s) for s in scenarios) if k != held_key
        ]

    def test_live_peer_lease_is_skipped_without_a_claim(self, tmp_path, fake_runs):
        scenarios = [tiny_scenario(seed=s) for s in (1, 2)]
        coord_dir = tmp_path / "coord"
        held_key = scenario_key(cost_order(scenarios)[0])
        peer = Coordinator(coord_dir, ttl=9999.0)  # live pid: not stealable
        assert peer.claim(held_key)
        coordinator = Coordinator(coord_dir, ttl=9999.0, pid=31337)
        attempts: list[str] = []
        claim = coordinator.claim

        def counting_claim(key):
            attempts.append(key)
            return claim(key)

        coordinator.claim = counting_claim
        thread = threading.Thread(
            target=lambda: list(
                _runner(tmp_path).run_stealing(scenarios, coordinator, poll_interval=0.01)
            )
        )
        thread.start()
        time.sleep(0.2)  # ~20 passes over the held lease
        peer.mark_done(held_key)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert held_key not in attempts and len(attempts) == 1

    def test_interrupt_releases_the_claimed_lease(self, tmp_path, monkeypatch):
        def explode(scenario, cache=None, results=None, mode="compare"):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner_mod, "run_scenario", explode)
        scenarios = [tiny_scenario(seed=1)]
        coordinator = Coordinator(tmp_path / "coord", ttl=60.0)
        with pytest.raises(KeyboardInterrupt):
            list(_runner(tmp_path).run_stealing(scenarios, coordinator))
        # The lease was handed back, not left to age out.
        assert coordinator.read(scenario_key(scenarios[0])) is None

    @pytest.mark.parametrize("over", ["directory", "url"])
    def test_close_at_the_yield_releases_the_lease(self, tmp_path, fake_runs, request, over):
        """A consumer that stops at the yield hands the lease back (it may
        never have recorded the result); one that drains the generator
        leaves the lease done."""
        root = tmp_path / "coord" if over == "directory" else request.getfixturevalue("served_url")
        scenarios = [tiny_scenario(seed=1)]
        key = scenario_key(scenarios[0])
        coordinator = Coordinator(root, ttl=60.0)
        stream = _runner(tmp_path).run_stealing(scenarios, coordinator)
        assert scenario_key(next(stream).scenario) == key
        held = coordinator.read(key)
        assert held is not None and not held.done
        stream.close()
        assert coordinator.read(key) is None
        results = list(_runner(tmp_path).run_stealing(scenarios, coordinator))
        assert [scenario_key(r.scenario) for r in results] == [key]
        assert fake_runs == [key, key]  # the abandoned scenario ran again
        lease = coordinator.read(key)
        assert lease is not None and lease.done and lease.error is None

    def test_empty_sweep_yields_nothing(self, tmp_path, fake_runs):
        coordinator = Coordinator(tmp_path / "coord", ttl=60.0)
        assert list(_runner(tmp_path).run_stealing([], coordinator)) == []

    def test_unkeyable_scenario_errors_once_beside_a_normal_one(self, tmp_path):
        """An unknown dataset cannot be keyed, yet it must not crash the
        claim loop: its canonical-JSON fallback key gives it one lease, and
        the real runner reports it as exactly one structured error."""
        bad = replace(tiny_scenario(), dataset="not-a-benchmark")
        with pytest.raises(Exception):
            bad.cache_key()  # the premise: this scenario is unkeyable
        assert scenario_key(bad).startswith("!")
        good = tiny_scenario()
        coordinator = Coordinator(tmp_path / "coord", ttl=60.0)
        results = list(_runner(tmp_path).run_stealing([bad, good], coordinator))
        failed = [r for r in results if r.error is not None]
        assert len(results) == 2 and len(failed) == 1
        assert failed[0].scenario.dataset == "not-a-benchmark"
        leases = {lease.key: lease for lease in coordinator.leases()}
        assert len(leases) == 2 and all(lease.done for lease in leases.values())
        assert leases[scenario_key(bad)].error is not None
        assert leases[scenario_key(good)].error is None


class TestStealStatus:
    def test_missing_directory_is_none(self, tmp_path):
        assert steal_status(tmp_path / "nope") is None

    def test_counts_and_unclaimed(self, tmp_path, fake_runs):
        scenarios = [tiny_scenario(seed=s) for s in (1, 2, 3)]
        coordinator = Coordinator(tmp_path / "coord", ttl=60.0)
        coordinator.ensure_sweep([scenario_key(s) for s in scenarios], "compare")
        coordinator.claim(scenario_key(scenarios[0]))
        coordinator.mark_done(scenario_key(scenarios[0]))
        coordinator.claim(scenario_key(scenarios[1]))
        status = steal_status(tmp_path / "coord")
        assert status["counts"] == {"done": 1, "failed": 0, "running": 1, "stale": 0}
        assert status["unclaimed"] == 1
        assert status["sweep"]["n_scenarios"] == 3

    def test_stale_rows_are_reported_claimable(self, tmp_path):
        coordinator = Coordinator(tmp_path / "coord", ttl=9999.0, pid=dead_pid())
        coordinator.claim("sk1")
        status = steal_status(tmp_path / "coord", ttl=9999.0)
        assert status["counts"]["stale"] == 1

    def test_sweep_descriptor_only_directory_renders_empty_ledger(
        self, capsys, tmp_path
    ):
        """Regression: a directory holding only ``sweep.json`` -- a sweep
        announced but nothing claimed yet -- must render as an empty ledger
        (exit 0), not trip over the zero-row table."""
        from repro.cli import main

        coordinator = Coordinator(tmp_path / "coord", ttl=60.0)
        coordinator.ensure_sweep(["sk1", "sk2"], "compare")
        assert [p.name for p in (tmp_path / "coord").iterdir()] == ["sweep.json"]
        status = steal_status(tmp_path / "coord")
        assert status["counts"] == {"done": 0, "failed": 0, "running": 0, "stale": 0}
        assert status["unclaimed"] == 2
        assert main(["steal-status", str(tmp_path / "coord")]) == 0
        out = capsys.readouterr().out
        assert "0 done, 0 failed, 0 running, 0 stale" in out
        assert "2 unclaimed of 2 scenario(s)" in out


class TestStoreHelpers:
    """The path-validation/atomic-write helpers shared with the lease code."""

    def test_validate_flat_name_accepts_flat(self):
        from repro.experiments.cache import validate_flat_name

        for ok in ("s0abc.json", "t9.pkl", "sk1.lease"):
            validate_flat_name(ok)

    def test_validate_flat_name_rejects_paths(self):
        from repro.experiments.cache import validate_flat_name

        for evil in ("../x.pkl", "a/b.json", "/abs.pkl", "", ".", ".."):
            with pytest.raises(ValueError, match="refusing"):
                validate_flat_name(evil)

    def test_atomic_write_creates_parents_and_replaces(self, tmp_path):
        from repro.experiments.cache import atomic_write_bytes

        target = tmp_path / "deep" / "nested" / "x.json"
        atomic_write_bytes(target, b"one")
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"
        assert list(target.parent.glob("*.tmp")) == []

    def test_sweep_stale_tmp_spares_fresh_files(self, tmp_path):
        from repro.experiments.cache import sweep_stale_tmp

        fresh = tmp_path / "live.tmp"
        fresh.write_bytes(b"in flight")
        old = tmp_path / "orphan.tmp"
        old.write_bytes(b"abandoned")
        ancient = time.time() - 3600.0
        os.utime(old, (ancient, ancient))
        assert sweep_stale_tmp(tmp_path) == 1
        assert fresh.exists() and not old.exists()

    def test_validate_flat_name_accepts_unicode_and_long_stems(self):
        from repro.experiments.cache import validate_flat_name

        # Unicode hostnames reach lease stems via f"{host}-{pid}"; a flat
        # non-ASCII basename is legitimate and must pass the gate.
        for ok in ("wörker-42.lease", "机-7.tmp", "café.json", "a" * 255):
            validate_flat_name(ok)

    def test_validate_flat_name_rejects_separators_anywhere(self):
        from repro.experiments.cache import validate_flat_name

        for evil in ("wö/rker.lease", "a" * 200 + "/x", "../up.json"):
            with pytest.raises(ValueError, match="refusing"):
                validate_flat_name(evil)

    def test_sweep_stale_tmp_age_boundary(self, tmp_path):
        """A ``.tmp`` newer than the age gate survives; at/past it, reclaimed."""
        from repro.experiments.cache import sweep_stale_tmp

        just_under = tmp_path / "under.tmp"
        just_under.write_bytes(b"x")
        young = time.time() - 1.0
        os.utime(just_under, (young, young))
        assert sweep_stale_tmp(tmp_path, max_age=30.0) == 0
        assert just_under.exists()
        assert sweep_stale_tmp(tmp_path, max_age=0.5) == 1
        assert not just_under.exists()

    def test_sweep_stale_tmp_missing_and_non_dir_roots(self, tmp_path):
        from repro.experiments.cache import sweep_stale_tmp

        assert sweep_stale_tmp(tmp_path / "nope") == 0
        plain = tmp_path / "file"
        plain.write_bytes(b"")
        assert sweep_stale_tmp(plain) == 0

    def test_sweep_stale_tmp_ignores_non_tmp_entries(self, tmp_path):
        from repro.experiments.cache import sweep_stale_tmp

        keep = tmp_path / "entry.json"
        keep.write_bytes(b"{}")
        ancient = time.time() - 3600.0
        os.utime(keep, (ancient, ancient))
        assert sweep_stale_tmp(tmp_path) == 0
        assert keep.exists()


class TestStealCLI:
    """CLI integration: --coordinate / --lease-ttl / steal-status."""

    def _isolate_cache(self, monkeypatch, tmp_path):
        import repro.experiments.cache as cache_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        monkeypatch.setattr(cache_mod, "_DEFAULT_CACHE", None)

    def _sweep_argv(self, extra):
        return [
            "sweep",
            "--trees", "2",
            "--serial",
            "--dataset", "mq2008",
            "--axis", "max_depth=2,3",
            "--systems", "ideal-32-core", "booster",
            *extra,
        ]

    def test_steal_merge_equals_unsharded(self, capsys, monkeypatch, tmp_path):
        """One steal worker + one late (empty) worker merge to exactly the
        one-piece sweep's manifest."""
        from repro.cli import main

        self._isolate_cache(monkeypatch, tmp_path)
        coord = tmp_path / "coord"
        full = tmp_path / "full.jsonl"
        w1, w2 = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
        assert main(self._sweep_argv(["--out", str(full)])) == 0
        assert main(
            self._sweep_argv(["--coordinate", str(coord), "--out", str(w1)])
        ) == 0
        out = capsys.readouterr().out
        assert "steal: claimed 2/2 scenario(s)" in out
        assert "stealing from" in out
        # A worker arriving after the sweep drained claims nothing.
        assert main(
            self._sweep_argv(["--coordinate", str(coord), "--out", str(w2)])
        ) == 0
        assert "steal: claimed 0/2 scenario(s)" in capsys.readouterr().out
        merged = tmp_path / "merged.jsonl"
        assert main(["merge", str(merged), str(w1), str(w2)]) == 0

        def load(p):
            return {d["cache_key"]: d for d in map(json.loads, p.read_text().splitlines())}

        full_lines, merged_lines = load(full), load(merged)
        assert set(full_lines) == set(merged_lines)
        for key, line in merged_lines.items():
            assert line["error"] is None
            assert line["comparison"] == full_lines[key]["comparison"]
            assert line["scenario"] == full_lines[key]["scenario"]
        # One lease per scenario, every one done.
        leases = list(coord.glob(f"*{LEASE_SUFFIX}"))
        assert len(leases) == 2
        assert all(json.loads(p.read_bytes())["done"] for p in leases)

    def test_steal_status_renders_ledger(self, capsys, monkeypatch, tmp_path):
        from repro.cli import main

        self._isolate_cache(monkeypatch, tmp_path)
        coord = tmp_path / "coord"
        assert main(self._sweep_argv(["--coordinate", str(coord)])) == 0
        capsys.readouterr()
        assert main(["steal-status", str(coord)]) == 0
        out = capsys.readouterr().out
        assert "work-stealing leases" in out
        assert "2 done, 0 failed, 0 running, 0 stale" in out
        assert "0 unclaimed of 2 scenario(s)" in out

    def test_steal_status_missing_dir(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["steal-status", str(tmp_path / "nope")]) == 2
        assert "no such lease store (or unreachable)" in capsys.readouterr().err

    def test_restart_with_resume_keeps_manifest_whole(
        self, capsys, monkeypatch, tmp_path
    ):
        """Re-running a finished steal worker with --resume re-emits its rows
        as resumed instead of losing them to done leases."""
        from repro.cli import main

        self._isolate_cache(monkeypatch, tmp_path)
        coord = tmp_path / "coord"
        w1 = tmp_path / "w1.jsonl"
        argv = self._sweep_argv(["--coordinate", str(coord), "--out", str(w1)])
        assert main(argv) == 0
        first = w1.read_text()
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resume: 2/2 scenarios already in" in out
        assert "steal: claimed 0/2" in out
        assert w1.read_text() == first  # nothing lost, nothing duplicated

    def test_coordinating_a_different_sweep_is_rejected(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.cli import main

        self._isolate_cache(monkeypatch, tmp_path)
        coord = tmp_path / "coord"
        assert main(self._sweep_argv(["--coordinate", str(coord)])) == 0
        capsys.readouterr()
        argv = [
            "sweep",
            "--trees", "2",
            "--serial",
            "--dataset", "mq2008",
            "--axis", "max_depth=4,5",  # different sweep, same directory
            "--systems", "ideal-32-core", "booster",
            "--coordinate", str(coord),
        ]
        assert main(argv) == 2
        assert "different sweep" in capsys.readouterr().err

    def test_coordinate_flag_validation(self, capsys, tmp_path):
        from repro.cli import main

        coord = str(tmp_path / "coord")
        cases = [
            (["--coordinate", coord, "--workers", "2"], "start more workers"),
            (["--lease-ttl", "60"], "--lease-ttl only applies"),
            (["--coordinate", coord, "--lease-ttl", "0"], "must be positive"),
        ]
        for extra, message in cases:
            assert main(self._sweep_argv(extra)) == 2, extra
            assert message in capsys.readouterr().err

    def test_coordinate_requires_axes(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["sweep", "--coordinate", str(tmp_path / "coord")]) == 2
        err = capsys.readouterr().err
        assert "--coordinate" in err and "apply to axis sweeps" in err
        assert main(["sweep", "--lease-ttl", "60"]) == 2
        assert "apply to axis sweeps" in capsys.readouterr().err


class TestLeaseSerialization:
    def test_round_trip(self):
        lease = Lease(
            key="sk1", host="h", pid=12, started=1.5, renewed=2.5,
            done=True, error="boom",
        )
        assert Lease.from_dict(json.loads(lease.to_json())) == lease

    def test_defaults(self):
        lease = Lease.from_dict(
            {"key": "k", "host": "h", "pid": 1, "started": 0.0, "renewed": 0.0}
        )
        assert not lease.done and lease.error is None
