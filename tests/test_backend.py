"""StoreBackend conformance: one contract, every implementation.

The parametrized ``store`` fixture runs the whole suite against a
:class:`LocalBackend` directory AND a live in-process
:class:`HTTPBackend` -> ``repro store-serve`` pair, so the two can never
drift on the semantics the caches and the lease protocol depend on:
atomic replace, create-exclusive (one winner, full content), sorted
listings that hide temp files, conditional delete, and flat-name
validation.  On top of the raw contract, the lease protocol and the
:class:`KeyedStore` family are exercised over a URL -- including a
crashed-remote-worker steal recovery where the hosts share nothing but
the server's address.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments import (
    Coordinator,
    ProfileCache,
    ResultStore,
    ScenarioSpec,
    SweepResult,
    SweepRunner,
    copy_entries,
    cost_order,
    scenario_key,
    steal_status,
)
from repro.experiments import store_server
from repro.experiments.backend import (
    HTTP_TIMEOUT_SECONDS,
    HTTPBackend,
    LocalBackend,
    StoreBackend,
    etag_of,
    is_store_url,
    open_backend,
)
from repro.experiments.steal import LEASE_SUFFIX
from repro.gbdt import TrainParams
from tests.conftest import serving


@pytest.fixture(params=["local", "http"])
def store(request, tmp_path):
    """One (backend, served-directory) pair per implementation.

    The directory is handed out alongside the backend so tests can do
    what only an operator (or a crash) could do: plant temp files, age
    mtimes, corrupt entries behind the protocol's back.
    """
    root = tmp_path / "store"
    if request.param == "local":
        yield open_backend(root), root
        return
    with serving(root) as url:
        yield open_backend(url), root


class TestConformance:
    def test_roundtrip_and_entry_metadata(self, store):
        backend, _ = store
        assert backend.get("a.json") is None
        assert backend.get_entry("a.json") is None
        assert not backend.contains("a.json")
        backend.put("a.json", b'{"x": 1}')
        entry = backend.get_entry("a.json")
        assert entry.data == b'{"x": 1}'
        assert entry.etag == etag_of(b'{"x": 1}')
        assert entry.size == 8
        assert abs(entry.mtime - time.time()) < 60.0
        assert backend.contains("a.json")

    def test_put_is_replace(self, store):
        backend, _ = store
        backend.put("a.bin", b"old")
        backend.put("a.bin", b"new")
        assert backend.get("a.bin") == b"new"

    def test_create_is_exclusive_and_full_content(self, store):
        backend, _ = store
        assert backend.create("k.lease", b"winner stamp") is True
        assert backend.create("k.lease", b"loser stamp") is False
        assert backend.get("k.lease") == b"winner stamp"

    def test_create_race_admits_exactly_one_thread(self, store):
        """N threads slam one create-exclusive: one winner, intact content."""
        backend, _ = store
        n = 8
        outcomes = [None] * n
        barrier = threading.Barrier(n)

        def racer(i):
            barrier.wait()
            outcomes[i] = backend.create("race.lease", f"stamp-{i}".encode())

        threads = [threading.Thread(target=racer, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(outcomes) == 1, outcomes
        winner = outcomes.index(True)
        assert backend.get("race.lease") == f"stamp-{winner}".encode()

    def test_delete(self, store):
        backend, _ = store
        backend.put("a.bin", b"x")
        assert backend.delete("a.bin") is True
        assert backend.delete("a.bin") is False
        assert not backend.contains("a.bin")

    def test_delete_if_guards_on_content_tag(self, store):
        backend, _ = store
        backend.put("k.lease", b"v1")
        v1 = backend.get_entry("k.lease").etag
        backend.put("k.lease", b"v2")  # re-stamped since the read
        assert backend.delete_if("k.lease", v1) is False
        assert backend.get("k.lease") == b"v2"  # survived the slow deleter
        v2 = backend.get_entry("k.lease").etag
        assert backend.delete_if("k.lease", v2) is True
        assert backend.delete_if("k.lease", v2) is False  # already gone

    def test_list_is_sorted_filtered_and_hides_tmp(self, store):
        backend, root = store
        for name in ("b.json", "a.pkl", "c.json"):
            backend.put(name, b"x")
        root.mkdir(parents=True, exist_ok=True)
        (root / "inflight123.tmp").write_bytes(b"partial")
        assert backend.list() == ["a.pkl", "b.json", "c.json"]
        assert backend.list(".json") == ["b.json", "c.json"]
        assert backend.list(".lease") == []

    def test_sweep_tmp_reclaims_only_aged_orphans(self, store):
        backend, root = store
        root.mkdir(parents=True, exist_ok=True)
        fresh = root / "fresh999.tmp"
        fresh.write_bytes(b"maybe in flight")
        orphan = root / "orphan999.tmp"
        orphan.write_bytes(b"abandoned")
        os.utime(orphan, (0, 0))
        assert backend.sweep_tmp() == 1
        assert fresh.exists() and not orphan.exists()

    def test_hostile_names_are_rejected_not_stored(self, store):
        backend, root = store
        for evil in ("../escape.pkl", "sub/x.json", ".", ".."):
            with pytest.raises(ValueError, match="flat filenames"):
                backend.put(evil, b"payload")
            with pytest.raises(ValueError, match="flat filenames"):
                backend.get(evil)
        assert not (root.parent / "escape.pkl").exists()

    def test_location_reopens_the_same_store(self, store):
        backend, _ = store
        backend.put("a.json", b"here")
        reopened = open_backend(backend.location)
        assert type(reopened) is type(backend)
        assert reopened.get("a.json") == b"here"

    # wait: a store server answers with its change counter; a local
    # directory cannot notify, so there wait is a plain sleep returning None.

    def test_wait_times_out_when_nothing_changes(self, store):
        backend, _ = store
        backend.put("a.json", b"x")
        since = backend.wait(0, 0.0)
        start = time.monotonic()
        got = backend.wait(since or 0, 0.3)
        assert 0.25 <= time.monotonic() - start < 2.0
        if isinstance(backend, LocalBackend):
            assert since is None and got is None
        else:
            assert since == got == 1

    def test_wait_returns_at_once_when_already_changed(self, store):
        backend, _ = store
        backend.put("a.json", b"x")
        backend.put("b.json", b"y")
        local = isinstance(backend, LocalBackend)
        start = time.monotonic()
        got = backend.wait(1, 0.3 if local else 5.0)
        elapsed = time.monotonic() - start
        if local:
            assert got is None and elapsed >= 0.25
        else:
            assert got == 2 and elapsed < 0.5

    @pytest.mark.parametrize("mutation", ["put", "create", "delete"])
    def test_wait_wakes_on_a_mutation_from_another_thread(self, store, mutation):
        backend, _ = store
        backend.put("victim.json", b"x")
        since = backend.wait(0, 0.0)
        mutate = {
            "put": lambda: backend.put("a.json", b"x"),
            "create": lambda: backend.create("new.lease", b"x"),
            "delete": lambda: backend.delete("victim.json"),
        }[mutation]
        local = isinstance(backend, LocalBackend)
        timer = threading.Timer(0.1, mutate)
        start = time.monotonic()
        timer.start()
        try:
            got = backend.wait(since or 0, 0.4 if local else 5.0)
        finally:
            timer.join()
        elapsed = time.monotonic() - start
        if local:
            assert got is None and elapsed >= 0.35  # sleeps through the change
        else:
            assert got == since + 1 and elapsed < 0.1 + 0.5

    def test_reads_and_losing_creates_do_not_count_as_changes(self, store):
        backend, _ = store
        backend.put("k.lease", b"stamp")
        since = backend.wait(0, 0.0)
        backend.get("k.lease")
        backend.get_entry("k.lease")
        backend.contains("k.lease")
        backend.list()
        assert backend.create("k.lease", b"loser") is False
        assert backend.wait(0, 0.0) == since
        assert since == (None if isinstance(backend, LocalBackend) else 1)


class TestOpenBackend:
    def test_dispatch(self, tmp_path):
        assert isinstance(open_backend(tmp_path), LocalBackend)
        assert isinstance(open_backend(str(tmp_path)), LocalBackend)
        assert isinstance(open_backend("http://host:1/"), HTTPBackend)
        assert isinstance(open_backend("HTTPS://host/x"), HTTPBackend)
        backend = LocalBackend(tmp_path)
        assert open_backend(backend) is backend

    def test_is_store_url(self, tmp_path):
        assert is_store_url("http://h:1/") and is_store_url("https://h/")
        assert not is_store_url(str(tmp_path)) and not is_store_url(tmp_path)

    def test_http_backend_rejects_non_urls(self):
        with pytest.raises(ValueError, match="store URL"):
            HTTPBackend("/just/a/path")


class TestStoreServerProtocol:
    """HTTP-only corners of the protocol (no local equivalent)."""

    def test_multi_segment_paths_are_bad_requests(self, store):
        backend, _ = store
        if not isinstance(backend, HTTPBackend):
            pytest.skip("exercises the server's own path validation")
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(backend.base_url + "sub/x.json", timeout=5)
        assert excinfo.value.code == 400

    def test_listing_carries_etag_and_mtime(self, store):
        backend, _ = store
        if not isinstance(backend, HTTPBackend):
            pytest.skip("reads the raw listing JSON")
        import urllib.request

        backend.put("a.json", b"x")
        with urllib.request.urlopen(backend.base_url, timeout=5) as resp:
            listing = json.loads(resp.read())
        (entry,) = listing["entries"]
        assert entry["name"] == "a.json"
        assert entry["etag"] == etag_of(b"x")
        assert entry["size"] == 1 and entry["mtime"] > 0

    @pytest.mark.parametrize("length", ["abc", "-5", "-1", "1.5"])
    def test_bad_content_length_is_a_bad_request(self, served_url, length):
        """Answered with 400 -- not a traceback, a dropped socket, or a hang."""
        import http.client
        import urllib.parse

        port = urllib.parse.urlsplit(served_url).port
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.putrequest("PUT", "/a.json")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert b"Content-Length" in resp.read()
        finally:
            conn.close()
        assert open_backend(served_url).get("a.json") is None

    @pytest.mark.parametrize(
        "query", ["since=abc", "since=-1", "since=1.5", "wait=abc", "wait=-1", "wait=nan"]
    )
    def test_bad_wait_query_is_a_bad_request(self, served_url, query):
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(served_url + "?" + query, timeout=5)
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_wait_is_clamped_below_the_client_timeout(self, served_url, monkeypatch):
        import urllib.request

        assert store_server.MAX_WAIT_SECONDS < HTTP_TIMEOUT_SECONDS
        monkeypatch.setattr(store_server, "MAX_WAIT_SECONDS", 0.2)
        start = time.monotonic()
        with urllib.request.urlopen(served_url + "?since=0&wait=9999", timeout=5) as resp:
            assert resp.headers["X-Repro-Generation"] == "0"
        assert time.monotonic() - start < 2.0

    def test_concurrent_mutations_are_all_counted_and_wake_every_waiter(self, served_url):
        """No lost counter update, no parked waiter left behind."""
        import sys

        backend = open_backend(served_url)
        n_writers, n_puts = 8, 25
        woke: list = []

        def waiter():
            woke.append(open_backend(served_url).wait(0, 5.0))

        def writer(i):
            mine = open_backend(served_url)
            for j in range(n_puts):
                mine.put(f"w{i}-{j % 3}.json", b"x")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            waiters = [threading.Thread(target=waiter) for _ in range(4)]
            for t in waiters:
                t.start()
            writers = [threading.Thread(target=writer, args=(i,)) for i in range(n_writers)]
            for t in writers:
                t.start()
            for t in writers + waiters:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + waiters)
        assert backend.wait(0, 0.0) == n_writers * n_puts
        assert len(woke) == 4 and all(g >= 1 for g in woke)

    def test_wait_against_a_server_without_counters_sleeps(self):
        """A server that ignores ``since``/``wait`` must not turn wait into a spin."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        hits: list[str] = []

        class ListingOnly(BaseHTTPRequestHandler):
            def do_GET(self):
                hits.append(self.path)
                body = b'{"entries": []}'
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), ListingOnly)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            backend = HTTPBackend(f"http://127.0.0.1:{server.server_address[1]}/")
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                assert backend.wait(0, 0.2) is None
        finally:
            server.shutdown()
            server.server_close()
        assert 3 <= len(hits) <= 7, hits


class TestLeaseProtocolConformance:
    """The coordinator's claim/break/done semantics on every backend."""

    def test_claim_done_release_cycle(self, store):
        backend, _ = store
        a = Coordinator(backend, ttl=60.0, host="hostA", pid=1)
        b = Coordinator(backend, ttl=60.0, host="hostB", pid=1)
        assert a.claim("sk1") and not b.claim("sk1")
        a.renew("sk1")
        a.mark_done("sk1")
        assert not b.claim("sk1")  # completion is permanent
        assert b.claim("sk2")
        b.release("sk2")
        assert a.claim("sk2")

    def test_ttl_stale_lease_is_stolen(self, store):
        backend, _ = store
        gone = Coordinator(backend, ttl=0.05, host="crashed-host", pid=1)
        assert gone.claim("sk1")
        time.sleep(0.12)
        thief = Coordinator(backend, ttl=0.05, host="thief-host", pid=1)
        assert thief.claim("sk1") and thief.stolen == 1
        assert thief.read("sk1").host == "thief-host"

    def test_fresh_break_marker_blocks_the_steal(self, store):
        backend, root = store
        crashed = Coordinator(backend, ttl=0.05, host="crashed-host", pid=1)
        assert crashed.claim("sk1")
        time.sleep(0.12)
        marker = "sk1" + LEASE_SUFFIX + ".break"
        assert backend.create(marker, b"")  # a peer is mid-break right now
        thief = Coordinator(backend, ttl=0.05, host="thief-host", pid=1)
        assert thief.claim("sk1") is False  # marker excluded the break

    def test_aged_break_marker_is_reclaimed(self, store):
        backend, root = store
        crashed = Coordinator(backend, ttl=0.05, host="crashed-host", pid=1)
        assert crashed.claim("sk1")
        time.sleep(0.12)
        marker = "sk1" + LEASE_SUFFIX + ".break"
        assert backend.create(marker, b"")
        os.utime(root / marker, (0, 0))  # the breaker provably crashed
        thief = Coordinator(backend, ttl=0.05, host="thief-host", pid=1)
        thief.claim("sk1")  # first round clears the aged marker
        assert not backend.contains(marker)
        assert thief.claim("sk1") is True  # ... and the steal goes through

    def test_slow_breaker_cannot_remove_a_freshly_stolen_lease(self, store):
        """The conditional delete closes the double-steal hole everywhere."""
        backend, _ = store
        crashed = Coordinator(backend, ttl=0.05, host="crashed-host", pid=1)
        assert crashed.claim("sk1")
        time.sleep(0.12)
        fast = Coordinator(backend, ttl=0.05, host="fast-host", pid=1)
        slow = Coordinator(backend, ttl=0.05, host="slow-host", pid=1)
        assert slow.is_stale(slow.read("sk1"))  # slow judged it stale ...
        assert fast.claim("sk1") is True  # ... but fast steals and re-stamps
        assert slow._break("sk1") is False
        assert slow.read("sk1").host == "fast-host"


def tiny_scenario(seed: int = 1, depth: int = 3) -> ScenarioSpec:
    return ScenarioSpec(
        dataset="mq2008",
        seed=seed,
        train=TrainParams(n_trees=2, max_depth=depth),
        systems=("ideal-32-core", "booster"),
    )


@pytest.fixture()
def fake_runs(monkeypatch):
    """Replace ``run_scenario`` with an instant fake; returns the call log."""
    calls: list[str] = []
    lock = threading.Lock()

    def fake(scenario, cache=None, results=None, mode="compare"):
        with lock:
            calls.append(scenario_key(scenario))
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


class TestStealingOverURL:
    """Work stealing where the workers share nothing but the server URL."""

    def test_two_workers_split_without_double_running(
        self, served_url, tmp_path, fake_runs
    ):
        scenarios = [tiny_scenario(seed=s, depth=d) for s in (1, 2, 3) for d in (2, 4)]
        outputs: dict[str, list] = {"a": [], "b": []}

        def worker(name):
            coordinator = Coordinator(served_url, ttl=60.0, host=f"host-{name}")
            cache = ProfileCache(root=tmp_path / f"cache-{name}")  # no shared disk
            runner = SweepRunner(
                cache=cache, parallel=False, results=ResultStore(root=cache.root)
            )
            outputs[name] = list(
                runner.run_stealing(scenarios, coordinator, poll_interval=0.01)
            )

        threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        keys_a = {scenario_key(r.scenario) for r in outputs["a"]}
        keys_b = {scenario_key(r.scenario) for r in outputs["b"]}
        assert keys_a.isdisjoint(keys_b)
        assert keys_a | keys_b == {scenario_key(s) for s in scenarios}
        assert sorted(fake_runs) == sorted({scenario_key(s) for s in scenarios})

    def test_crashed_remote_worker_is_stolen_from(self, served_url, tmp_path, fake_runs):
        """A remote host dies mid-scenario; a URL-only peer steals and finishes."""
        scenarios = [tiny_scenario(seed=s) for s in (1, 2, 3)]
        crashed = Coordinator(served_url, ttl=0.05, host="crashed-host", pid=1)
        assert crashed.claim(scenario_key(scenarios[0]))
        time.sleep(0.12)  # the crash: no renewals ever arrive
        fresh = Coordinator(served_url, ttl=0.05, host="fresh-host", pid=1)
        cache = ProfileCache(root=tmp_path / "cache")
        runner = SweepRunner(
            cache=cache, parallel=False, results=ResultStore(root=cache.root)
        )
        results = list(runner.run_stealing(scenarios, fresh, poll_interval=0.01))
        assert {scenario_key(r.scenario) for r in results} == {
            scenario_key(s) for s in scenarios
        }
        assert fresh.stolen == 1
        assert all(lease.done for lease in fresh.leases())

        # Now a holder dies while the waiter is already parked behind its
        # live lease (a second sweep, so on a second store): no store change
        # announces the crash, so the waiter's poll timeout alone must
        # still find the lease stale.
        ttl, poll = 1.0, 0.2
        later = [tiny_scenario(seed=s) for s in (4, 5, 6)]
        held = scenario_key(cost_order(later)[0])
        collected: list = []
        finished: list[float] = []
        with serving(tmp_path / "second") as url:
            holder = Coordinator(url, ttl=ttl, host="holder-host", pid=1)
            waiter = Coordinator(url, ttl=ttl, host="waiter-host", pid=1)
            assert holder.claim(held)

            def work():
                collected.extend(runner.run_stealing(later, waiter, poll_interval=poll))
                finished.append(time.monotonic())

            thread = threading.Thread(target=work)
            with holder.renewing(held):
                thread.start()
                while len(fake_runs) < len(scenarios) + 2 and thread.is_alive():
                    time.sleep(0.01)
                time.sleep(0.3)
                assert thread.is_alive()  # parked behind the live holder
            stopped = time.monotonic()  # the crash: renewals stop, nothing released
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert finished[0] - stopped < ttl + poll + 0.5
        assert waiter.stolen == 1
        assert {scenario_key(r.scenario) for r in collected} == {scenario_key(s) for s in later}
        assert sorted(fake_runs) == sorted(scenario_key(s) for s in scenarios + later)

    def test_parked_worker_wakes_when_live_peer_finishes(self, served_url, tmp_path, fake_runs):
        """URL twin of the local wait test, with a poll too long to hide behind."""
        scenarios = [tiny_scenario(seed=s) for s in (1, 2)]
        held_key = scenario_key(cost_order(scenarios)[0])
        peer = Coordinator(served_url, ttl=9999.0)  # live pid: not stealable
        assert peer.claim(held_key)
        collected: list = []
        finished: list[float] = []

        def worker():
            cache = ProfileCache(root=tmp_path / "cache")
            runner = SweepRunner(cache=cache, parallel=False, results=ResultStore(root=cache.root))
            coordinator = Coordinator(served_url, ttl=9999.0, pid=31337)
            collected.extend(runner.run_stealing(scenarios, coordinator, poll_interval=5.0))
            finished.append(time.monotonic())

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.3)
        assert thread.is_alive()  # parked: one scenario is held by the peer
        done_at = time.monotonic()
        peer.mark_done(held_key)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert finished[0] - done_at < 1.0
        assert [scenario_key(r.scenario) for r in collected] == [
            k for k in (scenario_key(s) for s in scenarios) if k != held_key
        ]

    def test_steal_status_over_url(self, served_url):
        c = Coordinator(served_url, ttl=60.0, host="hostA", pid=1)
        c.ensure_sweep(["sk1", "sk2"], mode="compare")
        c.claim("sk1")
        c.mark_done("sk1")
        status = steal_status(served_url, ttl=60.0)
        assert status["counts"] == {"done": 1, "failed": 0, "running": 0, "stale": 0}
        assert status["unclaimed"] == 1
        assert status["sweep"]["n_scenarios"] == 2

    def test_steal_status_unreachable_url_is_none(self):
        # Port 9 (discard) on loopback: nothing listens there in CI.
        assert steal_status("http://127.0.0.1:9/") is None


class TestKeyedStoreOverURL:
    def test_profile_and_result_stores_roundtrip(self, served_url):
        cache = ProfileCache(root=served_url, memory=False)
        assert cache.root == served_url
        cache.put("t1", {"weights": [1, 2, 3]})
        assert cache.get("t1") == {"weights": [1, 2, 3]}
        assert cache.contains("t1") and not cache.contains("t2")
        # The root locator reconstructs a sibling store, exactly as
        # SweepRunner builds its ResultStore from cache.root.
        results = ResultStore(root=cache.root, memory=False)
        results.put("s1", {"total": 1.5})
        assert results.get("s1") == {"total": 1.5}
        assert results.get_raw("s1") == b'{"total": 1.5}'

    def test_corrupt_remote_entry_is_miss(self, served_url):
        store = ResultStore(root=served_url, memory=False)
        store.backend.put("k1" + store.suffix, b"not json {")
        assert store.get("k1") is None
        assert store.misses == 1

    def test_clear_and_invalidate(self, served_url):
        store = ResultStore(root=served_url, memory=False)
        store.put("k1", {"a": 1})
        store.put("k2", {"b": 2})
        store.invalidate("k1")
        assert not store.contains("k1") and store.contains("k2")
        store.clear()
        assert not store.contains("k2")


class TestPushPull:
    def test_copy_entries_roundtrip_through_a_remote_store(self, served_url, tmp_path):
        warm = tmp_path / "warm"
        cold = tmp_path / "cold"
        ProfileCache(root=warm).put("t1", {"w": 1})
        ResultStore(root=warm).put("s1", {"total": 2.0})
        pushed = copy_entries(warm, served_url)
        assert sorted(pushed) == ["s1.json", "t1.pkl"]
        pulled = copy_entries(served_url, cold)
        assert sorted(pulled) == ["s1.json", "t1.pkl"]
        assert ProfileCache(root=cold).get("t1") == {"w": 1}
        assert ResultStore(root=cold).get("s1") == {"total": 2.0}

    def test_copy_respects_key_filter_and_reserved_names(self, served_url, tmp_path):
        # A dual-role store: sweep descriptor next to cache entries.
        Coordinator(served_url, ttl=60.0).ensure_sweep(["sk1"], mode="compare")
        warm = tmp_path / "warm"
        ProfileCache(root=warm).put("t1", {"w": 1})
        ProfileCache(root=warm).put("t2", {"w": 2})
        assert copy_entries(warm, served_url, keys={"t1"}) == ["t1.pkl"]
        # Pulling back ignores the coordination metadata.
        pulled = copy_entries(served_url, tmp_path / "cold")
        assert pulled == ["t1.pkl"]

    def test_copy_through_a_directory_from_a_remote_store(self, served_url, tmp_path):
        """A directory carries a remote store's entries to a host that can
        reach neither the server nor the first host's disk."""
        remote = ProfileCache(root=served_url)
        remote.put("t1", {"w": 1})
        media = tmp_path / "media"
        assert copy_entries(served_url, media) == ["t1.pkl"]
        cold = tmp_path / "cold"
        assert copy_entries(media, cold) == ["t1.pkl"]
        assert ProfileCache(root=cold).get("t1") == {"w": 1}
