"""Work-stealing sweep coordination over a shared lease store.

This is the one way to spread a sweep over several workers or hosts.
Rather than fixing each scenario's owner up front -- a bet that fails as
soon as one estimate is wrong or one host is slower -- workers pointed at
one shared ``--coordinate`` store *claim* scenarios as they go:

* a claim is one atomic create-exclusive of ``<scenario_key>.lease``
  through the store backend -- the store is the arbiter, so exactly one
  worker wins no matter how many race (on a directory that is an
  ``os.link`` publish; against ``repro store-serve`` it is a conditional
  ``PUT If-None-Match: *`` -- see :mod:`repro.experiments.backend`); the
  lease filename goes through the same
  :func:`~repro.experiments.backend.validate_flat_name` gate as every
  store entry;
* the lease is stamped with holder host/pid and start time, and re-stamped
  (atomically, via the backend's ``put``) by a renewal thread while the
  scenario runs;
* a lease that stops being renewed for longer than the TTL -- or whose
  holder is a dead process on this host -- is *stale*: any worker may
  break it and steal the scenario, so a crashed host's work is re-run
  rather than lost;
* a finished scenario's lease is rewritten as ``done`` (with the error
  string, if it failed), which is both the "don't re-run this" signal to
  peers and the progress ledger ``repro steal-status`` renders.

Because every primitive routes through the backend, ``--coordinate``
accepts a directory (shared-filesystem pools, NFS included) *or* an
``http://`` URL (a ``repro store-serve`` process), and the protocol is
identical either way: hosts in a URL-coordinated pool share nothing but
the server's address.

Workers claim in cost-descending order (LPT dynamically --
:func:`~repro.experiments.schedule.cost_order`), each streams its own
JSONL manifest, and ``repro merge`` unions the per-worker manifests
into the manifest of the whole sweep.  Adding a worker mid-sweep just
makes the sweep finish sooner; killing one delays its in-flight scenario
by at most the TTL.

The one unavoidable caveat of leases: staleness is a *timeout*.  If
the TTL is shorter than a single scenario's wall time (renewals stop only
when the holder dies, so this takes a paused/SIGSTOPped worker or a
clock far off), a live scenario can be stolen and run twice.  Both
results are valid measurements of the same scenario; manifests carry
both lines and ``repro merge`` dedupes them.  Choose the TTL well above
the longest scenario (see ``docs/experiments.md``).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import socket
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from .backend import LocalBackend, StoreBackend, open_backend, validate_flat_name

__all__ = [
    "DEFAULT_LEASE_TTL",
    "LEASE_SUFFIX",
    "SWEEP_FILE",
    "Coordinator",
    "Lease",
    "LeaseLost",
    "lease_name",
    "steal_status",
]

#: Seconds after which an unrenewed lease counts as abandoned.  Renewal
#: happens every quarter-TTL while a scenario runs, so only a dead (or
#: thoroughly wedged) worker ever lets a lease age this far.
DEFAULT_LEASE_TTL = 300.0

#: Filename suffix of lease files in a coordination store.
LEASE_SUFFIX = ".lease"

#: The sweep descriptor the first worker publishes in the store, so
#: later workers can verify they are all draining the same sweep.
SWEEP_FILE = "sweep.json"

#: Scenario keys that may serve as lease filename stems directly.  Content
#: keys (``s<hex>``) always match; the canonical-JSON fallback key of an
#: unkeyable scenario never does and is hashed instead.
_SAFE_KEY = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class LeaseLost(RuntimeError):
    """This worker's lease vanished or now belongs to another worker."""


def lease_name(key: str) -> str:
    """The lease filename stem for one scenario key.

    Content keys are already flat, short, and filesystem-safe and pass
    through unchanged (the lease store stays greppable by key).  Any
    other key -- notably the ``!``-prefixed canonical-JSON fallback of an
    unkeyable scenario -- is content-hashed into a safe stem, so even a
    hostile ``dataset`` name cannot place a lease outside the store.
    The result is re-checked by the same path-validation gate the store
    import path uses.
    """
    if _SAFE_KEY.match(key) and len(key) <= 100:
        name = key
    else:
        name = "x" + hashlib.sha256(key.encode()).hexdigest()[:20]
    validate_flat_name(name + LEASE_SUFFIX, what="lease filename")
    return name


@dataclass(frozen=True)
class Lease:
    """One scenario's claim record, as stamped into its lease file."""

    key: str  # the scenario key this lease covers
    host: str  # holder hostname
    pid: int  # holder process id (0: unknown, e.g. a corrupt lease)
    started: float  # epoch seconds the scenario was claimed
    renewed: float  # epoch seconds of the freshest (re-)stamp
    done: bool = False  # the scenario completed (successfully or not)
    error: str | None = None  # failure description when it completed failed

    @property
    def holder(self) -> str:
        return f"{self.host}:{self.pid}"

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "host": self.host,
            "pid": self.pid,
            "started": self.started,
            "renewed": self.renewed,
            "done": self.done,
            "error": self.error,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "Lease":
        return cls(
            key=str(d["key"]),
            host=str(d["host"]),
            pid=int(d["pid"]),
            started=float(d["started"]),
            renewed=float(d["renewed"]),
            done=bool(d.get("done", False)),
            error=d.get("error"),
        )


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness of a local pid (signal 0 probe).

    ``PermissionError`` means the pid exists but belongs to another user:
    alive.  Anything else unexpected also counts as alive -- the safe
    direction, since "dead holder" grants an immediate steal.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


class Coordinator:
    """One worker's handle on a shared work-stealing lease store.

    All coordination state lives in the store itself -- lease entries
    plus one sweep descriptor -- so "the pool" is nothing but however many
    processes currently point a :class:`Coordinator` at the same locator:
    a shared directory (NFS-style filesystems included) or the URL of a
    ``repro store-serve`` process.  Every primitive is a single atomic
    create-exclusive, replace, or (conditional) delete on the backend.
    Instances are cheap and carry only identity (host/pid, for lease
    stamps) and the staleness TTL.
    """

    def __init__(
        self,
        root: str | Path | StoreBackend,
        ttl: float = DEFAULT_LEASE_TTL,
        host: str | None = None,
        pid: int | None = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"lease TTL must be positive, got {ttl!r}")
        self.backend = open_backend(root)
        self.ttl = float(ttl)
        self.host = host or socket.gethostname()
        self.pid = int(pid) if pid is not None else os.getpid()
        if isinstance(self.backend, LocalBackend):
            self.backend.root.mkdir(parents=True, exist_ok=True)
        self.claimed = 0  # leases this coordinator won
        self.stolen = 0  # of which were reclaimed stale leases

    # -- lease entries ---------------------------------------------------------

    @property
    def root(self) -> Path | str:
        """The store locator (directory path or URL) this pool coordinates on."""
        backend = self.backend
        return backend.root if isinstance(backend, LocalBackend) else backend.location

    def _lease_entry(self, key: str) -> str:
        return lease_name(key) + LEASE_SUFFIX

    def lease_path(self, key: str) -> Path:
        """The on-disk path of one lease -- local backends only.

        A convenience for tests and local tooling that inspect or corrupt
        lease files directly; a URL-coordinated pool has no such path, so
        this raises rather than inventing one.
        """
        backend = self.backend
        if not isinstance(backend, LocalBackend):
            raise TypeError(
                f"lease_path() needs a local lease directory, not {backend.location}"
            )
        return backend.root / self._lease_entry(key)

    def read(self, key: str) -> Lease | None:
        """The scenario's current lease, or ``None`` when unclaimed.

        A lease entry that cannot be parsed (a claim crashed inside the
        create-then-stamp window, pre-backend layouts only) degrades to a
        placeholder lease aged by the entry's store mtime: it still blocks
        claims until the TTL passes, then goes stale and is broken like
        any other abandoned lease.
        """
        entry = self.backend.get_entry(self._lease_entry(key))
        if entry is None:
            return None
        return self._parse(entry.data, entry.mtime, key)

    @staticmethod
    def _parse(raw: bytes, mtime: float, key: str) -> Lease:
        try:
            return Lease.from_dict(json.loads(raw))
        except Exception:
            return Lease(key=key, host="?", pid=0, started=mtime, renewed=mtime)

    def held(self, lease: Lease | None) -> bool:
        """Whether ``lease`` is this worker's own stamp."""
        return lease is not None and lease.host == self.host and lease.pid == self.pid

    def is_stale(self, lease: Lease, now: float | None = None) -> bool:
        """Whether ``lease`` may be broken and its scenario stolen.

        Done leases never go stale (completion is permanent).  A holder
        that is a dead process on *this* host is stale immediately -- no
        reason to wait out the TTL when the kernel already knows -- which
        is what lets a same-machine worker fleet recover from a SIGKILL
        in seconds.  Everything else ages out on the renewal TTL.
        """
        if lease.done:
            return False
        if lease.host == self.host and lease.pid and lease.pid != self.pid:
            if not _pid_alive(lease.pid):
                return True
        if now is None:
            now = time.time()
        return now - lease.renewed > self.ttl

    # -- claim / renew / complete ---------------------------------------------

    def claim(self, key: str) -> bool:
        """Try to take the scenario's lease; ``True`` iff this worker holds it.

        The whole race is one create-exclusive on the backend: however
        many workers collide, the store admits exactly one.  On collision
        the existing lease is inspected -- live or done means lose; stale
        means break it (:meth:`_break`, an exclusive two-phase remove) and
        retry the create once, where the winner among the breakers is
        again decided by the exclusive create.
        """
        if self._create(key):
            self.claimed += 1
            return True
        lease = self.read(key)
        broke = False
        if lease is None:
            pass  # vanished between create and read: just retry the create
        elif self.is_stale(lease):
            broke = self._break(key)
        else:
            return False
        if self._create(key):
            self.claimed += 1
            # Count a reclaim only when this worker itself removed a stale
            # lease: winning the create after a clean release() (or after a
            # peer's break) is an ordinary claim, not crash recovery.
            if broke:
                self.stolen += 1
            return True
        return False

    def _break(self, key: str) -> bool:
        """Remove ``key``'s lease iff it is *currently* stale; one breaker
        at a time.

        Breaking is two-phase: win an exclusive ``.break`` marker entry
        (create-exclusive again), re-verify staleness *under the marker*,
        and only then remove -- with a delete conditional on the content
        tag read during re-verification.  The naive read-then-unlink would
        let a slow breaker -- one that judged the lease stale a moment ago
        -- delete the fresh lease a faster breaker had already stolen and
        re-stamped, silently handing one scenario to two workers.  The
        marker excludes every other *breaker*; the conditional delete
        additionally refuses if the *holder* re-stamped between the
        re-verify and the remove (exact on the HTTP store, best-effort on
        a plain directory -- see
        :meth:`~repro.experiments.backend.LocalBackend.delete_if`).  A
        marker abandoned by a crashed breaker ages out on the TTL like any
        lease.  Returns whether the lease was removed; either way the
        caller's next exclusive create decides ownership.
        """
        name = self._lease_entry(key)
        marker = name + ".break"
        if not self.backend.create(marker, b""):
            # Another breaker is mid-break; clean its marker up only if it
            # provably crashed (aged past the TTL), then let a later claim
            # round retry.
            try:
                entry = self.backend.get_entry(marker)
                if entry is not None and time.time() - entry.mtime > self.ttl:
                    self.backend.delete(marker)
            except OSError:
                pass
            return False
        try:
            entry = self.backend.get_entry(name)
            if entry is None:
                return False  # already broken by someone faster
            lease = self._parse(entry.data, entry.mtime, key)
            if not self.is_stale(lease):
                return False  # re-claimed/renewed by someone faster
            return self.backend.delete_if(name, entry.etag)
        finally:
            try:
                self.backend.delete(marker)
            except OSError:
                pass  # a later breaker's TTL sweep reclaims the marker

    def _create(self, key: str) -> bool:
        now = time.time()
        stamp = Lease(key=key, host=self.host, pid=self.pid, started=now, renewed=now)
        return self.backend.create(self._lease_entry(key), stamp.to_json().encode())

    def renew(self, key: str) -> Lease:
        """Re-stamp this worker's lease so it does not age into staleness.

        Raises :class:`LeaseLost` when the lease is gone or carries another
        worker's stamp -- the scenario was stolen (the TTL elapsed, so this
        worker stopped renewing for too long) and the thief owns it now.
        """
        lease = self.read(key)
        if not self.held(lease):
            what = "gone" if lease is None else f"held by {lease.holder}"
            raise LeaseLost(f"lease for {key!r} is {what} (holder {self.host}:{self.pid})")
        assert lease is not None  # held() guarantees it
        fresh = replace(lease, renewed=time.time())
        self.backend.put(self._lease_entry(key), fresh.to_json().encode())
        return fresh

    def renewing(self, key: str, interval: float | None = None) -> "_LeaseRenewer":
        """Context manager renewing the lease in the background during a run."""
        return _LeaseRenewer(self, key, interval)

    def mark_done(self, key: str, error: str | None = None) -> None:
        """Record the scenario as completed (with ``error`` if it failed).

        Deliberately unconditional (atomic replace, last writer wins): the
        scenario DID run to completion here, and if the lease was stolen
        mid-run the thief's duplicate execution produces a second manifest
        line for ``repro merge`` to dedupe -- completion information must
        not be lost to a timestamp squabble.
        """
        lease = self.read(key)
        started = lease.started if lease is not None else time.time()
        now = time.time()
        stamp = Lease(
            key=key,
            host=self.host,
            pid=self.pid,
            started=started,
            renewed=now,
            done=True,
            error=error,
        )
        self.backend.put(self._lease_entry(key), stamp.to_json().encode())

    def release(self, key: str) -> None:
        """Drop this worker's claim without completing (the interrupt path).

        Removes the lease so a peer can claim the scenario immediately
        instead of waiting out the TTL.  A lease this worker does not hold
        is left untouched.
        """
        if self.held(self.read(key)):
            self.backend.delete(self._lease_entry(key))

    # -- sweep descriptor ------------------------------------------------------

    def ensure_sweep(self, keys: Iterable[str], mode: str = "compare") -> dict:
        """Publish -- or validate against -- the store's sweep descriptor.

        The first worker to arrive writes ``sweep.json`` through the
        backend's create-exclusive (atomic full-content publish: a racing
        reader never sees a partial file); every later worker must present
        the same scenario-key digest, sweep mode, and simulation-source
        fingerprint.  Two hosts accidentally pointing one store at
        different sweeps -- or at the same sweep under different simulator
        code -- fail loudly here instead of silently splitting scenarios
        that only one of them expands.
        """
        from .cache import sim_fingerprint

        distinct = sorted(set(keys))
        mine = {
            "version": 1,
            "mode": mode,
            "sim_code": sim_fingerprint(),
            "n_scenarios": len(distinct),
            "keys_digest": hashlib.sha256("\n".join(distinct).encode()).hexdigest()[:20],
        }
        existing = self._read_sweep(self.backend)
        if existing is None:
            # Losing the create race is fine: validate against the winner's.
            self.backend.create(SWEEP_FILE, json.dumps(mine, sort_keys=True).encode())
            existing = self._read_sweep(self.backend)
        if existing is None:
            raise ValueError(f"unreadable sweep descriptor in {self.root}")
        for field in ("mode", "sim_code", "n_scenarios", "keys_digest"):
            if existing.get(field) != mine[field]:
                raise ValueError(
                    f"lease store {self.root} is coordinating a different "
                    f"sweep ({field}: {existing.get(field)!r} there vs "
                    f"{mine[field]!r} here); every worker must run the same "
                    "sweep under the same code -- use a fresh --coordinate "
                    "store per sweep"
                )
        return existing

    @staticmethod
    def _read_sweep(backend: StoreBackend) -> dict | None:
        raw = backend.get(SWEEP_FILE)
        if raw is None:
            return None
        try:
            d = json.loads(raw)
        except Exception:
            return None
        return d if isinstance(d, dict) else None

    # -- inspection ------------------------------------------------------------

    def leases(self) -> list[Lease]:
        """Every lease currently in the store, sorted by entry name."""
        out = []
        for name in self.backend.list(LEASE_SUFFIX):
            entry = self.backend.get_entry(name)
            if entry is None:
                continue  # removed between list and read
            out.append(self._parse(entry.data, entry.mtime, name[: -len(LEASE_SUFFIX)]))
        return out


class _LeaseRenewer:
    """Background daemon thread re-stamping one held lease during a run.

    The renewal cadence is a quarter of the TTL (floored at 50 ms, capped
    at 30 s): several renewals must fail before the lease can go stale, so
    one slow filesystem or network hiccup never forfeits a running
    scenario.  If the lease IS lost (stolen after a genuine stall),
    ``lost`` flips true and the thread stops -- the run itself continues;
    its result is still a valid measurement, and the duplicate line is
    merge-deduped.
    """

    def __init__(
        self, coordinator: Coordinator, key: str, interval: float | None = None
    ) -> None:
        self.coordinator = coordinator
        self.key = key
        if interval is None:
            interval = min(max(coordinator.ttl / 4.0, 0.05), 30.0)
        self.interval = interval
        self.lost = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "_LeaseRenewer":
        self._thread = threading.Thread(
            target=self._run, name=f"lease-renew-{lease_name(self.key)}", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.coordinator.renew(self.key)
            except LeaseLost:
                self.lost = True
                return
            except Exception:  # repro: noqa RPR006 -- transient I/O: next tick retries, and the lease TTL is the bounded backstop
                pass


def steal_status(root: str | Path, ttl: float = DEFAULT_LEASE_TTL) -> dict | None:
    """Inspect a coordination store without claiming anything.

    ``root`` is a lease directory or a ``repro store-serve`` URL.  Returns
    ``None`` when the store does not exist (a missing directory, or a URL
    that cannot be reached); otherwise a dict: ``sweep`` (the descriptor,
    or ``None``), ``rows`` (``(Lease, state)`` pairs, state one of
    ``done``/``failed``/``running``/``stale``), ``counts`` per state, and
    ``unclaimed`` (descriptor scenario count minus leases, when the
    descriptor exists).  Staleness is judged against ``ttl`` exactly as a
    stealing worker would judge it.
    """
    backend = open_backend(root)
    if isinstance(backend, LocalBackend) and not backend.root.is_dir():
        return None
    coordinator = Coordinator(backend, ttl=ttl)
    try:
        all_leases = coordinator.leases()
        sweep = Coordinator._read_sweep(backend)
    except OSError:
        return None  # unreachable store server: same answer as a missing dir
    now = time.time()
    rows: list[tuple[Lease, str]] = []
    counts = {"done": 0, "failed": 0, "running": 0, "stale": 0}
    for lease in all_leases:
        if lease.done:
            state = "failed" if lease.error is not None else "done"
        elif coordinator.is_stale(lease, now):
            state = "stale"
        else:
            state = "running"
        counts[state] += 1
        rows.append((lease, state))
    unclaimed = None
    if sweep is not None and isinstance(sweep.get("n_scenarios"), int):
        unclaimed = max(0, sweep["n_scenarios"] - len(rows))
    return {"sweep": sweep, "rows": rows, "counts": counts, "unclaimed": unclaimed}
