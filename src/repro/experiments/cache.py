"""Persistent keyed stores: trained profiles and timing results.

Two expensive things come out of an experiment and both are cached under
content-derived keys:

* :class:`ProfileCache` -- trained :class:`~repro.gbdt.trainer.TrainResult`
  objects (the functional half), pickled under
  :meth:`ScenarioSpec.train_key`, so a configuration is functionally
  trained at most once *ever* -- across benchmark runs, CLI invocations,
  sweep workers, and sessions.
* :class:`ResultStore` -- timing-result payloads (the simulation half,
  JSON-serializable dicts), stored under :meth:`ScenarioSpec.cache_key`,
  so a completed scenario is never re-simulated either.

Both are :class:`KeyedStore` instances sharing one store *location* --
``results/cache/`` by default, overridable with ``$REPRO_CACHE_DIR``,
which may now also be an ``http://`` URL served by ``repro store-serve``:
``<train_key>.pkl`` pickles next to ``<cache_key>.json`` result files.
The :class:`ProfileCache` also keeps the DRAM calibration
(:func:`repro.memory.profile.bandwidth_profile` with ``store=``), one
``dram<hash>.pkl`` entry per store.
Storage is pluggable (:mod:`repro.experiments.backend`): a directory
opens a :class:`~repro.experiments.backend.LocalBackend` (byte-identical
to the pre-backend layout), a URL opens an
:class:`~repro.experiments.backend.HTTPBackend`.  Writes are atomic on
every backend, so concurrent sweep workers can share a store; unreadable
entries are treated as misses.  A process-local memory layer sits above
the persistent layer so repeated lookups return the *same* object (the
old module-level ``_TRAIN_CACHE`` identity contract).
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from types import EllipsisType, ModuleType
from typing import Any, Iterable

from .backend import (
    TMP_SWEEP_AGE_SECONDS,
    LocalBackend,
    StoreBackend,
    atomic_write_bytes,
    is_store_url,
    open_backend,
    sweep_stale_tmp,
    validate_flat_name,
)

__all__ = [
    "CACHE_VERSION",
    "TMP_SWEEP_AGE_SECONDS",
    "KeyedStore",
    "ProfileCache",
    "ResultStore",
    "atomic_write_bytes",
    "code_fingerprint",
    "copy_entries",
    "default_cache",
    "default_cache_dir",
    "sim_fingerprint",
    "sweep_stale_tmp",
    "validate_flat_name",
]

#: File suffixes that may enter/leave a store through the store-to-store
#: copy path: trained-profile pickles and result-store JSON.
_ENTRY_SUFFIXES = (".pkl", ".json")

#: Store entry names that are coordination metadata, not cache entries --
#: one store may serve as a sweep's lease store *and* its cache (a single
#: ``repro store-serve`` URL doing both jobs), and the work-stealing sweep
#: descriptor (:data:`repro.experiments.steal.SWEEP_FILE`) matches the
#: ``.json`` entry suffix, so the copy must skip it by name.
_RESERVED_NAMES = frozenset({"sweep.json"})

#: Bump to invalidate every on-disk artifact (serialization/trainer layout
#: changes); the version participates in the content hash.
CACHE_VERSION = 1

_CODE_FINGERPRINT: str | None = None
_SIM_FINGERPRINT: str | None = None


def _hash_packages(*packages: ModuleType) -> str:
    import hashlib

    h = hashlib.sha256()
    for pkg in packages:
        root = Path(pkg.__file__).parent
        for p in sorted(root.glob("*.py")):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def code_fingerprint() -> str:
    """Digest of the functional-training source (``repro.gbdt`` +
    ``repro.datasets``), folded into every training cache key.

    Parameters alone cannot tell a pre-change artifact from a post-change
    one: editing the trainer or the synthetic generators would otherwise
    silently serve stale pickles to benchmarks, ``repro validate``, and the
    CLI.  Hashing the source files auto-invalidates on any such edit (a
    comment-only change also invalidates -- the safe direction).
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        from .. import datasets, gbdt

        # Per-process memo of a content hash; every process computes the
        # identical value.
        _CODE_FINGERPRINT = _hash_packages(gbdt, datasets)
    return _CODE_FINGERPRINT


def sim_fingerprint() -> str:
    """Digest of everything that influences a *timing* result.

    Stored timing results depend on the training source *and* the hardware
    models, cost calibration, mapping engine, and memory system.  The
    fingerprint is recorded inside every :class:`ResultStore` payload and
    checked on load, so editing any simulation source auto-invalidates
    persisted timings the same way :func:`code_fingerprint` invalidates
    trained artifacts.
    """
    global _SIM_FINGERPRINT
    if _SIM_FINGERPRINT is None:
        from .. import baselines, core, datasets, gbdt, memory, serving, sim

        # Per-process memo of a content hash; every process computes the
        # identical value.
        _SIM_FINGERPRINT = _hash_packages(
            gbdt, datasets, baselines, core, memory, serving, sim
        )
    return _SIM_FINGERPRINT


def default_cache_dir() -> Path | str:
    """``$REPRO_CACHE_DIR`` if set, else ``results/cache`` under the cwd.

    An ``http(s)://`` value is returned as the raw URL string (the store
    locator for :func:`~repro.experiments.backend.open_backend`), so a
    worker whose environment points at a ``repro store-serve`` instance
    transparently trains and records against the remote store.
    """
    import os

    raw = os.environ.get("REPRO_CACHE_DIR")
    if raw is None:
        return Path("results") / "cache"
    if is_store_url(raw):
        return raw
    return Path(raw)


class KeyedStore:
    """Two-level (memory over backend) keyed store; subclasses pick the codec.

    ``root`` is a store locator -- a directory path, an ``http(s)://``
    URL, or an already-open :class:`~repro.experiments.backend.StoreBackend`
    -- dispatched through :func:`~repro.experiments.backend.open_backend`.
    ``root=None`` disables the persistent layer (memory-only, the
    behaviour of the old in-process dict).  Instances are cheap; every
    instance pointed at the same location shares the persistent layer.
    Writes are atomic on every backend; a corrupt or truncated entry is a
    miss, not a crash.
    """

    #: Filename suffix for this store's entries (also what ``clear`` removes).
    suffix = ".bin"

    def __init__(
        self,
        root: str | Path | StoreBackend | None | EllipsisType = ...,
        memory: bool = True,
    ) -> None:
        if root is ...:
            root = default_cache_dir()
        self.backend: StoreBackend | None = open_backend(root) if root is not None else None
        self._memory: dict[str, Any] | None = {} if memory else None
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- codec (subclass responsibility) ---------------------------------------

    def _encode(self, value: Any) -> bytes:
        raise NotImplementedError

    def _decode(self, raw: bytes) -> Any:
        raise NotImplementedError

    # -- helpers --------------------------------------------------------------

    @property
    def root(self) -> Path | str | None:
        """The store locator: a directory :class:`Path`, a URL string, or
        ``None`` for a memory-only store.

        Feeding it back into another store (``ResultStore(root=cache.root)``)
        or into a worker process (``str(cache.root)``) reopens the same
        persistent layer whatever the backend is.
        """
        if self.backend is None:
            return None
        if isinstance(self.backend, LocalBackend):
            return self.backend.root
        return self.backend.location

    def _entry_name(self, key: str) -> str:
        return f"{key}{self.suffix}"

    def contains(self, key: str) -> bool:
        if self._memory is not None and key in self._memory:
            return True
        return self.backend is not None and self.backend.contains(self._entry_name(key))

    __contains__ = contains

    # -- lookup / store ---------------------------------------------------------

    def get_raw(self, key: str) -> bytes | None:
        """The entry's raw encoded bytes from the persistent layer, or ``None``.

        Bypasses both the memory layer and the codec: this is "what is
        actually stored", for callers that ship entries around (push/pull)
        or inspect them without trusting the decode.
        """
        if self.backend is None:
            return None
        return self.backend.get(self._entry_name(key))

    def get(self, key: str) -> Any | None:
        if self._memory is not None and key in self._memory:
            self.hits += 1
            return self._memory[key]
        raw = self.backend.get(self._entry_name(key)) if self.backend is not None else None
        if raw is not None:
            try:
                value = self._decode(raw)
            except Exception:
                # Truncated/incompatible entry: treat as a miss and recompute.
                self.misses += 1
                return None
            if self._memory is not None:
                self._memory[key] = value
            self.hits += 1
            return value
        self.misses += 1
        return None

    def put(self, key: str, value: Any) -> None:
        if self._memory is not None:
            self._memory[key] = value
        if self.backend is not None:
            self.backend.put(self._entry_name(key), self._encode(value))
        self.stores += 1

    def invalidate(self, key: str) -> None:
        """Drop one entry from both layers (e.g. ``repro sweep --refresh``)."""
        if self._memory is not None:
            self._memory.pop(key, None)
        if self.backend is not None:
            self.backend.delete(self._entry_name(key))

    def clear(self) -> None:
        """Drop every entry, sweep orphaned temp files, reset the counters.

        A SIGKILL'd worker can leave ``*.tmp`` files behind (the atomic-write
        window); they are garbage and are removed here alongside the real
        entries -- but only once :data:`TMP_SWEEP_AGE_SECONDS` old, since a
        fresh temp file may be a live worker's write in flight.  The
        hit/miss/store counters describe the store's content history, so an
        emptied store starts them from zero again.
        """
        if self._memory is not None:
            self._memory.clear()
        if self.backend is not None:
            for name in self.backend.list(self.suffix):
                self.backend.delete(name)
            self.backend.sweep_tmp()
        self.hits = 0
        self.misses = 0
        self.stores = 0


class ProfileCache(KeyedStore):
    """Pickle store for trained artifacts, keyed by ``train_key()``."""

    suffix = ".pkl"

    def _encode(self, value: Any) -> bytes:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def _decode(self, raw: bytes) -> Any:
        return pickle.loads(raw)


def _json_default(obj: Any) -> Any:
    # NumPy scalars leak into profile summaries; store their Python values.
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


class ResultStore(KeyedStore):
    """JSON store for timing-result payloads, keyed by ``cache_key()``.

    Values are plain dicts (see :func:`repro.experiments.runner.run_scenario`
    for the payload shape); JSON keeps the result files human-inspectable
    and independent of pickle compatibility.
    """

    suffix = ".json"

    def _encode(self, value: Any) -> bytes:
        return json.dumps(value, sort_keys=True, default=_json_default).encode()

    def _decode(self, raw: bytes) -> Any:
        return json.loads(raw)


def copy_entries(
    src: str | Path | StoreBackend,
    dst: str | Path | StoreBackend,
    keys: Iterable[str] | None = None,
) -> list[str]:
    """Copy store entries between two stores (any backend combination).

    The transfer behind ``repro cache export TARGET`` (push) and ``repro
    cache import SOURCE`` (pull), where either side is a store directory
    -- a shared mount, or removable media carrying a warm store offline --
    or a ``repro store-serve`` URL.  Only real entries move: flat
    trained-profile pickles and result JSON, never temp files,
    subdirectories, or coordination metadata; ``keys`` (filename stems)
    restricts the copy to one sweep's entries.  Existing destination
    entries are overwritten (entries are content-keyed, so "overwrite"
    means "identical bytes" unless one side is corrupt).  Returns the
    copied entry names.
    """
    src_backend = open_backend(src)
    dst_backend = open_backend(dst)
    wanted = None if keys is None else set(keys)
    copied: list[str] = []
    for name in src_backend.list():
        stem, dot, suffix = name.rpartition(".")
        if name in _RESERVED_NAMES or dot != "." or dot + suffix not in _ENTRY_SUFFIXES:
            continue
        if wanted is not None and stem not in wanted:
            continue
        data = src_backend.get(name)
        if data is None:
            continue  # removed between list and read; it is simply gone
        dst_backend.put(name, data)
        copied.append(name)
    return copied


_DEFAULT_CACHE: ProfileCache | None = None


def default_cache() -> ProfileCache:
    """The process-wide cache used when callers don't supply their own."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        # Per-process singleton over a shared on-disk root; the store, not
        # the handle, is the shared state.
        _DEFAULT_CACHE = ProfileCache()
    return _DEFAULT_CACHE
