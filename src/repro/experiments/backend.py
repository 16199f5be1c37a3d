"""Pluggable storage backends: the contract every store and lease speaks.

PRs 2-5 grew three consumers of one implicit protocol -- the
:class:`~repro.experiments.cache.KeyedStore` family (trained profiles,
timing results), the work-stealing lease :class:`~repro.experiments.steal.Coordinator`,
and the ``cache export/import`` archive path -- and all three assumed the
protocol's *implementation*: a shared POSIX directory.  This module makes
the protocol explicit so the implementation is pluggable:

* :class:`StoreBackend` -- the abstract contract: atomic full-content
  ``put``, exclusive full-content ``create`` (the lease-claim primitive),
  ``get``/``get_entry`` (content plus a strong content tag and mtime),
  ``delete`` and tag-conditional ``delete_if`` (the two-phase lease-break
  primitive), sorted ``list``, ``sweep_tmp`` for abandoned temp files, and
  ``wait`` for the next change (a plain sleep where none can be observed);
* :class:`LocalBackend` -- the filesystem implementation, byte-identical
  to the pre-backend on-disk layout (flat files under one directory,
  temp-file + rename atomic writes, ``os.link`` exclusive creates);
* :class:`HTTPBackend` -- a stdlib HTTP object-store client speaking to
  ``repro store-serve`` (:mod:`repro.experiments.store_server`):
  conditional ``PUT If-None-Match: *`` is create-exclusive, ``DELETE
  If-Match: <etag>`` is the guarded unlink, so an elastic sweep pool can
  coordinate through hosts that share nothing but a URL.

Entry identity is a *content* tag everywhere: ``etag_of`` is sha256 over
the bytes, computed identically client-side and server-side, so a
conditional delete means "remove it only if it still holds exactly what I
read" on every backend.

The atomic-write primitives (:func:`validate_flat_name`,
:func:`atomic_write_bytes`, :func:`sweep_stale_tmp`) moved here from
``experiments/cache.py`` (which re-exports them): they are the protocol's
building blocks, not a cache detail.
"""

from __future__ import annotations

import abc
import hashlib
import json
import os
import tempfile
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # http.client is imported on first use: it loads ssl, ~2 MB
    from http.client import HTTPConnection

__all__ = [
    "TMP_SWEEP_AGE_SECONDS",
    "Entry",
    "HTTPBackend",
    "LocalBackend",
    "StoreBackend",
    "StoreBackendError",
    "atomic_write_bytes",
    "etag_of",
    "is_store_url",
    "open_backend",
    "sweep_stale_tmp",
    "validate_flat_name",
]

#: ``sweep_tmp`` only removes ``*.tmp`` files at least this old: a fresh
#: temp file may be a concurrent worker's in-flight atomic write in the
#: shared directory, and unlinking it would turn that worker's success
#: into an error.  Orphans from killed workers are, by definition, not
#: fresh.
TMP_SWEEP_AGE_SECONDS = 60.0

#: Default socket timeout for one HTTP store operation, in seconds.  Store
#: entries are small (lease stamps, JSON payloads, pickles of tiny test
#: models); a transfer that takes longer than this is a dead server, and
#: hanging a sweep worker on it would look exactly like a crashed worker
#: to its peers.
HTTP_TIMEOUT_SECONDS = 30.0


def validate_flat_name(name: str, what: str = "archive member") -> None:
    """Reject ``name`` unless it is a plain flat filename.

    Everything that enters a store directory from outside -- tar members on
    import, lease filenames in a shared work-stealing directory, entry
    names arriving over HTTP -- must be a bare basename: a name carrying
    any path structure (``sub/x.pkl``, ``../x.pkl``, an absolute path,
    ``.``/``..``) could reach outside the directory it is written into.
    One shared gate keeps the import path, the lease code, and the store
    server from drifting apart on what "safe" means.
    """
    if os.path.basename(name) != name or not name or name in (".", ".."):
        raise ValueError(
            f"refusing {what} {name!r}: store entries are flat filenames, "
            "and a path component could escape the store directory"
        )


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + rename).

    The single write protocol shared by every store mutation that must be
    safe under concurrent readers and writers: :meth:`KeyedStore.put`,
    archive import, lease renewal in a shared coordination directory, and
    the store server's PUT handler.  A reader never observes a partial
    file; a crash leaves only a ``*.tmp`` orphan, which
    :func:`sweep_stale_tmp` reclaims once it is provably abandoned.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sweep_stale_tmp(root: str | Path, max_age: float | None = None) -> int:
    """Remove abandoned ``*.tmp`` files under ``root``; returns the count.

    Only temp files at least ``max_age`` seconds old (default
    :data:`TMP_SWEEP_AGE_SECONDS`) are removed: a fresh temp file may be a
    concurrent worker's :func:`atomic_write_bytes` in flight, and unlinking
    it would turn that worker's success into an error.  Orphans from killed
    workers are, by definition, not fresh.
    """
    root = Path(root)
    if max_age is None:
        max_age = TMP_SWEEP_AGE_SECONDS
    cutoff = time.time() - max_age
    removed = 0
    if root.is_dir():
        for p in root.glob("*.tmp"):
            try:
                if p.stat().st_mtime <= cutoff:
                    p.unlink()
                    removed += 1
            except FileNotFoundError:
                pass  # another sweep/worker already removed it
    return removed


def etag_of(data: bytes) -> str:
    """The strong content tag of one entry: sha256 hex over the bytes.

    Computed identically by :class:`LocalBackend` (client-side, from the
    bytes it read) and the store server (for ``ETag`` headers and
    ``If-Match`` checks), so "delete this entry only if it still holds
    exactly what I read" means the same thing on every backend.
    """
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Entry:
    """One store entry's content plus the metadata conditions attach to."""

    name: str  # flat entry filename
    data: bytes  # full content (entries are small; no streaming)
    etag: str  # strong content tag (:func:`etag_of` of ``data``)
    mtime: float  # last-modified epoch seconds (the *store's* clock)

    @property
    def size(self) -> int:
        return len(self.data)


class StoreBackendError(OSError):
    """A store operation failed for a non-protocol reason (I/O, HTTP 5xx).

    Subclasses :class:`OSError` deliberately: every existing consumer of
    the filesystem store handles unreadable entries with ``except
    OSError``, and a remote backend's transport failures must degrade the
    same way (an unreadable lease is an unreadable lease, whether the
    filesystem or a socket said so).
    """


class StoreBackend(abc.ABC):
    """Abstract contract for a flat keyed byte store.

    The operations are exactly what the :class:`KeyedStore` family and the
    lease protocol need -- nothing more, so implementations stay small:

    * ``get``/``get_entry`` -- read one entry (``None`` when absent);
    * ``put`` -- atomic full-content write (replace semantics: concurrent
      readers see the old or the new content, never a mix);
    * ``create`` -- *exclusive* atomic full-content write: exactly one of
      any number of racing creators wins (the lease-claim primitive);
    * ``delete`` / ``delete_if`` -- unlink, unconditionally or only while
      the entry still carries a given content tag (the lease-break
      primitive: a holder that re-stamped in the meantime survives);
    * ``list`` -- sorted entry names, optionally suffix-filtered;
    * ``sweep_tmp`` -- reclaim abandoned atomic-write temp files;
    * ``wait`` -- block until the store changes or a timeout passes (the
      default sleeps out the timeout: a plain directory cannot notify).

    Every name is validated through :func:`validate_flat_name` before it
    touches storage; hostile names raise instead of escaping the store.
    """

    #: Printable, serializable locator (a directory path or a URL); passing
    #: it to :func:`open_backend` reconstructs an equivalent backend (this
    #: is how sweep pool workers inherit the parent's store).
    location: str

    @abc.abstractmethod
    def get_entry(self, name: str) -> Entry | None:
        """The entry's content + metadata, or ``None`` when absent."""

    @abc.abstractmethod
    def put(self, name: str, data: bytes) -> None:
        """Atomically write ``data`` as the entry's full content."""

    @abc.abstractmethod
    def create(self, name: str, data: bytes) -> bool:
        """Exclusively create the entry; ``False`` when it already exists.

        However many callers race, exactly one wins, and the winner's
        content is visible in full to every reader (no partial stamps).
        """

    @abc.abstractmethod
    def delete(self, name: str) -> bool:
        """Remove the entry; ``False`` when it did not exist."""

    @abc.abstractmethod
    def delete_if(self, name: str, etag: str) -> bool:
        """Remove the entry only while its content tag is still ``etag``.

        ``False`` when the entry is gone or was rewritten since the caller
        read it -- the two-phase lease break's "did the holder re-stamp
        under me?" guard.  Best-effort on the local filesystem (see
        :meth:`LocalBackend.delete_if`), exact on the HTTP store.
        """

    @abc.abstractmethod
    def list(self, suffix: str = "") -> list[str]:
        """Sorted entry names (``suffix``-filtered; temp files excluded)."""

    @abc.abstractmethod
    def sweep_tmp(self, max_age: float | None = None) -> int:
        """Reclaim abandoned atomic-write temp files; returns the count."""

    def wait(self, since: int, timeout: float) -> int | None:
        """Block until the change counter (successful ``put``/``create``/
        ``delete`` calls) passes ``since`` or ``timeout`` passes; return it.

        ``wait(0, 0.0)`` reads the counter.  Read it *before* looking at the
        store and wait on that value afterwards, and no change is missed.
        ``None``: this backend observes no changes and just slept
        ``timeout`` -- the default, as a plain or NFS directory cannot notify.
        """
        time.sleep(timeout)
        return None

    # -- conveniences shared by every implementation ---------------------------

    def get(self, name: str) -> bytes | None:
        """The entry's bytes, or ``None`` when absent."""
        entry = self.get_entry(name)
        return None if entry is None else entry.data

    def contains(self, name: str) -> bool:
        return self.get_entry(name) is not None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.location!r})"


class LocalBackend(StoreBackend):
    """The filesystem implementation: flat files under one directory.

    Byte-identical to the pre-backend layout -- every ``put`` is
    :func:`atomic_write_bytes` (temp + rename), every ``create`` is an
    exclusive ``os.link`` publish of a fully-written private temp file, so
    directories written through this class are indistinguishable from ones
    written by the PR-2..5 code (and remain shareable with it over NFS).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @property
    def location(self) -> str:
        return str(self.root)

    def _path(self, name: str) -> Path:
        validate_flat_name(name, what="store entry name")
        return self.root / name

    def get_entry(self, name: str) -> Entry | None:
        path = self._path(name)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            mtime = path.stat().st_mtime
        except OSError:
            mtime = time.time()  # unlinked between read and stat; data is real
        return Entry(name=name, data=data, etag=etag_of(data), mtime=mtime)

    def contains(self, name: str) -> bool:
        return self._path(name).is_file()

    def put(self, name: str, data: bytes) -> None:
        atomic_write_bytes(self._path(name), data)

    def create(self, name: str, data: bytes) -> bool:
        """Exclusive create via a hard-link publish.

        The content is written to a private temp file first and linked
        into place: ``os.link`` fails with ``FileExistsError`` if the name
        is taken (the exclusivity arbiter, same discipline as ``O_EXCL``),
        and because the source is fully written before the link, a racing
        reader can never observe a partial entry -- which a plain
        ``O_CREAT | O_EXCL`` open-then-write could expose.
        """
        path = self._path(name)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            try:
                os.link(tmp, path)
            except FileExistsError:
                return False
            return True
        finally:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass

    def delete(self, name: str) -> bool:
        try:
            os.unlink(self._path(name))
        except FileNotFoundError:
            return False
        return True

    def delete_if(self, name: str, etag: str) -> bool:
        """Conditional unlink: re-read, compare content tags, unlink.

        The compare and the unlink are not one atomic step on a plain
        filesystem, so a writer can theoretically slip between them; every
        caller in this codebase additionally holds an exclusive break
        marker (see :meth:`Coordinator._break`), which excludes every
        *breaker* -- the residual window against the lease *holder* is the
        same one the pre-backend code had, and the TTL discipline bounds
        it.  The HTTP implementation is exact (the server checks and
        unlinks under one lock).
        """
        entry = self.get_entry(name)
        if entry is None or entry.etag != etag:
            return False
        return self.delete(name)

    def list(self, suffix: str = "") -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            p.name
            for p in self.root.iterdir()
            if p.is_file() and p.name.endswith(suffix) and not p.name.endswith(".tmp")
        )

    def sweep_tmp(self, max_age: float | None = None) -> int:
        return sweep_stale_tmp(self.root, max_age)


class HTTPBackend(StoreBackend):
    """Client for the ``repro store-serve`` HTTP object store (pure stdlib).

    One entry maps to one URL path under the base URL; the HTTP verbs map
    onto the contract:

    ========================  =================================================
    operation                 request
    ========================  =================================================
    ``get_entry``             ``GET /<name>`` (``ETag`` + ``X-Repro-Mtime``)
    ``contains``              ``HEAD /<name>``
    ``put``                   ``PUT /<name>``
    ``create``                ``PUT /<name>`` + ``If-None-Match: *`` (412: lost)
    ``delete``                ``DELETE /<name>``
    ``delete_if``             ``DELETE /<name>`` + ``If-Match: "<etag>"``
    ``list``                  ``GET /?suffix=...`` (JSON entry listing)
    ``sweep_tmp``             ``POST /?op=sweep-tmp&max_age=...``
    ``wait``                  ``GET /?since=<n>&wait=<s>`` (``X-Repro-Generation``)
    ========================  =================================================

    Conditional semantics live server-side under one mutation lock, so
    create-exclusive and the tag-guarded delete are *exact* over HTTP --
    the server is the single arbiter the shared filesystem used to be.

    A backend keeps one persistent HTTP/1.1 connection per thread and per
    process (the lease renewer thread has its own, and a forked child opens
    a new one rather than share its parent's socket).  A kept-alive connection
    that fails before any response byte arrives -- the server closed it
    while idle, or was restarted -- is retried once on a fresh connection.
    Every other connection failure surfaces as an ``OSError``
    (``ConnectionRefusedError``, a timeout, or :class:`StoreBackendError`
    for a malformed response), which every store consumer already treats
    as "entry unreadable"; unexpected HTTP statuses raise
    :class:`StoreBackendError`.  Proxy environment variables are not
    consulted: the store is reached directly.
    """

    def __init__(self, base_url: str, timeout: float = HTTP_TIMEOUT_SECONDS) -> None:
        if not is_store_url(base_url):
            raise ValueError(f"not an http(s) store URL: {base_url!r}")
        self.base_url = base_url.rstrip("/") + "/"
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base_url)
        self._https = parts.scheme.lower() == "https"
        self._host = parts.hostname or ""
        self._port = parts.port
        self._path = parts.path
        #: ``conn`` and the ``pid`` that opened it, per thread.
        self._local = threading.local()

    @property
    def location(self) -> str:
        return self.base_url

    def _url(self, name: str) -> str:
        validate_flat_name(name, what="store entry name")
        return self.base_url + urllib.parse.quote(name)

    def _connection(self) -> HTTPConnection:
        """This thread's connection, never one inherited across a fork."""
        import http.client

        local = self._local
        conn: HTTPConnection | None = getattr(local, "conn", None)
        if conn is not None and local.pid != os.getpid():
            conn.close()  # closes this process's copy of the parent's socket
            conn = None
        if conn is None:
            kind = http.client.HTTPSConnection if self._https else http.client.HTTPConnection
            conn = kind(self._host, self._port, timeout=self.timeout)
            local.conn, local.pid = conn, os.getpid()
        return conn

    def _request(
        self,
        method: str,
        url: str,
        data: bytes | None = None,
        headers: dict[str, str] | None = None,
        ok: tuple[int, ...] = (200, 201, 204),
        reject: tuple[int, ...] = (),
    ) -> tuple[int, dict[str, str], bytes]:
        """One HTTP round trip; statuses outside ``ok``/``reject`` raise."""
        import http.client

        target = self._path + url[len(self.base_url) :]
        conn = self._connection()
        for attempt in (1, 2):
            reused = conn.sock is not None
            answered = False
            try:
                conn.request(method, target, body=data, headers=headers or {})
                resp = conn.getresponse()
                answered = True
                status = resp.status
                resp_headers = {k.lower(): v for k, v in resp.getheaders()}
                body = resp.read()
                break
            except ConnectionError:
                conn.close()
                # Only a kept-alive socket the server had already closed
                # fails before answering; a fresh one has no such excuse.
                if answered or not reused or attempt == 2:
                    raise
            except http.client.HTTPException as exc:
                conn.close()
                raise StoreBackendError(f"{method} {url}: bad response: {exc!r}") from exc
            except OSError:
                conn.close()
                raise
        if status not in ok and status not in reject:
            detail = body[:200].decode("utf-8", "replace").strip()
            raise StoreBackendError(
                f"{method} {url} -> HTTP {status}{': ' + detail if detail else ''}"
            )
        return status, resp_headers, body

    @staticmethod
    def _header_etag(headers: dict[str, str]) -> str:
        return headers.get("etag", "").strip('"')

    def get_entry(self, name: str) -> Entry | None:
        status, headers, body = self._request("GET", self._url(name), reject=(404,))
        if status == 404:
            return None
        try:
            mtime = float(headers.get("x-repro-mtime", ""))
        except ValueError:
            mtime = time.time()  # a non-repro server: degrade to "fresh"
        etag = self._header_etag(headers) or etag_of(body)
        return Entry(name=name, data=body, etag=etag, mtime=mtime)

    def contains(self, name: str) -> bool:
        status, _, _ = self._request("HEAD", self._url(name), reject=(404,))
        return status != 404

    def put(self, name: str, data: bytes) -> None:
        self._request("PUT", self._url(name), data=data)

    def create(self, name: str, data: bytes) -> bool:
        status, _, _ = self._request(
            "PUT",
            self._url(name),
            data=data,
            headers={"If-None-Match": "*"},
            reject=(412,),
        )
        return status != 412

    def delete(self, name: str) -> bool:
        status, _, _ = self._request("DELETE", self._url(name), reject=(404,))
        return status != 404

    def delete_if(self, name: str, etag: str) -> bool:
        status, _, _ = self._request(
            "DELETE",
            self._url(name),
            headers={"If-Match": f'"{etag}"'},
            reject=(404, 412),
        )
        return status not in (404, 412)

    def list(self, suffix: str = "") -> list[str]:
        query = "?" + urllib.parse.urlencode({"suffix": suffix}) if suffix else ""
        _, _, body = self._request("GET", self.base_url + query)
        try:
            listing = json.loads(body)
            names = [str(e["name"]) for e in listing["entries"]]
        except Exception as exc:
            raise StoreBackendError(
                f"malformed store listing from {self.base_url}: {exc}"
            ) from exc
        return sorted(names)

    def sweep_tmp(self, max_age: float | None = None) -> int:
        params: dict[str, str] = {"op": "sweep-tmp"}
        if max_age is not None:
            params["max_age"] = repr(float(max_age))
        _, _, body = self._request(
            "POST", self.base_url + "?" + urllib.parse.urlencode(params)
        )
        try:
            return int(json.loads(body)["removed"])
        except Exception:
            return 0

    def wait(self, since: int, timeout: float) -> int | None:
        """Park on the server until the store changes past ``since``.

        Asks for at most half the socket timeout, so a parked request is
        never mistaken for a dead server.  A server that sends no counter
        (an older ``store-serve``, a generic object store) or cannot be
        reached degrades to sleeping out ``timeout``, never to a spin.
        """
        start = time.monotonic()
        budget = min(timeout, self.timeout / 2)
        query = urllib.parse.urlencode({"since": since, "wait": repr(budget)})
        try:
            _, headers, _ = self._request("GET", self.base_url + "?" + query)
            return int(headers["x-repro-generation"])
        except (OSError, KeyError, ValueError):
            time.sleep(max(0.0, timeout - (time.monotonic() - start)))
            return None


def is_store_url(spec: object) -> bool:
    """Whether ``spec`` is an HTTP(S) store URL rather than a directory path."""
    return isinstance(spec, str) and spec.lower().startswith(("http://", "https://"))


def open_backend(spec: str | Path | StoreBackend) -> StoreBackend:
    """Dispatch a store locator to its backend.

    A :class:`StoreBackend` passes through; an ``http(s)://`` URL string
    opens an :class:`HTTPBackend`; anything else is a directory path and
    opens a :class:`LocalBackend`.  This single dispatch point is what
    makes every DIR-shaped CLI surface (``--coordinate``, lease-status
    targets, ``$REPRO_CACHE_DIR``, cache push/pull) uniformly accept URLs.
    """
    if isinstance(spec, StoreBackend):
        return spec
    if is_store_url(spec):
        return HTTPBackend(str(spec))
    return LocalBackend(Path(spec))
