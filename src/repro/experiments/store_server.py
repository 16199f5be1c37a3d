"""The ``repro store-serve`` HTTP object store (pure stdlib).

Serves one flat store directory over the small HTTP protocol that
:class:`~repro.experiments.backend.HTTPBackend` speaks, so sweep workers
on machines with no shared mount coordinate through this process instead
of a networked filesystem:

* ``GET /<name>`` / ``HEAD /<name>`` -- one entry's bytes, with a strong
  content ``ETag`` (sha256, same derivation as the client's) and the
  store-side mtime in ``X-Repro-Mtime``;
* ``PUT /<name>`` -- atomic replace; with ``If-None-Match: *`` it is
  *create-exclusive*: exactly one of any number of racing PUTs gets 201,
  the rest get 412 (the lease-claim primitive);
* ``DELETE /<name>`` -- unlink; with ``If-Match: "<etag>"`` it succeeds
  only while the entry still carries that content tag (the two-phase
  lease-break guard: a holder that re-stamped survives);
* ``GET /?suffix=...`` -- JSON listing of entry names + etags + mtimes;
* ``GET /?since=<n>&wait=<s>`` -- park until the store's change counter
  passes ``n`` or ``s`` seconds pass (clamped below the client's socket
  timeout), then answer with the counter in ``X-Repro-Generation``;
* ``POST /?op=sweep-tmp`` -- reclaim abandoned atomic-write temp files.

All conditional checks and their mutations run under one server-side
mutation lock, which is what makes the HTTP backend's create-exclusive
and tag-guarded delete *exact* -- the server is the single arbiter the
shared POSIX directory used to be.  Each successful put, create and
delete bumps the change counter under that lock, waking parked waits.
Storage underneath is a plain
:class:`~repro.experiments.backend.LocalBackend` directory, so a served
store can be inspected, exported, or re-served with every existing tool.

The server is deliberately trust-the-network simple: no auth, no TLS --
run it on a private interface for a sweep pool you control, exactly like
the shared scratch directory it replaces (``docs/experiments.md``
"Remote stores" spells out the deployment model).
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import TypeVar

from .backend import HTTP_TIMEOUT_SECONDS, LocalBackend, etag_of

__all__ = ["StoreHTTPServer", "run", "serve_store"]

#: Refuse absurd single-entry uploads: store entries are lease stamps,
#: JSON results, and small pickles.  This bounds memory per request, it is
#: not a quota.
MAX_ENTRY_BYTES = 256 * 1024 * 1024

#: Longest a ``?wait=`` request is parked: well under the client's socket
#: timeout, so a quiet store never looks like a dead one.
MAX_WAIT_SECONDS = HTTP_TIMEOUT_SECONDS / 2


class StoreHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the store state the handlers need."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], root: str | Path) -> None:
        self.store = LocalBackend(root)
        #: Serializes every conditional check-and-mutate, making
        #: ``If-None-Match: *`` and ``If-Match`` exact even though the
        #: handler pool is threaded.
        self.mutation_lock = threading.Lock()
        #: Successful mutations so far; ``changed`` wakes ``?wait=`` requests.
        self.generation = 0
        self.changed = threading.Condition(self.mutation_lock)
        super().__init__(address, _StoreRequestHandler)

    def bump(self) -> None:
        """Count one successful mutation; the caller holds the lock."""
        self.generation += 1
        self.changed.notify_all()


class _StoreRequestHandler(BaseHTTPRequestHandler):
    """One request against the flat store; names are single path segments."""

    server: StoreHTTPServer  # narrow the base class's annotation
    protocol_version = "HTTP/1.1"
    # Headers and body leave in separate writes; with Nagle's algorithm on,
    # the body of a response on a kept-alive connection waits for the
    # client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    # Quieter than the BaseHTTPRequestHandler default (one line per request
    # on stderr drowns the sweep logs); error_message_format stays default.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    # -- plumbing --------------------------------------------------------------

    def _entry_name(self) -> str | None:
        """The flat entry name from the request path, or ``None`` for the base.

        Rejects (via 400) any path that is not exactly one segment: the
        store is flat, and a multi-segment path is either a client bug or
        an escape attempt.
        """
        path = urllib.parse.urlsplit(self.path).path
        name = urllib.parse.unquote(path.lstrip("/"))
        if not name:
            return None
        if "/" in name or name in (".", ".."):
            raise _BadRequest(f"store entries are flat filenames, got {name!r}")
        return name

    def _query(self) -> dict[str, str]:
        raw = urllib.parse.urlsplit(self.path).query
        return {k: v[0] for k, v in urllib.parse.parse_qs(raw).items()}

    def _send(
        self,
        status: int,
        body: bytes = b"",
        content_type: str = "application/octet-stream",
        extra: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra or {}).items():
            self.send_header(key, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        self._send(status, (message + "\n").encode(), content_type="text/plain")

    def _read_body(self) -> bytes:
        length = _count(self.headers.get("Content-Length", "0") or "0", "Content-Length", int)
        if length > MAX_ENTRY_BYTES:
            raise _BadRequest(f"entry too large ({length} bytes)")
        return self.rfile.read(length) if length else b""

    def _guard(self, fn: str) -> None:
        """Dispatch one verb handler, mapping protocol errors to statuses."""
        try:
            getattr(self, fn)()
        except _BadRequest as exc:
            # The body may be unread: close rather than parse it as a request.
            self._send(400, (str(exc) + "\n").encode(), "text/plain", {"Connection": "close"})
        except BrokenPipeError:
            pass  # client went away mid-response; nothing left to tell it
        except OSError as exc:
            self._send_error(500, f"store I/O error: {exc}")

    # -- verbs -----------------------------------------------------------------

    def do_GET(self) -> None:
        self._guard("_do_get")

    def do_HEAD(self) -> None:
        self._guard("_do_get")

    def do_PUT(self) -> None:
        self._guard("_do_put")

    def do_DELETE(self) -> None:
        self._guard("_do_delete")

    def do_POST(self) -> None:
        self._guard("_do_post")

    def _do_get(self) -> None:
        name = self._entry_name()
        if name is None:
            query = self._query()
            if "since" in query or "wait" in query:
                self._do_wait(query)
            else:
                self._do_list(query)
            return
        entry = self.server.store.get_entry(name)
        if entry is None:
            self._send_error(404, f"no such entry: {name}")
            return
        self._send(
            200,
            entry.data,
            extra={"ETag": f'"{entry.etag}"', "X-Repro-Mtime": repr(entry.mtime)},
        )

    def _do_wait(self, query: dict[str, str]) -> None:
        since = _count(query.get("since", "0"), "since", int)
        timeout = min(_count(query.get("wait", "0"), "wait", float), MAX_WAIT_SECONDS)
        server = self.server
        with server.changed:
            server.changed.wait_for(lambda: server.generation > since, timeout)
            generation = server.generation
        self._send(200, extra={"X-Repro-Generation": str(generation)})

    def _do_list(self, query: dict[str, str]) -> None:
        suffix = query.get("suffix", "")
        store = self.server.store
        entries = []
        for entry_name in store.list(suffix):
            entry = store.get_entry(entry_name)
            if entry is None:
                continue  # unlinked between list and read; it is simply gone
            entries.append(
                {"name": entry.name, "etag": entry.etag, "mtime": entry.mtime, "size": entry.size}
            )
        body = json.dumps({"entries": entries}).encode()
        self._send(200, body, content_type="application/json")

    def _do_put(self) -> None:
        name = self._entry_name()
        if name is None:
            raise _BadRequest("PUT needs an entry name")
        data = self._read_body()
        exclusive = self.headers.get("If-None-Match", "").strip() == "*"
        with self.server.mutation_lock:
            if exclusive:
                if not self.server.store.create(name, data):
                    self._send_error(412, f"entry exists: {name}")
                    return
            else:
                self.server.store.put(name, data)
            self.server.bump()
        self._send(201, extra={"ETag": f'"{etag_of(data)}"'})

    def _do_delete(self) -> None:
        name = self._entry_name()
        if name is None:
            raise _BadRequest("DELETE needs an entry name")
        required = self.headers.get("If-Match", "").strip().strip('"')
        with self.server.mutation_lock:
            if required:
                entry = self.server.store.get_entry(name)
                if entry is None:
                    self._send_error(404, f"no such entry: {name}")
                    return
                if entry.etag != required:
                    self._send_error(412, f"etag mismatch for {name}")
                    return
            if not self.server.store.delete(name):
                self._send_error(404, f"no such entry: {name}")
                return
            self.server.bump()
        self._send(204)

    def _do_post(self) -> None:
        query = self._query()
        if self._entry_name() is not None or query.get("op") != "sweep-tmp":
            raise _BadRequest("POST supports only ?op=sweep-tmp on the store base")
        max_age: float | None = None
        if "max_age" in query:
            try:
                max_age = float(query["max_age"])
            except ValueError as exc:
                raise _BadRequest(f"bad max_age: {query['max_age']!r}") from exc
        removed = self.server.store.sweep_tmp(max_age)
        self._send(200, json.dumps({"removed": removed}).encode(), "application/json")


class _BadRequest(Exception):
    """A malformed request; mapped to HTTP 400 by the dispatch guard."""


_Number = TypeVar("_Number", int, float)


def _count(raw: str, what: str, kind: type[_Number]) -> _Number:
    """Parse a non-negative ``int``/``float`` request value, else 400."""
    try:
        value = kind(raw)
    except ValueError:
        value = kind(-1)
    if not value >= 0:  # also rejects NaN
        raise _BadRequest(f"bad {what}: {raw!r}")
    return value


def serve_store(root: str | Path, host: str = "127.0.0.1", port: int = 0) -> StoreHTTPServer:
    """Bind a store server (``port=0`` picks a free port); caller runs it.

    Returns the bound server so tests and the CLI can read the actual
    address before calling ``serve_forever()``.
    """
    return StoreHTTPServer((host, port), root)


def run(root: str | Path, host: str = "127.0.0.1", port: int = 8123) -> int:
    """``repro store-serve``: serve ``root`` (created if missing) until SIGINT.

    Prints the bound URL first and flushes it: with ``port=0`` the kernel
    picks the port, so scripts parse it from this line, and no worker can
    start before it appears.
    """
    Path(root).mkdir(parents=True, exist_ok=True)
    server = serve_store(root, host=host, port=port)
    bound_host, bound_port = server.server_address[0], server.server_address[1]
    try:
        print(
            f"store-serve: serving {Path(root).resolve()} at http://{bound_host}:{bound_port}/",
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0
