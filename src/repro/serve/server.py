"""The planner-as-a-service HTTP layer (stdlib only).

A :class:`PlannerServer` wraps one :class:`~repro.serve.jobs.JobManager`
behind a ``ThreadingHTTPServer`` — one thread per connection for the cheap
request/response endpoints, while the actual searches run on the manager's
bounded worker pool.  JSON in, JSON out:

==========================  =====================================================
``POST /v1/optimize``       submit ``{"tenant", "model", "batch", "machine",
                            "devices", "config": {...}}``; 200 with the full
                            job document when it settled synchronously (warm
                            hit), 202 while queued/coalesced/running, 429 with
                            a ``reason`` when the run queue is full, 400 on a
                            malformed request.  ``tenant`` is a label only.
``GET /v1/jobs/<id>``       job document (result embedded once done).
``GET /v1/jobs/<id>/events``  newline-delimited JSON progress stream; replays
                            recorded events (``?from=N`` to skip) then follows
                            live until the job settles.
``GET /v1/stats``           serve counters, cache tiers, queue depth, flights.
``GET /v1/healthz``         liveness probe.
``POST /v1/shutdown``       graceful stop (used by tests and the CI smoke
                            step; disable with ``allow_remote_shutdown=False``).
==========================  =====================================================

The server never trusts request bodies, headers or query strings: bodies go
through :meth:`ServePlanner.resolve` validation, and malformed input maps
to a structured JSON 400 naming the bad value, never a traceback or a
dropped connection.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.obs import get_logger
from repro.serve.jobs import (
    AdmissionError,
    BadRequest,
    JobManager,
    TERMINAL_STATES,
)

log = get_logger(__name__)

#: maximum accepted request-body size; optimize requests are tiny, anything
#: bigger is a client bug or abuse
MAX_BODY_BYTES = 1 << 20

#: seconds between the accept loop's shutdown checks: ``shutdown()`` blocks
#: until the next one (socketserver's default of 0.5 s made every stop wait
#: about that long); a new connection wakes the loop at once either way
POLL_INTERVAL_S = 0.05


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto ``self.server.manager`` (a JobManager)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"

    # -- plumbing ----------------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003
        log.debug("%s %s", self.address_string(), fmt % args)

    def _json(self, status: int, body: dict[str, Any]) -> None:
        data = (json.dumps(body, indent=2) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _error(self, status: int, message: str, **extra: Any) -> None:
        self._json(status, {"error": message, **extra})

    def _body(self) -> dict[str, Any]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # the body was not read, so the stream cannot carry another
            # request on this connection
            self.close_connection = True
            raise BadRequest(f"bad Content-Length {header!r}: must be an "
                             f"integer in [0, {MAX_BODY_BYTES}]")
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as e:
            raise BadRequest(f"request body is not valid JSON: {e}") from e
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        return body

    # -- routing -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        manager: JobManager = self.server.manager  # type: ignore[attr-defined]
        try:
            if parts == ["v1", "healthz"]:
                self._json(200, {"status": "ok"})
            elif parts == ["v1", "stats"]:
                self._json(200, manager.stats())
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._json(200, manager.get(parts[2]).to_dict())
            elif (len(parts) == 4 and parts[:2] == ["v1", "jobs"]
                    and parts[3] == "events"):
                self._stream_events(manager, parts[2], url.query)
            else:
                self._error(404, f"no such endpoint: GET {url.path}")
        except BadRequest as e:
            self._error(400, str(e))
        except KeyError as e:
            self._error(404, str(e.args[0]) if e.args else "not found")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        manager: JobManager = self.server.manager  # type: ignore[attr-defined]
        try:
            if parts == ["v1", "optimize"]:
                body = self._body()
                tenant = body.pop("tenant", "default")
                if not isinstance(tenant, str) or not tenant:
                    raise BadRequest("'tenant' must be a non-empty string")
                job = manager.submit(body, tenant=tenant)
                status = 200 if job.state in TERMINAL_STATES else 202
                self._json(status, job.to_dict())
            elif parts == ["v1", "shutdown"]:
                if not getattr(self.server, "allow_remote_shutdown", False):
                    self._error(403, "remote shutdown is disabled")
                    return
                self._json(200, {"status": "shutting down"})
                # shut down from another thread: shutdown() blocks until
                # serve_forever exits, which cannot happen on this thread
                threading.Thread(
                    target=self.server.shutdown, daemon=True  # type: ignore[attr-defined]
                ).start()
            else:
                self._error(404, f"no such endpoint: POST {url.path}")
        except BadRequest as e:
            self._error(400, str(e))
        except AdmissionError as e:
            self._json(429, {"error": str(e), "reason": e.reason,
                             "retry_after_s": 1.0})
        except KeyError as e:
            self._error(404, str(e.args[0]) if e.args else "not found")

    # -- event streaming ---------------------------------------------------------

    def _stream_events(self, manager: JobManager, job_id: str,
                       query: str) -> None:
        job = manager.get(job_id)  # KeyError -> 404 upstream
        raw = parse_qs(query, keep_blank_values=True).get("from", ["0"])[0]
        try:
            start = int(raw)
        except ValueError:
            start = -1
        if start < 0:
            raise BadRequest(f"bad 'from' {raw!r}: must be a non-negative "
                             f"integer")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        # stream until terminal: length unknown, so close delimits the body
        self.send_header("Connection", "close")
        self.end_headers()
        cursor = start
        while True:
            with job.cond:
                while (cursor >= len(job.events)
                        and job.state not in TERMINAL_STATES):
                    job.cond.wait(timeout=10.0)
                batch = job.events[cursor:]
                cursor += len(batch)
                terminal = job.state in TERMINAL_STATES
            for event in batch:
                self.wfile.write((json.dumps(event) + "\n").encode())
            self.wfile.flush()
            if terminal and cursor >= len(job.events):
                return


class _Httpd(ThreadingHTTPServer):
    daemon_threads = True
    #: socketserver's default listen backlog is 5 — a coalesced burst (the
    #: whole point of this server) arrives as N simultaneous connects and
    #: would see connection resets before the accept loop catches up
    request_queue_size = 128


class PlannerServer:
    """A ThreadingHTTPServer bound to one JobManager.

    Use as a context manager (tests, benchmarks) or via
    :meth:`serve_forever` (the CLI)::

        with PlannerServer(manager=JobManager(...), port=0) as server:
            client = PlannerClient(server.url)
            ...
    """

    def __init__(
        self,
        manager: JobManager | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        allow_remote_shutdown: bool = True,
        **manager_kwargs: Any,
    ) -> None:
        self.manager = manager or JobManager(**manager_kwargs)
        self.httpd = _Httpd((host, port), _Handler)
        self.httpd.manager = self.manager  # type: ignore[attr-defined]
        self.httpd.allow_remote_shutdown = allow_remote_shutdown  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "PlannerServer":
        """Serve on a background thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, args=(POLL_INTERVAL_S,),
            name="serve-http", daemon=True,
        )
        self._thread.start()
        log.info("planning server listening on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (or the
        ``/v1/shutdown`` endpoint) is invoked."""
        log.info("planning server listening on %s", self.url)
        self.httpd.serve_forever(POLL_INTERVAL_S)

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.manager.shutdown()

    def __enter__(self) -> "PlannerServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
