"""Stdlib HTTP client for the planning service.

Used by the ``repro client`` CLI subcommand, the tests and the serve
benchmark — anything that talks to a :class:`~repro.serve.server.PlannerServer`
does it through this class, so the wire format has exactly one
producer/consumer pair on each side.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Iterator

from repro.common.errors import ReproError


class ServeClientError(ReproError):
    """Transport failure or non-2xx response from the planning service."""

    def __init__(self, message: str, status: int | None = None,
                 body: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.body = body or {}


class PlannerClient:
    """Talks JSON to one planning server."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ---------------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: dict[str, Any] | None = None) -> dict[str, Any]:
        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(
            f"{self.base_url}{path}", data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read() or b"{}")
        except urllib.error.HTTPError as e:
            try:
                payload = json.loads(e.read() or b"{}")
            except json.JSONDecodeError:
                payload = {}
            raise ServeClientError(
                payload.get("error", f"HTTP {e.code} from {path}"),
                status=e.code, body=payload,
            ) from e
        except (urllib.error.URLError, OSError) as e:
            raise ServeClientError(
                f"cannot reach planning server at {self.base_url}: {e}"
            ) from e

    # -- endpoints ---------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/v1/stats")

    def submit(
        self,
        model: str,
        *,
        batch: int = 32,
        machine: str = "x86",
        devices: int = 1,
        tenant: str = "default",
        config: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Submit one optimize request; returns the job document (terminal
        already on a warm cache hit)."""
        body: dict[str, Any] = {
            "tenant": tenant, "model": model, "batch": batch,
            "machine": machine, "devices": devices,
        }
        if config:
            body["config"] = config
        return self._request("POST", "/v1/optimize", body)

    def job(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 120.0,
             poll_s: float = 0.05) -> dict[str, Any]:
        """Poll until the job settles; returns the final job document."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.job(job_id)
            if doc["state"] in ("done", "failed"):
                return doc
            if time.monotonic() >= deadline:
                raise ServeClientError(
                    f"job {job_id} still {doc['state']} after {timeout} s")
            time.sleep(poll_s)

    def result(self, job_id: str, timeout: float = 120.0) -> dict[str, Any]:
        """The result payload of a finished job (raises when it failed)."""
        doc = self.wait(job_id, timeout=timeout)
        if doc["state"] != "done":
            raise ServeClientError(
                f"job {job_id} {doc['state']}: {doc.get('error')}")
        return doc["result"]

    def events(self, job_id: str, from_seq: int = 0,
               timeout: float | None = None) -> Iterator[dict[str, Any]]:
        """Stream the job's progress events (blocks until it settles)."""
        req = urllib.request.Request(
            f"{self.base_url}/v1/jobs/{job_id}/events?from={from_seq}")
        try:
            with urllib.request.urlopen(
                    req, timeout=timeout or self.timeout) as resp:
                for line in resp:
                    line = line.strip()
                    if line:
                        yield json.loads(line)
        except urllib.error.HTTPError as e:
            raise ServeClientError(f"HTTP {e.code} streaming events",
                                   status=e.code) from e
        except (urllib.error.URLError, OSError) as e:
            raise ServeClientError(f"event stream failed: {e}") from e

    def shutdown_server(self) -> dict[str, Any]:
        return self._request("POST", "/v1/shutdown")
