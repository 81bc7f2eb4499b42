"""Job queue, admission control, and the serve-side optimize pipeline.

The :class:`JobManager` is the server's core: it owns the job table, the
bounded run queue, the open flights of in-flight coalescing and the warm
response cache.  The HTTP layer (:mod:`repro.serve.server`) is a thin
translation of requests onto this class, so everything here is testable
without sockets.

A submitted request travels one of four paths, cheapest first:

1. **warm hit** — the L1 response cache holds a completed response for the
   request's plan key: the job is born ``done``, no queue slot, no thread.
2. **coalesced** — a *flight* (one in-progress optimization) is open for
   the key: the job joins it as a follower and settles when the flight's
   leader completes.  A leader *error* settles the whole cohort with the
   same error — the request is deterministic, so every follower would have
   failed identically.
3. **queued → running** — the job opens a flight as its leader and runs the
   profiling+search pipeline on a worker thread, with the persistent
   :class:`~repro.runtime.plan_io.PlanCache` attached (tier ``persistent``
   when that short-circuits the search, ``miss-search`` otherwise).
4. **rejected** — run queue full: admission control fails fast (the HTTP
   layer maps this to 429) instead of letting the queue grow without bound.

The job table keeps every active job and the :data:`MAX_SETTLED_JOBS` most
recently settled ones, so a long-lived server's memory stays bounded.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.common.errors import ReproError
from repro.common.lru import LruCache
from repro.graph import NNGraph
from repro.hw import MachineSpec, POWER9_V100, X86_V100, multi_gpu
from repro.models import build_model
from repro.obs import get_logger
from repro.pooch import PoocH, PoochConfig
from repro.runtime.plan_io import (
    PlanCache,
    graph_signature,
    machine_signature,
    plan_to_dict,
)
from repro.serve.cache import (
    TIER_COALESCED,
    TIER_PERSISTENT,
    TIER_SEARCH,
    TIER_WARM,
    PlanKey,
)

log = get_logger(__name__)

MACHINES: dict[str, MachineSpec] = {"x86": X86_V100, "power9": POWER9_V100}


class BadRequest(ReproError):
    """Malformed or unresolvable optimize request (HTTP 400)."""


class AdmissionError(ReproError):
    """Request rejected by admission control (HTTP 429)."""

    reason = "admission"


class QueueFull(AdmissionError):
    reason = "queue-full"


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    COALESCED = "coalesced"
    DONE = "done"
    FAILED = "failed"


TERMINAL_STATES = (JobState.DONE, JobState.FAILED)

#: settled jobs the table keeps for status and event queries; the oldest
#: settled ones are dropped first and their ids then answer 404.  Well above
#: one ``serve-zipf`` server's ~516 requests, so the benchmark never evicts.
MAX_SETTLED_JOBS = 2048


@dataclass
class ResolvedRequest:
    """A validated request, bound to concrete objects and its plan key."""

    model: str
    batch: int
    machine_name: str
    devices: int
    graph: NNGraph
    machine: MachineSpec
    config: PoochConfig
    key: PlanKey


class Job:
    """One tracked request: state machine + ordered event log."""

    def __init__(self, job_id: str, tenant: str, request: dict[str, Any],
                 resolved: ResolvedRequest) -> None:
        self.id = job_id
        self.tenant = tenant
        self.request = request
        self.resolved = resolved
        self.state = JobState.QUEUED
        self.created_s = time.time()
        self.started_s: float | None = None
        self.finished_s: float | None = None
        self.wall_s: float | None = None
        self.cache_tier: str | None = None
        self.coalesced_with: str | None = None
        self.result: dict[str, Any] | None = None
        self.error: str | None = None
        #: ordered progress events; guarded by ``cond`` (the event-stream
        #: endpoint waits on it for new entries or a terminal state)
        self.events: list[dict[str, Any]] = []
        self.cond = threading.Condition()

    @property
    def key(self) -> PlanKey:
        return self.resolved.key

    def emit(self, event: str, info: dict[str, Any] | None = None) -> None:
        with self.cond:
            self.events.append({
                "seq": len(self.events),
                "t_s": round(time.time() - self.created_s, 6),
                "event": event,
                **(info or {}),
            })
            self.cond.notify_all()

    def finish(self, state: JobState, *, result: dict[str, Any] | None = None,
               error: str | None = None, tier: str | None = None,
               coalesced_with: str | None = None) -> None:
        self.state = state
        self.finished_s = time.time()
        self.wall_s = self.finished_s - self.created_s
        if result is not None:
            self.result = result
        if error is not None:
            self.error = error
        if tier is not None:
            self.cache_tier = tier
        if coalesced_with is not None:
            self.coalesced_with = coalesced_with
        self.emit(f"job:{state.value}",
                  {"wall_s": round(self.wall_s, 6),
                   **({"error": error} if error else {})})

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state (True) or times out."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.cond:
            while self.state not in TERMINAL_STATES:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self.cond.wait(remaining)
            return True

    def to_dict(self, *, include_result: bool = True) -> dict[str, Any]:
        doc = {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state.value,
            "request": self.request,
            "graph_signature": self.key[0],
            "machine_signature": self.key[1],
            "config_signature": self.key[2],
            "cache_tier": self.cache_tier,
            "coalesced_with": self.coalesced_with,
            "created_s": self.created_s,
            "wall_s": self.wall_s,
            "events": len(self.events),
            "error": self.error,
        }
        if include_result and self.result is not None:
            doc["result"] = self.result
        return doc


class ServePlanner:
    """Request resolution + the actual optimize pipeline for one server.

    Holds a small LRU of built graphs keyed by (model, batch, input_size):
    repeat requests then reuse one immutable :class:`NNGraph` instance, and
    — with :func:`~repro.runtime.plan_io.graph_signature` memoized on the
    instance — the per-request signature cost collapses to a dict lookup.
    """

    #: PoochConfig knobs a request may set (API name -> constructor kwarg)
    CONFIG_KEYS = {
        "budget": "step1_sim_budget",
        "max_exact_li": "max_exact_li",
        "capacity_margin": "capacity_margin",
    }

    def __init__(self, plan_cache: PlanCache | str | None = None,
                 graph_cache_size: int = 32) -> None:
        if plan_cache is not None and not isinstance(plan_cache, PlanCache):
            plan_cache = PlanCache(plan_cache)
        self.plan_cache = plan_cache
        self._graphs = LruCache(graph_cache_size)

    # -- request resolution ------------------------------------------------------

    def _graph(self, model: str, batch: int,
               input_size: tuple[int, ...] | None) -> NNGraph:
        key = (model, batch, input_size)
        graph = self._graphs.get(key)
        if graph is None:
            kwargs = {}
            if model == "resnext101_3d" and input_size is not None:
                kwargs["input_size"] = input_size
            graph = build_model(model, batch=batch, **kwargs)
            self._graphs.put(key, graph)
        return graph

    def resolve(self, request: dict[str, Any]) -> ResolvedRequest:
        """Validate a request dict and bind it to graph/machine/config/key."""
        if not isinstance(request, dict):
            raise BadRequest(f"request must be an object, got "
                             f"{type(request).__name__}")
        model = request.get("model")
        if not isinstance(model, str) or not model:
            raise BadRequest("request needs a 'model' name")
        batch = request.get("batch", 32)
        if not isinstance(batch, int) or isinstance(batch, bool) or batch < 1:
            raise BadRequest(f"'batch' must be a positive integer, got {batch!r}")
        machine_name = request.get("machine", "x86")
        if machine_name not in MACHINES:
            raise BadRequest(f"unknown machine {machine_name!r}; "
                             f"known: {sorted(MACHINES)}")
        devices = request.get("devices", 1)
        if not isinstance(devices, int) or isinstance(devices, bool) or devices < 1:
            raise BadRequest(f"'devices' must be a positive integer, "
                             f"got {devices!r}")
        input_size = request.get("input_size")
        if input_size is not None:
            if not (isinstance(input_size, (list, tuple))
                    and len(input_size) == 3
                    and all(isinstance(v, int) and not isinstance(v, bool)
                            and v > 0 for v in input_size)):
                raise BadRequest(f"'input_size' must be a list of three "
                                 f"positive integers, got {input_size!r}")
            input_size = tuple(input_size)
        config_req = request.get("config") or {}
        if not isinstance(config_req, dict):
            raise BadRequest("'config' must be an object")
        unknown = sorted(set(config_req) - set(self.CONFIG_KEYS))
        if unknown:
            raise BadRequest(f"unknown config keys {unknown}; "
                             f"known: {sorted(self.CONFIG_KEYS)}")
        kwargs = {self.CONFIG_KEYS[k]: v for k, v in config_req.items()}
        try:
            config = PoochConfig(**kwargs)
        except (TypeError, ValueError) as e:
            raise BadRequest(f"bad config {config_req!r}: {e}") from e
        try:
            graph = self._graph(model, batch, input_size)
        except ReproError as e:
            raise BadRequest(str(e)) from e
        machine = MACHINES[machine_name]
        if devices > 1:
            machine = multi_gpu(machine, devices)
        key = (graph_signature(graph), machine_signature(machine),
               config.signature())
        return ResolvedRequest(
            model=model, batch=batch, machine_name=machine_name,
            devices=devices, graph=graph, machine=machine, config=config,
            key=key,
        )

    # -- the pipeline ------------------------------------------------------------

    def optimize(self, resolved: ResolvedRequest,
                 progress=None) -> tuple[dict[str, Any], str]:
        """Run the full pipeline for a leader job.

        Returns the cacheable response payload and the tier that produced it
        (``persistent`` when the directory-backed PlanCache short-circuited
        the search, ``miss-search`` for a fresh search).
        """
        pooch = PoocH(resolved.machine, resolved.config,
                      plan_cache=self.plan_cache, progress=progress)
        result = pooch.optimize(resolved.graph)
        stats = result.stats
        payload = {
            "model": resolved.model,
            "batch": resolved.batch,
            "machine": resolved.machine.name,
            "devices": resolved.devices,
            "graph_signature": resolved.key[0],
            "machine_signature": resolved.key[1],
            "config_signature": resolved.key[2],
            "plan": plan_to_dict(
                result.classification, resolved.graph,
                machine=resolved.machine.name,
                predicted_time=result.predicted.time,
            ),
            "predicted_time_s": result.predicted.time,
            "search": {
                "plan_cache_hit": stats.plan_cache_hit,
                "sims_step1": stats.sims_step1,
                "sims_step2": stats.sims_step2,
                "sims_vectorized": stats.sims_vectorized,
                "sims_fallback": stats.sims_fallback,
                "leaves_evaluated": stats.leaves_evaluated,
                "wall_time_s": stats.wall_time_s,
            },
        }
        if result.multi is not None:
            payload["multi"] = {
                "devices": resolved.machine.devices,
                "stagger_s": list(result.multi.stagger),
                "makespan_naive_s": result.multi.naive.makespan,
                "makespan_chosen_s": result.multi.chosen.makespan,
            }
        tier = TIER_PERSISTENT if stats.plan_cache_hit else TIER_SEARCH
        return payload, tier


def _response(payload: dict[str, Any], tier: str,
              coalesced_with: str | None = None) -> dict[str, Any]:
    """One job's result: a shallow copy of the cached payload stamped with
    the job's tier.  The nested plan dict is shared, never mutated."""
    return {**payload, "cache_tier": tier, "coalesced_with": coalesced_with}


class JobManager:
    """Job table + run queue + admission control + coalescing + warm cache."""

    def __init__(
        self,
        planner: ServePlanner | None = None,
        *,
        workers: int = 2,
        max_queue: int = 16,
        warm_capacity: int = 128,
        name: str = "serve",
    ) -> None:
        if workers < 1 or max_queue < 1:
            raise ValueError("workers and max_queue must be >= 1")
        self.planner = planner or ServePlanner()
        #: L1: complete response payloads by plan key
        self.warm = LruCache(warm_capacity)
        self.max_queue = max_queue
        self._cv = threading.Condition()
        self._jobs: dict[str, Job] = {}
        #: ids of settled jobs still in ``_jobs``, oldest first
        self._settled: deque[str] = deque()
        #: open flights: plan key -> [leader, *followers in arrival order]
        self._flights: dict[PlanKey, list[Job]] = {}
        self._pending: deque[Job] = deque()
        self._stop = False
        self._seq = itertools.count(1)
        self.counters: dict[str, int] = {
            "requests": 0, "warm_hits": 0, "persistent_hits": 0,
            "searches": 0, "coalesced": 0, "rejected_queue": 0,
            "failed": 0, "completed": 0,
        }
        self._threads = [
            threading.Thread(target=self._worker, name=f"{name}-worker-{i}",
                             daemon=True)
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # -- submission --------------------------------------------------------------

    def submit(self, request: dict[str, Any], tenant: str = "default") -> Job:
        """Admit one optimize request; returns its :class:`Job`.

        Raises :class:`BadRequest` on malformed requests and
        :class:`QueueFull` on admission failure.
        """
        resolved = self.planner.resolve(request)
        with self._cv:
            if self._stop:
                raise AdmissionError("server is shutting down")
            self.counters["requests"] += 1
            job = Job(f"job-{next(self._seq):06d}", tenant, dict(request),
                      resolved)
            # L1: a warm response answers without a queue slot
            payload = self.warm.get(job.key)
            if payload is not None:
                self.counters["warm_hits"] += 1
                self.counters["completed"] += 1
                self._jobs[job.id] = job
                job.emit("cache:warm-hit")
                job.finish(JobState.DONE, result=_response(payload, TIER_WARM),
                           tier=TIER_WARM)
                self._retire_locked([job])
                return job
            flight = self._flights.get(job.key)
            if flight is not None:
                leader = flight[0]
                self.counters["coalesced"] += 1
                job.state = JobState.COALESCED
                job.coalesced_with = leader.id
                flight.append(job)
                self._jobs[job.id] = job
                job.emit("coalesce:joined", {"leader": leader.id})
                return job
            if len(self._pending) >= self.max_queue:
                self.counters["rejected_queue"] += 1
                raise QueueFull(
                    f"run queue is full ({self.max_queue} jobs pending)")
            self._flights[job.key] = [job]
            self._jobs[job.id] = job
            self._pending.append(job)
            job.emit("queue:admitted", {"depth": len(self._pending)})
            self._cv.notify()
            return job

    def get(self, job_id: str) -> Job:
        with self._cv:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    # -- worker side -------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._cv:
                while not self._pending and not self._stop:
                    self._cv.wait()
                if not self._pending:
                    return  # stopping and drained
                job = self._pending.popleft()
                job.state = JobState.RUNNING
                job.started_s = time.time()
            job.emit("run:start")
            self._run(job)

    def _run(self, job: Job) -> None:
        try:
            payload, tier = self.planner.optimize(job.resolved,
                                                  progress=job.emit)
        except Exception as e:  # noqa: BLE001 - a leader settles its cohort
            log.warning("job %s failed: %s", job.id, e)
            with self._cv:
                cohort = self._flights.pop(job.key)
                self.counters["failed"] += len(cohort)
                job.finish(JobState.FAILED, error=str(e))
                for follower in cohort[1:]:
                    follower.finish(JobState.FAILED, error=str(e),
                                    coalesced_with=job.id)
                self._retire_locked(cohort)
        else:
            self.warm.put(job.key, payload)
            with self._cv:
                cohort = self._flights.pop(job.key)
                if tier == TIER_PERSISTENT:
                    self.counters["persistent_hits"] += 1
                else:
                    self.counters["searches"] += 1
                self.counters["completed"] += len(cohort)
                job.finish(JobState.DONE, result=_response(payload, tier),
                           tier=tier)
                for follower in cohort[1:]:
                    follower.finish(
                        JobState.DONE,
                        result=_response(payload, TIER_COALESCED, job.id),
                        tier=TIER_COALESCED, coalesced_with=job.id)
                self._retire_locked(cohort)

    # -- bookkeeping -------------------------------------------------------------

    def _retire_locked(self, settled: list[Job]) -> None:
        """Record newly settled jobs and drop the oldest settled ones beyond
        :data:`MAX_SETTLED_JOBS` (holding ``_cv``)."""
        self._settled.extend(j.id for j in settled)
        while len(self._settled) > MAX_SETTLED_JOBS:
            del self._jobs[self._settled.popleft()]

    def stats(self) -> dict[str, Any]:
        with self._cv:
            counters = dict(self.counters)
            queue_depth = len(self._pending)
            open_flights = len(self._flights)
            states: dict[str, int] = {}
            for j in self._jobs.values():
                states[j.state.value] = states.get(j.state.value, 0) + 1
        doc = {
            "counters": counters,
            "queue_depth": queue_depth,
            "open_flights": open_flights,
            "jobs_by_state": states,
            "warm_cache": self.warm.stats(),
        }
        cache = self.planner.plan_cache
        if cache is not None:
            doc["plan_cache"] = {
                "root": str(cache.root),
                "disk_hits": cache.disk_hits,
                "misses": cache.misses,
            }
        return doc

    def publish_metrics(self) -> None:
        """Mirror the serve counters into the active obs registry (the CLI
        calls this before writing a RunMetrics document)."""
        from repro.obs import metrics

        stats = self.stats()
        for name, value in stats["counters"].items():
            metrics.count(f"serve.{name}", value)
        metrics.gauge("serve.queue_depth", stats["queue_depth"])
        metrics.gauge("serve.warm_cache_size", stats["warm_cache"]["size"])
        if "plan_cache" in stats:
            metrics.gauge("serve.plan_cache_disk_hits",
                          stats["plan_cache"]["disk_hits"])

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop accepting work, drain the queue, join the workers."""
        with self._cv:
            self._stop = True
            self._cv.notify_all()
        for t in self._threads:
            t.join(timeout)
