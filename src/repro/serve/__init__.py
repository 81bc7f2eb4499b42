"""Planner-as-a-service: a long-lived optimization server.

PoocH's premise is that one expensive profiling+search phase is amortized
over many training iterations; this package applies the same argument
*across requests and runs*.  A :class:`PlannerServer` keeps plans,
predictor outcomes and signatures warm in one process, so N structurally
identical optimize requests pay for exactly one search:

* in-flight duplicates coalesce onto one leader's search
  (:class:`~repro.serve.jobs.JobManager`),
* completed responses answer repeats from a bounded in-memory LRU
  (:mod:`repro.serve.cache`) over the persistent
  :class:`~repro.runtime.plan_io.PlanCache`,
* a bounded run queue fails fast under overload (:mod:`repro.serve.jobs`).

Plans served are bit-identical to a direct ``PoocH.optimize`` for the same
(graph, machine, config): the entire pipeline is deterministic, and caching
never re-derives — it replays the one result the search produced.
"""

from repro.serve.cache import (
    TIER_COALESCED,
    TIER_PERSISTENT,
    TIER_SEARCH,
    TIER_WARM,
    LruCache,
)
from repro.serve.client import PlannerClient, ServeClientError
from repro.serve.jobs import (
    AdmissionError,
    BadRequest,
    Job,
    JobManager,
    JobState,
    QueueFull,
    ServePlanner,
)
from repro.serve.server import PlannerServer

__all__ = [
    "AdmissionError",
    "BadRequest",
    "Job",
    "JobManager",
    "JobState",
    "LruCache",
    "PlannerClient",
    "PlannerServer",
    "QueueFull",
    "ServeClientError",
    "ServePlanner",
    "TIER_COALESCED",
    "TIER_PERSISTENT",
    "TIER_SEARCH",
    "TIER_WARM",
]
