"""The serve-side cache tiers: complete optimize responses, in memory.

Two cache levels serve a request (plus coalescing for in-flight overlap):

* **L1 — warm response cache**: a bounded thread-safe
  :class:`~repro.common.lru.LruCache` of *complete* optimize responses —
  the JSON-ready payload dict holding the plan, the predicted time and the
  search-stats summary — keyed by the same (graph signature, machine
  signature, config signature) triple the persistent
  :class:`~repro.runtime.plan_io.PlanCache` uses.  A hit returns
  without profiling, without simulation and without touching JSON: the hot
  path of a duplicate-heavy workload is a dict lookup under a lock.

* **L2 — persistent PlanCache**: the directory of chosen plans, shared
  across server processes and with the offline CLI.  On an L1 miss the
  search pipeline runs with the PlanCache attached, so a previously
  *persisted* plan still short-circuits the search (profile + one
  verification simulation instead of a full search); the resulting
  response is then promoted into L1.  Every L2 lookup reads the file — the
  L1 tier answers repeats before they get here.

Everything in a cached payload is treated as immutable: each job's result
is a shallow copy stamped with its own cache tier, and the nested plan dict
is shared by reference with every hit — which is what makes the
bit-identical-plans guarantee trivial, the same object is serialized every
time.
"""

from __future__ import annotations

#: cache-tier labels stamped into responses
TIER_WARM = "warm-lru"
TIER_PERSISTENT = "persistent"
TIER_SEARCH = "miss-search"
TIER_COALESCED = "coalesced"


#: the coalescing / cache key: (graph signature, machine signature,
#: config signature) — identical to the persistent PlanCache plan key
PlanKey = tuple[str, str, str]
