"""The serve-side cache tiers: complete optimize responses, in memory.

Two cache levels serve a request (plus coalescing for in-flight overlap):

* **L1 — warm response cache**: a bounded thread-safe :class:`LruCache` of
  *complete* optimize responses — the JSON-ready payload dict holding the
  plan, the predicted time and the search-stats summary — keyed by the same
  (graph signature, machine signature, config signature) triple the
  persistent :class:`~repro.runtime.plan_io.PlanCache` uses.  A hit returns
  without profiling, without simulation and without touching JSON: the hot
  path of a duplicate-heavy workload is a dict lookup under a lock.

* **L2 — persistent PlanCache**: the directory-backed store, shared across
  server processes and with the offline CLI.  On an L1 miss the search
  pipeline runs with the PlanCache attached, so a previously *persisted*
  plan still short-circuits the search (profile + one verification
  simulation instead of a full search); the resulting response is then
  promoted into L1.

Everything in a cached payload is treated as immutable: each job's result
is a shallow copy stamped with its own cache tier, and the nested plan dict
is shared by reference with every hit — which is what makes the
bit-identical-plans guarantee trivial, the same object is serialized every
time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

#: cache-tier labels stamped into responses
TIER_WARM = "warm-lru"
TIER_PERSISTENT = "persistent"
TIER_SEARCH = "miss-search"
TIER_COALESCED = "coalesced"


class LruCache:
    """A small thread-safe bounded LRU (no TTL — entries are immutable and
    keyed by content signatures, so they can never go stale, only cold)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            try:
                value = self._entries.pop(key)
            except KeyError:
                self.misses += 1
                return default
            self._entries[key] = value
            self.hits += 1
            return value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


#: the coalescing / cache key: (graph signature, machine signature,
#: config signature) — identical to the persistent PlanCache plan key
PlanKey = tuple[str, str, str]
