"""A small thread-safe bounded LRU, shared by the plan cache's in-memory
tier and the planning server's warm response cache."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any


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

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
