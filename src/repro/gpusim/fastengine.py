"""Index-based replay engine for the classification search hot loop.

:class:`FastEngine` executes the *same* semantics as
:class:`~repro.gpusim.engine.Engine` — FIFO streams, memory-gated issue,
headroom waiver, alloc-on-ready reservations, identical deadlock/OOM
behaviour — but is built for the predictor's hundreds-per-search replays:

* consumes the schedule builder's *drafts* directly (no ``Task``/
  ``BufferSpec`` finalisation, no structural validation — the builder's
  output is trusted exactly as ``Engine(validate=False)`` trusts it);
* dependency readiness is tracked with countdown counters updated on
  completion instead of re-scanning dependency lists on every issue attempt;
* per-task device memory needs are pre-rounded once;
* streams are dense integers, not enum-keyed dicts;
* no :class:`TaskRecord` timeline, no allocation trace, no residency
  assertions — it returns only (makespan, device peak, host peak).

Equivalence with the full engine — including float-for-float identical
makespans and identical OOM attribution — is enforced by
``tests/test_fastengine.py`` and transitively by every predicted==measured
test in the suite.  Only the counting :class:`MemoryPool` is supported
(the search never simulates the fragmentation allocator).
"""

from __future__ import annotations

import heapq

from repro.common.errors import OutOfMemoryError, ScheduleError
from repro.common.units import format_bytes
from repro.gpusim.allocator import MemoryPool, round_size
from repro.gpusim.engine import StreamName
from repro.obs import metrics

#: same deterministic scan priority as the full engine
_STREAM_ORDER = (StreamName.COMPUTE, StreamName.D2H, StreamName.H2D)
_N_STREAMS = len(_STREAM_ORDER)


class FastEngine:
    """Single-use replay of one raw schedule; see module docstring.

    Args:
        tasks: task drafts by tid (insertion order = creation order).
        queues: per-stream FIFO task-id lists (keyed by :class:`StreamName`).
        buffers: buffer drafts by bid; ``free_after`` is derived as
            ``writers | readers`` exactly like ``_BufferDraft.to_spec``.
        device_capacity / host_capacity: pool limits in bytes.
    """

    def __init__(
        self,
        tasks: dict,
        queues: dict,
        buffers: dict,
        device_capacity: int,
        host_capacity: int | None = None,
    ) -> None:
        self.device = MemoryPool(device_capacity, "gpu", track=False)
        self.host = MemoryPool(host_capacity or (1 << 62), "host", track=False)

        tids = list(tasks)
        index = {tid: i for i, tid in enumerate(tids)}
        n = len(tids)
        self._tids = tids
        self._duration = [tasks[t].duration for t in tids]
        self._gated = [tasks[t].memory_gated for t in tids]
        self._headroom = [tasks[t].headroom for t in tids]
        self._scratch = [tasks[t].scratch_bytes for t in tids]

        # dependency countdowns + reverse edges
        rem_deps = [0] * n
        rem_starts = [0] * n
        dependents: list[list[int]] = [[] for _ in range(n)]
        start_dependents: list[list[int]] = [[] for _ in range(n)]
        for i, tid in enumerate(tids):
            t = tasks[tid]
            rem_deps[i] = len(t.deps)
            rem_starts[i] = len(t.start_deps)
            for d in t.deps:
                dependents[index[d]].append(i)
            for d in t.start_deps:
                start_dependents[index[d]].append(i)
        self._rem_deps = rem_deps
        self._rem_starts = rem_starts
        self._dependents = dependents
        self._start_dependents = start_dependents

        # buffers: allocation lists per task (creation order), free countdowns
        self._prealloc_buffers: list = []  # alloc_by=None → resident from t=0
        allocs: list[list] = [[] for _ in range(n)]
        self._free_count: dict[str, int] = {}
        frees_by_task: list[list[str]] = [[] for _ in range(n)]
        for b in buffers.values():
            if b.alloc_by is None:
                self._prealloc_buffers.append(b)
            else:
                allocs[index[b.alloc_by]].append(b)
            free_after = b.writers | b.readers
            if free_after:
                self._free_count[b.bid] = len(free_after)
                for tid in free_after:
                    frees_by_task[index[tid]].append(b.bid)
        self._allocs = allocs
        self._frees_by_task = frees_by_task

        # pre-rounded device needs; the *_after variants apply once an
        # alloc-on-ready task's reservation has been placed
        need_full = [0] * n
        need_after = [0] * n
        check_full = [False] * n
        check_after = [False] * n
        for i in range(n):
            scratch = round_size(self._scratch[i])
            dev_bufs = 0
            n_dev = 0
            for b in allocs[i]:
                if not b.host:
                    dev_bufs += round_size(b.nbytes)
                    n_dev += 1
            need_full[i] = scratch + dev_bufs
            need_after[i] = scratch
            check_full[i] = bool(self._scratch[i]) or n_dev > 0
            check_after[i] = bool(self._scratch[i])
        self._need_full = need_full
        self._need_after = need_after
        self._check_full = check_full
        self._check_after = check_after

        # per-stream queues as index lists + cursors + in-flight counts
        self._queues = [[index[tid] for tid in queues.get(s, [])]
                        for s in _STREAM_ORDER]
        self._cursor = [0] * _N_STREAMS
        self._busy = [False] * _N_STREAMS
        self._n_inflight = 0
        stream_of = [0] * n
        for s, q in enumerate(self._queues):
            for i in q:
                stream_of[i] = s
        self._stream_of = stream_of

        self._prealloc_pending = [i for i in range(n)
                                  if tasks[tids[i]].alloc_on_ready]
        self._prealloc_done = [False] * n

        self._started = [False] * n
        self._n_completed = 0
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, int]] = []

    # -- issue machinery ---------------------------------------------------------

    def _blocked_reason(self, i: int) -> str | None:
        """None if task ``i`` can issue now, else 'deps' | 'memory' — the
        same decision procedure as ``Engine._blocked_reason``."""
        if self._rem_deps[i] or self._rem_starts[i]:
            return "deps"
        if self._prealloc_done[i]:
            check, need = self._check_after[i], self._need_after[i]
        else:
            check, need = self._check_full[i], self._need_full[i]
        if check:
            free = self.device.free_bytes
            if need > free:
                return "memory"
            if free < need + self._headroom[i] and self._n_inflight:
                return "memory"
        return None

    def _issue(self, i: int, stream: int) -> None:
        tid = self._tids[i]
        now = self._now
        if not self._prealloc_done[i]:
            for b in self._allocs[i]:
                pool = self.host if b.host else self.device
                pool.malloc(b.bid, b.nbytes, now, context=tid)
        if self._scratch[i]:
            self.device.malloc(f"{tid}#ws", self._scratch[i], now, context=tid)
        self._started[i] = True
        for j in self._start_dependents[i]:
            self._rem_starts[j] -= 1
        self._seq += 1
        heapq.heappush(self._heap, (now + self._duration[i], self._seq, i))
        self._busy[stream] = True
        self._n_inflight += 1

    def _raise_ungated_oom(self, i: int) -> None:
        need = (self._need_after[i] if self._prealloc_done[i]
                else self._need_full[i])
        raise OutOfMemoryError(
            f"ungated task {self._tids[i]!r} failed allocation at "
            f"t={self._now:.6f}: needs {format_bytes(need)}, free "
            f"{format_bytes(self.device.free_bytes)}",
            requested=need,
            free=self.device.free_bytes,
            capacity=self.device.capacity,
            context=self._tids[i],
        )

    def _run_ready_preallocs(self) -> bool:
        progress = False
        still_pending: list[int] = []
        for i in self._prealloc_pending:
            ready = not self._rem_deps[i] and not self._rem_starts[i]
            if not ready or self._started[i]:
                if not self._started[i]:
                    still_pending.append(i)
                continue
            if self._gated[i]:
                dev_need = sum(round_size(b.nbytes)
                               for b in self._allocs[i] if not b.host)
                if dev_need > self.device.free_bytes:
                    still_pending.append(i)
                    continue
            tid = self._tids[i]
            for b in self._allocs[i]:
                pool = self.host if b.host else self.device
                pool.malloc(b.bid, b.nbytes, self._now,
                            context=f"{tid} (scheduled reservation)")
            self._prealloc_done[i] = True
            progress = True
        self._prealloc_pending = still_pending
        return progress

    def _scan(self) -> None:
        """Issue everything issuable: preallocs first, then stream heads in
        deterministic order, to a fixpoint — the full engine's scan."""
        queues = self._queues
        cursor = self._cursor
        busy = self._busy
        rem_deps = self._rem_deps
        rem_starts = self._rem_starts
        prealloc_done = self._prealloc_done
        check_full = self._check_full
        device = self.device
        progress = True
        while progress:
            progress = False
            if self._prealloc_pending and self._run_ready_preallocs():
                progress = True
            for s in range(_N_STREAMS):
                if busy[s]:
                    continue
                q = queues[s]
                c = cursor[s]
                if c >= len(q):
                    continue
                i = q[c]
                if rem_deps[i] or rem_starts[i]:
                    continue
                if prealloc_done[i]:
                    if self._check_after[i]:
                        need = self._need_after[i]
                    else:
                        need = -1
                elif check_full[i]:
                    need = self._need_full[i]
                else:
                    need = -1
                if need >= 0:
                    free = device.capacity - device.in_use
                    if need > free or (
                        free < need + self._headroom[i] and self._n_inflight
                    ):
                        if not self._gated[i]:
                            self._raise_ungated_oom(i)
                        continue
                cursor[s] = c + 1
                self._issue(i, s)
                progress = True

    def _complete(self, i: int) -> None:
        self._n_completed += 1
        self._busy[self._stream_of[i]] = False
        self._n_inflight -= 1
        for j in self._dependents[i]:
            self._rem_deps[j] -= 1
        now = self._now
        if self._scratch[i]:
            self.device.free(f"{self._tids[i]}#ws", now)
        free_count = self._free_count
        for bid in self._frees_by_task[i]:
            remaining = free_count[bid] - 1
            free_count[bid] = remaining
            if not remaining:
                # the pool owning the buffer is determined at malloc time
                if self.device.is_resident(bid):
                    self.device.free(bid, now)
                else:
                    self.host.free(bid, now)

    def _diagnose_stall(self) -> None:
        memory_blocked: list[int] = []
        dep_blocked: list[int] = []
        for s in range(_N_STREAMS):
            q = self._queues[s]
            c = self._cursor[s]
            if c >= len(q):
                continue
            i = q[c]
            if self._blocked_reason(i) == "memory":
                memory_blocked.append(i)
            else:
                dep_blocked.append(i)
        if memory_blocked:
            i = memory_blocked[0]
            need = (self._need_after[i] if self._prealloc_done[i]
                    else self._need_full[i])
            raise OutOfMemoryError(
                f"memory deadlock at t={self._now:.6f}: task "
                f"{self._tids[i]!r} needs {format_bytes(need)} "
                f"(+{format_bytes(self._headroom[i])} headroom), free "
                f"{format_bytes(self.device.free_bytes)} of "
                f"{format_bytes(self.device.capacity)}, nothing in flight",
                requested=need,
                free=self.device.free_bytes,
                capacity=self.device.capacity,
                context=self._tids[i],
            )
        heads = [self._tids[i] for i in dep_blocked]
        raise ScheduleError(
            f"dependency deadlock at t={self._now:.6f}: stream heads {heads} "
            "can never issue (cyclic or unsatisfiable deps)"
        )

    # -- public ------------------------------------------------------------------

    def run(self) -> tuple[float, int, int]:
        """Replay to completion; returns (makespan, device peak, host peak).

        Raises exactly where the full engine would: ``OutOfMemoryError`` for
        plan infeasibility, ``ScheduleError`` for malformed dependencies.
        """
        metrics.count("engine.fast_runs")
        for b in self._prealloc_buffers:
            pool = self.host if b.host else self.device
            pool.malloc(b.bid, b.nbytes, 0.0, context="prealloc")
        self._scan()
        heap = self._heap
        heappop = heapq.heappop
        complete = self._complete
        scan = self._scan
        while heap:
            time, _, i = heappop(heap)
            self._now = time
            complete(i)
            while heap and heap[0][0] == time:
                complete(heappop(heap)[2])
            scan()
        if self._n_completed != len(self._tids):
            self._diagnose_stall()
        return self._now, self.device.peak, self.host.peak
