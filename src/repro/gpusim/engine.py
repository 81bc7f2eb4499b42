"""The event-driven execution engine.

Semantics (modelled on CUDA + a framework memory pool):

* Three FIFO *streams* — ``COMPUTE`` (kernels), ``H2D`` and ``D2H`` (the two
  DMA copy engines).  The head task of a stream *issues* when (1) the stream
  is idle, (2) all its ``deps`` have completed, (3) all its ``start_deps``
  have started, and (4) its memory needs are satisfiable.  Issued tasks run
  for ``duration`` seconds of simulated time; streams never preempt or
  reorder (head-of-line blocking is intentional — it is how real copy queues
  stall).
* Memory: every :class:`BufferSpec` names the task that allocates it
  (``alloc_by``; ``None`` = preallocated before time 0) and the set of tasks
  after whose completion it is freed (``free_after``; the buffer is released
  when *all* of them have completed, at the timestamp of the last).  A task
  additionally gets ``scratch_bytes`` of workspace for the span of its
  execution.
* Memory gating: a ``memory_gated`` task whose allocation does not fit simply
  waits (the stream stalls) until frees make room — this is PoocH's
  "swap in when there is room" behaviour and also how forward computation
  naturally throttles against outstanding swap-outs.  A non-gated task
  (modelling SuperNeurons' swap-in, issued without regard to actual memory
  usage) raises :class:`OutOfMemoryError` immediately if it does not fit.
  ``headroom`` demands that many bytes remain free *after* the allocation —
  the predictor-derived reserve PoocH uses to keep prefetch from starving
  computation.
* Deadlock: if no task is in flight and unfinished tasks remain, the engine
  raises :class:`OutOfMemoryError` when at least one stream head is blocked
  purely on memory (every such stall is a memory-capacity failure of the
  plan), otherwise :class:`ScheduleError` (a malformed dependency graph).

One event loop (:class:`EventLoop`) implements these semantics, and
:class:`Engine` runs it two ways:

* ``Engine(schedule).run()`` runs a validated :class:`Schedule` and returns
  its timeline (:class:`RunResult`: task records, traced pools), asserting
  that every buffer a task reads is resident when it issues, running
  payloads and calling the free hook — ground truth, profiling, the fault
  layer and the test oracles use it;
* :meth:`Engine.replay_draft` replays the schedule builder's raw draft
  with untracked pools and returns only the makespan and peaks — the
  predictor's lone predictions and the search oracle use it.

The lockstep :class:`~repro.gpusim.vecengine.VectorEngine` replays whole
candidate families with the same semantics.  The engine knows nothing about
neural networks; schedules are produced by :mod:`repro.runtime.schedule`.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import (
    MissingKeyError,
    OutOfMemoryError,
    ScheduleError,
    SimulationError,
    nearest_keys,
)
from repro.common.units import format_bytes
from repro.gpusim.allocator import MemoryPool, round_size
from repro.obs import get_logger, metrics

log = get_logger(__name__)


class TaskKind(enum.Enum):
    FWD = "fwd"
    BWD = "bwd"
    RECOMPUTE = "recompute"
    SWAP_OUT = "swap_out"
    SWAP_IN = "swap_in"
    UPDATE = "update"


class StreamName(enum.Enum):
    COMPUTE = "compute"
    D2H = "d2h"
    H2D = "h2d"


#: deterministic scan priority when several streams could issue at one instant
_STREAM_ORDER = (StreamName.COMPUTE, StreamName.D2H, StreamName.H2D)
_N_STREAMS = len(_STREAM_ORDER)


@dataclass(slots=True)
class Task:
    """One unit of work on one stream.  See module docstring for issue rules.

    ``layer`` is the graph-layer / feature-map index the task concerns
    (-1 when not applicable); it is what profiling keys durations on.
    """

    tid: str
    kind: TaskKind
    stream: StreamName
    duration: float
    layer: int = -1
    deps: tuple[str, ...] = ()
    start_deps: tuple[str, ...] = ()
    reads: tuple[str, ...] = ()
    scratch_bytes: int = 0
    memory_gated: bool = True
    headroom: int = 0
    #: reserve this task's output buffers the moment its deps/start_deps are
    #: satisfied, even while it is still queued behind other transfers —
    #: models DMA destinations allocated at scheduling time.  Combined with
    #: ``memory_gated=False`` this is SuperNeurons' "swap-in scheduled
    #: without considering the actual memory usage": the reservation itself
    #: can OOM.
    alloc_on_ready: bool = False
    payload: Callable[[], None] | None = None


@dataclass(slots=True)
class BufferSpec:
    """A single-lifetime buffer (one malloc, one free).

    A logical feature map that leaves and re-enters GPU memory appears as
    several BufferSpecs (forward instance, backward instance, ...).
    """

    bid: str
    nbytes: int
    alloc_by: str | None  # task id, or None => preallocated
    free_after: frozenset[str] = frozenset()  # empty => lives to end of run
    host: bool = False  # resides in CPU memory (swap destination)


@dataclass
class Schedule:
    """Everything the engine needs: tasks, per-stream FIFO order, buffers."""

    tasks: dict[str, Task]
    queues: dict[StreamName, list[str]]
    buffers: dict[str, BufferSpec]
    #: free-form annotations from the builder (classification, policy, ...)
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Structural checks: queue/task agreement, dep/read name resolution,
        buffer alloc/free task references."""
        queued: list[str] = []
        for stream, q in self.queues.items():
            for tid in q:
                t = self.tasks.get(tid)
                if t is None:
                    raise ScheduleError(f"queue {stream} references unknown task {tid!r}")
                if t.stream is not stream:
                    raise ScheduleError(f"task {tid!r} queued on {stream} but declares {t.stream}")
                queued.append(tid)
        if len(queued) != len(set(queued)):
            raise ScheduleError("a task appears more than once across queues")
        if set(queued) != set(self.tasks):
            missing = set(self.tasks) - set(queued)
            raise ScheduleError(f"tasks never queued: {sorted(missing)[:5]}")
        for t in self.tasks.values():
            for d in (*t.deps, *t.start_deps):
                if d not in self.tasks:
                    raise ScheduleError(f"task {t.tid!r} depends on unknown task {d!r}")
            for b in t.reads:
                if b not in self.buffers:
                    raise ScheduleError(f"task {t.tid!r} reads unknown buffer {b!r}")
        for b in self.buffers.values():
            if b.alloc_by is not None and b.alloc_by not in self.tasks:
                raise ScheduleError(f"buffer {b.bid!r} allocated by unknown task {b.alloc_by!r}")
            for tid in b.free_after:
                if tid not in self.tasks:
                    raise ScheduleError(f"buffer {b.bid!r} freed after unknown task {tid!r}")


@dataclass(frozen=True)
class TaskRecord:
    """One executed task in the timeline."""

    tid: str
    kind: TaskKind
    stream: StreamName
    layer: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class RunResult:
    """Outcome of one engine run."""

    makespan: float
    records: list[TaskRecord]
    device_peak: int
    host_peak: int
    device_trace: list  # list[AllocEvent]
    meta: dict = field(default_factory=dict)
    #: lazy tid → record index; ``record_of`` is called from overlap
    #: analysis and r(X) scoring loops, where a per-call linear scan over
    #: the records turned every lookup into O(tasks)
    _tid_index: dict[str, TaskRecord] | None = field(
        default=None, repr=False, compare=False)

    def records_by_kind(self, kind: TaskKind) -> list[TaskRecord]:
        return [r for r in self.records if r.kind is kind]

    def record_of(self, tid: str) -> TaskRecord:
        index = self._tid_index
        if index is None:
            index = self._tid_index = {r.tid: r for r in self.records}
        try:
            return index[tid]
        except KeyError:
            near = nearest_keys(tid, index)
            raise MissingKeyError(
                f"run has no record of task {tid!r} "
                f"({len(self.records)} records"
                + (f"; nearest task ids: {list(near)}" if near else "")
                + ")",
                key=tid,
                table="RunResult.records",
                nearest=near,
            ) from None

    def busy_intervals(self, stream: StreamName) -> list[tuple[float, float]]:
        """Merged [start, end) busy intervals of one stream."""
        spans = sorted(
            (r.start, r.end) for r in self.records if r.stream is stream and r.end > r.start
        )
        merged: list[tuple[float, float]] = []
        for s, e in spans:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        return merged


class EventLoop:
    """The one event-driven issue/complete loop; see the module docstring.

    ``tasks`` maps tid to anything with :class:`Task`'s scheduling fields
    (insertion order = creation order), ``queues`` maps each
    :class:`StreamName` to its FIFO tid list and ``buffers`` maps bid to
    anything with :class:`BufferSpec`'s fields.  Everything is indexed once
    up front: tasks and streams are dense integers, dependency readiness is
    a countdown decremented when a dependency completes (``deps``) or issues
    (``start_deps``), and each task's device need is pre-rounded.

    :class:`Engine` runs it two ways.  ``Engine.run`` executes a
    :class:`Schedule` and keeps the timeline: with ``_records`` a list, the
    loop also records every task, asserts that each buffer a task reads is
    resident when it issues, runs task payloads and calls the free hook.
    :meth:`Engine.replay_draft` replays a builder draft with ``_records``
    ``None`` and returns only the makespan and peaks.
    """

    def __init__(self, tasks: dict, queues: dict, buffers: dict,
                 device: MemoryPool, host: MemoryPool) -> None:
        self.device = device
        self.host = host
        #: completed tasks in completion order; ``None`` keeps no timeline
        self._records: list[TaskRecord] | None = None
        #: called with the buffer id whenever a buffer is freed — lets the
        #: numeric backend invalidate its arrays so that any use-after-free
        #: in a schedule fails loudly instead of silently reusing stale data
        self.free_hook: Callable[[str], None] | None = None
        # the counting pool's fit rule is inlined as ``need > free``; a pool
        # with a rule of its own (the block allocator's contiguity) is asked
        self._fit = (device.can_fit_all
                     if type(device).can_fit_all is not MemoryPool.can_fit_all
                     else None)
        self._buffers = buffers

        tids = list(tasks)
        index = {tid: i for i, tid in enumerate(tids)}
        n = len(tids)
        task_list = list(tasks.values())
        self._tids = tids
        self._tasks = task_list
        self._duration = [t.duration for t in task_list]
        self._gated = [t.memory_gated for t in task_list]
        self._headroom = [t.headroom for t in task_list]
        self._scratch = [t.scratch_bytes for t in task_list]

        # dependency countdowns + reverse edges
        rem_deps = [0] * n
        rem_starts = [0] * n
        dependents: list[list[int]] = [[] for _ in range(n)]
        start_dependents: list[list[int]] = [[] for _ in range(n)]
        for i, t in enumerate(task_list):
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

        # buffers, in creation order: (bid, nbytes, pool) allocations of
        # each task and of t=0, the (bid, pool) frees each task's completion
        # counts down, and each task's pre-rounded device buffer bytes
        self._prealloc: list[tuple[str, int, MemoryPool]] = []
        allocs: list[list[tuple[str, int, MemoryPool]]] = [[] for _ in range(n)]
        frees: list[list[tuple[str, MemoryPool]]] = [[] for _ in range(n)]
        self._free_count: dict[str, int] = {}
        reserve = [0] * n
        on_device = [False] * n
        for b in buffers.values():
            pool = host if b.host else device
            if b.alloc_by is None:
                self._prealloc.append((b.bid, b.nbytes, pool))
            else:
                i = index[b.alloc_by]
                allocs[i].append((b.bid, b.nbytes, pool))
                if not b.host:
                    reserve[i] += round_size(b.nbytes)
                    on_device[i] = True
            free_after = b.free_after
            if free_after:
                self._free_count[b.bid] = len(free_after)
                for tid in free_after:
                    frees[index[tid]].append((b.bid, pool))
        self._allocs = allocs
        self._frees = frees

        # pre-rounded device bytes a task allocates when it issues: ``_need``
        # in full, ``_need_reserved`` once its alloc-on-ready reservation (of
        # ``_reserve`` bytes) is placed; -1 allocates nothing on the device,
        # so no memory gate applies
        need = [-1] * n
        need_reserved = [-1] * n
        for i, scratch in enumerate(self._scratch):
            if scratch:
                need_reserved[i] = round_size(scratch)
                need[i] = need_reserved[i] + reserve[i]
            elif on_device[i]:
                need[i] = reserve[i]
        self._need = need
        self._need_reserved = need_reserved
        self._reserve = reserve

        # per-stream queues as index lists + cursors + in-flight flags
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

        self._prealloc_pending = [i for i, t in enumerate(task_list)
                                  if t.alloc_on_ready]
        self._reserved = [False] * n

        self._start: list[float | None] = [None] * n
        self._n_completed = 0
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, int]] = []

    # -- issue machinery ---------------------------------------------------------

    def _device_sizes(self, i: int) -> list[int]:
        """Task ``i``'s device requests at issue, unrounded (for a pool's
        own fit rule)."""
        sizes = [self._scratch[i]] if self._scratch[i] else []
        if not self._reserved[i]:
            sizes += [nbytes for _, nbytes, pool in self._allocs[i]
                      if pool is self.device]
        return sizes

    def _issue_need(self, i: int) -> int:
        return self._need_reserved[i] if self._reserved[i] else self._need[i]

    def _assert_resident(self, i: int) -> None:
        # every read must be in its pool right now — a violation is a
        # schedule-builder bug (use-after-free / missing dep)
        for bid in self._tasks[i].reads:
            pool = self.host if self._buffers[bid].host else self.device
            if not pool.is_resident(bid):
                raise ScheduleError(
                    f"task {self._tids[i]!r} reads buffer {bid!r} which is not "
                    f"resident at t={self._now:.6f} (use-after-free or missing "
                    "dependency)"
                )

    def _issue(self, i: int, stream: int) -> None:
        tid = self._tids[i]
        now = self._now
        records = self._records
        if records is not None:
            self._assert_resident(i)
        if not self._reserved[i]:
            for bid, nbytes, pool in self._allocs[i]:
                pool.malloc(bid, nbytes, now, context=tid)
        if self._scratch[i]:
            self.device.malloc(f"{tid}#ws", self._scratch[i], now, context=tid)
        self._start[i] = now
        for j in self._start_dependents[i]:
            self._rem_starts[j] -= 1
        if records is not None and self._tasks[i].payload is not None:
            self._tasks[i].payload()
        self._seq += 1
        heapq.heappush(self._heap, (now + self._duration[i], self._seq, i))
        self._busy[stream] = True
        self._n_inflight += 1

    def _raise_ungated_oom(self, i: int) -> None:
        need = self._issue_need(i)
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
        """Reserve output buffers of alloc-on-ready tasks whose dependencies
        are satisfied, even while they wait in their queue.  An un-gated
        reservation that does not fit raises (the SuperNeurons failure mode);
        a gated one simply stays pending."""
        device = self.device
        progress = False
        still_pending: list[int] = []
        for i in self._prealloc_pending:
            ready = not self._rem_deps[i] and not self._rem_starts[i]
            started = self._start[i] is not None
            if not ready or started:
                if not started:
                    still_pending.append(i)
                continue
            if self._gated[i]:
                if self._fit is None:
                    blocked = self._reserve[i] > device.free_bytes
                else:
                    blocked = not self._fit([nbytes for _, nbytes, pool
                                             in self._allocs[i]
                                             if pool is device])
                if blocked:
                    still_pending.append(i)
                    continue
            context = f"{self._tids[i]} (scheduled reservation)"
            for bid, nbytes, pool in self._allocs[i]:
                pool.malloc(bid, nbytes, self._now, context=context)
            self._reserved[i] = True
            progress = True
        self._prealloc_pending = still_pending
        return progress

    def _scan(self) -> None:
        """Issue every task that can start at the current instant:
        reservations first, then stream heads in the deterministic order, to
        a fixpoint (a start may satisfy another task's start_deps)."""
        queues = self._queues
        cursor = self._cursor
        busy = self._busy
        rem_deps = self._rem_deps
        rem_starts = self._rem_starts
        reserved = self._reserved
        need_full = self._need
        need_reserved = self._need_reserved
        headroom = self._headroom
        device = self.device
        fit = self._fit
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
                need = need_reserved[i] if reserved[i] else need_full[i]
                if need >= 0:
                    free = device.capacity - device.in_use
                    # headroom is a politeness reserve for upcoming
                    # computation; when nothing at all is in flight
                    # (computation is stalled waiting on this very transfer)
                    # insisting on it would deadlock, so it is waived.
                    # Streams are scanned compute first, so computation
                    # always gets first claim on memory.
                    if ((need > free if fit is None
                         else not fit(self._device_sizes(i)))
                            or (free < need + headroom[i] and self._n_inflight)):
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
        if self._records is not None:
            t = self._tasks[i]
            self._records.append(TaskRecord(t.tid, t.kind, t.stream, t.layer,
                                            self._start[i], now))
        if self._scratch[i]:
            self.device.free(f"{self._tids[i]}#ws", now)
        free_count = self._free_count
        for bid, pool in self._frees[i]:
            remaining = free_count[bid] - 1
            free_count[bid] = remaining
            if not remaining:
                pool.free(bid, now)
                if self.free_hook is not None:
                    self.free_hook(bid)

    def _short_of_memory(self, i: int) -> bool:
        """Whether task ``i`` is blocked purely on memory with nothing in
        flight (so the headroom waiver applies)."""
        if self._rem_deps[i] or self._rem_starts[i]:
            return False
        need = self._issue_need(i)
        if need < 0:
            return False
        if self._fit is None:
            return need > self.device.free_bytes
        return not self._fit(self._device_sizes(i))

    def _deadlock(self) -> SimulationError:
        """The error of a run whose event heap emptied with tasks
        unfinished: a memory deadlock when a stream head is blocked purely on
        memory, else a dependency deadlock."""
        memory_blocked: list[int] = []
        dep_blocked: list[int] = []
        for s in range(_N_STREAMS):
            q = self._queues[s]
            c = self._cursor[s]
            if c >= len(q):
                continue
            i = q[c]
            if self._short_of_memory(i):
                memory_blocked.append(i)
            else:
                dep_blocked.append(i)
        if memory_blocked:
            i = memory_blocked[0]
            need = self._issue_need(i)
            return OutOfMemoryError(
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
        return ScheduleError(
            f"dependency deadlock at t={self._now:.6f}: stream heads {heads} "
            "can never issue (cyclic or unsatisfiable deps)"
        )

    def _replay(self) -> None:
        """Run to completion.  Raises :class:`OutOfMemoryError` for plan
        infeasibility (the simulated equivalent of a CUDA allocation
        failure) and :class:`ScheduleError` for builder bugs."""
        # preallocated buffers (weights, gradients) occupy memory from t=0
        for bid, nbytes, pool in self._prealloc:
            pool.malloc(bid, nbytes, 0.0, context="prealloc")
        self._scan()
        heap = self._heap
        heappop = heapq.heappop
        complete = self._complete
        scan = self._scan
        while heap:
            time, _, i = heappop(heap)
            self._now = time
            complete(i)
            # batch all completions at identical timestamps before rescanning
            while heap and heap[0][0] == time:
                complete(heappop(heap)[2])
            scan()
        if self._n_completed != len(self._tids):
            raise self._deadlock()


class Engine(EventLoop):
    """Executes one :class:`Schedule` and returns its timeline; engines are
    single-use.  :meth:`replay_draft` is the draft entry point."""

    @staticmethod
    def replay_draft(
        tasks: dict,
        queues: dict,
        buffers: dict,
        device_capacity: int,
        host_capacity: int | None = None,
    ) -> tuple[float, int, int]:
        """Replay a raw builder draft; returns (makespan, device peak, host
        peak).

        ``tasks``/``queues``/``buffers`` are
        :meth:`~repro.runtime.schedule.ScheduleBuilder.build_raw`'s drafts
        (or a delta patch of one), trusted exactly as ``validate=False``
        trusts a schedule: no ``Task``/``BufferSpec`` finalisation, no
        validation, and no timeline — untracked counting pools, no
        :class:`TaskRecord`, no residency asserts, payloads or free hook.
        Counted as ``engine.draft_runs``.  Raises exactly where :meth:`run`
        would: ``OutOfMemoryError`` for plan infeasibility,
        ``ScheduleError`` for malformed dependencies.
        """
        loop = EventLoop(
            tasks, queues, buffers,
            MemoryPool(device_capacity, "gpu", track=False),
            MemoryPool(host_capacity or (1 << 62), "host", track=False),
        )
        metrics.count("engine.draft_runs")
        loop._replay()
        return loop._now, loop.device.peak, loop.host.peak

    def __init__(
        self,
        schedule: Schedule,
        device_capacity: int,
        host_capacity: int | None = None,
        validate: bool = True,
        free_hook: Callable[[str], None] | None = None,
        device_pool: MemoryPool | None = None,
        host_pool: MemoryPool | None = None,
    ) -> None:
        if validate:
            schedule.validate()
        self.schedule = schedule
        # explicit pools override the counting default and must match the
        # capacities: a BlockMemoryPool, which can additionally fail when no
        # contiguous block fits (DESIGN.md §5), or the fault layer's
        # spuriously-failing pool
        device = device_pool if device_pool is not None else MemoryPool(
            device_capacity, "gpu")
        host = host_pool if host_pool is not None else MemoryPool(
            host_capacity or (1 << 62), "host")
        super().__init__(schedule.tasks, schedule.queues, schedule.buffers,
                         device, host)
        self.free_hook = free_hook
        self._records = []

    def _deadlock(self) -> SimulationError:
        err = super()._deadlock()
        kind = "memory" if isinstance(err, OutOfMemoryError) else "dependency"
        metrics.count(f"engine.stalls_{kind}")
        log.warning("%s", err)
        return err

    def run(self) -> RunResult:
        """Execute the schedule to completion and return the timeline.

        Raises :class:`OutOfMemoryError` for plan-infeasibility (the simulated
        equivalent of a CUDA allocation failure) and :class:`ScheduleError`
        for builder bugs.
        """
        self._replay()
        records = self._records
        records.sort(key=lambda r: (r.start, r.tid))
        registry = metrics.active()
        if registry is not None:
            registry.count("engine.runs")
            registry.count("engine.tasks", len(records))
            by_kind: dict[str, int] = {}
            for rec in records:
                by_kind[rec.kind.value] = by_kind.get(rec.kind.value, 0) + 1
            for kind, n in by_kind.items():
                registry.count(f"engine.tasks_{kind}", n)
            registry.gauge("engine.makespan", self._now)
            for pool, side in ((self.device, "device"), (self.host, "host")):
                for name, value in pool.stats().items():
                    registry.gauge_max(f"allocator.{side}_{name}", value)
        return RunResult(
            makespan=self._now,
            records=records,
            device_peak=self.device.peak,
            host_peak=self.host.peak,
            device_trace=self.device.trace,
            meta=dict(self.schedule.meta),
        )
