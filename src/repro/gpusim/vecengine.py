"""Lockstep vectorized replay engine for schedule-candidate *families*.

The classification search evaluates thousands of candidate schedules that
share most of one draft.  :class:`VectorEngine` simulates K of them in
lockstep as an array program — one row of state per candidate, one batched
sweep per event round — over either of two compiled families:

* :class:`VectorTables`, a *keep-flip family*: step 1's candidates share
  one all-swap base draft and differ only by keep/swap flips (a kept map
  removes its ``SO``/``SI`` transfer pair and rewires the backward readers
  of the swapped-in instance onto the surviving forward instance, as
  :func:`repro.runtime.schedule.apply_recompute_delta` drafts a kept map).
  The base draft compiles once into numpy tables (durations, each task's
  effect list, rounded memory needs, stream queues) where every
  flip-dependent task, dependency edge and free edge carries a
  *condition* — "active iff map m is kept" / "active iff map m
  is swapped" — and a (K, maps) keep matrix instantiates the rows;
* :class:`VariantTables`, a *variant family*: a step-2 round's probes,
  each a :class:`DraftPatch` of the current plan's draft ("current with X
  recomputed, or kept"), are compiled together — the base's tasks once,
  each row only what its patch touches: tasks become one slot per distinct
  variant, and each row seeds its own queues, free counts and task total.

Per round, each candidate independently (at its own simulated clock)

1. completes every in-flight task whose finish time equals its next event
   time (the engines batch completions at identical timestamps), releasing
   scratch and decrementing buffer free countdowns;
2. runs one scan pass over the three streams in the deterministic
   compute → D2H → H2D priority order, issuing each idle stream's head when
   its dependencies have completed and its memory needs fit (with the same
   headroom waiver as :class:`~repro.gpusim.engine.Engine`).

State layout.  Per-stream state (finish time, in-flight task, queue head)
is stream-major, (3, K): lane ``s*K + k`` is row k's stream s, and one
stream's lanes are contiguous, so the next event time is two
``np.minimum`` calls and the scan screens all three streams' openness and
readiness in one pass.  The per-row countdowns are one stacked
(n + 1 + nbuf + 1, K) table, task-major in-degrees first, then
buffer-major free counts, int16 where that is provably exact (else
int32): lockstep rows sit at similar tasks, so a round's gathers and
scatters hit a few nearby table rows.  Each task (or variant slot) owns
one ragged (CSR) *effect list* of real entries only — its consumers'
in-degree rows, then its free-count rows, then a keep-flip family's pair
rows — so a completion touches exactly its edges: one index expansion
and one ``np.subtract.at`` per round, and a zero test on the buffer
entries alone.  A keep-flip family also compiles out every dependency on
a task queued earlier on the dependent's own stream, which FIFO issue
already implies.  Pool counters are released with ``np.bincount`` (byte
sums stay below 2**53, so float64 weights are exact).  A stopped row
carries NaN finish times, which no comparison selects.

Cost model.  A sweep costs about rounds × (per-round call overhead + K ×
per-row work), and rounds ≈ tasks (one per distinct event instant): about
50–60 µs per round plus 0.13–0.17 µs per row per round on a shared
2-vCPU x86 host.  See ``docs/architecture.md`` for measured figures.

Because all engine arithmetic is the same left-fold of IEEE ``+``/``min``
over the same operands, results are bit-identical to the event loop
(:class:`~repro.gpusim.engine.EventLoop`, run by both ``Engine.run`` and
:meth:`~repro.gpusim.engine.Engine.replay_draft`) — same makespans, same
per-task start/end times, same allocator high-water marks, and the same
OOM/deadlock diagnoses at the same simulated instants.
``tests/test_vecengine.py`` fuzzes exactly that equivalence against
``Engine``.

The lockstep formulation covers EAGER-policy drafts without alloc-on-ready
reservations or start-deps (a single scan pass is then a fixpoint: issues
only consume memory and dependency satisfaction needs a completion, so no
issue can unblock another within one instant).  Anything else —
NAIVE/SUPERNEURONS triggers, forward-refetch swap-ins with recompute
interactions — raises :class:`VectorUnsupported` at compile time and the
caller falls back to the event loop (:meth:`Engine.replay_draft
<repro.gpusim.engine.Engine.replay_draft>`, its draft entry point).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from repro.common.errors import OutOfMemoryError, ScheduleError, SimulationError
from repro.common.units import format_bytes
from repro.gpusim.allocator import round_size
from repro.gpusim.engine import (
    _N_STREAMS,
    _STREAM_ORDER,
    StreamName,
    TaskKind,
)
from repro.obs import metrics

#: countdown value of the sentinel task row and buffer column — never
#: reaches zero (int32 tables; int16 ones use the second value)
_NEVER = 1 << 30
_NEVER16 = (1 << 15) - 1

#: the streams whose runs a draft patch replaces, as ``_STREAM_ORDER`` indices
_COMPUTE = _STREAM_ORDER.index(StreamName.COMPUTE)
_H2D = _STREAM_ORDER.index(StreamName.H2D)


class VectorUnsupported(SimulationError):
    """The draft (or batch) is outside the lockstep engine's expressible
    family; callers fall back to the event-driven engines."""


@dataclass(frozen=True)
class KeepFlip:
    """One map's keep↔swap flip, described purely in engine terms.

    ``removed_tasks``/``removed_buffers`` exist only while the map is
    swapped; when kept, each task in ``rewired_readers`` drops its
    dependency on ``swap_in`` in favour of ``fwd_producer`` and joins the
    free set of ``fwd_buffer`` (whose ``swap_out`` free edge disappears
    with the swap-out task).  Built from a base draft by
    :func:`repro.runtime.schedule.keep_flip_specs`, mirroring
    the keep flip of ``apply_recompute_delta`` edge for edge.
    """

    map_id: int
    swap_out: str
    swap_in: str | None
    fwd_buffer: str
    fwd_producer: str
    host_buffer: str
    back_buffer: str | None
    rewired_readers: tuple[str, ...] = ()


@dataclass
class VecOutcome:
    """Result of one candidate's lockstep replay.

    ``error`` carries the exact exception an event-loop run would have
    raised (``OutOfMemoryError`` or ``ScheduleError``) — not raised here so
    one infeasible candidate cannot abort its batch.  ``starts``/``ends``
    map tid → time when the batch ran with ``record_times=True``.
    """

    makespan: float
    device_peak: int
    host_peak: int
    error: Exception | None = None
    starts: dict[str, float] | None = None
    ends: dict[str, float] | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class VectorTables:
    """Numpy tables compiled once from a raw schedule draft (plus the
    conditional edges of an optional keep-flip family).  Immutable; one
    compile serves every :meth:`VectorEngine.run_batch` over the family."""

    #: per-row seeds of an explicit variant family (see VariantTables);
    #: None here, where rows come from the keep matrix instead
    row_queues = row_free = row_total = None

    def __init__(self, tasks, queues, buffers, device_capacity: int,
                 host_capacity: int | None = None,
                 flips: tuple[KeepFlip, ...] = ()) -> None:
        _init_pools(self, device_capacity, host_capacity)
        self.flips = tuple(flips)
        self.flip_maps = tuple(f.map_id for f in self.flips)

        tids = list(tasks)
        index = {tid: i for i, tid in enumerate(tids)}
        n = len(tids)
        self.tids = tids
        self.index = index
        self.n = n

        # flip slot per conditioned tid: slot+1 when active-iff-kept is
        # False (task removed when kept) — tasks are only ever conditioned
        # negatively (SO/SI exist while swapped)
        removed_when_kept: dict[str, int] = {}
        for s, f in enumerate(self.flips):
            if f.swap_out not in index:
                raise VectorUnsupported(
                    f"flip of map {f.map_id} names unknown task "
                    f"{f.swap_out!r}")
            removed_when_kept[f.swap_out] = s
            if f.swap_in is not None:
                removed_when_kept[f.swap_in] = s

        #: 0 = always active, -(s+1) = inactive when keep[s]
        task_cond = np.zeros(n, np.int32)
        for tid, s in removed_when_kept.items():
            task_cond[index[tid]] = -(s + 1)
        self.task_cond = task_cond

        # -- buffers ---------------------------------------------------------
        bids = list(buffers)
        bindex = {bid: i for i, bid in enumerate(bids)}
        nb = len(bids)
        _init_buffers(self, buffers.values())

        # -- dependency slots: one *shared* table for the whole family.
        # A rewired reader carries both the swap-in dep (fires only while
        # swapped — the task vanishes when kept, so its in-degree share is
        # simply not counted then) and the forward-producer dep (always
        # present: while swapped it is transitively implied by the swap-in
        # chain SI → SO → producer, so counting it never delays an issue).
        # The per-candidate part is therefore just the *initial in-degree*,
        # which the batch derives from sparse per-flip updates.
        #
        # A dep queued earlier on the task's own stream is compiled out: a
        # stream issues one task at a time and only an idle lane is
        # scanned, so by the time the task heads its lane that dep has
        # completed — and a stall diagnosis, which reads only stream heads
        # with nothing in flight, sees the same in-degrees.  A dep queued
        # later, or on another stream, stays.
        where = {tid: (s, p)
                 for s, stream in enumerate(_STREAM_ORDER)
                 for p, tid in enumerate(queues.get(stream, ()))}

        def real(tid: str, dep: str) -> bool:
            at = where.get(tid)
            d = where.get(dep)
            return at is None or d is None or d[0] != at[0] or d[1] > at[1]

        dep_slots: list[list[int]] = [
            [index[d] for d in tasks[tid].deps if real(tid, d)]
            for tid in tids
        ]
        # -- free edges: (buffer, eff_cond, paired_alt); a buffer is freed
        # when every edge that fires in the candidate has fired.  Most
        # conditioned edges belong to tasks that exist only while swapped
        # (SO/SI) — those stay in the shared table, an inactive task never
        # completes.  The one genuinely per-candidate slot is the rewired
        # reader's pin: backward instance while swapped, forward instance
        # while kept.  It is stored as a *pair* (primary = swapped value,
        # alternate = kept value) and resolved at completion time.
        edges: dict[tuple[int, int], tuple[int, int]] = {}
        for bid, b in buffers.items():
            bi = bindex[bid]
            for tid in (b.writers | b.readers):
                edges[(index[tid], bi)] = (0, -1)

        for s, f in enumerate(self.flips):
            so_i = index[f.swap_out]
            fwd_bi = bindex[f.fwd_buffer]
            fwd_pi = index[f.fwd_producer]
            # swap-out's read of the forward instance exists only while
            # swapped; so do the host instance and its free edge
            edges[(so_i, fwd_bi)] = (-(s + 1), -1)
            edges[(so_i, bindex[f.host_buffer])] = (-(s + 1), -1)
            if f.swap_in is None:
                continue
            si_i = index[f.swap_in]
            back_bi = bindex[f.back_buffer]
            for rid in f.rewired_readers:
                ri = index[rid]
                # kept: reader waits on the forward producer and pins the
                # forward instance; swapped: it waits on the swap-in and
                # pins the swapped-in instance
                if real(rid, f.fwd_producer):
                    dep_slots[ri].append(fwd_pi)
                edges[(ri, back_bi)] = (-(s + 1), fwd_bi)
            edges[(si_i, back_bi)] = (-(s + 1), -1)
            edges[(si_i, bindex[f.host_buffer])] = (-(s + 1), -1)

        nf = len(self.flips)
        self.n_flips = nf

        # in-degree seed: a dep slot contributes iff its *dep task* exists
        # in the candidate (counts stay far below 2**24, so float32 holds
        # them exactly)
        indeg_base = np.zeros(n + 1, np.float32)
        indeg_swap = np.zeros((nf, n + 1), np.float32)
        for i, slots in enumerate(dep_slots):
            for d in slots:
                c = task_cond[d]
                if c == 0:
                    indeg_base[i] += 1
                else:
                    indeg_swap[-c - 1, i] += 1
        self.indeg_base = indeg_base
        self.indeg_swap = indeg_swap

        # effect lists: the in-degrees a completion counts down (one entry
        # per dep slot, so duplicate edges stay balanced), its free edges,
        # and its pair slots, each a swapped-side free edge that shifts to
        # its kept-side buffer in rows keeping its map (pair conds are
        # always negative)
        cons_lists: list[list[int]] = [[] for _ in range(n)]
        for i, slots in enumerate(dep_slots):
            for d in slots:
                cons_lists[d].append(i)
        frees: list[list[int]] = [[] for _ in range(n)]
        pairs: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for (ti, bi), (cond, alt) in edges.items():
            if alt < 0:
                frees[ti].append(n + 1 + bi)
            else:  # (row, kept-side shift, keep column)
                pairs[ti].append((n + 1 + bi, alt - bi, -cond - 1))
        self.has_pairs = any(pairs)
        _init_effects(self, [cons_lists, frees] + (
            [[[row for row, _s, _c in p] for p in pairs]]
            if self.has_pairs else []))
        if self.has_pairs:
            # aligned with ``effects``; zero outside the pair part
            flat = [e for p in pairs for e in p]
            self.pair_shift = np.zeros(self.effects.size, np.intp)
            self.pair_col = np.zeros(self.effects.size, np.intp)
            self.pair_shift[-len(flat):] = [s for _r, s, _c in flat]
            self.pair_col[-len(flat):] = [c for _r, _s, c in flat]

        # free-countdown initialisation: unconditional edge count per
        # buffer, plus sparse per-flip corrections.  An
        # edge counts iff it fires: task-conditioned edges follow the task,
        # a pair slot counts its swapped side or its kept side.
        free_base = np.zeros(nb + 1, np.float32)
        count_keep = np.zeros((nf, nb + 1), np.float32)
        count_swap = np.zeros((nf, nb + 1), np.float32)
        for (ti, bi), (cond, alt) in edges.items():
            if cond == 0:
                free_base[bi] += 1
            else:
                count_swap[-cond - 1, bi] += 1
                if alt >= 0:
                    count_keep[-cond - 1, alt] += 1
        free_base[nb] = _NEVER
        self.free_base = free_base
        self.count_keep = count_keep
        self.count_swap = count_swap

        allocs: list[list[int]] = [[] for _ in range(n)]
        for bid, b in buffers.items():
            if b.alloc_by is not None:
                allocs[index[b.alloc_by]].append(bindex[bid])
        _init_tasks(self, [tasks[t] for t in tids], allocs)

        # -- stream queues (base order; candidates compact them by mask) -----
        self.queues = [
            np.array([index[t] for t in queues.get(s, [])], np.int32)
            for s in _STREAM_ORDER
        ]
        _init_prealloc(self, buffers.values())


@dataclass(frozen=True, eq=False, repr=False)
class DraftPatch:
    """One variant of a base draft, as the edits that turn the base into
    it: task and buffer drafts added or replaced, ids dropped, and queue
    edits — never a complete queue.  A queue edit either lifts a base
    task out of its queue (``unqueued``: a dropped ``SO``/``SI``, or a
    recompute or swap-in task moved to another root) or replaces one
    root's *run* of a base queue: the recompute tasks queued right before
    the backward task ``B{r}`` on the compute stream, ``B{r}`` included
    (``segments[r]``), or root r's swap-ins on the H2D stream
    (``groups[r]``; see :class:`QueueLayout`).  Built by
    :func:`repro.runtime.schedule.apply_recompute_delta`; the base is
    never mutated, so any number of patches share it, and a patch's size
    is what its flips touch, never the draft's."""

    #: the ``(tasks, queues, buffers)`` draft the edits apply to
    base: tuple
    tasks: dict
    buffers: dict
    dropped_tasks: frozenset
    dropped_buffers: frozenset
    #: base queue ids that leave their place in the base queue
    unqueued: frozenset
    #: root → the compute tasks replacing its run, ``B{root}`` last
    segments: dict
    #: root → the swap-ins replacing its H2D group, in queue order
    groups: dict

    @functools.cached_property
    def draft(self) -> tuple:
        """The patched ``(tasks, queues, buffers)`` draft itself, its
        queues materialized as complete lists (the base's own lists where
        a stream is unchanged) — the serial path's and the liveness
        profile's form."""
        base_tasks, base_queues, base_buffers = self.base
        tasks = dict(base_tasks)
        for tid in self.dropped_tasks:
            del tasks[tid]
        tasks.update(self.tasks)
        buffers = dict(base_buffers)
        for bid in self.dropped_buffers:
            del buffers[bid]
        buffers.update(self.buffers)
        queues = dict(base_queues)
        lifted = self.unqueued
        for s, stream in enumerate(_STREAM_ORDER):
            runs = (self.segments if s == _COMPUTE
                    else self.groups if s == _H2D else {})
            q = base_queues.get(stream, [])
            if not runs and lifted.isdisjoint(q):
                continue
            # replaced runs in place, then lifted ids out of the rest
            queues[stream] = out = []
            prev = 0
            for start, stop, r in (_run_spans(base_tasks, q, s, runs)
                                   if runs else ()):
                out += [t for t in q[prev:start] if t not in lifted]
                out += runs[r]
                prev = stop
            out += [t for t in q[prev:] if t not in lifted]
        return tasks, queues, buffers

    def compose(self, later: DraftPatch) -> DraftPatch:
        """``later`` — a patch of the draft this patch describes — as a
        patch of this patch's base, with the same :attr:`draft`.

        The edits overlay: ``later``'s task and buffer drafts replace this
        patch's, ids ``later`` drops leave (and are recorded as dropped
        only when the base has them), ids dropped here stay dropped unless
        ``later`` adds them back.  ``later``'s runs replace this patch's
        runs of the same root; this patch's other runs lose the ids
        ``later`` lifts, and base ids either patch lifts stay lifted.  The
        cost is the two patches' sizes, never the draft's: step 2 drafts a
        plan several flips ahead once, then each speculative row as one
        more flip of it, composed back onto current's draft."""
        base_tasks, _queues, base_buffers = self.base
        tasks = {**self.tasks, **later.tasks}
        for tid in later.dropped_tasks:
            tasks.pop(tid, None)
        buffers = {**self.buffers, **later.buffers}
        for bid in later.dropped_buffers:
            buffers.pop(bid, None)
        lifted = later.unqueued

        def runs(mine: dict, theirs: dict) -> dict:
            out = {r: ids if lifted.isdisjoint(ids)
                   else tuple(t for t in ids if t not in lifted)
                   for r, ids in mine.items() if r not in theirs}
            out.update(theirs)
            return out

        return DraftPatch(
            base=self.base, tasks=tasks, buffers=buffers,
            dropped_tasks=frozenset(
                tid for tid in self.dropped_tasks | later.dropped_tasks
                if tid in base_tasks and tid not in tasks),
            dropped_buffers=frozenset(
                bid for bid in self.dropped_buffers | later.dropped_buffers
                if bid in base_buffers and bid not in buffers),
            unqueued=self.unqueued.union(
                t for t in lifted if t in base_tasks),
            segments=runs(self.segments, later.segments),
            groups=runs(self.groups, later.groups),
        )


class QueueLayout:
    """Where a :class:`DraftPatch`'s queue edits land in its base draft:
    each queued id's stream and position, and the span of each root's
    *run* — on the compute stream the recompute tasks the builder queues
    right before the backward task ``B{r}``, then ``B{r}`` itself; on the
    H2D stream the swap-ins root r resolved, which the first-need order
    keeps together, group by group in root order.  A run's members are
    the ids whose ``root`` (``B{r}``'s ``layer``) is r.  Built in one
    pass over the base queues, once per variant family; :meth:`cuts` then
    costs the patch's size."""

    def __init__(self, tasks, queues) -> None:
        #: id → (stream index in ``_STREAM_ORDER``, position)
        self.pos: dict[str, tuple[int, int]] = {}
        #: id → the root of the run it sits in
        self.run_of: dict[str, int] = {}
        #: root → (start, stop) of its compute run, and of its H2D group
        self.segment: dict[int, tuple[int, int]] = {}
        self.group: dict[int, tuple[int, int]] = {}
        recompute, bwd, swap_in = (TaskKind.RECOMPUTE, TaskKind.BWD,
                                   TaskKind.SWAP_IN)
        pos, run_of = self.pos, self.run_of
        for s, stream in enumerate(_STREAM_ORDER):
            q = queues.get(stream, ())
            pos.update(zip(q, zip(itertools.repeat(s), range(len(q)))))
            if s != _COMPUTE and s != _H2D:
                continue  # no runs
            first: dict[int, int] = {}
            for p, tid in enumerate(q):
                t = tasks[tid]
                kind = t.kind
                if kind is recompute:
                    first.setdefault(t.root, p)
                    run_of[tid] = t.root
                elif kind is bwd:
                    r = run_of[tid] = t.layer
                    self.segment[r] = (first.get(r, p), p + 1)
                elif kind is swap_in:
                    r = run_of[tid] = t.root
                    self.group[r] = (first.setdefault(r, p), p + 1)

    def cuts(self, patch: DraftPatch) -> list[list[tuple]]:
        """The patch's queue edits per stream (``_STREAM_ORDER``), each an
        unordered list of ``(start, stop, ids)``: ``ids`` replace
        ``queue[start:stop]``.  A replaced run is one edit; a lifted id
        outside the replaced runs is an empty replacement of its position.
        No two edits of a stream overlap."""
        out: list[list[tuple]] = [[] for _ in _STREAM_ORDER]
        segments, groups = patch.segments, patch.groups
        compute, h2d = out[_COMPUTE], out[_H2D]
        for r, ids in segments.items():
            compute.append((*self.segment[r], ids))
        for r, ids in groups.items():
            h2d.append((*self.group[r], ids))
        for tid in patch.unqueued:
            s, p = self.pos[tid]
            if not self.replaced(tid, s, patch):
                out[s].append((p, p + 1, ()))
        return out

    def replaced(self, tid: str, s: int, patch: DraftPatch) -> bool:
        """Whether a replaced run of ``patch`` covers base id ``tid`` (on
        stream index ``s``)."""
        return self.run_of.get(tid, -1) in (
            patch.segments if s == _COMPUTE else patch.groups)


def _run_spans(tasks, q: list, s: int, roots) -> list[tuple[int, int, int]]:
    """``(start, stop, root)`` of each of ``roots``' runs (see
    :class:`QueueLayout`) in queue ``q`` of stream index ``s`` of the draft
    whose tasks are ``tasks``, in queue order, found in one pass: on the
    compute stream ``B{r}`` and the recompute tasks of root r right before
    it, on the H2D stream the swap-ins of root r."""
    if s == _COMPUTE:
        at = dict(zip(q, range(len(q))))
        spans = []
        for r in roots:
            stop = at[f"B{r}"] + 1
            start = stop - 1
            while start:
                t = tasks[q[start - 1]]
                if t.kind is not TaskKind.RECOMPUTE or t.root != r:
                    break
                start -= 1
            spans.append((start, stop, r))
        spans.sort()
        return spans
    spans: dict[int, list[int]] = {}
    for p, tid in enumerate(q):
        r = tasks[tid].root
        if r in roots:
            span = spans.get(r)
            if span is None:
                spans[r] = [p, p + 1]
            else:
                span[1] = p + 1
    return sorted((*spans[r], r) for r in roots)


class VariantTables:
    """Tables for an explicit *variant family*: K patches of one base draft
    — step 2's probes of one plan, each "current with one map recomputed
    (or kept)", or a speculative row several rounds ahead: "current with
    the flips predicted for the rounds between, plus one more map
    recomputed" — all patches of current's draft, built by
    :func:`repro.runtime.schedule.apply_recompute_delta` (a speculative
    row as one flip of its predicted plan's draft, composed back onto
    current's with :meth:`DraftPatch.compose`).

    Row k replays exactly the draft of the k-th patch.  ``patches`` is
    consumed once, in order, so it may be an iterator that drafts each
    row as it is compiled: a family's patches need not all be alive at
    once.  Tasks compile into
    *slots*, one per distinct engine-visible variant of a task id (its
    durations, deps, headroom, allocations and free edges); the base's
    tasks are compiled once, and a row adds slots only for what its patch
    touches — replaced or added tasks, and tasks whose free edges or
    allocations the patched buffers change — told apart by content, so
    equal variants built by different rows share a slot; a composed row
    (:meth:`DraftPatch.compose`) compiles like any other, its patch the
    size of its flips.  What then varies per row is seeded per row: the
    stream queues, the buffer free counts and the task total.  The
    base queues map to slots once per family; a row's queues are pieces
    of those slot arrays with its patch's queue edits (recompute runs
    replaced on the compute stream, ``SO``/``SI`` pairs lifted, re-sorted
    H2D groups) and its re-slotted tasks spliced in, and one numpy gather
    lays out every row (:class:`_RowQueues`).  A row therefore costs what
    its patch touches, never a walk over a queue or over every task and
    buffer.  Slot in-degrees are the same in every row: a dependency
    names a task id, and each row runs exactly one slot of that id, whose
    completion counts down every slot that names it.  A raised EAGER
    swap-in headroom is simply a different slot.  Unlike a keep-flip
    family, it compiles every dependency edge: its rows re-order runs, so
    an edge one row's queue order implies may be real in another's.

    The family runs through the same :meth:`VectorEngine.run_batch` kernel
    as a keep-flip family (with ``keep=None``; one outcome per patch)."""

    flips: tuple[KeepFlip, ...] = ()
    n_flips = 0
    has_pairs = False

    def __init__(self, base, patches, device_capacity: int,
                 host_capacity: int | None = None) -> None:
        _init_pools(self, device_capacity, host_capacity)
        ref_tasks, ref_queues, ref_bufs = base
        ref_free = {bid: b.writers | b.readers for bid, b in ref_bufs.items()}
        ref_edges: dict[str, set[str]] = {}
        ref_allocs: dict[str, set[str]] = {}
        for bid, b in ref_bufs.items():
            for tid in ref_free[bid]:
                ref_edges.setdefault(tid, set()).add(bid)
            if b.alloc_by is not None:
                ref_allocs.setdefault(b.alloc_by, set()).add(bid)
        empty = frozenset()
        ref_edges = {tid: frozenset(e) for tid, e in ref_edges.items()}
        ref_allocs = {tid: frozenset(a) for tid, a in ref_allocs.items()}

        buffers: dict[str, object] = dict(ref_bufs)

        def buffer(bid, b) -> None:
            seen = buffers.setdefault(bid, b)
            if seen is not b and (seen.nbytes, seen.host, seen.alloc_by) != (
                    b.nbytes, b.host, b.alloc_by):
                raise VectorUnsupported(
                    f"buffer {bid!r} changes size, pool or allocator "
                    "across the family")
            if b.alloc_by is None and ref_bufs.get(bid) is None:
                raise VectorUnsupported(
                    f"preallocated buffer {bid!r} differs across the family")

        def content(t) -> tuple:
            return (t.duration, t.scratch_bytes, t.memory_gated, t.headroom,
                    t.alloc_on_ready, frozenset(t.deps),
                    frozenset(t.start_deps))

        def frees(bid, b) -> set[str]:
            buffer(bid, b)
            return b.writers | b.readers

        # the base's tasks are slots 0..n-1; a base slot's signature is
        # registered only once some row varies its task id
        slots: list = [(tid, t, ref_allocs.get(tid, empty),
                        ref_edges.get(tid, empty))
                       for tid, t in ref_tasks.items()]
        ref_slot = {tid: i for i, tid in enumerate(ref_tasks)}
        sigs: dict[tuple, int] = {}
        registered: set[str] = set()

        def slot(tid, t, allocs: frozenset, edges: frozenset) -> int:
            if tid not in registered and tid in ref_slot:
                registered.add(tid)
                _tid, t0, a0, e0 = slots[ref_slot[tid]]
                sigs[(tid, content(t0), a0, e0)] = ref_slot[tid]
            sig = (tid, content(t), allocs, edges)
            i = sigs.get(sig)
            if i is None:
                i = sigs[sig] = len(slots)
                slots.append((tid, t, allocs, edges))
            return i

        def edit(table, ref_table, tid) -> set[str]:
            s = table.get(tid)
            if s is None:
                s = table[tid] = set(ref_table.get(tid, empty))
            return s

        def own_slot(patch, edges, allocs, tid) -> int:
            return slot(tid, patch.tasks.get(tid) or ref_tasks[tid],
                        allocs[tid] if tid in allocs
                        else ref_allocs.get(tid, empty),
                        edges[tid] if tid in edges
                        else ref_edges.get(tid, empty))

        # a row's state: its buffers' free counts and its own slots, those
        # of the tasks its patch adds or replaces and of the tasks whose
        # free edges or allocations (task id → frozenset) its buffers
        # change
        def state(patch) -> tuple[dict, dict]:
            edges: dict[str, set[str]] = {}
            allocs: dict[str, set[str]] = {}
            free: dict[str, int] = {}
            for bid, b in patch.buffers.items():
                new = frees(bid, b)
                free[bid] = len(new)
                rb = ref_bufs.get(bid)
                old = empty if rb is None else ref_free[bid]
                for tid in new - old:
                    edit(edges, ref_edges, tid).add(bid)
                for tid in old - new:
                    edit(edges, ref_edges, tid).discard(bid)
                if rb is None:
                    edit(allocs, ref_allocs, b.alloc_by).add(bid)
            for bid in patch.dropped_buffers:
                rb = ref_bufs[bid]
                if rb.alloc_by is None:
                    raise VectorUnsupported(
                        f"preallocated buffer {bid!r} differs across the "
                        "family")
                free[bid] = _NEVER
                for tid in ref_free[bid]:
                    edit(edges, ref_edges, tid).discard(bid)
                edit(allocs, ref_allocs, rb.alloc_by).discard(bid)
            edges = {tid: frozenset(e) for tid, e in edges.items()}
            allocs = {tid: frozenset(a) for tid, a in allocs.items()}
            own = {tid: own_slot(patch, edges, allocs, tid)
                   for tid in patch.tasks.keys() | edges.keys() | allocs.keys()
                   if tid not in patch.dropped_tasks}
            return free, own

        # the base queues as slots, once per family: each row's queues are
        # edits of them, and only its patch's own ids resolve to slots
        layout = QueueLayout(ref_tasks, ref_queues)
        seeds = [_RowQueues(np.fromiter(
            map(ref_slot.__getitem__, ref_queues.get(stream, ())), np.int32))
            for stream in _STREAM_ORDER]
        pos = layout.pos
        free_fix: list[tuple[str, int, int]] = []
        K = 0
        for k, patch in enumerate(patches):
            if (patch.base[0] is not ref_tasks
                    or patch.base[2] is not ref_bufs):
                raise VectorUnsupported(
                    f"row {k} is patched from another base draft")
            free, own = state(patch)
            free_fix += [(bid, k, count) for bid, count in free.items()]
            # its queues: the patch's edits, in slots, and a base id left
            # in place at another slot as a one-entry replacement
            cuts = layout.cuts(patch)
            for edits in cuts:
                for j, (start, stop, ids) in enumerate(edits):
                    if ids:
                        edits[j] = (start, stop, [
                            own[t] if t in own else ref_slot[t] for t in ids])
            for tid, i in own.items():
                at = pos.get(tid)
                if (at is not None and i != ref_slot[tid]
                        and tid not in patch.unqueued
                        and not layout.replaced(tid, at[0], patch)):
                    cuts[at[0]].append((at[1], at[1] + 1, (i,)))
            for seed, edits in zip(seeds, cuts):
                seed.add_row(edits)
            K = k + 1
        if not K:
            raise VectorUnsupported("the variant family is empty")

        n = len(slots)
        self.n = n
        self.tids = [tid for tid, _t, _a, _e in slots]
        bids = list(buffers)
        bindex = {bid: i for i, bid in enumerate(bids)}
        nb = len(bids)
        _init_buffers(self, buffers.values())
        _init_tasks(self, [t for _tid, t, _a, _e in slots],
                    [[bindex[b] for b in a] for _tid, _t, a, _e in slots])
        _init_prealloc(self, ref_bufs.values())

        # dependencies: a slot's in-degree is its dep count in every row;
        # completing any slot of task id d counts down every slot naming d
        naming: dict[str, list[int]] = {}
        for i, (_tid, t, _a, _e) in enumerate(slots):
            for d in t.deps:
                naming.setdefault(d, []).append(i)
        self.indeg_base = np.zeros(n + 1, np.int32)
        self.indeg_base[:n] = [len(t.deps) for _tid, t, _a, _e in slots]
        _init_effects(self, (
            [naming.get(tid, ()) for tid in self.tids],
            [[n + 1 + bindex[b] for b in e] for _tid, _t, _a, e in slots]))

        # per-row seeds: queues position-major (width + 1, K) with sentinel
        # tails, free counts buffer-major (nbuf + 1, K)
        self.queues = []
        self.row_queues = []
        totals = np.zeros(K, np.int64)
        for seed in seeds:
            part, lengths = seed.table(n)
            totals += lengths
            self.row_queues.append(part)
            on = np.zeros(n + 1, bool)
            on[part] = True
            self.queues.append(np.flatnonzero(on[:n]).astype(np.int32))
        base_free = np.full(nb + 1, _NEVER, np.int32)
        for bid, fs in ref_free.items():
            base_free[bindex[bid]] = len(fs)
        self.row_free = np.repeat(base_free[:, None], K, axis=1)
        if free_fix:
            bids_k, rows_k, counts = zip(*free_fix)
            self.row_free[[bindex[b] for b in bids_k], rows_k] = counts
        self.row_total = totals


class _RowQueues:
    """One stream's queues of a variant family's rows, each kept as pieces
    of the base queue's slot array and of inserted slots — a row's Python
    cost is its edits, never the queue — and laid out for all rows by one
    gather (:meth:`table`)."""

    def __init__(self, base: np.ndarray) -> None:
        self.base = base
        #: every row's pieces, row after row: where each starts in
        #: ``base`` followed by ``slots``, and its length
        self.starts: list[int] = []
        self.lengths: list[int] = []
        #: the slots rows insert, concatenated
        self.slots: list[int] = []
        #: each row's end in the piece lists, and its queue length
        self.row_end: list[int] = []
        self.row_len: list[int] = []

    def add_row(self, edits: list[tuple]) -> None:
        """Append a row: the base queue with ``edits`` — non-overlapping
        ``(start, stop, slots)`` replacements of ``base[start:stop]`` —
        applied."""
        starts, lengths, slots = self.starts, self.lengths, self.slots
        size = self.base.size
        total = size
        prev = 0
        edits.sort()
        for start, stop, ids in edits:
            if start > prev:
                starts.append(prev)
                lengths.append(start - prev)
            if ids:
                starts.append(size + len(slots))
                lengths.append(len(ids))
                slots += ids
            total += len(ids) - (stop - start)
            prev = stop
        if prev < size:
            starts.append(prev)
            lengths.append(size - prev)
        self.row_end.append(len(starts))
        self.row_len.append(total)

    def table(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The (width + 1, K) queue table, sentinel-padded with ``n``, and
        each row's queue length: every row's pieces, then a sentinel
        piece filling it to width + 1, gathered in one take."""
        lengths = np.array(self.row_len, np.intp)
        width = int(lengths.max())
        src = np.concatenate([self.base, np.array(self.slots, np.int32),
                              np.full(width + 1, n, np.int32)])
        ends = np.array(self.row_end, np.intp)
        starts = np.insert(np.array(self.starts, np.intp), ends,
                           src.size - width - 1)
        pieces = np.insert(np.array(self.lengths, np.intp), ends,
                           width + 1 - lengths)
        shift = starts - np.cumsum(pieces) + pieces
        flat = src[np.repeat(shift, pieces) + np.arange(
            lengths.size * (width + 1))]
        return (np.ascontiguousarray(flat.reshape(-1, width + 1).T),
                lengths)


def _init_pools(tables, device_capacity: int, host_capacity) -> None:
    if device_capacity <= 0:
        raise SimulationError(
            f"pool capacity must be positive, got {device_capacity}")
    tables.device_capacity = int(device_capacity)
    tables.host_capacity = int(host_capacity or (1 << 62))


def _init_buffers(tables, buffers) -> None:
    """Rounded size and pool of each buffer, plus the sentinel column."""
    buffers = list(buffers)
    tables.bids = [b.bid for b in buffers]
    tables.nbuf = nb = len(buffers)
    tables.buf_size = np.zeros(nb + 1, np.int64)
    tables.buf_host = np.zeros(nb + 1, bool)
    for i, b in enumerate(buffers):
        tables.buf_size[i] = round_size(b.nbytes)
        tables.buf_host[i] = b.host


def _init_tasks(tables, tasks: list, allocs: list[list[int]]) -> None:
    """Per-task scalar tables, padded with a sentinel slot at index n so
    scan-time gathers over sentinel queue heads stay in bounds.  ``allocs``
    lists the buffer indices each task allocates."""
    # -- expressibility gate (see module docstring) -------------------------
    for t in tasks:
        if not t.memory_gated:
            raise VectorUnsupported(
                f"task {t.tid!r} is not memory-gated (SUPERNEURONS-style "
                "drafts need the event engine)")
        if t.alloc_on_ready:
            raise VectorUnsupported(
                f"task {t.tid!r} uses alloc-on-ready reservations")
        if t.start_deps:
            raise VectorUnsupported(
                f"task {t.tid!r} has start-deps (NAIVE/SUPERNEURONS "
                "triggers need the event engine)")
    n = len(tasks)
    tables.duration = np.array([t.duration for t in tasks], np.float64)
    tables.scratch_r = np.array(
        [round_size(t.scratch_bytes) for t in tasks], np.int64)
    tables.headroom = np.zeros(n + 1, np.int64)
    tables.headroom[:n] = [t.headroom for t in tasks]

    need_dev = np.zeros(n + 1, np.int64)
    need_host = np.zeros(n + 1, np.int64)
    host_buf_of = np.full(n + 1, -1, np.int64)
    n_dev_bufs = np.zeros(n + 1, np.int64)
    for i, bis in enumerate(allocs):
        for bi in bis:
            if tables.buf_host[bi]:
                if host_buf_of[i] >= 0:
                    raise VectorUnsupported(
                        f"task {tasks[i].tid!r} allocates several host "
                        "buffers")
                host_buf_of[i] = bi
                need_host[i] += tables.buf_size[bi]
            else:
                need_dev[i] += tables.buf_size[bi]
                n_dev_bufs[i] += 1
    if np.any((need_host[:n] > 0)
              & ((need_dev[:n] > 0) | (tables.scratch_r > 0))):
        raise VectorUnsupported(
            "a task allocates both host and device memory (host-pool "
            "failure ordering is not expressible)")
    need_dev[:n] += tables.scratch_r
    tables.need_dev = need_dev
    tables.need_host = need_host
    tables.host_buf_of = host_buf_of
    #: mirror of the event loop's ``_need`` sentinel: no memory gate at all
    #: when a task allocates nothing on the device
    tables.check = np.zeros(n + 1, bool)
    tables.check[:n] = (tables.scratch_r > 0) | (n_dev_bufs[:n] > 0)


def _init_prealloc(tables, buffers) -> None:
    """Preallocated buffers (weights, gradients) are resident from t=0.
    Replay the malloc sequence once — a prealloc overflow fails every
    candidate identically, with the pool's own error."""
    tables.prealloc_error = None
    dev_use = host_use = 0
    for b in buffers:
        if b.alloc_by is not None:
            continue
        size = round_size(b.nbytes)
        cap, in_use, name = (
            (tables.host_capacity, host_use, "host") if b.host
            else (tables.device_capacity, dev_use, "gpu"))
        if size > cap - in_use:
            tables.prealloc_error = OutOfMemoryError(
                f"{name} pool out of memory allocating {b.bid!r}: "
                f"requested {format_bytes(size)}, free "
                f"{format_bytes(cap - in_use)} of {format_bytes(cap)}"
                " while prealloc",
                requested=size, free=cap - in_use, capacity=cap,
                context="prealloc")
            break
        if b.host:
            host_use += size
        else:
            dev_use += size
    tables.prealloc_dev = dev_use
    tables.prealloc_host = host_use


def _init_effects(tables, parts) -> None:
    """Each task's ragged (CSR) effect list over the stacked countdown
    table — rows 0..n the in-degrees, n + 1.. the buffer free counts —
    given as H parts of one list per task: consumers' in-degree rows
    first, then free rows (then a keep-flip family's pair rows).  Part
    after part, task after task, they are one flat ``effects`` array, and
    ``effect_span`` is (2H, n): each part's list lengths, then where each
    list ends, so one take reads a completing task's spans in every
    part."""
    lists = [lst for part in parts for lst in part]
    counts = np.fromiter(map(len, lists), np.intp, len(lists))
    ends = np.cumsum(counts)
    tables.effects = np.fromiter(itertools.chain.from_iterable(lists),
                                 np.intp, int(ends[-1]) if ends.size else 0)
    tables.effect_span = np.concatenate((counts, ends)).reshape(
        2 * len(parts), tables.n)


class VectorEngine:
    """Run batches of candidates against one :class:`VectorTables`."""

    def __init__(self, tables: VectorTables | VariantTables) -> None:
        self.tables = t = tables
        n = t.n
        cap = t.device_capacity
        # gated need and headroom: ungated tasks allocate no device memory,
        # so zeroing them leaves every need exact and lets the gate run as
        # two table lookups instead of a mask expression
        need = t.need_dev * t.check
        reserve = np.maximum(need, need + t.headroom * t.check)
        #: a head fits when ``dev_use <= _limit[h]``; with nothing in flight
        #: the headroom is waived and ``dev_use <= _limit_bare[h]`` suffices
        self._need = need
        self._limit = cap - reserve
        self._limit_bare = cap - need
        self._scratch = t.scratch_r.astype(np.float64)
        self._has_scratch = bool(t.scratch_r.any())
        # bytes a free-count row releases, indexed by stacked-table row
        self._release_dev = np.zeros(n + 1 + t.nbuf + 1)
        self._release_dev[n + 1:] = np.where(t.buf_host, 0, t.buf_size)
        self._release_host = np.zeros(n + 1 + t.nbuf + 1)
        self._release_host[n + 1:] = np.where(t.buf_host, t.buf_size, 0)
        self._has_host_bufs = bool(t.buf_host.any())
        # per-stream work switches: which streams need the device gate, add
        # device memory or allocate host memory at all
        self._gated = [bool((self._limit[q] < cap).any()) for q in t.queues]
        self._allocs = [bool((need[q] > 0).any()) for q in t.queues]
        self._hosts = [bool((t.need_host[q] > 0).any()) for q in t.queues]
        #: host allocations can only fail when they can outgrow the pool
        self._host_check = (t.prealloc_host + int(t.need_host.sum())
                            > t.host_capacity)
        # per-row tables in the narrowest exact dtype: a sweep's memory is
        # mostly its (task + buffer, K) countdowns and (queue, K) heads.  A
        # countdown never exceeds the effect entries that count it down,
        # and nothing counts down the sentinel rows.
        narrow = t.effects.size < _NEVER16
        self._count_dtype = np.int16 if narrow else np.int32
        self._never = _NEVER16 if narrow else _NEVER
        self._queue_dtype = np.int16 if n < _NEVER16 else np.int32
        if t.row_queues is not None:
            return  # a variant family seeds its rows itself
        # per-row seeds: each flip touches a few in-degree and free-count
        # entries, so the (K, maps) keep matrix expands through sparse
        # layers rather than dense matmuls (see _seed)
        nf = t.n_flips
        self._indeg_layers = _sparse_layers(
            np.zeros((nf, n + 1)), t.indeg_swap, self._count_dtype)
        self._count_layers = _sparse_layers(t.count_keep, t.count_swap,
                                            self._count_dtype)
        #: tasks a flip removes when its map is kept (the SO/SI pair)
        cond = t.task_cond[t.task_cond < 0]
        self._removed = np.bincount(-cond - 1, minlength=nf)
        # conditioned queues hold per-row compacted copies; the keep-matrix
        # column deciding each of their entries (-1 = unconditioned)
        self._queue_flip = [
            None if q.size == 0 or not (t.task_cond[q] != 0).any()
            else -t.task_cond[q] - 1
            for q in t.queues]

    # -- scalar fallbacks for the rare per-candidate exits ---------------------

    def _diagnose_stall(self, now: float, heads, indeg_k,
                        dev_use: int) -> Exception:
        """Mirror of the event loop's deadlock diagnosis for one candidate
        given its stream heads (reached with nothing in flight, so the
        headroom waiver is moot)."""
        t = self.tables
        memory_blocked: list[int] = []
        dep_blocked: list[int] = []
        for h in heads:
            if h >= t.n:
                continue
            if indeg_k[h] > 0:
                dep_blocked.append(h)
            elif t.check[h] and t.need_dev[h] > t.device_capacity - dev_use:
                memory_blocked.append(h)
            else:  # issuable head ⇒ the scan would not have stalled
                dep_blocked.append(h)
        free = t.device_capacity - dev_use
        if memory_blocked:
            i = memory_blocked[0]
            need = int(t.need_dev[i])
            metrics.count("engine.stalls_memory")
            return OutOfMemoryError(
                f"memory deadlock at t={now:.6f}: task {t.tids[i]!r} needs "
                f"{format_bytes(need)} (+{format_bytes(int(t.headroom[i]))} "
                f"headroom), free {format_bytes(free)} of "
                f"{format_bytes(t.device_capacity)}, nothing in flight",
                requested=need, free=free, capacity=t.device_capacity,
                context=t.tids[i])
        names = [t.tids[i] for i in dep_blocked]
        metrics.count("engine.stalls_dependency")
        return ScheduleError(
            f"dependency deadlock at t={now:.6f}: stream heads {names} "
            "can never issue (cyclic or unsatisfiable deps)")

    def _host_oom(self, i: int, host_use: int) -> OutOfMemoryError:
        """The host pool's own malloc failure (host allocs are ungated)."""
        t = self.tables
        bid = t.bids[int(t.host_buf_of[i])]
        size = int(t.need_host[i])
        free = t.host_capacity - host_use
        return OutOfMemoryError(
            f"host pool out of memory allocating {bid!r}: requested "
            f"{format_bytes(size)}, free {format_bytes(free)} of "
            f"{format_bytes(t.host_capacity)} while {t.tids[i]}",
            requested=size, free=free, capacity=t.host_capacity,
            context=t.tids[i])

    # -- the lockstep loop ------------------------------------------------------

    def run_batch(self, keep: np.ndarray | None = None,
                  record_times: bool = False,
                  durations: np.ndarray | None = None) -> list[VecOutcome]:
        """Simulate K candidates; ``keep`` is a (K, len(flips)) bool matrix
        (``None`` = the base draft alone).  ``durations`` optionally
        overrides the compiled per-task durations with a (K, n) float64
        matrix — one duration table per row — so a batch can sweep K fault
        seeds (or other per-row perturbations) over one compiled draft;
        ``None`` keeps the shared table.  When only ``durations`` is given,
        K is taken from it and every row runs the base draft.  A
        :class:`VariantTables` family takes no ``keep``: its K compiled rows
        run.  Returns one :class:`VecOutcome` per row, in order — infeasible
        candidates carry their exact event-engine exception instead of
        raising."""
        t = self.tables
        variants = t.row_total is not None
        if variants:
            if keep is not None:
                raise SimulationError(
                    "a variant family runs its compiled rows; pass no keep "
                    "matrix")
            keep = np.zeros((t.row_total.size, 0), bool)
        elif keep is None:
            rows = 1 if durations is None else np.asarray(durations).shape[0]
            keep = np.zeros((rows, len(t.flips)), bool)
        keep = np.asarray(keep, bool)
        if keep.ndim != 2 or keep.shape[1] != len(t.flips):
            raise SimulationError(
                f"keep matrix must be (K, {len(t.flips)}), got {keep.shape}")
        K = keep.shape[0]
        if durations is not None:
            durations = np.ascontiguousarray(durations, np.float64)
            if durations.shape != (K, t.n):
                raise SimulationError(
                    f"durations matrix must be (K, n) = ({K}, {t.n}), "
                    f"got {durations.shape}")
        n = t.n
        S = _N_STREAMS
        registry = metrics.active()
        if registry is not None:
            registry.count("engine.vector_runs")
            registry.count("engine.vector_candidates", K)

        if t.prealloc_error is not None:
            return [VecOutcome(float("inf"), t.prealloc_dev, t.prealloc_host,
                               error=t.prealloc_error) for _ in range(K)]

        total = t.row_total if variants else n - keep @ self._removed

        # stream queues, concatenated into one flat table.  An
        # unconditioned queue (e.g. compute) is one shared sentinel-tailed
        # row; a conditioned one holds each row's active tasks, compacted
        # in queue order, position-major (width, K) so the lockstep rows'
        # heads sit side by side (a variant family compiled its rows'
        # queues in that layout already).  pos[s, k] is the flat index of
        # row k's head on stream s and advances by step[s] per issue, so
        # one take reads every lane's head.
        pos = np.empty((S, K), np.intp)
        step = np.ones(S, np.intp)
        per_row = [variants or self._queue_flip[s] is not None
                   for s in range(S)]
        sizes = [(t.row_queues[s].shape[0] if variants
                  else t.queues[s].size + 1) * (K if per_row[s] else 1)
                 for s in range(S)]
        qcat = np.empty(sum(sizes), self._queue_dtype)
        base = 0
        for s, size in enumerate(sizes):
            part = qcat[base:base + size]
            if variants:
                part[:] = t.row_queues[s].reshape(-1)
            elif self._queue_flip[s] is None:
                part[:-1] = t.queues[s]
                part[-1] = n
            else:
                # compact each row's active entries by sorting their queue
                # positions (inactive ones sort last, onto the sentinel)
                q = t.queues[s]
                flip = self._queue_flip[s]
                at = np.arange(q.size, dtype=self._queue_dtype)
                active = np.ones((K, q.size), bool)
                cond = flip >= 0
                active[:, cond] = ~keep[:, flip[cond]]
                order = np.where(active, at, self._queue_dtype(q.size))
                del active
                order.sort(axis=1)
                np.take(np.append(q, n).astype(self._queue_dtype), order.T,
                        out=part[:-K].reshape(q.size, K))
                part[-K:] = n
                del order
            if per_row[s]:
                pos[s] = base + np.arange(K)
                step[s] = K
            else:
                pos[s] = base
            base += size
        pos0 = pos.copy()

        # per-row countdowns, one stacked (n + 1 + nbuf + 1, K) table:
        # task-major in-degrees, then buffer-major free counts.  Lockstep
        # rows sit at similar tasks, so a round's gathers and scatters land
        # on a few nearby rows of the table instead of K scattered ones.
        # Both halves are seeded in place.  Both sentinel rows hold the
        # never-zero count; the in-degree one blocks sentinel (exhausted)
        # queue heads.
        dtype, never = self._count_dtype, self._never
        cd = np.empty((n + 1 + t.nbuf + 1, K), dtype)
        if variants:
            cd[:n + 1] = t.indeg_base[:, None]
            np.minimum(t.row_free, never, out=cd[n + 1:], casting="unsafe")
        else:
            sel = np.concatenate((keep.T, ~keep.T))
            _seed(cd[:n + 1], t.indeg_base, self._indeg_layers, sel, never)
            _seed(cd[n + 1:], t.free_base, self._count_layers, sel, never)
            del sel
        cd[n] = never
        cd[-1] = never
        cd_flat = cd.reshape(-1)
        # a completion's effect entries, pre-scaled to flat table indices
        # (entry * K + row); pair entries shift by their kept-side buffer
        # in rows that keep their map, read from the flat transposed keep
        # matrix at (map * K + row)
        spans = t.effect_span
        parts = spans.shape[0] // 2
        effects = t.effects * K
        if t.has_pairs:
            pair_shift = t.pair_shift * K
            pair_col = t.pair_col * K
            keep_t = np.ascontiguousarray(keep.T).reshape(-1)

        # mutable lockstep state.  Per-stream state is stream-major (S, K),
        # so each stream's lane is contiguous; lane s*K + k is row k's
        # stream s.  A row that has stopped (finished, stalled, host OOM)
        # has NaN finish times on every lane: it never counts as open,
        # never completes, and its next event time is NaN.
        fin = np.full((S, K), np.inf)
        fin_flat = fin.reshape(-1)
        inflight = np.zeros(S * K, np.intp)
        pos_flat = pos.reshape(-1)
        lane_row = np.tile(np.arange(K), S)
        lane_step = np.repeat(step, K)
        lane_split = np.arange(1, S) * K
        now = np.zeros(K)
        tnext = np.empty(K)
        dev_use = np.full(K, t.prealloc_dev, np.int64)
        host_use = np.full(K, t.prealloc_host, np.int64)
        dev_peak = dev_use.copy()
        host_peak = host_use.copy()
        stopped = 0
        rounds = 0
        busy = np.zeros(K, bool)    # rows issued earlier in this scan
        halted = np.zeros(K, bool)  # rows stopped by a host OOM
        errors: dict[int, Exception] = {}
        makespan = np.zeros(K)
        starts = np.full((K, n), np.nan) if record_times else None
        ends = np.full((K, n), np.nan) if record_times else None

        duration = t.duration
        # per-row duration tables gather from a flat (K*n) view with row
        # stride n — issued heads are never the sentinel
        dur_flat = None if durations is None else durations.reshape(-1)
        need = self._need
        need_host = t.need_host
        limit = self._limit
        limit_bare = self._limit_bare
        host_cap = t.host_capacity
        host_check = self._host_check
        gated, allocs, hosts = self._gated, self._allocs, self._hosts
        any_host = any(hosts)
        scratch = self._scratch if self._has_scratch else None
        release_dev = self._release_dev
        release_host = self._release_host if self._has_host_bufs else None
        has_pairs = t.has_pairs
        inf = np.inf
        # index arithmetic on the int16 queue heads must not wrap
        Ki = np.intp(K)
        one = dtype(1)  # a typed scalar keeps ufunc.at on its fast loop

        while stopped < K:
            rounds += 1
            # ---- scan: issue every open lane whose head is ready ----------
            # Openness and dependency readiness cannot change within one
            # scan, so all three streams are screened at once; only the
            # memory gates run stream by stream, in compute → D2H → H2D
            # priority, because each stream's issues consume the memory the
            # next one sees.
            lane = (fin_flat == inf).nonzero()[0]
            head = qcat.take(pos_flat.take(lane))
            row = lane_row.take(lane)
            ok = cd_flat.take(head * Ki + row) == 0
            if not ok.all():
                lane = lane[ok]
                head = head[ok]
                row = row[ok]
            oom: list[int] = []
            if lane.size:
                issue = None  # per-lane issue mask; None = no refusals yet
                lo = 0
                for s, hi in enumerate((*lane.searchsorted(lane_split),
                                        lane.size)):
                    hi = int(hi)
                    if hi == lo:
                        continue
                    ks = row[lo:hi]
                    hs = head[lo:hi]
                    m = None
                    if oom:
                        m = ~halted.take(ks)
                    if gated[s]:
                        du = dev_use.take(ks)
                        fits = du <= limit.take(hs)
                        if not fits.all():
                            # headroom waiver: a row with nothing in flight
                            # (no earlier-round task, no issue earlier in
                            # this scan) only needs its need to fit
                            w = (~fits).nonzero()[0]
                            kw = ks.take(w)
                            idle = fin.take(kw, axis=1).min(0) == inf
                            if lo:
                                early = row[:lo] if issue is None else (
                                    row[:lo][issue[:lo]])
                                busy[early] = True
                                idle &= ~busy.take(kw)
                                busy[early] = False
                            if idle.any():
                                w = w[idle]
                                fits[w] = (du.take(w)
                                           <= limit_bare.take(hs.take(w)))
                            m = fits if m is None else m & fits
                    if hosts[s] and host_check:
                        hbad = (need_host.take(hs)
                                > host_cap - host_use.take(ks))
                        if m is not None:
                            hbad &= m
                        if hbad.any():
                            for j in hbad.nonzero()[0].tolist():
                                k = int(ks[j])
                                errors[k] = self._host_oom(
                                    int(hs[j]), int(host_use[k]))
                                makespan[k] = inf
                                halted[k] = True
                                oom.append(k)
                            m = ~hbad if m is None else m & ~hbad
                    if m is not None and not m.all():
                        if issue is None:
                            issue = np.ones(lane.size, bool)
                        issue[lo:hi] = m
                        ks = ks[m]
                        hs = hs[m]
                    if allocs[s]:
                        dev_use[ks] += need.take(hs)
                    if hosts[s]:
                        host_use[ks] += need_host.take(hs)
                    lo = hi
                if issue is not None:
                    lane = lane[issue]
                    row = row[issue]
                    head = head[issue]
                started = now.take(row)
                if dur_flat is None:
                    fin_flat[lane] = started + duration.take(head)
                else:
                    fin_flat[lane] = started + dur_flat.take(row * n + head)
                inflight[lane] = head
                pos_flat[lane] += lane_step.take(lane)
                if starts is not None:
                    starts[row, head] = started
                if oom:
                    fin[:, oom] = np.nan
                    stopped += len(oom)
            np.maximum(dev_peak, dev_use, out=dev_peak)
            if any_host:
                np.maximum(host_peak, host_use, out=host_peak)

            # ---- next event time per row ----------------------------------
            np.minimum(fin[0], fin[1], out=tnext)
            for s in range(2, S):
                np.minimum(tnext, fin[s], out=tnext)
            if np.fmax.reduce(tnext) == inf:
                # rows with nothing in flight: finished or stalled
                idle_rows = (tnext == inf).nonzero()[0]
                issued = ((pos[:, idle_rows] - pos0[:, idle_rows])
                          // step[:, None]).sum(0)
                finished = issued == total[idle_rows]
                done = idle_rows[finished]
                makespan[done] = now[done]
                for k in idle_rows[~finished].tolist():
                    errors[k] = self._diagnose_stall(
                        float(now[k]), qcat[pos[:, k]],
                        cd_flat[k::K], int(dev_use[k]))
                    makespan[k] = inf
                fin[:, idle_rows] = np.nan
                stopped += idle_rows.size
                if stopped == K:
                    break
            now, tnext = tnext, now

            # ---- batched completions at each row's event time -------------
            lane = (fin == now).reshape(-1).nonzero()[0]
            if not lane.size:
                continue
            ii = inflight.take(lane)
            fin_flat[lane] = inf
            kk = lane_row.take(lane)
            # scratch release (rounded like the pool); byte sums stay far
            # below 2**53, so the float64 bincount is exact
            if scratch is not None:
                np.subtract(dev_use, np.bincount(kk, scratch.take(ii), K),
                            out=dev_use, casting="unsafe")
            if ends is not None:
                ends[kk, ii] = now.take(kk)
            # countdowns: every completing task's effect entries — its
            # consumers' in-degrees, then its free edges, part after part
            # — gathered from their CSR spans in one index expansion, its
            # row added to each entry, then counted down in one scatter
            c_end = spans.take(ii, axis=1)
            count = c_end[:parts].ravel()
            cum = count.cumsum()
            at = (c_end[parts:].ravel() - cum).repeat(count)
            at += np.arange(at.size)
            eff = effects.take(at)
            rows = np.concatenate((kk,) * parts).repeat(count)
            eff += rows
            m = ii.size
            if has_pairs:
                p0 = int(cum[2 * m - 1])
                if p0 < eff.size:
                    at = at[p0:]
                    eff[p0:] += pair_shift.take(at) * keep_t.take(
                        pair_col.take(at) + rows[p0:])
            np.subtract.at(cd_flat, eff, one)
            # a buffer is released when the last active free edge fires;
            # several same-instant completions hitting zero together are
            # collapsed into one release by a sort-dedupe
            zf = eff[int(cum[m - 1]):]
            zf = zf[cd_flat.take(zf) == 0]
            if zf.size:
                if zf.size > 1:
                    zf.sort()
                    zf = zf[np.concatenate(([True], zf[1:] != zf[:-1]))]
                zb = zf // K
                zk = zf - zb * K
                np.subtract(dev_use,
                            np.bincount(zk, release_dev.take(zb), K),
                            out=dev_use, casting="unsafe")
                if release_host is not None:
                    np.subtract(host_use,
                                np.bincount(zk, release_host.take(zb), K),
                                out=host_use, casting="unsafe")

        if registry is not None:
            registry.count("engine.vector_rounds", rounds)
        out: list[VecOutcome] = []
        for k, (span, dpeak, hpeak) in enumerate(zip(
                makespan.tolist(), dev_peak.tolist(), host_peak.tolist())):
            err = errors.get(k)
            o = VecOutcome(makespan=span if err is None else float("inf"),
                           device_peak=dpeak, host_peak=hpeak, error=err)
            if record_times and err is None:
                o.starts = {t.tids[i]: float(starts[k, i])
                            for i in range(n) if not np.isnan(starts[k, i])}
                o.ends = {t.tids[i]: float(ends[k, i])
                          for i in range(n) if not np.isnan(ends[k, i])}
            out.append(o)
        return out


def _sparse_layers(on_keep: np.ndarray, on_swap: np.ndarray, dtype):
    """Compile two (flips, rows) count matrices into layers of sparse
    updates for :func:`_seed`.  A term adds ``value`` to a table row in
    every candidate where its flip is kept (``on_keep``) or swapped
    (``on_swap``); a layer holds at most one term per row, so it applies as
    one fancy-indexed add.  Values are in the table's ``dtype``, so no
    update builds a wider temporary."""
    f, r = np.nonzero(np.concatenate((on_keep, on_swap)))
    value = np.concatenate((on_keep, on_swap))[f, r].astype(dtype)
    order = np.argsort(r, kind="stable")
    f, r, value = f[order], r[order], value[order]
    # occurrence number of each term within its row
    first = np.searchsorted(r, r)
    depth = np.arange(r.size) - first
    layers = []
    for d in range(int(depth.max(initial=-1)) + 1):
        at = depth == d
        v = value[at]
        layers.append((r[at], f[at], None if (v == 1).all() else v[:, None]))
    return layers


def _seed(out: np.ndarray, base: np.ndarray, layers, sel: np.ndarray,
          never: int) -> None:
    """Seed the (rows, K) countdown view ``out`` in place: ``base`` (capped
    at ``never``) plus every sparse term whose selector row of ``sel``
    (keep.T stacked over ~keep.T) is set.  A layer applies in blocks of
    about 1 MiB of selector rows, so its temporaries stay small."""
    out[:] = np.minimum(base, never).astype(out.dtype)[:, None]
    step = max(1, (1 << 20) // max(sel.shape[1], 1))
    for rows, cols, value in layers:
        for lo in range(0, rows.size, step):
            at = rows[lo:lo + step]
            if value is None:
                out[at] += sel[cols[lo:lo + step]]
            else:
                out[at] += value[lo:lo + step] * sel[cols[lo:lo + step]]
