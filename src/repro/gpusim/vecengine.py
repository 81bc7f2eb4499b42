"""Lockstep vectorized replay engine for schedule-candidate *families*.

The classification search evaluates thousands of candidate schedules that
all share one base draft and differ only by keep/swap flips: a kept map
removes its ``SO``/``SI`` transfer pair and rewires the backward readers of
the swapped-in instance onto the surviving forward instance (see
:func:`repro.runtime.schedule.apply_keep_delta`).  :class:`VectorEngine`
exploits that uniformity: it compiles the base draft once into numpy tables
(durations, padded dependency lists, rounded memory needs, per-task free
lists, stream queues) where every flip-dependent task, dependency edge and
free edge carries a *condition* — "active iff map m is kept" / "active iff
map m is swapped" — and then simulates K candidates in lockstep as an array
program: one row of state per candidate, one batched sweep per event round.

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
readiness in one pass.  The per-row countdown tables are task-major
(n + 1, K) in-degrees and buffer-major (nbuf + 1, K) free counts, int32:
lockstep rows sit at similar tasks, so a round's gathers and scatters hit a
few nearby table rows.  Pool counters are released with ``np.bincount``
(byte sums stay below 2**53, so float64 weights are exact).  A stopped row
carries NaN finish times, which no comparison selects.

Cost model.  A sweep costs about rounds × (per-round call overhead + K ×
per-row work), and rounds ≈ tasks (one per distinct event instant).  See
``docs/architecture.md`` for measured figures.

Because all engine arithmetic is the same left-fold of IEEE ``+``/``min``
over the same operands, results are bit-identical to
:class:`~repro.gpusim.fastengine.FastEngine` and
:class:`~repro.gpusim.engine.Engine` — same makespans, same per-task
start/end times, same allocator high-water marks, and the same OOM/deadlock
diagnoses at the same simulated instants.  ``tests/test_vecengine.py``
fuzzes exactly that equivalence.

The lockstep formulation covers EAGER-policy drafts without alloc-on-ready
reservations or start-deps (a single scan pass is then a fixpoint: issues
only consume memory and dependency satisfaction needs a completion, so no
issue can unblock another within one instant).  Anything else —
NAIVE/SUPERNEURONS triggers, forward-refetch swap-ins with recompute
interactions, mid-replay resume — raises :class:`VectorUnsupported` at
compile time and the caller falls back to :class:`FastEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import OutOfMemoryError, ScheduleError, SimulationError
from repro.common.units import format_bytes
from repro.gpusim.allocator import round_size
from repro.gpusim.engine import StreamName
from repro.obs import metrics

#: same deterministic scan priority as the event engines
_STREAM_ORDER = (StreamName.COMPUTE, StreamName.D2H, StreamName.H2D)
_N_STREAMS = len(_STREAM_ORDER)

#: free-countdown value of the sentinel buffer column — never reaches zero
_NEVER = 1 << 30


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
    ``apply_keep_delta`` edge for edge.
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

    ``error`` carries the exact exception an event engine run would have
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

    def __init__(self, tasks, queues, buffers, device_capacity: int,
                 host_capacity: int | None = None,
                 flips: tuple[KeepFlip, ...] = ()) -> None:
        if device_capacity <= 0:
            raise SimulationError(
                f"pool capacity must be positive, got {device_capacity}")
        self.device_capacity = int(device_capacity)
        self.host_capacity = int(host_capacity or (1 << 62))
        self.flips = tuple(flips)
        self.flip_maps = tuple(f.map_id for f in self.flips)

        tids = list(tasks)
        index = {tid: i for i, tid in enumerate(tids)}
        n = len(tids)
        self.tids = tids
        self.index = index
        self.n = n

        # -- expressibility gate (see module docstring) ---------------------
        for tid in tids:
            t = tasks[tid]
            if not t.memory_gated:
                raise VectorUnsupported(
                    f"task {tid!r} is not memory-gated (SUPERNEURONS-style "
                    "drafts need the event engine)")
            if t.alloc_on_ready:
                raise VectorUnsupported(
                    f"task {tid!r} uses alloc-on-ready reservations")
            if t.start_deps:
                raise VectorUnsupported(
                    f"task {tid!r} has start-deps (NAIVE/SUPERNEURONS "
                    "triggers need the event engine)")

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
        self.bids = bids
        self.nbuf = nb
        buf_size = np.zeros(nb + 1, np.int64)
        buf_host = np.zeros(nb + 1, bool)
        for bid, b in buffers.items():
            buf_size[bindex[bid]] = round_size(b.nbytes)
            buf_host[bindex[bid]] = b.host
        self.buf_size = buf_size
        self.buf_host = buf_host

        # -- dependency slots: one *shared* table for the whole family.
        # A rewired reader carries both the swap-in dep (fires only while
        # swapped — the task vanishes when kept, so its in-degree share is
        # simply not counted then) and the forward-producer dep (always
        # present: while swapped it is transitively implied by the swap-in
        # chain SI → SO → producer, so counting it never delays an issue).
        # The per-candidate part is therefore just the *initial in-degree*,
        # which the batch derives from sparse per-flip updates.
        dep_slots: list[list[int]] = [
            [index[d] for d in tasks[tid].deps] for tid in tids
        ]
        # -- free edges: (buffer, eff_cond, paired_alt); a buffer is freed
        # when every edge that fires in the candidate has fired.  Most
        # conditioned edges belong to tasks that exist only while swapped
        # (SO/SI) — those stay in the shared table, an inactive task never
        # completes.  The one genuinely per-candidate slot is the rewired
        # reader's pin: backward instance while swapped, forward instance
        # while kept.  It is stored as a *pair* (primary = swapped value,
        # alternate = kept value) and resolved at completion time.
        free_slots: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
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
                dep_slots[ri].append(fwd_pi)
                edges[(ri, back_bi)] = (-(s + 1), fwd_bi)
            edges[(si_i, back_bi)] = (-(s + 1), -1)
            edges[(si_i, bindex[f.host_buffer])] = (-(s + 1), -1)

        for (ti, bi), (cond, alt) in edges.items():
            free_slots[ti].append((bi, cond, alt))

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

        # consumer lists: who to count down when a task completes (one
        # entry per dep slot, so duplicate edges stay balanced)
        cons_lists: list[list[int]] = [[] for _ in range(n)]
        for i, slots in enumerate(dep_slots):
            for d in slots:
                cons_lists[d].append(i)
        cmax = max((len(c) for c in cons_lists), default=0)
        consumers_pad = np.full((n, max(cmax, 1)), n, np.int32)
        for i, cons in enumerate(cons_lists):
            consumers_pad[i, : len(cons)] = cons
        self.consumers_pad = consumers_pad

        fmax = max((len(s) for s in free_slots), default=0)
        frees_pad = np.full((n, max(fmax, 1)), nb, np.int32)
        pair_alt = np.full((n, max(fmax, 1)), nb, np.int32)
        pair_flip = np.zeros((n, max(fmax, 1)), np.int32)
        for i, slots in enumerate(free_slots):
            for j, (b, c, alt) in enumerate(slots):
                frees_pad[i, j] = b
                if alt >= 0:
                    pair_alt[i, j] = alt
                    pair_flip[i, j] = -c  # pair conds are always negative
        self.frees_pad = frees_pad
        self.pair_alt = pair_alt
        self.pair_flip = pair_flip
        #: which tasks carry any pair slot (the completion loop skips the
        #: pair fix-up when none does)
        self.pair_task = (pair_flip != 0).any(axis=1)
        self.has_pairs = bool(self.pair_task.any())

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

        # -- per-task scalars (padded with a sentinel slot at index n, so
        # scan-time gathers over sentinel queue heads stay in bounds) -------
        self.duration = np.array([tasks[t].duration for t in tids], np.float64)
        self.scratch_r = np.array(
            [round_size(tasks[t].scratch_bytes) for t in tids], np.int64)
        self.headroom = np.zeros(n + 1, np.int64)
        self.headroom[:n] = [tasks[t].headroom for t in tids]

        need_dev = np.zeros(n + 1, np.int64)
        need_host = np.zeros(n + 1, np.int64)
        host_buf_of = np.full(n + 1, -1, np.int64)
        n_dev_bufs = np.zeros(n + 1, np.int64)
        for bid, b in buffers.items():
            if b.alloc_by is None:
                continue
            i = index[b.alloc_by]
            if b.host:
                if host_buf_of[i] >= 0:
                    raise VectorUnsupported(
                        f"task {b.alloc_by!r} allocates several host buffers")
                host_buf_of[i] = bindex[bid]
                need_host[i] += round_size(b.nbytes)
            else:
                need_dev[i] += round_size(b.nbytes)
                n_dev_bufs[i] += 1
        if np.any((need_host[:n] > 0)
                  & ((need_dev[:n] > 0) | (self.scratch_r > 0))):
            raise VectorUnsupported(
                "a task allocates both host and device memory (host-pool "
                "failure ordering is not expressible)")
        need_dev[:n] += self.scratch_r
        self.need_dev = need_dev
        self.need_host = need_host
        self.host_buf_of = host_buf_of
        #: mirror of FastEngine's _check_full: no memory gate at all when a
        #: task allocates nothing on the device
        self.check = np.zeros(n + 1, bool)
        self.check[:n] = (self.scratch_r > 0) | (n_dev_bufs[:n] > 0)

        # -- stream queues (base order; candidates compact them by mask) -----
        self.queues = [
            np.array([index[t] for t in queues.get(s, [])], np.int32)
            for s in _STREAM_ORDER
        ]
        stream_of = np.zeros(n, np.int32)
        for si, q in enumerate(self.queues):
            stream_of[q] = si
        self.stream_of = stream_of

        # -- preallocated buffers (weights, gradients): resident from t=0.
        # Replay the malloc sequence once — a prealloc overflow fails every
        # candidate identically, with the pool's own error
        self.prealloc_error: OutOfMemoryError | None = None
        dev_use = host_use = 0
        for bid, b in buffers.items():
            if b.alloc_by is not None:
                continue
            size = round_size(b.nbytes)
            cap, in_use, name = (
                (self.host_capacity, host_use, "host") if b.host
                else (self.device_capacity, dev_use, "gpu"))
            if size > cap - in_use:
                self.prealloc_error = OutOfMemoryError(
                    f"{name} pool out of memory allocating {bid!r}: "
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
        self.prealloc_dev = dev_use
        self.prealloc_host = host_use


class VectorEngine:
    """Run batches of candidates against one :class:`VectorTables`."""

    def __init__(self, tables: VectorTables) -> None:
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
        self._release_dev = np.where(t.buf_host, 0, t.buf_size).astype(
            np.float64)
        self._release_host = np.where(t.buf_host, t.buf_size, 0).astype(
            np.float64)
        self._has_host_bufs = bool(t.buf_host.any())
        # per-stream work switches: which streams need the device gate, add
        # device memory or allocate host memory at all
        self._gated = [bool((self._limit[q] < cap).any()) for q in t.queues]
        self._allocs = [bool((need[q] > 0).any()) for q in t.queues]
        self._hosts = [bool((t.need_host[q] > 0).any()) for q in t.queues]
        #: host allocations can only fail when they can outgrow the pool
        self._host_check = (t.prealloc_host + int(t.need_host.sum())
                            > t.host_capacity)
        # pair slots: the keep-matrix column each slot reads and the buffer
        # shift it applies when that map is kept (0 on plain slots)
        on = t.pair_flip > 0
        self._pair_col = np.maximum(t.pair_flip, 1) - 1
        self._pair_shift = np.where(on, t.pair_alt - t.frees_pad, 0)
        # per-row seeds: each flip touches a few in-degree and free-count
        # entries, so the (K, maps) keep matrix expands through sparse
        # layers rather than dense matmuls (see _seed)
        nf = t.n_flips
        self._indeg_layers = _sparse_layers(
            np.zeros((nf, n + 1)), t.indeg_swap)
        self._count_layers = _sparse_layers(t.count_keep, t.count_swap)
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
        """Mirror of the event engines' deadlock diagnosis for one candidate
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
        K is taken from it and every row runs the base draft.  Returns one
        :class:`VecOutcome` per row, in order — infeasible candidates carry
        their exact event-engine exception instead of raising."""
        t = self.tables
        if keep is None:
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

        total = n - keep @ self._removed

        # stream queues, concatenated into one flat table.  An
        # unconditioned queue (e.g. compute) is one shared sentinel-tailed
        # row; a conditioned one holds each row's active tasks, compacted
        # in queue order by a stable sort, position-major (width, K) so the
        # lockstep rows' heads sit side by side.  pos[s, k] is the flat
        # index of row k's head on stream s and advances by step[s] per
        # issue, so one take reads every lane's head.
        pos = np.empty((S, K), np.intp)
        step = np.ones(S, np.intp)
        parts = []
        base = 0
        for s, (q, flip) in enumerate(zip(t.queues, self._queue_flip)):
            if flip is None:
                parts.append(np.append(q, n).astype(np.int32))
                pos[s] = base
            else:
                active = np.ones((K, q.size), bool)
                cond = flip >= 0
                active[:, cond] = ~keep[:, flip[cond]]
                order = np.argsort(~active, axis=1, kind="stable").T
                rank = np.arange(q.size + 1)[:, None]
                part = np.full((q.size + 1, K), n, np.int32)
                part[:-1] = np.where(rank[:-1] < active.sum(1), q[order], n)
                parts.append(part.reshape(-1))
                pos[s] = base + np.arange(K)
                step[s] = K
            base += parts[-1].size
        qcat = np.concatenate(parts)
        del parts
        pos0 = pos.copy()

        # per-row countdown seeds, laid out task-major (n + 1, K) and
        # buffer-major (nbuf + 1, K): lockstep rows sit at similar tasks, so
        # a round's gathers and scatters land on a few nearby rows of the
        # table instead of K scattered ones.  Both sentinel rows hold
        # _NEVER: the in-degree one blocks sentinel (exhausted) queue heads
        # and absorbs padded consumer slots, the free-count one absorbs
        # padded free slots.  Counts stay far below 2**31, so int32 is exact
        # and halves the tables.
        sel = np.concatenate((keep.T, ~keep.T))
        fc = _seed(t.free_base, self._count_layers, sel)
        fc_flat = fc.reshape(-1)
        ind = _seed(t.indeg_base, self._indeg_layers, sel)
        ind[n] = _NEVER
        ind_flat = ind.reshape(-1)
        del sel

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
        consumers_pad = t.consumers_pad
        frees_pad = t.frees_pad
        has_pairs = t.has_pairs
        pair_col = self._pair_col
        pair_shift = self._pair_shift
        nf = max(t.n_flips, 1)
        keep_flat = np.ascontiguousarray(keep).reshape(-1)
        inf = np.inf
        # index arithmetic on the int32 task/buffer tables must not wrap
        Ki = np.intp(K)
        one = np.int32(1)  # a typed scalar keeps ufunc.at on its fast loop

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
            ok = ind_flat.take(head * Ki + row) == 0
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
                        ind_flat[k::K], int(dev_use[k]))
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
            # dependency countdown: each completion counts down its
            # consumers' in-degrees (padding slots hit the sentinel row)
            cons = consumers_pad.take(ii, axis=0)
            np.subtract.at(ind_flat, cons * Ki + kk[:, None], one)
            # buffer free countdowns; a buffer is released when the last
            # active edge fires.  Pair slots shift to the kept-side buffer
            # in rows that keep their map (plain slots shift by 0); padding
            # slots count down the _NEVER sentinel row, and several
            # same-instant completions hitting zero together are collapsed
            # into one release by a sort-dedupe.
            fb = frees_pad.take(ii, axis=0)
            if has_pairs:
                fb += pair_shift.take(ii, axis=0) * keep_flat.take(
                    kk[:, None] * nf + pair_col.take(ii, axis=0))
            bf = fb * Ki + kk[:, None]
            np.subtract.at(fc_flat, bf, one)
            zf = bf[fc_flat.take(bf) == 0]
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


def _sparse_layers(on_keep: np.ndarray, on_swap: np.ndarray):
    """Compile two (flips, rows) count matrices into layers of sparse
    updates for :func:`_seed`.  A term adds ``value`` to a table row in
    every candidate where its flip is kept (``on_keep``) or swapped
    (``on_swap``); a layer holds at most one term per row, so it applies as
    one fancy-indexed add."""
    f, r = np.nonzero(np.concatenate((on_keep, on_swap)))
    value = np.concatenate((on_keep, on_swap))[f, r].astype(np.int32)
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


def _seed(base: np.ndarray, layers, sel: np.ndarray) -> np.ndarray:
    """(rows, K) int32 table: ``base`` plus every sparse term whose
    selector row of ``sel`` (keep.T stacked over ~keep.T) is set."""
    out = np.empty((base.size, sel.shape[1]), np.int32)
    out[:] = base.astype(np.int32)[:, None]
    for rows, cols, value in layers:
        if value is None:
            out[rows] += sel[cols]
        else:
            out[rows] += value * sel[cols]
    return out


def simulate_draft(tasks, queues, buffers, device_capacity: int,
                   host_capacity: int | None = None,
                   record_times: bool = False) -> VecOutcome:
    """Compile one draft and run it alone (no flip family) — the
    differential-test entry point."""
    tables = VectorTables(tasks, queues, buffers, device_capacity,
                          host_capacity)
    return VectorEngine(tables).run_batch(record_times=record_times)[0]
