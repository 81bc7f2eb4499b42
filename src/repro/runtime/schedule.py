"""Build an executable task schedule from (graph, classification, policy).

This module encodes the paper's execution semantics:

* **Forward** (§2.1): layers run in topological order on the compute stream;
  each produces its feature map's *forward instance* ``fm{i}@f``.
* **Swap-out** (§3.1, Fig. 5): for a SWAP-classified map, a D2H copy task is
  enqueued that may start once the producing forward *and every forward
  consumer* have finished; the forward instance is freed when the copy and
  the last forward consumer are done.  Forward computation throttles itself
  against outstanding swap-outs purely through memory gating.
* **Recompute** (§3.2, Figs. 8/9): a RECOMPUTE-classified map's forward
  instance is freed after its last forward use; when a backward task needs
  it, a recompute task (cost = the layer's forward time) is inserted on the
  compute stream immediately before the needing task, with its input chain
  resolved *recursively* (a recomputed map whose inputs were also discarded
  triggers their swap-in/recompute first, exactly as the paper describes).
* **Backward** (§2.1): layers run in reverse topological order; the backward
  task of layer *i* reads the gradient buffer ``gr{i}`` (written by its
  consumers' backward tasks, freed right after — the paper's "lifetimes of
  gradient data tend to be short") and whichever feature maps its op needs
  (input maps, and/or its own output).  Swap-ins restoring those maps are
  enqueued on the H2D stream in first-need order, and their start condition
  is the :class:`~repro.runtime.plan.SwapInPolicy`.
* **Update**: a single parameter-update task closes the iteration.

Each logical feature map can appear as up to three single-lifetime buffer
instances: ``fm{i}@f`` (forward), ``fm{i}@b`` (swapped back in), ``fm{i}@r``
(recomputed).  A buffer is freed when its producer and every reader have
completed, which the builder derives exactly from the reader sets it
collects — the engine then enforces residency, so any liveness bug here
fails loudly as a ``ScheduleError`` rather than silently mis-simulating.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ScheduleError
from repro.graph import NNGraph
from repro.graph.ops import OpKind
from repro.gpusim import BufferSpec, Schedule, StreamName, Task, TaskKind
from repro.gpusim.allocator import round_size
from repro.gpusim.vecengine import DraftPatch, KeepFlip
from repro.runtime.durations import DurationProvider
from repro.runtime.plan import Classification, MapClass, SwapInPolicy


@dataclass(frozen=True)
class ScheduleOptions:
    """Builder knobs.

    Attributes:
        policy: swap-in start policy (see :class:`SwapInPolicy`).  Under
            EAGER, a swap-in issues only while the largest single allocation
            any backward-phase compute task makes stays free — the profiled
            reserve that keeps prefetching from starving computation (§4.3:
            "the amount of free memory ... can be judged from profiling
            result").
        forward_refetch_gap: extension beyond the paper (§3.1 keeps a
            swapped map on the GPU until its *last* forward consumer, which
            pins long skip connections for the whole forward pass).  When
            set, a swapped map whose consecutive forward consumers are more
            than this many layers apart is freed after the earlier group and
            swapped back in just before the later one — U-Net-style skips
            then stop dominating the forward footprint.  ``None`` (default)
            reproduces the paper's conservative rule.
    """

    policy: SwapInPolicy = SwapInPolicy.EAGER
    forward_refetch_gap: int | None = None

    def __post_init__(self) -> None:
        # options arrive from configs, CLI flags and HTTP bodies: reject a
        # bad value here, naming it, instead of deep inside a build
        if not isinstance(self.policy, SwapInPolicy):
            raise TypeError(f"policy must be a SwapInPolicy, "
                            f"got {self.policy!r}")
        gap = self.forward_refetch_gap
        if gap is not None:
            if not isinstance(gap, int) or isinstance(gap, bool):
                raise TypeError(f"forward_refetch_gap must be None or an "
                                f"integer, got {gap!r}")
            if gap < 0:
                raise ValueError(f"forward_refetch_gap must be None or a "
                                 f"non-negative integer, got {gap!r}")


@dataclass(slots=True)
class _BufferDraft:
    bid: str
    nbytes: int
    alloc_by: str | None
    host: bool = False
    writers: set[str] = field(default_factory=set)
    readers: set[str] = field(default_factory=set)

    @property
    def free_after(self) -> set[str]:
        """The tasks after whose completion the buffer is freed."""
        return self.writers | self.readers

    def to_spec(self) -> BufferSpec:
        return BufferSpec(
            bid=self.bid,
            nbytes=self.nbytes,
            alloc_by=self.alloc_by,
            free_after=frozenset(self.free_after),
            host=self.host,
        )


@dataclass(slots=True)
class _TaskDraft:
    tid: str
    kind: TaskKind
    stream: StreamName
    duration: float
    layer: int
    deps: set[str] = field(default_factory=set)
    start_deps: set[str] = field(default_factory=set)
    reads: set[str] = field(default_factory=set)
    scratch_bytes: int = 0
    memory_gated: bool = True
    headroom: int = 0
    alloc_on_ready: bool = False
    #: io annotation consumed by the numeric backend: input/output instance
    #: ids and the map/gradient ids involved.
    io: dict = field(default_factory=dict)
    #: for a backward swap-in or recompute task: the layer of the backward
    #: task whose construction resolved it (its *root*; -1 elsewhere).
    #: Engines never read it; :func:`apply_recompute_delta` locates the
    #: part of a draft a recompute flip rebuilds by it.
    root: int = -1

    def to_task(self) -> Task:
        return Task(
            tid=self.tid,
            kind=self.kind,
            stream=self.stream,
            duration=self.duration,
            layer=self.layer,
            deps=tuple(self.deps),
            start_deps=tuple(self.start_deps),
            reads=tuple(self.reads),
            scratch_bytes=self.scratch_bytes,
            memory_gated=self.memory_gated,
            headroom=self.headroom,
            alloc_on_ready=self.alloc_on_ready,
        )


class ScheduleBuilder:
    """Single-use builder; call :meth:`build`."""

    def __init__(
        self,
        graph: NNGraph,
        classification: Classification,
        durations: DurationProvider,
        options: ScheduleOptions | None = None,
        *,
        validate: bool = True,
    ) -> None:
        self.graph = graph
        self.cls = classification
        self.dur = durations
        self.opt = options or ScheduleOptions()
        if validate:
            classification.validate(graph)

        self._tasks: dict[str, _TaskDraft] = {}
        self._buffers: dict[str, _BufferDraft] = {}
        self._compute_q: list[str] = []
        self._h2d_q: list[str] = []
        self._d2h_q: list[str] = []
        #: map id -> (instance buffer id, producing task id) currently
        #: readable by *forward* tasks (advances across re-fetch segments)
        self._fwd_inst: dict[int, tuple[str, str]] = {}
        #: swap maps with forward re-fetch: remaining consumer segments
        #: (each a list of layer indices, headed by the segment's first
        #: consumer) and the consumers belonging to segment 0
        self._fwd_segments: dict[int, list[list[int]]] = {}
        self._seg0_consumers: dict[int, list[int]] = {}
        #: forward re-fetch SIs that read a host buffer created later (the
        #: SO task block runs after the forward loop)
        self._pending_host_readers: dict[int, set[str]] = {}
        #: map id -> (instance buffer id, producing task id) available for
        #: backward reads at the current point of backward construction
        self._resident: dict[int, tuple[str, str]] = {}
        #: swap-in task id -> tid of the first compute task that reads the
        #: restored instance (for NAIVE / SUPERNEURONS start triggers)
        self._si_first_reader: dict[str, str] = {}
        #: layer of the backward task whose needs are being resolved
        self._root = -1

    # -- small helpers -----------------------------------------------------------

    def _add_task(self, draft: _TaskDraft) -> _TaskDraft:
        if draft.tid in self._tasks:
            raise ScheduleError(f"duplicate task {draft.tid!r}")
        self._tasks[draft.tid] = draft
        if draft.stream is StreamName.COMPUTE:
            self._compute_q.append(draft.tid)
        elif draft.stream is StreamName.H2D:
            self._h2d_q.append(draft.tid)
        else:
            self._d2h_q.append(draft.tid)
        return draft

    def _add_buffer(self, draft: _BufferDraft) -> _BufferDraft:
        if draft.bid in self._buffers:
            raise ScheduleError(f"duplicate buffer {draft.bid!r}")
        self._buffers[draft.bid] = draft
        return draft

    def _read(self, task: _TaskDraft, bid: str, producer: str | None) -> None:
        task.reads.add(bid)
        self._buffers[bid].readers.add(task.tid)
        if producer is not None:
            task.deps.add(producer)

    # -- forward phase ---------------------------------------------------------------

    def _plan_forward_segments(self) -> None:
        """Split each swapped map's forward consumers into residency
        segments when ``forward_refetch_gap`` is enabled (extension beyond
        the paper, see :class:`ScheduleOptions`)."""
        gap = self.opt.forward_refetch_gap
        g = self.graph
        for i in g.classifiable_maps():
            if self.cls.of(i) is not MapClass.SWAP:
                continue
            cons = list(g.consumers[i])
            if gap is None or len(cons) == 0:
                self._seg0_consumers[i] = cons
                continue
            seg0: list[int] = []
            later: list[list[int]] = []
            prev = i  # residency starts at the producer
            current = seg0
            for c in cons:
                if c - prev > gap:
                    current = []
                    later.append(current)
                current.append(c)
                prev = c
            self._seg0_consumers[i] = seg0
            if later:
                self._fwd_segments[i] = later

    def _begin_refetch_segments(self, layer_index: int) -> None:
        """Create the forward swap-in for every map whose next residency
        segment starts at ``layer_index`` (called before that layer's F
        task is built)."""
        for j, segments in list(self._fwd_segments.items()):
            if not segments or segments[0][0] != layer_index:
                continue
            seg = segments.pop(0)
            if not segments:
                del self._fwd_segments[j]
            s_idx = len([t for t in self._tasks if t.startswith(f"SI{j}~f")]) + 1
            si = _TaskDraft(
                tid=f"SI{j}~f{s_idx}",
                kind=TaskKind.SWAP_IN,
                stream=StreamName.H2D,
                duration=self.dur.swap_in(j),
                layer=j,
            )
            si.deps.add(f"SO{j}")
            bid = f"fm{j}@f{s_idx}"
            si.io = {"op": "swap_in", "layer": j, "src": f"fm{j}@host",
                     "dst": bid}
            self._add_task(si)
            # the host buffer is created with the SO block after the forward
            # loop; register this reader then
            si.reads.add(f"fm{j}@host")
            self._pending_host_readers.setdefault(j, set()).add(si.tid)
            inst = self._add_buffer(
                _BufferDraft(bid, self.graph[j].out_spec.nbytes,
                             alloc_by=si.tid)
            )
            inst.writers.add(si.tid)
            self._fwd_inst[j] = (bid, si.tid)

    def _build_forward(self) -> None:
        g = self.graph
        self._plan_forward_segments()
        for layer in g:
            i = layer.index
            self._begin_refetch_segments(i)
            is_input = layer.op.kind is OpKind.INPUT
            f = _TaskDraft(
                tid=f"F{i}",
                kind=TaskKind.FWD,
                # the mini-batch upload occupies the H2D copy engine
                stream=StreamName.H2D if is_input else StreamName.COMPUTE,
                duration=(
                    self.dur.input_load(i) if is_input else self.dur.fwd(i)
                ),
                layer=i,
                scratch_bytes=layer.op.workspace_bytes,
            )
            f.io = {"op": "fwd", "layer": i, "ins": [], "out": f"fm{i}@f"}
            self._add_task(f)
            out = self._add_buffer(
                _BufferDraft(f"fm{i}@f", layer.out_spec.nbytes, alloc_by=f.tid)
            )
            out.writers.add(f.tid)
            self._fwd_inst[i] = (f"fm{i}@f", f.tid)
            for j in layer.preds:
                bid, producer = self._fwd_inst[j]
                self._read(f, bid, producer)
                f.io["ins"].append(bid)

        # classification effects on forward instances
        for i in g.classifiable_maps():
            cls = self.cls.of(i)
            if cls is not MapClass.SWAP:
                continue
            layer = g[i]
            so = _TaskDraft(
                tid=f"SO{i}",
                kind=TaskKind.SWAP_OUT,
                stream=StreamName.D2H,
                duration=self.dur.swap_out(i),
                layer=i,
            )
            # the copy may start once the producer and the consumers of the
            # first residency segment are done (all consumers when forward
            # re-fetch is off — the paper's §3.1 rule)
            so.deps.add(f"F{i}")
            for k in self._seg0_consumers.get(i, g.consumers[i]):
                so.deps.add(f"F{k}")
            so.io = {"op": "swap_out", "layer": i, "src": f"fm{i}@f",
                     "dst": f"fm{i}@host"}
            self._add_task(so)
            self._read(so, f"fm{i}@f", None)
            host = self._add_buffer(
                _BufferDraft(f"fm{i}@host", layer.out_spec.nbytes,
                             alloc_by=so.tid, host=True)
            )
            host.writers.add(so.tid)
            host.readers |= self._pending_host_readers.get(i, set())
        # D2H queue order = forward (producer) order, already appended in
        # ascending map order which matches completion order for chains; for
        # branches FIFO order by map index is the Chainer-pool behaviour.

    # -- backward phase -----------------------------------------------------------------

    def _ensure_available(self, m: int, for_task: _TaskDraft) -> None:
        """Make feature map ``m`` resident for ``for_task`` (and register the
        read).  May create swap-in / recompute tasks, recursively."""
        hit = self._resident.get(m)
        if hit is not None:
            bid, producer = hit
            self._read(for_task, bid, producer)
            return
        cls = self.cls.get(m)
        if cls is None:
            # A map with no *direct* backward users can still be needed as an
            # input of a recompute chain (e.g. the pre-add BN output when the
            # residual add is recomputed).  Such maps are not part of the
            # classification; regenerate them if possible, otherwise retain
            # their forward instance (registering the read extends its
            # lifetime exactly to this use).
            if self.graph[m].op.recomputable:
                cls = MapClass.RECOMPUTE
            else:
                self._resident[m] = (f"fm{m}@f", f"F{m}")
                self._read(for_task, f"fm{m}@f", f"F{m}")
                return
        if cls is MapClass.SWAP:
            si = _TaskDraft(
                tid=f"SI{m}",
                kind=TaskKind.SWAP_IN,
                stream=StreamName.H2D,
                duration=self.dur.swap_in(m),
                layer=m,
                root=self._root,
            )
            si.deps.add(f"SO{m}")
            si.io = {"op": "swap_in", "layer": m, "src": f"fm{m}@host",
                     "dst": f"fm{m}@b"}
            self._add_task(si)
            self._read(si, f"fm{m}@host", f"SO{m}")
            inst = self._add_buffer(
                _BufferDraft(f"fm{m}@b", self.graph[m].out_spec.nbytes,
                             alloc_by=si.tid)
            )
            inst.writers.add(si.tid)
            self._si_first_reader[si.tid] = for_task.tid
            self._resident[m] = (inst.bid, si.tid)
            self._read(for_task, inst.bid, si.tid)
            return
        # RECOMPUTE: resolve the input chain first (recursive), then re-run
        # the producing forward computation on the compute stream.
        layer = self.graph[m]
        r = _TaskDraft(
            tid=f"R{m}",
            kind=TaskKind.RECOMPUTE,
            stream=StreamName.COMPUTE,
            duration=self.dur.fwd(m),
            layer=m,
            scratch_bytes=layer.op.workspace_bytes,
            root=self._root,
        )
        r.io = {"op": "fwd", "layer": m, "ins": [], "out": f"fm{m}@r"}
        inst = self._add_buffer(
            _BufferDraft(f"fm{m}@r", layer.out_spec.nbytes, alloc_by=r.tid)
        )
        inst.writers.add(r.tid)
        # register before resolving inputs so diamond-shaped chains reuse it;
        # cycles are impossible because preds are strictly earlier layers
        self._resident[m] = (inst.bid, r.tid)
        for j in layer.preds:
            self._ensure_available(j, r)
            r.io["ins"].append(self._resident[j][0])
        # queue the recompute *before* the needing task: the needing task has
        # not been queued yet (builder appends it after its needs), so a
        # plain append preserves "immediately before first use"
        self._add_task(r)
        self._read(for_task, inst.bid, r.tid)

    def _build_backward(self) -> None:
        g = self.graph
        # seed residency with KEEP maps (their forward instances survive into
        # backward; reader registration extends their lifetime exactly)
        for i in g.classifiable_maps():
            if self.cls.of(i) is MapClass.KEEP:
                self._resident[i] = (f"fm{i}@f", f"F{i}")

        grad_first_writer: dict[int, str] = {}
        for i in range(len(g)):
            cons = [k for k in g.consumers[i] if g[k].op.has_backward]
            if cons:
                grad_first_writer[i] = f"B{max(cons)}"

        for layer in reversed(g.layers):
            i = layer.index
            if not layer.op.has_backward:
                continue
            b = _TaskDraft(
                tid=f"B{i}",
                kind=TaskKind.BWD,
                stream=StreamName.COMPUTE,
                duration=self.dur.bwd(i),
                layer=i,
                scratch_bytes=layer.op.workspace_bytes,
            )
            b.io = {"op": "bwd", "layer": i, "grad_out": f"gr{i}",
                    "grad_ins": [], "fm_ins": {}, "fm_out": None}

            # gradient w.r.t. this layer's output: written by consumers'
            # backward tasks (or self-seeded at the loss head)
            first_writer = grad_first_writer.get(i, b.tid)
            if f"gr{i}" not in self._buffers:
                self._add_buffer(
                    _BufferDraft(f"gr{i}", layer.out_spec.nbytes,
                                 alloc_by=first_writer)
                )
            gbuf = self._buffers[f"gr{i}"]
            gbuf.readers.add(b.tid)
            for k in g.consumers[i]:
                if g[k].op.has_backward:
                    b.deps.add(f"B{k}")
            if first_writer == b.tid:
                gbuf.writers.add(b.tid)
            else:
                b.reads.add(f"gr{i}")

            # gradients this backward produces for its predecessors
            for j in layer.preds:
                if not g[j].op.has_backward:
                    continue  # no gradient flows into INPUT
                if f"gr{j}" not in self._buffers:
                    self._add_buffer(
                        _BufferDraft(f"gr{j}", g[j].out_spec.nbytes,
                                     alloc_by=grad_first_writer[j])
                    )
                self._buffers[f"gr{j}"].writers.add(b.tid)
                b.io["grad_ins"].append(f"gr{j}")

            # feature maps the backward computation reads
            needed: list[int] = []
            if layer.op.bwd_needs_input:
                needed.extend(layer.preds)
            if layer.op.bwd_needs_output:
                needed.append(i)
            self._root = i
            for m in needed:
                self._ensure_available(m, b)
                if m == i:
                    b.io["fm_out"] = self._resident[m][0]
                else:
                    b.io["fm_ins"][m] = self._resident[m][0]

            self._add_task(b)

        upd = _TaskDraft(
            tid="UPD",
            kind=TaskKind.UPDATE,
            stream=StreamName.COMPUTE,
            duration=self.dur.update(),
            layer=-1,
        )
        if self._compute_q:
            upd.deps.add(self._compute_q[-1])
        self._add_task(upd)
        if "params" in self._buffers:
            self._read(upd, "params", None)
            self._read(upd, "pgrads", None)

    # -- policies & finalisation -------------------------------------------------------

    def _apply_swap_in_policy(self) -> None:
        policy = self.opt.policy

        # determine each swap-in's first reader by *position* in the compute
        # queue, not by creation order: a recompute task created later can be
        # queued earlier than the backward task that requested the swap-in
        # (and may itself read the restored instance), and a trigger derived
        # from the later task would deadlock against it
        si_by_out: dict[str, str] = {}
        for tid, t in self._tasks.items():
            if t.kind is TaskKind.SWAP_IN:
                si_by_out[t.io["dst"]] = tid
        first_reader: dict[str, str] = {}
        for tid in self._compute_q:
            for bid in self._tasks[tid].reads:
                si = si_by_out.get(bid)
                if si is not None and si not in first_reader:
                    first_reader[si] = tid

        pos = {tid: n for n, tid in enumerate(self._compute_q)}

        # order the H2D queue by when each restore is first *needed*, not by
        # when it was created: a recompute chain can request its swap-ins in
        # graph order while consuming them in chain order, and a FIFO queue
        # in creation order would then deadlock naive triggers (the head
        # swap-in waiting on a computation that needs a swap-in queued
        # behind it) or prefetch in the wrong order under the eager policy
        def need_position(tid: str) -> int:
            reader = first_reader.get(tid)
            p = pos.get(reader) if reader is not None else None
            return p if p is not None else -1  # input loads and the like first

        self._h2d_q.sort(key=need_position)

        if policy is SwapInPolicy.EAGER:
            headroom = self._auto_headroom()
            for tid in self._si_first_reader:
                self._tasks[tid].headroom = headroom
            return

        for si_tid, reader in first_reader.items():
            si = self._tasks[si_tid]
            p = pos.get(reader)
            if p is None or p == 0:
                continue  # reader is the very first compute task: no trigger
            if policy is SwapInPolicy.NAIVE:
                si.start_deps.add(self._compute_q[p - 1])
            else:  # SUPERNEURONS: nearest preceding conv backward, ungated
                trigger = self._compute_q[p - 1]
                for q in range(p - 1, -1, -1):
                    t = self._tasks[self._compute_q[q]]
                    if (t.kind is TaskKind.BWD
                            and self.graph[t.layer].op.kind is OpKind.CONV):
                        trigger = t.tid
                        break
                si.start_deps.add(trigger)
                si.memory_gated = False
                si.alloc_on_ready = True

    def _auto_headroom(self) -> int:
        """Largest single allocation any backward-phase compute task makes:
        an eager swap-in always leaves room for the next computation."""
        alloc_by: dict[str, int] = {}
        for buf in self._buffers.values():
            if buf.alloc_by is not None and not buf.host:
                alloc_by[buf.alloc_by] = alloc_by.get(buf.alloc_by, 0) + round_size(buf.nbytes)
        worst = 0
        for t in self._tasks.values():
            if t.stream is StreamName.COMPUTE and t.kind in (
                TaskKind.BWD, TaskKind.RECOMPUTE, TaskKind.UPDATE
            ):
                worst = max(worst, alloc_by.get(t.tid, 0) + round_size(t.scratch_bytes))
        return worst

    def build_raw(
        self,
    ) -> tuple[dict[str, _TaskDraft], dict[StreamName, list[str]],
               dict[str, _BufferDraft]]:
        """Construct the schedule in *draft* form: (tasks, queues, buffers).

        The predictor's lone predictions and the search oracle replay these
        drafts directly through :meth:`Engine.replay_draft
        <repro.gpusim.engine.Engine.replay_draft>`, the draft entry point of
        the event loop, skipping ``Task``/``BufferSpec`` finalisation and
        structural validation; the lockstep engine compiles them.
        :meth:`build` layers finalisation and validation on top for
        :class:`~repro.gpusim.engine.Engine`, so both entry points run the
        exact same schedule.
        """
        # persistent parameter and parameter-gradient storage (kept on GPU
        # for the whole run, per §4.1.1)
        params = self.graph.total_param_bytes
        if params:
            self._add_buffer(_BufferDraft("params", params, alloc_by=None))
            self._add_buffer(_BufferDraft("pgrads", params, alloc_by=None))

        self._build_forward()
        self._build_backward()
        self._apply_swap_in_policy()
        return self._tasks, {
            StreamName.COMPUTE: self._compute_q,
            StreamName.H2D: self._h2d_q,
            StreamName.D2H: self._d2h_q,
        }, self._buffers

    def build(self) -> Schedule:
        """Construct and return the validated schedule."""
        self.build_raw()
        return self.finalize()

    def finalize(self) -> Schedule:
        """The validated ``Task``/``BufferSpec`` form of the drafts
        :meth:`build_raw` produced (which must have run first)."""
        tasks = {tid: d.to_task() for tid, d in self._tasks.items()}
        # carry io annotations for the numeric backend
        io = {tid: d.io for tid, d in self._tasks.items() if d.io}
        schedule = Schedule(
            tasks=tasks,
            queues={
                StreamName.COMPUTE: self._compute_q,
                StreamName.H2D: self._h2d_q,
                StreamName.D2H: self._d2h_q,
            },
            buffers={bid: d.to_spec() for bid, d in self._buffers.items()},
            meta={
                "graph": self.graph.name,
                "policy": self.opt.policy.value,
                "classification_counts": {
                    k.value: v for k, v in self.cls.counts().items()
                },
                "io": io,
            },
        )
        schedule.validate()
        return schedule


def build_schedule(
    graph: NNGraph,
    classification: Classification,
    durations: DurationProvider,
    options: ScheduleOptions | None = None,
) -> Schedule:
    """Convenience wrapper around :class:`ScheduleBuilder`."""
    return ScheduleBuilder(graph, classification, durations, options).build()


def _copy_task(t: _TaskDraft) -> _TaskDraft:
    """Shallow task copy with private ``deps``/``reads`` sets (the fields a
    keep-flip rewires); everything else is shared with the base draft."""
    nt = _TaskDraft(
        tid=t.tid, kind=t.kind, stream=t.stream, duration=t.duration,
        layer=t.layer, scratch_bytes=t.scratch_bytes,
        memory_gated=t.memory_gated, headroom=t.headroom,
        alloc_on_ready=t.alloc_on_ready, root=t.root,
    )
    nt.deps = set(t.deps)
    nt.start_deps = t.start_deps
    nt.reads = set(t.reads)
    nt.io = t.io
    return nt


class _DraftEdit:
    """Edits accumulating against one base draft, which is never mutated:
    task and buffer drafts are copied on first write, dropped ids are
    recorded, and the three queues are replaced list by list.  Reads see
    the edited draft."""

    def __init__(self, base_tasks, base_queues, base_buffers) -> None:
        self.base = (base_tasks, base_queues, base_buffers)
        self._base_tasks = base_tasks
        self._base_buffers = base_buffers
        self.tasks: dict[str, _TaskDraft] = {}
        self.buffers: dict[str, _BufferDraft] = {}
        self.dropped_tasks: set[str] = set()
        self.dropped_buffers: set[str] = set()
        self.compute: list[str] = base_queues.get(StreamName.COMPUTE, [])
        self.h2d: list[str] = base_queues.get(StreamName.H2D, [])
        self.d2h: list[str] = base_queues.get(StreamName.D2H, [])

    def task(self, tid: str) -> _TaskDraft | None:
        t = self.tasks.get(tid)
        if t is None and tid not in self.dropped_tasks:
            t = self._base_tasks.get(tid)
        return t

    def own_task(self, tid: str) -> _TaskDraft:
        """The edited draft's task ``tid``, as a private copy."""
        t = self.tasks.get(tid)
        if t is None:
            t = self.tasks[tid] = _copy_task(self._base_tasks[tid])
        return t

    def buffer(self, bid: str) -> _BufferDraft:
        b = self.buffers.get(bid)
        return self._base_buffers[bid] if b is None else b

    def own_buffer(self, bid: str) -> _BufferDraft:
        b = self.buffers.get(bid)
        if b is None:
            b = self._base_buffers[bid]
            nb = _BufferDraft(b.bid, b.nbytes, alloc_by=b.alloc_by,
                              host=b.host)
            nb.writers = set(b.writers)
            nb.readers = set(b.readers)
            b = self.buffers[bid] = nb
        return b

    def drop_task(self, tid: str) -> None:
        self.tasks.pop(tid, None)
        if tid in self._base_tasks:
            self.dropped_tasks.add(tid)

    def drop_buffer(self, bid: str) -> None:
        self.buffers.pop(bid, None)
        if bid in self._base_buffers:
            self.dropped_buffers.add(bid)

    def patch(self) -> DraftPatch:
        return DraftPatch(
            base=self.base, tasks=self.tasks, buffers=self.buffers,
            dropped_tasks=frozenset(self.dropped_tasks),
            dropped_buffers=frozenset(self.dropped_buffers),
            queues={StreamName.COMPUTE: self.compute,
                    StreamName.H2D: self.h2d, StreamName.D2H: self.d2h},
        )


def _flip_keep(edit: _DraftEdit, m: int) -> set[str]:
    """Swap→keep flip of ``m`` (see :func:`apply_recompute_delta`); returns
    the removed transfer tasks, which the caller drops from the queues.

    A keep↔swap flip is local under the builder's semantics (with forward
    re-fetch disabled):

    * the compute queue never changes — keeping a map removes only its
      ``SO{m}``/``SI{m}`` transfer tasks and rewires the backward readers
      of ``fm{m}@b`` onto the surviving forward instance ``fm{m}@f``;
    * the H2D queue order is by first-need *compute position*, which a
      removal leaves intact (Python's sort is stable and no other swap-in's
      first reader moves), and the D2H queue is in forward producer order —
      both reduce to "base order minus the removed tasks";
    * the EAGER auto-headroom reads only backward *compute* allocations
      (gradients, recompute outputs, scratch), none of which a keep/swap
      flip touches, so every surviving swap-in keeps its headroom.
    """
    so, si = f"SO{m}", f"SI{m}"
    fwd_bid, back_bid = f"fm{m}@f", f"fm{m}@b"
    edit.drop_task(so)
    edit.drop_buffer(f"fm{m}@host")
    fb = edit.own_buffer(fwd_bid)
    fb.readers.discard(so)
    if edit.task(si) is None:
        return {so}  # no backward consumer: nothing reads the kept instance
    readers = edit.buffer(back_bid).readers
    edit.drop_task(si)
    edit.drop_buffer(back_bid)
    for rid in readers:
        rt = edit.own_task(rid)
        rt.deps.discard(si)
        rt.deps.add(f"F{m}")
        rt.reads.discard(back_bid)
        rt.reads.add(fwd_bid)
        fb.readers.add(rid)
    return {so, si}


def keep_flip_specs(
    base_tasks: dict[str, _TaskDraft],
    base_buffers: dict[str, _BufferDraft],
    maps,
) -> tuple[KeepFlip, ...]:
    """Declarative :class:`~repro.gpusim.vecengine.KeepFlip` descriptors for
    keep↔swap flips against an all-swap base draft — the exact edge set
    :func:`apply_recompute_delta` rewires for a kept map (see
    :func:`_flip_keep`), so the lockstep vector engine's conditional tables
    describe the same candidate family the event engines replay
    (``tests/test_vecengine.py`` fuzzes the agreement).

    Requires a base built without forward re-fetch: re-fetch swap-ins read
    the host instance a keep flip deletes, which is not a pure edge
    condition.
    """
    specs: list[KeepFlip] = []
    for m in maps:
        so, si = f"SO{m}", f"SI{m}"
        if so not in base_tasks:
            raise ScheduleError(
                f"keep_flip_specs: map {m} is not swapped in the base draft"
            )
        host = base_buffers[f"fm{m}@host"]
        if any(r != si for r in host.readers):
            raise ScheduleError(
                f"keep_flip_specs: map {m} has forward re-fetch readers"
            )
        has_si = si in base_tasks
        specs.append(KeepFlip(
            map_id=m,
            swap_out=so,
            swap_in=si if has_si else None,
            fwd_buffer=f"fm{m}@f",
            fwd_producer=f"F{m}",
            host_buffer=f"fm{m}@host",
            back_buffer=f"fm{m}@b" if has_si else None,
            rewired_readers=(
                tuple(sorted(base_buffers[f"fm{m}@b"].readers))
                if has_si else ()
            ),
        ))
    return tuple(specs)


def apply_recompute_delta(
    base_tasks: dict[str, _TaskDraft],
    base_queues: dict[StreamName, list[str]],
    base_buffers: dict[str, _BufferDraft],
    graph: NNGraph,
    durations: DurationProvider,
    options: ScheduleOptions | None,
    keeps,
    recomputes,
) -> DraftPatch:
    """Patch turning a base draft into the draft of ``all-swap + keeps +
    {m: RECOMPUTE for m in recomputes}`` — the step-2 search hot path,
    where every r(X) probe is the current plan plus one flip, and a
    speculative probe of a later round is one flip of that round's
    predicted plan, itself drafted as one flip of the plan before it.

    The base may be the draft of any plan that reaches the target by
    swap→keep and swap→recompute flips: the all-swap draft (every keep and
    recompute is then a flip; with no recomputes the patch is the keep-only
    draft the step-1 search replays), or the current plan's own draft,
    which already carries its recomputes.  Maps of ``keeps``/``recomputes``
    still swapped in the base are the flips; the base must be built without
    forward re-fetch (``forward_refetch_gap`` must be ``None`` — re-fetch
    segments splice extra forward swap-ins whose interaction with
    recompute chains is not local).  Flips apply one at a time, keeps
    first, each exact against the plan before it.

    A swap→keep flip removes the map's ``SO``/``SI`` pair and rewires the
    readers of ``fm{m}@b`` onto ``fm{m}@f`` (see :func:`_flip_keep`; that
    argument holds with recomputes in the base too).  A swap→recompute
    flip of X is local because a map's backward instance depends only on
    its class — ``fm{m}@f`` kept or retained, ``@b`` swapped, ``@r``
    recomputed — never on when the builder resolves it.  Flipping X
    therefore changes only:

    * X's ``SO``/``SI`` pair and its host and swapped-in buffers, which go;
    * the readers of ``fm{X}@b``, which read ``fm{X}@r`` after ``R{X}``;
    * the backward *root* whose construction first needed X (see
      ``_TaskDraft.root``): its compute segment — the recompute tasks the
      builder queued right before that root's ``B`` task — is rebuilt by
      replaying the builder's resolution of that one root, which now
      splices in the chain of ``R{X}``.  Chain inputs a later root used to
      resolve move into it (their ``R`` tasks leave their old segments),
      and inputs nothing needed before get new ``R`` tasks;
    * the H2D queue, which the builder sorts by first need: its swap-ins
      group by root in root order, so only this root's group is re-sorted
      (moved swap-ins leave their old groups);
    * every swap-in's EAGER auto-headroom, but only when a new ``R`` task
      out-allocates the current one.

    Recompute flips need the EAGER swap-in policy: NAIVE/SUPERNEURONS start
    triggers reference compute positions that a spliced chain shifts all
    over the draft, so a recompute flip under them raises
    :class:`ScheduleError` (the predictor builds those drafts from scratch).

    The patched draft (``.draft``) is task-for-task identical to a fresh
    ``ScheduleBuilder(...).build_raw()`` for the same classification —
    ``tests/test_step2_incremental.py`` asserts exact draft equality across
    the model zoo and ``tests/test_random_graphs.py`` on random DAGs.  The
    base draft is never mutated; stale ``io`` annotations of patched tasks
    are tolerated (draft-replay engines never read ``io``).
    """
    opt = options or ScheduleOptions()
    if opt.forward_refetch_gap is not None:
        raise ScheduleError(
            "apply_recompute_delta requires forward_refetch_gap=None"
        )
    rec_set = set(recomputes)
    keep_set = set(keeps)
    if rec_set & keep_set:
        raise ScheduleError(
            f"maps {sorted(rec_set & keep_set)} are both kept and recomputed"
        )
    edit = _DraftEdit(base_tasks, base_queues, base_buffers)
    # the flips are the target's kept and recomputed maps the base still
    # swaps; its D2H queue holds one swap-out per swapped map, in map order
    swapped = [base_tasks[so].layer for so in edit.d2h]
    flips = [m for m in swapped if m in rec_set]
    if flips and opt.policy is not SwapInPolicy.EAGER:
        raise ScheduleError(
            "apply_recompute_delta flips maps to recompute only under the "
            f"EAGER swap-in policy, not {opt.policy.name}"
        )
    removed: set[str] = set()
    for m in swapped:
        if m in keep_set:
            removed |= _flip_keep(edit, m)
    if removed:
        edit.h2d = [t for t in edit.h2d if t not in removed]
        edit.d2h = [t for t in edit.d2h if t not in removed]
    for m in flips:
        _flip_recompute(edit, m, graph, durations, opt, keep_set, rec_set)
    return edit.patch()


def _flip_recompute(edit: _DraftEdit, x: int, graph: NNGraph,
                    durations: DurationProvider, opt: ScheduleOptions,
                    keep_set: set[int], rec_set: set[int]) -> None:
    """Swap→recompute flip of ``x`` (see :func:`apply_recompute_delta`)."""
    so, si = f"SO{x}", f"SI{x}"
    edit.drop_task(so)
    edit.drop_buffer(f"fm{x}@host")
    edit.own_buffer(f"fm{x}@f").readers.discard(so)
    edit.d2h = list(edit.d2h)
    edit.d2h.remove(so)
    x_si = edit.task(si)
    if x_si is None:
        return  # no backward consumer: nothing to recompute
    r = x_si.root
    b_tid = f"B{r}"

    # where root r's compute segment and H2D group sit before the flip
    compute = edit.compute
    seg_end = compute.index(b_tid)
    seg_start = seg_end
    while (seg_start > 0 and edit.task(compute[seg_start - 1]).kind
           is TaskKind.RECOMPUTE):
        seg_start -= 1
    h2d = edit.h2d
    lo = hi = h2d.index(si)
    while lo > 0 and edit.task(h2d[lo - 1]).root == r:
        lo -= 1
    while hi + 1 < len(h2d) and edit.task(h2d[hi + 1]).root == r:
        hi += 1

    x_readers = edit.buffer(f"fm{x}@b").readers
    edit.drop_task(si)
    edit.drop_buffer(f"fm{x}@b")

    # -- replay root r's resolution (ScheduleBuilder._ensure_available) -----
    # maps resolved by an earlier root (larger layer) stay resident; maps of
    # this root are re-resolved in the new order; maps of a later root that
    # the chain needs now move here
    resolved: dict[int, tuple[str, str]] = {}
    segment: list[str] = []       # the root's compute tasks, in queue order
    group: list[str] = []         # the root's swap-ins, in creation order
    si_readers: dict[str, list[str]] = {}
    moved: set[str] = set()
    new_alloc = 0

    def claim(tid: str, t: _TaskDraft) -> None:
        if t.root != r:  # resolved by a later root before the flip
            edit.own_task(tid).root = r
            moved.add(tid)

    def resolve(m: int, reader: str, new: _TaskDraft | None) -> str:
        hit = resolved.get(m)
        if hit is None:
            hit = resolved[m] = resolve_map(m)
        bid, producer = hit
        if new is not None:  # only new tasks register their reads
            new.reads.add(bid)
            new.deps.add(producer)
            edit.own_buffer(bid).readers.add(reader)
        if producer in si_readers:
            si_readers[producer].append(reader)
        return bid

    def resolve_map(m: int) -> tuple[str, str]:
        if edit.task(f"SO{m}") is not None:  # swapped
            tid = f"SI{m}"
            t = edit.task(tid)
            if t is None:
                raise ScheduleError(
                    f"apply_recompute_delta: swapped map {m} has no swap-in "
                    "in the base draft")
            if t.root <= r:
                claim(tid, t)
                group.append(tid)
                si_readers[tid] = []
            return f"fm{m}@b", tid
        if m in keep_set:
            return f"fm{m}@f", f"F{m}"
        if m not in rec_set and not graph[m].op.recomputable:
            return f"fm{m}@f", f"F{m}"  # retain the forward instance
        tid = f"R{m}"
        t = edit.task(tid)
        if t is not None and t.root > r:
            return f"fm{m}@r", tid
        # register before resolving inputs so diamond-shaped chains reuse it
        resolved[m] = (f"fm{m}@r", tid)
        layer = graph[m]
        if t is None:  # x itself, or a chain input nothing needed before
            nonlocal new_alloc
            t = _TaskDraft(
                tid=tid, kind=TaskKind.RECOMPUTE, stream=StreamName.COMPUTE,
                duration=durations.fwd(m), layer=m,
                scratch_bytes=layer.op.workspace_bytes, root=r,
            )
            t.io = {"op": "fwd", "layer": m, "ins": [], "out": f"fm{m}@r"}
            edit.tasks[tid] = t
            inst = _BufferDraft(f"fm{m}@r", layer.out_spec.nbytes,
                                alloc_by=tid)
            inst.writers.add(tid)
            edit.buffers[inst.bid] = inst
            new_alloc = max(new_alloc, round_size(inst.nbytes)
                            + round_size(t.scratch_bytes))
            for j in layer.preds:
                t.io["ins"].append(resolve(j, tid, t))
        else:
            claim(tid, t)
            for j in layer.preds:
                resolve(j, tid, None)
        segment.append(tid)
        return resolved[m]

    layer = graph[r]
    needed: list[int] = []
    if layer.op.bwd_needs_input:
        needed.extend(layer.preds)
    if layer.op.bwd_needs_output:
        needed.append(r)
    for m in needed:
        resolve(m, b_tid, None)
    segment.append(b_tid)

    # every task that needed x now reads the recomputed instance
    x_inst = edit.buffers[f"fm{x}@r"]
    for rid in x_readers:
        rt = edit.own_task(rid)
        rt.deps.discard(si)
        rt.deps.add(f"R{x}")
        rt.reads.discard(f"fm{x}@b")
        rt.reads.add(f"fm{x}@r")
        x_inst.readers.add(rid)

    # -- splice the rebuilt segment and H2D group ----------------------------
    tail = compute[seg_end + 1:]
    if moved:
        tail = [t for t in tail if t not in moved]
    edit.compute = compute[:seg_start] + segment + tail
    at = {tid: n for n, tid in enumerate(segment)}
    group.sort(key=lambda tid: min(at[rid] for rid in si_readers[tid]))
    tail = h2d[hi + 1:]
    if moved:
        tail = [t for t in tail if t not in moved]
    h2d = edit.h2d = h2d[:lo] + group + tail

    if opt.policy is SwapInPolicy.EAGER and new_alloc > x_si.headroom:
        for tid in h2d:
            if edit.task(tid).kind is TaskKind.SWAP_IN:
                edit.own_task(tid).headroom = new_alloc


def liveness_floor(
    tasks: dict[str, _TaskDraft],
    queues: dict[StreamName, list[str]],
    buffers: dict[str, _BufferDraft],
) -> int:
    """Admissible lower bound on the device peak of *any* execution of a
    draft, from compute-stream liveness alone.

    The compute stream is sequential and FIFO, so when the task at compute
    position ``p`` issues, every device buffer that (a) is allocated by a
    compute task at position <= p and (b) is freed no earlier than the
    completion of some compute task at position >= p is necessarily
    resident — regardless of transfer timing, gating or policy.  Transfer-
    allocated instances (swap-ins) and host buffers are excluded precisely
    because their residency *is* timing-dependent.  The maximum over ``p``
    of that co-resident set (plus ``p``'s own scratch) therefore floors the
    peak of every execution: a draft whose floor exceeds device capacity
    cannot complete and every simulation of it ends in an
    ``OutOfMemoryError``.  Step 2 reads the same bound for "X kept"
    candidates through :class:`LivenessProfile` without drafting them; this
    function is the reference it is tested against.
    """
    return LivenessProfile(tasks, queues, buffers).floor


class LivenessProfile:
    """The liveness sweep of one draft (see :func:`liveness_floor`), kept so
    that the floor of every "same draft with one swapped map kept"
    candidate follows from it in O(that map's backward interval) — step
    2's keep-probe bound, priced once per plan instead of once per probe.

    The derivation is exact, not a further bound, because a swap→keep flip
    of map X (X among :func:`apply_recompute_delta`'s ``keeps``; see
    :func:`_flip_keep`):

    * leaves the compute queue, and therefore every position, unchanged;
    * removes only transfer tasks (``SO``/``SI``, forward re-fetch swap-ins)
      and transfer- or host-allocated buffers, which the sweep ignores;
    * moves every compute reader of ``fm{X}@b`` (and of any forward re-fetch
      instance — forward tasks, so never later than a backward reader) onto
      ``fm{X}@f``.

    So the kept draft's running sum equals this one's plus
    ``round_size(fm{X}@f)`` on ``[lo, hi]``: ``lo`` is the first position
    past ``fm{X}@f``'s current lifetime, ``hi`` the last compute reader of
    ``fm{X}@b``.
    """

    def __init__(
        self,
        tasks: dict[str, _TaskDraft],
        queues: dict[StreamName, list[str]],
        buffers: dict[str, _BufferDraft],
    ) -> None:
        self._tasks = tasks
        self._buffers = buffers
        compute = queues.get(StreamName.COMPUTE, [])
        self._pos = pos = {tid: i for i, tid in enumerate(compute)}
        n = len(compute)
        delta = [0] * (n + 1)
        always_resident = 0
        for b in buffers.values():
            if b.host:
                continue
            size = round_size(b.nbytes)
            if b.alloc_by is None:
                always_resident += size  # preallocated: lives the whole run
                continue
            a = pos.get(b.alloc_by)
            if a is None:
                continue  # transfer-allocated (swap-in instance)
            f = max((pos[t] for t in (b.writers | b.readers) if t in pos),
                    default=-1)
            if f >= a:
                delta[a] += size
                delta[f + 1] -= size
        for i, tid in enumerate(compute):
            scratch = tasks[tid].scratch_bytes
            if scratch:
                delta[i] += round_size(scratch)
                delta[i + 1] -= round_size(scratch)
        #: bytes necessarily device-resident when each compute position's
        #: task issues
        self.running = np.cumsum(np.array(delta[:n], dtype=np.int64))
        self.running += always_resident
        #: :func:`liveness_floor` of the profiled draft itself
        self.floor = max(0, int(self.running.max())) if n else 0

    def _last_pos(self, tids) -> int:
        pos = self._pos
        return max((pos[t] for t in tids if t in pos), default=-1)

    def keep_floor(self, m: int) -> int:
        """:func:`liveness_floor` of the profiled draft with swapped map
        ``m`` flipped to KEEP."""
        if f"SO{m}" not in self._tasks:
            raise ScheduleError(
                f"LivenessProfile: map {m} is not swapped in the profiled draft"
            )
        buffers = self._buffers
        fb = buffers[f"fm{m}@f"]
        a = self._pos.get(fb.alloc_by)
        if a is None:
            return self.floor  # forward instance not compute-allocated
        bb = buffers.get(f"fm{m}@b")
        if bb is None:
            return self.floor  # no backward reader: nothing extends
        hi = self._last_pos(bb.readers)
        lo = max(a, self._last_pos(fb.writers | fb.readers) + 1)
        if hi < lo:
            return self.floor
        extended = int(self.running[lo:hi + 1].max()) + round_size(fb.nbytes)
        return max(self.floor, extended)
