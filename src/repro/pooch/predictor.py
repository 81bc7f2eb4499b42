"""PoocH's internal timeline simulation (§4.1.2).

Given the profile and a candidate classification, the predictor builds the
exact task schedule the runtime would execute and replays it through the
event engine using the *profiled* durations.  The paper motivates this with
the observation that execution time cannot be expressed as a simple linear
formula because of pipelining and data dependencies — so PoocH predicts by
simulation instead.  Because our ground truth is itself the same engine (with
cost-model durations), a jitter-free profile makes predictions exact; the
extensive tests rely on that property, and the jitter knob restores the
realistic predicted≈measured gap.

Predictions are memoized on the classification key — the classifier's
searches re-visit many identical candidates.  The hot path replays draft
schedules through :class:`~repro.gpusim.fastengine.FastEngine` (bit-identical
makespans, no timeline records); :meth:`TimelinePredictor.timeline` re-runs
the full engine on demand when records or memory traces are actually needed.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.common.errors import OutOfMemoryError, ScheduleError
from repro.graph import NNGraph
from repro.gpusim import Engine, RunResult
from repro.gpusim.fastengine import _STREAM_ORDER, EngineCheckpoint, FastEngine
from repro.gpusim.vecengine import VectorEngine, VectorTables, VectorUnsupported
from repro.hw import MachineSpec
from repro.runtime.plan import Classification, MapClass, SwapInPolicy
from repro.runtime.profiler import Profile
from repro.runtime.schedule import (
    LivenessProfile,
    ScheduleBuilder,
    ScheduleOptions,
    apply_keep_delta,
    apply_recompute_delta,
    build_schedule,
    keep_flip_specs,
    # not called here (LivenessProfile derives keep-probe floors); the
    # oracle stays bound in this namespace, where benchmarks/e2e traces it
    liveness_floor,  # noqa: F401
)


def _buffers_equal(a, b) -> bool:
    """Engine-visible equality of two buffer drafts (identity, placement,
    and the writers|readers union that drives the free countdown).  Test
    validator: ``tests/test_search_pruning.py`` uses it to assert delta
    drafts equal freshly built ones."""
    return (
        a.bid == b.bid and a.nbytes == b.nbytes and a.host == b.host
        and a.alloc_by == b.alloc_by and a.writers == b.writers
        and a.readers == b.readers
    )


def _tasks_equal(a, b, allocs_a, allocs_b) -> bool:
    """Engine-visible equality of two task drafts at the same queue position
    (kind/layer/io are ignored: the replay engine never reads them).  Test
    validator, like :func:`_buffers_equal`."""
    if (
        a.duration != b.duration
        or a.scratch_bytes != b.scratch_bytes
        or a.memory_gated != b.memory_gated
        or a.headroom != b.headroom
        or a.alloc_on_ready != b.alloc_on_ready
        or a.deps != b.deps
        or a.start_deps != b.start_deps
        or len(allocs_a) != len(allocs_b)
    ):
        return False
    for x, y in zip(allocs_a, allocs_b):
        if not _buffers_equal(x, y):
            return False
    return True


class _Reference:
    """One previously simulated keep/swap/recompute candidate plus the
    checkpoints its replay recorded — the prefix future candidates try to
    resume from.

    The compute divergence against a new candidate is derived from the
    shared all-swap base draft in O(flipped maps); the transfer queues
    (order-perturbed by recompute chains) are compared directly by longest
    common prefix, which is exact because every same-id transfer task has
    identical engine-visible effects in both schedules (swap-in headroom,
    the one exception, is guarded by :attr:`hr`)."""

    __slots__ = ("keeps", "recs", "hr", "ins_c", "queues", "checkpoints")

    def __init__(self, keeps: frozenset, recs: frozenset, hr: int,
                 ins_c: list[int], queues: list[list[str]],
                 checkpoints: list[EngineCheckpoint]) -> None:
        self.keeps = keeps
        self.recs = recs
        #: the swap-in headroom this reference's draft carries (EAGER
        #: auto-headroom grows when recompute tasks allocate more than any
        #: backward task); candidates with a different value never share a
        #: prefix because every swap-in's issue decision differs
        self.hr = hr
        #: sorted base-coordinate insertion points of the recompute tasks
        #: this reference spliced into the compute queue — the offsets that
        #: translate base compute positions into its own coordinates
        self.ins_c = ins_c
        #: the reference's own per-stream queues (shared with its draft,
        #: treated immutable) in ``_STREAM_ORDER`` — the LCP operands
        self.queues = queues
        self.checkpoints = checkpoints


_EMPTY: list = []
_NO_DIVERGENCE = 1 << 60  # sentinel: streams agree on the whole queue


@dataclass(frozen=True)
class PredictedOutcome:
    """Result of simulating one candidate classification."""

    feasible: bool
    time: float  # predicted iteration time; +inf when infeasible
    peak_memory: int  # predicted GPU peak (0 when infeasible)
    oom_context: str = ""  # which task hit the wall, for diagnostics

    @property
    def infeasible(self) -> bool:
        return not self.feasible


class TimelinePredictor:
    """Simulates candidate classifications from a :class:`Profile`."""

    def __init__(
        self,
        graph: NNGraph,
        profile: Profile,
        machine: MachineSpec,
        policy: SwapInPolicy = SwapInPolicy.EAGER,
        capacity_margin: int = 0,
        forward_refetch_gap: int | None = None,
    ) -> None:
        self.graph = graph
        self.profile = profile
        self.machine = machine
        #: bytes subtracted from the device capacity during prediction —
        #: plans are then chosen to leave this much slack, which buys
        #: robustness against allocator fragmentation the counting model
        #: does not see (see the fragmentation ablation benchmark)
        self.capacity_margin = capacity_margin
        self.policy = policy
        self.forward_refetch_gap = forward_refetch_gap
        self.options = ScheduleOptions(policy=policy,
                                       forward_refetch_gap=forward_refetch_gap)
        self._durations = profile.durations()
        self._cache: dict[tuple, PredictedOutcome] = {}
        self._full_cache: dict[tuple, RunResult] = {}
        #: simulations actually executed (cache misses) — the classifier's
        #: search-cost metric.  Outcomes absorbed from lockstep sweeps via
        #: :meth:`absorb` count too: the simulation ran, just batched.
        #: Resumed replays count exactly like full ones, so this number —
        #: and therefore budget truncation and the chosen plan — does not
        #: depend on how a simulation was carried out.
        self.simulations = 0
        #: of the local (non-absorbed) simulations, how many replayed from
        #: time zero vs. resumed from a shared-prefix checkpoint
        self.full_simulations = 0
        self.resumed_simulations = 0
        #: memo-cache hits inside :meth:`predict` — with the search's
        #: revisit-heavy candidate streams this dwarfs ``simulations``
        self.cache_hits = 0
        #: references share their queue lists with the drafts they came
        #: from, and compute-front matching is O(flipped maps), so a deeper
        #: window costs almost nothing
        self._refs: deque[_Reference] = deque(maxlen=16)
        #: all-swap base draft, built lazily on the first delta-eligible
        #: simulation
        self._base: tuple | None = None
        #: per-map divergence positions and the recompute fronts below —
        #: the resume index, built on first use by :meth:`_ensure_fronts`
        #: (only a resumed replay reads it, so a lone verification
        #: :meth:`predict` never pays for it)
        self._div: dict[int, tuple[int, int, int]] | None = None
        #: earliest compute position at which *recomputing* a map becomes
        #: engine-visible (its forward buffer now dies mid-forward, and its
        #: chain touches producer buffers), plus the reverse chain-closure
        #: index used to detect when a flip elsewhere re-shapes the chain
        #: of a recompute both schedules share
        self._rdiv_c: dict[int, int] = {}
        self._rev: dict[int, list[int]] = {}
        #: liveness profile of the last plan :meth:`provably_infeasible`
        #: was asked about, keyed by that plan's classification key
        self._profile: tuple[tuple, LivenessProfile] | None = None
        #: the last :func:`apply_keep_delta` result, keyed by its keep set:
        #: step 2's probes all share the step-1 keeps, so its recompute
        #: drafts patch one memoized keep draft instead of rebuilding it
        self._keep_draft: tuple[frozenset, tuple] | None = None
        #: lockstep sweeps run and candidate rows swept (includes rows the
        #: caller speculated on and discarded; absorbed-sim accounting is
        #: the classifier's ``SearchStats.sims_vectorized``)
        self.vector_sweeps = 0
        self.vector_candidates = 0
        self._vec_engine: VectorEngine | None = None
        self._flip_index: dict[int, int] | None = None
        #: the draft family proved inexpressible (non-EAGER triggers,
        #: forward re-fetch, host+device allocating tasks, ...) — every
        #: later batch request falls back to the event engine
        self._vec_failed = False

    def predict(self, classification: Classification) -> PredictedOutcome:
        """Predicted iteration time and feasibility for a candidate plan."""
        key = classification.key()
        hit = self._cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            return hit
        self.simulations += 1
        outcome = self._simulate(classification)
        self._cache[key] = outcome
        return outcome

    def cached(self, classification: Classification) -> PredictedOutcome | None:
        """Cache lookup without simulating (and without counting a miss)."""
        return self._cache.get(classification.key())

    def provably_infeasible(self, current: Classification, x: int) -> bool:
        """True when ``current`` with its swapped map ``x`` kept provably
        cannot run: that candidate's compute-stream liveness floor
        (:func:`~repro.runtime.schedule.liveness_floor`) exceeds device
        capacity, so every simulation of it ends in OOM and :meth:`predict`
        could only return an infeasible outcome.  Step 2 uses this to skip
        keep probes whose only possible answer is "infeasible".

        The floor is derived, not drafted: ``current``'s liveness profile
        is built once (one draft per plan, cached on its key) and each
        "x kept" floor follows from it exactly in O(x's backward interval)
        — see :class:`~repro.runtime.schedule.LivenessProfile`."""
        key = current.key()
        if self._profile is None or self._profile[0] != key:
            tasks, queues, buffers, _keeps, _recs = self._sim_draft(current)
            self._profile = (key, LivenessProfile(tasks, queues, buffers))
        capacity = self.machine.usable_gpu_memory - self.capacity_margin
        return self._profile[1].keep_floor(x) > capacity

    def drift(self, classification: Classification, measured: float) -> float:
        """Relative deviation of a *measured* makespan from this predictor's
        prediction for the plan — the signal :class:`~repro.pooch.dynamic.
        DynamicPoocH` watches to decide the profile has gone stale."""
        predicted = self.predict(classification).time
        if predicted <= 0.0:
            return 0.0
        return abs(measured - predicted) / predicted

    def absorb(self, key: tuple, outcome: PredictedOutcome) -> bool:
        """Install an outcome computed elsewhere (a vectorized sweep) under
        ``key``, with the same miss accounting as a local simulation.
        Returns True when the outcome was new (and was therefore counted as
        a simulation)."""
        if key not in self._cache:
            self.simulations += 1
            self._cache[key] = outcome
            return True
        return False

    # -- vectorized batch prediction ---------------------------------------------
    #
    # Every step-1 candidate (and step 2's keep probes while no recompute
    # flip has been accepted yet) is "all-swap plus a keep set" — exactly
    # the flip family the lockstep vector engine expresses.  One compile of
    # the all-swap base draft serves every sweep; outcomes are bit-identical
    # to FastEngine replays of the same candidates (tests/test_vecengine.py
    # fuzzes that), so callers may install them in the memo cache via
    # :meth:`absorb` without changing any result.

    def _ensure_vec(self) -> VectorEngine | None:
        """Compile the keep-flip vector family once; None when the draft
        family is not expressible (the caller then uses the serial
        event-engine path, candidate by candidate)."""
        if self._vec_engine is not None:
            return self._vec_engine
        if self._vec_failed:
            return None
        if self.forward_refetch_gap is not None:
            # re-fetch swap-ins read the host instance a keep flip deletes —
            # not a pure edge condition (keep_flip_specs would refuse too)
            self._vec_failed = True
            return None
        try:
            self._ensure_base()
            tasks, queues, buffers = self._base
            maps = sorted(self.graph.classifiable_maps())
            flips = keep_flip_specs(tasks, buffers, maps)
            tables = VectorTables(
                tasks, queues, buffers,
                self.machine.usable_gpu_memory - self.capacity_margin,
                self.machine.host_swap_capacity, flips,
            )
        except (VectorUnsupported, ScheduleError):
            self._vec_failed = True
            return None
        self._flip_index = {f.map_id: i for i, f in enumerate(flips)}
        self._vec_engine = VectorEngine(tables)
        return self._vec_engine

    def vector_flip_index(self) -> dict[int, int] | None:
        """Map id → keep-matrix column of the compiled flip family, or None
        when vectorization is unavailable for this predictor."""
        if self._ensure_vec() is None:
            return None
        return self._flip_index

    def predict_keep_batch(
        self, keep: np.ndarray
    ) -> list[PredictedOutcome | None] | None:
        """Simulate K pure keep/swap candidates in one lockstep sweep.

        ``keep`` is a (K, n_flips) bool matrix over :meth:`vector_flip_index`
        columns.  Returns one outcome per row, positionally — the memo cache
        and simulation counters are *not* touched, so callers can speculate
        freely and :meth:`absorb` only the outcomes they actually consume.
        A row is None when its replay ended in a non-OOM engine error (the
        serial path raises those; the caller must re-predict serially so the
        exception propagates identically).  The whole call returns None when
        vectorization is unavailable.
        """
        engine = self._ensure_vec()
        if engine is None:
            return None
        outs = engine.run_batch(keep)
        self.vector_sweeps += 1
        self.vector_candidates += len(outs)
        results: list[PredictedOutcome | None] = []
        for o in outs:
            if o.error is None:
                results.append(PredictedOutcome(
                    feasible=True, time=o.makespan,
                    peak_memory=o.device_peak,
                ))
            elif isinstance(o.error, OutOfMemoryError):
                results.append(PredictedOutcome(
                    feasible=False, time=float("inf"), peak_memory=0,
                    oom_context=o.error.context,
                ))
            else:
                results.append(None)
        return results

    def sim_signature(self) -> str:
        """Identity of everything (besides graph and machine) an outcome of
        this predictor depends on — the :class:`~repro.runtime.plan_io.PlanCache`
        key for sharing outcomes across runs."""
        from repro.runtime.plan_io import profile_signature

        return (
            f"{profile_signature(self.profile)};policy={self.policy.value};"
            f"margin={self.capacity_margin};gap={self.forward_refetch_gap}"
        )

    def export_outcomes(self) -> dict[tuple, dict]:
        """The memo cache as JSON-ready dicts (for :class:`PlanCache`)."""
        return {
            k: {
                "feasible": o.feasible,
                "time": o.time,
                "peak_memory": o.peak_memory,
                "oom_context": o.oom_context,
            }
            for k, o in self._cache.items()
        }

    def preload_outcomes(self, entries: dict[tuple, dict]) -> int:
        """Warm-start the memo cache from exported entries; returns how many
        were new.  Preloaded entries are cache hits — they do not count as
        simulations."""
        loaded = 0
        for k, d in entries.items():
            if k in self._cache:
                continue
            self._cache[k] = PredictedOutcome(
                feasible=bool(d["feasible"]),
                time=float(d["time"]),
                peak_memory=int(d["peak_memory"]),
                oom_context=str(d.get("oom_context", "")),
            )
            loaded += 1
        return loaded

    def timeline(self, classification: Classification) -> RunResult:
        """Full predicted timeline (records, memory trace) for a feasible
        plan; used by the overlap analysis and the examples.

        Runs the *full* engine (the fast path keeps no records), caching the
        result per classification key.
        """
        key = classification.key()
        hit = self._full_cache.get(key)
        if hit is not None:
            return hit
        outcome = self.predict(classification)
        if not outcome.feasible:
            raise OutOfMemoryError(
                f"classification is predicted infeasible ({outcome.oom_context})"
            )
        schedule = build_schedule(
            self.graph, classification, self._durations, self.options
        )
        engine = Engine(
            schedule,
            device_capacity=self.machine.usable_gpu_memory - self.capacity_margin,
            host_capacity=self.machine.host_swap_capacity,
            validate=False,
        )
        result = engine.run()
        self._full_cache[key] = result
        return result

    def draft(self, classification: Classification) -> tuple[dict, dict, dict]:
        """Raw (tasks, queues, buffers) draft for a candidate — the
        classifier's lower-bound precomputation reads queue orders,
        durations and dependencies from it."""
        builder = ScheduleBuilder(
            self.graph, classification, self._durations, self.options,
            validate=False,
        )
        return builder.build_raw()

    # -- incremental replay -------------------------------------------------------
    #
    # Candidates in the classifier's searches differ from one another only
    # in which maps they keep (step 1) or additionally recompute (step 2),
    # so both the *draft* and the *replay* of a candidate are mostly shared
    # work:
    #
    # * drafts are produced by patching the all-swap base draft
    #   (:func:`apply_keep_delta`, then :func:`apply_recompute_delta`) in
    #   O(affected region) instead of rebuilding the whole schedule;
    # * replays resume from a checkpoint of a recent reference run.  Where
    #   the two schedules first diverge on the compute stream is *derived*,
    #   not discovered: each map's flip perturbs the base queue at
    #   precomputed positions (``_ensure_fronts``), so the front of any
    #   candidate/reference pair is the minimum of those positions over the
    #   flips distinguishing them — O(|difference|) per reference.  The
    #   transfer queues, which recompute chains reorder, are compared by
    #   exact longest common prefix instead.
    #
    # Budget accounting is untouched — a resumed replay is still one
    # simulation — so plans are bit-identical to from-scratch replays.

    def _ensure_base(self) -> None:
        """Build the all-swap base draft once — what every delta draft is
        patched from and the vector engine compiles.  The resume index
        derived from it is built separately (:meth:`_ensure_fronts`)."""
        if self._base is not None:
            return
        self._base = ScheduleBuilder(
            self.graph, Classification.all_swap(self.graph),
            self._durations, self.options, validate=False,
        ).build_raw()

    def _ensure_fronts(self) -> None:
        """Build the resume index once, from the base draft: the per-map
        divergence positions ``_div[m] = (compute, d2h, h2d)`` — the
        earliest queue position on each stream at which a schedule that
        keeps ``m`` becomes distinguishable from one that swaps it (task
        removed, dependency rewired, or a buffer's free time moved) — plus
        the recompute fronts ``_rdiv_c`` and chain-closure index ``_rev``."""
        if self._div is not None:
            return
        self._ensure_base()
        tasks, queues, buffers = self._base
        pos_c, pos_d, pos_h = (
            {tid: i for i, tid in enumerate(queues.get(s, _EMPTY))}
            for s in _STREAM_ORDER
        )
        div: dict[int, tuple[int, int, int]] = {}
        for m in self.graph.classifiable_maps():
            so, si = f"SO{m}", f"SI{m}"
            d_pos = pos_d[so]
            if si in tasks:
                # keeping m rewires the backward readers of fm{m}@b onto
                # the forward instance: first such reader is the compute
                # divergence
                c_pos = min(pos_c[r] for r in buffers[f"fm{m}@b"].readers)
                h_pos = pos_h[si]
            else:  # no backward consumer: the flip only moves the *free*
                # of fm{m}@f, observable after its last forward accessor
                c_pos = self._max_fwd(pos_c, m)
                h_pos = _NO_DIVERGENCE
            div[m] = (c_pos, d_pos, h_pos)
        # -- recompute divergence fronts -------------------------------------
        # Recomputing m perturbs the timeline much earlier than keeping it:
        # fm{m}@f loses its swap-out reader and dies right after its last
        # forward accessor, so the device-memory state diverges mid-forward.
        # The chain R{m} splices also re-touch producer buffers — transitively
        # through every recomputable producer the chain may re-run — moving
        # their frees and swap-ins.  ``rdiv_c[m]`` is the conservative
        # earliest compute position over all of that; ``rev[j]`` lists the
        # recomputable maps whose chain *may* contain j, so a flip of j
        # invalidates the shared region of any schedule pair that recomputes
        # one of them on both sides (the chain shape depends on j's class).
        rdiv_c: dict[int, int] = {}
        rev: dict[int, list[int]] = {}
        for m in div:
            if not self.graph[m].op.recomputable:
                continue
            front = min(self._max_fwd(pos_c, m), div[m][0])
            seen = {m}
            stack = list(self.graph[m].preds)
            while stack:
                j = stack.pop()
                if j in seen:
                    continue
                seen.add(j)
                if j in div:  # classifiable producer: chain stops here, but
                    # its buffer gains a reader (its free moves later)
                    front = min(front, div[j][0])
                    rev.setdefault(j, []).append(m)
                    if self.graph[j].op.recomputable:
                        # ...unless j is itself classified RECOMPUTE, in
                        # which case the chain recurses through it
                        stack.extend(self.graph[j].preds)
                elif self.graph[j].op.recomputable:
                    # unclassified regenerable producer: always re-run by
                    # the chain, contributes only through its own inputs
                    stack.extend(self.graph[j].preds)
                else:  # unclassified, not regenerable: the chain extends
                    # the lifetime of a forward buffer the base frees
                    # mid-forward
                    front = min(front, self._max_fwd(pos_c, j))
            rdiv_c[m] = front
        self._div = div
        self._rdiv_c = rdiv_c
        self._rev = rev

    def _max_fwd(self, pos_c: dict[str, int], m: int) -> int:
        """Compute position of the last forward accessor of ``fm{m}`` — the
        point at which the base frees the buffer when nothing later reads
        it."""
        ids = [f"F{m}"] + [f"F{k}" for k in self.graph.consumers[m]]
        return max((pos_c[t] for t in ids if t in pos_c), default=0)

    def _sim_draft(self, classification: Classification):
        """(tasks, queues, buffers, keeps, recs) draft for one simulation.

        Pure keep/swap candidates (the entire step-1 tree) go through the
        keep-delta path; keep/swap/recompute candidates (step 2's r(X)
        probes) additionally run :func:`apply_recompute_delta` when the
        swap-in policy is EAGER (the only policy whose swap-in issue logic
        is position-free, which the recompute-aware resume fronts rely on —
        it is also the only checkpointable one in practice).  Everything
        else — forward re-fetch, non-EAGER recompute — falls back to a full
        build with ``keeps``/``recs`` None, which also opts the replay out
        of checkpoint/resume."""
        if self.forward_refetch_gap is None:
            keeps: list[int] = []
            recs: list[int] = []
            pure = True
            for m, cls in classification.classes.items():
                if cls is MapClass.KEEP:
                    keeps.append(m)
                elif cls is MapClass.RECOMPUTE:
                    recs.append(m)
                elif cls is not MapClass.SWAP:
                    pure = False
                    break
            if recs and self.policy is not SwapInPolicy.EAGER:
                pure = False
            if pure:
                kept = frozenset(keeps)
                memo = self._keep_draft
                if memo is not None and memo[0] == kept:
                    tasks, queues, buffers = memo[1]
                else:
                    self._ensure_base()
                    tasks, queues, buffers = apply_keep_delta(
                        self._base[0], self._base[1], self._base[2], keeps
                    )
                    self._keep_draft = (kept, (tasks, queues, buffers))
                if recs:
                    tasks, queues, buffers = apply_recompute_delta(
                        tasks, queues, buffers,
                        self.graph, self._durations, self.options,
                        keeps, recs,
                    )
                return tasks, queues, buffers, kept, frozenset(recs)
        tasks, queues, buffers = self.draft(classification)
        return tasks, queues, buffers, None, None

    @staticmethod
    def _lcp(a: list[str], b: list[str]) -> int:
        """Longest-common-prefix front of two task-id queues: the first
        position whose task differs (a missing tail counts as differing),
        or the no-divergence sentinel when the queues are identical."""
        n = min(len(a), len(b))
        i = 0
        while i < n and a[i] == b[i]:
            i += 1
        if i == len(a) == len(b):
            return _NO_DIVERGENCE
        return i

    def _divergence(self, ref: _Reference, keeps: frozenset,
                    recs: frozenset, cand_queues):
        """First-divergence position per stream between a candidate and
        ``ref``, in the *reference's* queue coordinates.

        The compute front is derived from the precomputed per-map
        positions: keep flips perturb at their first backward reader,
        recompute flips at their (much earlier) ``_rdiv_c`` front, and a
        recompute *shared* by both schedules still perturbs when some
        flipped map sits inside its chain closure (the chain resolves that
        map differently on each side).  Base positions translate into the
        reference's coordinates by counting its recompute-task insertions.
        The transfer-queue fronts are exact longest common prefixes —
        recompute chains reorder swap-ins, so positional translation no
        longer applies there."""
        self._ensure_fronts()
        div = self._div
        rdiv = self._rdiv_c
        f = _NO_DIVERGENCE
        keep_flips = keeps ^ ref.keeps
        rec_flips = recs ^ ref.recs
        for m in keep_flips:
            c = div[m][0]
            if c < f:
                f = c
        for m in rec_flips:
            c = rdiv[m]
            if c < f:
                f = c
        shared = recs & ref.recs
        if shared:
            rev = self._rev
            for j in keep_flips | rec_flips:
                for x in rev.get(j, _EMPTY):
                    if x in shared and rdiv[x] < f:
                        f = rdiv[x]
        if f < _NO_DIVERGENCE:
            f += bisect_left(ref.ins_c, f)
        pd = self._lcp(ref.queues[1], cand_queues[1])
        ph = self._lcp(ref.queues[2], cand_queues[2])
        return f, pd, ph

    @staticmethod
    def _checkpoint_valid(cp: EngineCheckpoint, front, tasks,
                          cand_queues) -> bool:
        """Whether ``cp`` is a state the candidate's own run would also have
        reached: every cursor inside the shared prefix, and a cursor parked
        exactly at the divergence only if the candidate's task there was
        genuinely blocked at the checkpoint (else the candidate would have
        issued it earlier)."""
        for s, c in enumerate(cp.cursors):
            if c < front[s]:
                continue
            if c > front[s]:
                return False
            q = cand_queues[s]
            if c >= len(q):
                continue  # candidate stream exhausted at the divergence
            head = tasks[q[c]]
            if head.deps <= cp.completed_set() and (
                not head.start_deps or head.start_deps <= cp.started_set()
            ):
                return False  # head could have issued before the checkpoint
        return True

    def _best_resume(self, keeps: frozenset, recs: frozenset, hr: int,
                     tasks, cand_queues):
        """Deepest valid checkpoint across recent references, plus every
        shallower valid checkpoint of the same reference (those are genuine
        states of *this* candidate's run, so the new reference inherits
        them).  References whose swap-in headroom differs share no prefix
        at all (every swap-in's issue decision changes) and are skipped."""
        best: list[EngineCheckpoint] = []
        for ref in self._refs:
            if not ref.checkpoints or ref.hr != hr:
                continue
            front = self._divergence(ref, keeps, recs, cand_queues)
            valid = [cp for cp in ref.checkpoints
                     if self._checkpoint_valid(cp, front, tasks, cand_queues)]
            if valid and (not best
                          or valid[-1].progress > best[-1].progress):
                best = valid
        return best

    def _record_ref(self, keeps: frozenset, recs: frozenset, hr: int,
                    queues: list[list[str]],
                    checkpoints: list[EngineCheckpoint]) -> None:
        if not checkpoints:
            return
        # base-coordinate insertion points of the candidate's recompute
        # tasks: a single pointer walk, since the delta only ever *inserts*
        # into the base compute order, never removes or reorders
        ins_c: list[int] = []
        if recs:
            base_c = self._base[1].get(_STREAM_ORDER[0], _EMPTY)
            i = 0
            for tid in queues[0]:
                if i < len(base_c) and tid == base_c[i]:
                    i += 1
                else:
                    ins_c.append(i)
        self._refs.appendleft(
            _Reference(keeps, recs, hr, ins_c, queues, checkpoints)
        )

    def _simulate(self, classification: Classification) -> PredictedOutcome:
        """One uncached simulation through the fast draft-replay path,
        resuming from a shared-prefix checkpoint when one is valid."""
        tasks, queues, buffers, keeps, recs = self._sim_draft(classification)
        engine = FastEngine(
            tasks, queues, buffers,
            device_capacity=self.machine.usable_gpu_memory - self.capacity_margin,
            host_capacity=self.machine.host_swap_capacity,
        )
        resume: EngineCheckpoint | None = None
        inherited: list[EngineCheckpoint] = []
        checkpoint_every = 0
        cand_queues: list[list[str]] = []
        hr = 0
        if keeps is not None and engine.checkpointable:
            # fine grid: capture is O(in-flight), so dense marks are cheap
            # and let siblings resume right at their divergence front
            checkpoint_every = max(8, len(tasks) // 24)
            cand_queues = [queues.get(s, _EMPTY) for s in _STREAM_ORDER]
            # the auto-headroom every swap-in carries (recompute scratch can
            # raise it above the base's) — part of the resume-compatibility
            # key, see _Reference.hr
            hr = max((t.headroom for t in tasks.values() if t.headroom),
                     default=0)
            inherited = self._best_resume(keeps, recs, hr, tasks, cand_queues)
            if inherited:
                resume = inherited[-1]
        if resume is not None:
            self.resumed_simulations += 1
        else:
            self.full_simulations += 1
        try:
            makespan, device_peak, _host_peak = engine.run(
                checkpoint_every=checkpoint_every, resume_from=resume
            )
        except OutOfMemoryError as e:
            if checkpoint_every:
                self._record_ref(keeps, recs, hr, cand_queues,
                                 inherited + engine.checkpoints)
            return PredictedOutcome(
                feasible=False, time=float("inf"), peak_memory=0,
                oom_context=e.context,
            )
        if checkpoint_every:
            self._record_ref(keeps, recs, hr, cand_queues,
                             inherited + engine.checkpoints)
        return PredictedOutcome(
            feasible=True, time=makespan, peak_memory=device_peak
        )
