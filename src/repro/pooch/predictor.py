"""PoocH's internal timeline simulation (§4.1.2).

Given the profile and a candidate classification, the predictor builds the
exact task schedule the runtime would execute and replays it through the
event engine using the *profiled* durations.  The paper motivates this with
the observation that execution time cannot be expressed as a simple linear
formula because of pipelining and data dependencies — so PoocH predicts by
simulation instead.  Because our ground truth is itself the same engine (with
cost-model durations), an unperturbed profile makes predictions exact; the
extensive tests rely on that property, and the fault layer's
``profile_noise`` restores the realistic predicted≈measured gap.

Predictions are memoized on the classification key, the bit masks
``(keep, recompute)`` of :meth:`Classification.key
<repro.runtime.plan.Classification.key>`: one key space for step 1's
keep-mask candidates (which never become classifications), step 2's
probes, plan-cache re-verification, donor plans and fallback chains.
The search's candidates run in batched lockstep sweeps
(:mod:`repro.gpusim.vecengine`); a lone
:meth:`TimelinePredictor.predict` miss replays its draft through
:meth:`Engine.replay_draft <repro.gpusim.engine.Engine.replay_draft>`, the
draft entry point of the one event loop (no validation, no timeline
records).

A predictor simulates under the :class:`~repro.pooch.config.PoochConfig`
it is built from: that config's schedule options and its planning capacity
(usable device memory less the capacity margin), derived once.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from repro.common.errors import OutOfMemoryError, ScheduleError
from repro.graph import NNGraph
from repro.gpusim import Engine
from repro.gpusim.vecengine import (
    DraftPatch,
    VariantTables,
    VectorEngine,
    VectorTables,
    VectorUnsupported,
)
from repro.hw import MachineSpec
from repro.pooch.config import PoochConfig
from repro.runtime.plan import Classification, SwapInPolicy
from repro.runtime.profiler import Profile
from repro.runtime.schedule import (
    LivenessProfile,
    ScheduleBuilder,
    apply_recompute_delta,
    keep_flip_specs,
)
# not called here; stays bound because benchmarks/e2e/trace.py hooks
# this name in this namespace
from repro.runtime.schedule import build_schedule  # noqa: F401


@dataclass(frozen=True)
class PredictedOutcome:
    """Result of simulating one candidate classification."""

    feasible: bool
    time: float  # predicted iteration time; +inf when infeasible
    peak_memory: int  # predicted GPU peak (0 when infeasible)
    oom_context: str = ""  # which task hit the wall, for diagnostics


class TimelinePredictor:
    """Simulates candidate classifications from a :class:`Profile`."""

    def __init__(
        self,
        graph: NNGraph,
        profile: Profile,
        machine: MachineSpec,
        config: PoochConfig | None = None,
    ) -> None:
        self.graph = graph
        self.profile = profile
        self.machine = machine
        self.config = config or PoochConfig()
        self.options = self.config.options
        #: device bytes a simulated plan may use: the config's capacity
        #: margin is left free, which buys robustness against allocator
        #: fragmentation the counting model does not see (see the
        #: fragmentation ablation benchmark)
        self.capacity = machine.usable_gpu_memory - self.config.capacity_margin
        self._durations = profile.durations()
        #: the memo cache, keyed on ``(keep mask, recompute mask)``
        self._cache: dict[tuple[int, int], PredictedOutcome] = {}
        #: simulations actually executed (cache misses) — the classifier's
        #: search-cost metric.  Outcomes absorbed from lockstep sweeps via
        #: :meth:`absorb` count too: the simulation ran, just batched, so
        #: this number — and therefore budget truncation and the chosen
        #: plan — does not depend on how a simulation was carried out.
        self.simulations = 0
        #: memo-cache hits inside :meth:`predict` — with the search's
        #: revisit-heavy candidate streams this dwarfs ``simulations``
        self.cache_hits = 0
        #: all-swap base draft, built lazily on the first delta-eligible
        #: simulation: every draft the current plan's does not reach is a
        #: patch of it
        self._base: tuple | None = None
        #: liveness profile of the last plan :meth:`provably_infeasible`
        #: was asked about, keyed by that plan's classification key
        self._profile: tuple[tuple[int, int], LivenessProfile] | None = None
        #: (keep mask, recompute mask, draft) of the last plan
        #: :meth:`provably_infeasible` was asked about — step 2's current
        #: plan, whose probes are patches of this draft
        self._plan: tuple[int, int, tuple] | None = None
        #: lockstep sweeps run and candidate rows swept (includes rows the
        #: caller speculated on and discarded; absorbed-sim accounting is
        #: the classifier's ``SearchStats.sims_vectorized``)
        self.vector_sweeps = 0
        self.vector_candidates = 0
        #: wall seconds inside :meth:`predict_keep_batch` (step 1's sweeps)
        self.keep_sweep_s = 0.0
        self._vec_engine: VectorEngine | None = None
        self._flip_index: dict[int, int] | None = None
        #: variant-family work (step 2's sweeps): wall seconds compiling
        #: (drafting the patches, tables) and sweeping, rows swept, and the
        #: tasks those rows' patches add, replace or drop
        self.variant_compile_s = 0.0
        self.variant_sweep_s = 0.0
        self.variant_rows = 0
        self.variant_patched_tasks = 0
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

    @property
    def outcomes_cached(self) -> int:
        """Outcomes in the memo cache: simulated or absorbed."""
        return len(self._cache)

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
            self._profile = (key, LivenessProfile(*self._plan_draft(current)))
        return self._profile[1].keep_floor(x) > self.capacity

    def drift(self, classification: Classification, measured: float) -> float:
        """Relative deviation of a *measured* makespan from this predictor's
        prediction for the plan — the signal :class:`~repro.pooch.dynamic.
        DynamicPoocH` watches to decide the profile has gone stale."""
        predicted = self.predict(classification).time
        if predicted <= 0.0:
            return 0.0
        return abs(measured - predicted) / predicted

    def absorb(self, key: tuple[int, int], outcome: PredictedOutcome) -> bool:
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
    # Every step-1 candidate is "all-swap plus a keep set" — exactly the
    # flip family the lockstep vector engine expresses, so one compile of
    # the all-swap base draft serves every step-1 sweep.  Step 2's probes
    # carry recompute chains instead; each round compiles its probe pool as
    # a variant family of delta drafts.  Outcomes are bit-identical to
    # event-loop replays of the same candidates (tests/test_vecengine.py
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
        if self.options.forward_refetch_gap is not None:
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
                tasks, queues, buffers, self.capacity,
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
        start = time.perf_counter()
        outs = self._sweep(engine, keep)
        self.keep_sweep_s += time.perf_counter() - start
        return outs

    def predict_variant_batch(
        self, classifications: list[Classification],
        paths: list[tuple[int, ...]] | None = None,
    ) -> list[PredictedOutcome | None] | None:
        """Simulate K arbitrary keep/swap/recompute candidates in one
        lockstep sweep — step 2's probe pool, each probe "current with one
        map recomputed (or kept)", and speculative probes of later rounds.

        The rows are patches of the draft of the plan
        :meth:`provably_infeasible` last profiled (step 2's current plan),
        compiled into one :class:`~repro.gpusim.vecengine.VariantTables`;
        each replays a draft task-for-task identical to the one
        :meth:`_sim_draft` builds for it.  ``paths[k]``, when given and not
        empty, names the maps that row k's candidate recomputes beyond the
        current plan's, bar the last flip: the row is drafted as that last
        flip of the plan "current with ``paths[k]`` recomputed".  Each such
        plan is drafted once per call, as one flip of its parent path's
        plan, so a speculative row costs one flip however many rounds
        ahead it lies.  Same contract as :meth:`predict_keep_batch`:
        outcomes are positional, the memo cache and counters are
        untouched, a row is None after a non-OOM engine error, and the
        call returns None when the drafts are not expressible
        (NAIVE/SUPERNEURONS triggers, forward re-fetch) or not all patches
        of one draft."""
        if not classifications or self._ensure_vec() is None:
            return None
        start = time.perf_counter()
        splits = [self._delta_split(c) for c in classifications]
        if None in splits:
            return None
        ahead: dict[tuple[int, ...], tuple] = {}
        patched = 0

        def patches():
            # drafted as the tables consume them, so the family's patches
            # are never all alive at once
            nonlocal patched
            for split, path in zip(splits, paths or [()] * len(splits)):
                patch = (self._patch(*split) if not path
                         else self._ahead_patch(path, *split, ahead))
                patched += len(patch.tasks) + len(patch.dropped_tasks)
                yield patch

        rows = patches()
        first = next(rows)
        try:
            tables = VariantTables(
                first.base, itertools.chain((first,), rows), self.capacity,
                self.machine.host_swap_capacity,
            )
        except VectorUnsupported:
            return None
        del ahead, first, rows
        swept = time.perf_counter()
        outs = self._sweep(VectorEngine(tables))
        self.variant_compile_s += swept - start
        self.variant_sweep_s += time.perf_counter() - swept
        self.variant_rows += len(outs)
        self.variant_patched_tasks += patched
        return outs

    def _sweep(self, engine: VectorEngine,
               keep: np.ndarray | None = None
               ) -> list[PredictedOutcome | None]:
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

    def draft(self, classification: Classification) -> tuple[dict, dict, dict]:
        """Raw (tasks, queues, buffers) draft for a candidate, built from
        scratch — the fallback of every draft no delta can patch."""
        builder = ScheduleBuilder(
            self.graph, classification, self._durations, self.options,
            validate=False,
        )
        return builder.build_raw()

    # -- delta drafts -------------------------------------------------------------
    #
    # Candidates in the classifier's searches differ from one another only
    # in which maps they keep (step 1) or additionally recompute (step 2),
    # so their drafts are produced by patching a memoized draft in
    # O(what the flips touch) instead of rebuilding the whole schedule,
    # always through :func:`apply_recompute_delta`: step 2's probes patch
    # the current plan's draft, which :meth:`provably_infeasible` drafts
    # once per round for its liveness profile — a probe is then one or two
    # flips, not a replay of every recompute chain of the plan.  Candidates
    # the current plan does not reach by swap→keep/recompute flips (the
    # whole step-1 tree among them) patch the all-swap base draft.

    def _ensure_base(self) -> None:
        """Build the all-swap base draft once — what every draft the plan
        draft does not reach is patched from, and the vector engine
        compiles."""
        if self._base is not None:
            return
        self._base = ScheduleBuilder(
            self.graph, Classification.all_swap(self.graph),
            self._durations, self.options, validate=False,
        ).build_raw()

    def _delta_split(
        self, classification: Classification
    ) -> tuple[int, int] | None:
        """The ``(keep, recompute)`` bit masks of a candidate the delta
        paths can draft — forward re-fetch off, and recomputes only under
        EAGER — else None (a full build).  Every map a mask leaves out
        swaps, so the masks are the classification's key."""
        if self.options.forward_refetch_gap is not None:
            return None
        keep, rec = classification.key()
        if rec and self.options.policy is not SwapInPolicy.EAGER:
            return None
        return keep, rec

    def _patch(self, keep: int, rec: int) -> DraftPatch:
        """The draft of ``all-swap + keep + rec`` (bit masks) as a patch:
        of the memoized plan draft when that plan reaches it by swap→keep
        and swap→recompute flips, else of the all-swap base draft."""
        plan = self._plan
        if plan is not None and not (plan[0] & ~keep or plan[1] & ~rec):
            base, base_key = plan[2], plan[:2]
        else:
            self._ensure_base()
            base, base_key = self._base, (0, 0)
        return apply_recompute_delta(
            *base, self.graph, self._durations, self.options, keep, rec,
            base_key)

    def _ahead_patch(self, path: tuple[int, ...], keep: int, rec: int,
                     ahead: dict) -> DraftPatch:
        """The draft of ``all-swap + keep + rec`` as a patch of the plan
        draft, built as one flip of the plan "plan + ``path`` recomputed"
        (see :meth:`predict_variant_batch`).  ``ahead`` memoizes, per
        path, that plan's patch of the plan draft, its own draft and its
        recompute mask; a path's plan is one flip of its parent path's.
        A plan draft that does not reach the candidate falls back to
        :meth:`_patch`."""
        plan = self._plan
        if plan is None or plan[0] & ~keep or plan[1] & ~rec or any(
                not rec >> m & 1 for m in path):
            return self._patch(keep, rec)

        # the deepest plan on the path drafted so far, then the rest of the
        # path, each plan one flip of its parent's
        depth = len(path)
        while depth and path[:depth] not in ahead:
            depth -= 1
        parent, draft, node_rec = (ahead[path[:depth]] if depth
                                   else (None, plan[2], plan[1]))
        for depth in range(depth, len(path)):
            parent_rec, node_rec = node_rec, node_rec | 1 << path[depth]
            one = apply_recompute_delta(
                *draft, self.graph, self._durations, self.options, plan[0],
                node_rec, (plan[0], parent_rec))
            # drafted as a patch of the plan draft, the family's base
            parent = one if parent is None else parent.compose(one)
            draft = parent.draft
            ahead[path[:depth + 1]] = (parent, draft, node_rec)
        one = apply_recompute_delta(*draft, self.graph, self._durations,
                                    self.options, keep, rec,
                                    (plan[0], node_rec))
        return one if parent is None else parent.compose(one)

    def _plan_draft(self, classification: Classification) -> tuple:
        """Draft of a plan step 2 evaluates probes against, memoized as the
        base its probes patch."""
        split = self._delta_split(classification)
        if split is None:
            return self.draft(classification)
        plan = self._plan
        if plan is None or plan[:2] != split:
            self._plan = (*split, self._patch(*split).draft)
        return self._plan[2]

    def _sim_draft(self, classification: Classification):
        """(tasks, queues, buffers) draft for one simulation.

        Keep/swap/recompute candidates are :meth:`_patch` drafts.
        Everything else — forward re-fetch, non-EAGER recompute — falls
        back to a full build."""
        split = self._delta_split(classification)
        if split is None:
            return self.draft(classification)
        return self._patch(*split).draft

    def _simulate(self, classification: Classification) -> PredictedOutcome:
        """One uncached simulation through the draft entry point."""
        try:
            makespan, device_peak, _host_peak = Engine.replay_draft(
                *self._sim_draft(classification),
                device_capacity=self.capacity,
                host_capacity=self.machine.host_swap_capacity,
            )
        except OutOfMemoryError as e:
            return PredictedOutcome(
                feasible=False, time=float("inf"), peak_memory=0,
                oom_context=e.context,
            )
        return PredictedOutcome(
            feasible=True, time=makespan, peak_memory=device_peak
        )
