"""Dynamic problem sizes — the paper's stated future work (§7).

"The current version of PoocH targets only NNs that compute the same problem
size in each learning iteration.  As future work, we will extend PoocH in
order to deal with NNs whose problem sizes change for each iteration."

This module implements that extension.  :class:`DynamicPoocH` handles a
training stream whose per-iteration size (batch, or 3D input volume) varies:

* ``strategy="exact"`` — profile + classify once per *distinct* size and
  cache the plan; every optimization is amortised over all iterations that
  reuse its size (the natural extension of the paper's amortisation
  argument).
* ``strategy="nearest"`` — reuse the plan of the nearest already-optimized
  *larger* size (plans are structurally transferable because the graph
  topology is size-independent; a plan that fits a larger problem is
  memory-safe for a smaller one).  This trades plan quality for far fewer
  optimizations — the interesting knob when sizes are long-tailed.

Both strategies validate a transferred plan through the timeline predictor
of the target size before executing it and fall back to a fresh optimization
when it is predicted infeasible — the same simulate-before-running discipline
that lets PoocH avoid superneurons' memory failures.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.common.errors import ScheduleError
from repro.faults import FaultInjector, FaultyDurations, RetryPolicy
from repro.faults.resilient import execute_resilient
from repro.graph import NNGraph
from repro.gpusim import RunResult
from repro.hw import CostModel, MachineSpec
from repro.obs import get_logger, metrics
from repro.pooch.config import PoochConfig
from repro.pooch.pipeline import PoocH
from repro.pooch.predictor import TimelinePredictor
from repro.runtime.durations import CostModelDurations
from repro.runtime.executor import execute
from repro.runtime.plan import Classification
from repro.runtime.plan_io import PlanCache
from repro.runtime.profiler import Profile, run_profiling

log = get_logger(__name__)

#: a problem size is any hashable key with a total order (batch int,
#: (T, H, W) tuple, ...)
Size = Hashable


@dataclass
class DynamicStats:
    """Bookkeeping for one :meth:`DynamicPoocH.run_stream` call."""

    iterations: int = 0
    optimizations: int = 0
    #: actual profiling runs — exactly one per distinct size (profiles are
    #: cached and reused across optimization, donor checks and verification)
    profilings: int = 0
    plan_reuses: int = 0
    transfers: int = 0  # nearest-plan reuses across different sizes
    transfer_rejections: int = 0  # transferred plans predicted infeasible
    #: drift-triggered re-profile + re-plan events (at most one per size)
    replans: int = 0
    #: in-place retries of transiently faulted DMA transfers
    transfer_retries: int = 0
    #: degradation steps taken along the fallback chain
    fallbacks: int = 0
    iteration_times: list[float] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return sum(self.iteration_times)


class DynamicPoocH:
    """Per-iteration-size out-of-core planning.

    Args:
        machine: execution environment.
        build_graph: maps a size key to the (freshly built) graph for it.
            All sizes must produce structurally identical graphs (same layer
            names/indices) — only shapes may differ.
        config: search configuration shared by every optimization.
        strategy: ``"exact"`` or ``"nearest"`` (see module docstring).
        plan_cache: optional :class:`~repro.runtime.plan_io.PlanCache` (or a
            directory path) — chosen plans then persist across streams
            *and* across processes, so a restarted training run skips the
            searches entirely (each reused plan re-verified by simulation).
        faults: optional :class:`~repro.faults.FaultInjector` —
            iterations then execute resiliently under the injected faults,
            and a drift-triggered re-plan re-profiles under the faulted
            ground truth.
        replan_tolerance: relative deviation of measured iteration time from
            the predicted makespan that triggers one re-profile + re-plan per
            size (``None`` disables drift tracking).
        retry: bounds on transfer retries / plan attempts when executing
            resiliently.
        cost_model: ground-truth cost model shared by profiling and
            execution.
    """

    def __init__(
        self,
        machine: MachineSpec,
        build_graph: Callable[[Size], NNGraph],
        config: PoochConfig | None = None,
        strategy: str = "exact",
        plan_cache: PlanCache | str | pathlib.Path | None = None,
        faults: FaultInjector | None = None,
        replan_tolerance: float | None = 0.25,
        retry: RetryPolicy | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        if strategy not in ("exact", "nearest"):
            raise ScheduleError(f"unknown strategy {strategy!r}")
        if replan_tolerance is not None and replan_tolerance <= 0:
            raise ScheduleError(
                f"replan_tolerance must be positive, got {replan_tolerance!r}")
        #: profiles and plans every size; its config alone sets how every
        #: size is profiled, verified and executed (simulate-before-running
        #: is void unless they agree)
        self._pooch = PoocH(machine, config, cost_model=cost_model,
                            plan_cache=plan_cache, faults=faults)
        self.machine = machine
        self.build_graph = build_graph
        self.config = self._pooch.config
        self.strategy = strategy
        self.plan_cache = self._pooch.plan_cache
        self.faults = self._pooch.faults
        self.replan_tolerance = replan_tolerance
        self.retry = retry or RetryPolicy()
        self.cost_model = cost_model
        self._replanned: set[Size] = set()
        self._plans: dict[Size, Classification] = {}
        self._graphs: dict[Size, NNGraph] = {}
        self._profiles: dict[Size, Profile] = {}
        self._predictors: dict[Size, TimelinePredictor] = {}
        self.stats = DynamicStats()

    # -- internals -------------------------------------------------------------

    def _graph(self, size: Size) -> NNGraph:
        if size not in self._graphs:
            graph = self.build_graph(size)
            if self._graphs:
                ref = next(iter(self._graphs.values()))
                if len(graph) != len(ref):
                    raise ScheduleError(
                        "dynamic sizes must share the graph structure "
                        f"({len(graph)} layers vs {len(ref)})"
                    )
            self._graphs[size] = graph
        return self._graphs[size]

    def _profile(self, size: Size, faulted: bool = False) -> Profile:
        """Exactly one profiling run per distinct size, shared by
        optimization, donor feasibility checks and transfer verification.

        The initial profile models the paper's short clean measurement
        window: fault-free ground truth, then ``profile_noise`` perturbation.
        A drift-triggered re-profile (``faulted=True``) instead measures
        *through* the injector's duration faults — the very conditions that
        caused the drift — so the new plan fits what execution actually
        sees."""
        if size not in self._profiles:
            graph = self._graph(size)
            if faulted and self.faults is not None:
                profile = run_profiling(
                    graph, self.machine,
                    options=self.config.options,
                    durations=FaultyDurations(
                        CostModelDurations(
                            graph, self.cost_model or CostModel(self.machine)),
                        self.faults,
                    ),
                )
            else:
                profile = self._pooch.measure(graph)
            self._profiles[size] = profile
            self.stats.profilings += 1
        return self._profiles[size]

    def _predictor(self, size: Size) -> TimelinePredictor:
        """Per-size predictor under the *full* search config — the same
        capacity margin and re-fetch gap the plans were chosen with."""
        if size not in self._predictors:
            self._predictors[size] = TimelinePredictor(
                self._graph(size), self._profile(size), self.machine,
                self.config)
        return self._predictors[size]

    def _optimize(self, size: Size, use_plan_cache: bool = True) -> Classification:
        """PoocH's planning stage on this size's predictor: the cached plan
        when it re-verifies, else a fresh search (stored in the cache)."""
        result = self._pooch.plan(self._predictor(size),
                                  self.plan_cache if use_plan_cache else None)
        self.stats.optimizations += 1
        return result.classification

    def _transferable_plan(self, size: Size) -> Classification | None:
        """nearest strategy: the plan of the smallest already-planned size
        that is >= ``size`` (memory-safe direction), verified by simulation."""
        candidates = sorted(
            (s for s in self._plans if s >= size), key=lambda s: s
        )
        graph = self._graph(size)
        for donor in candidates:
            plan = self._plans[donor]
            try:
                remapped = Classification(dict(plan.classes))
                remapped.validate(graph)
            except ScheduleError:
                continue
            if self._predictor(size).predict(remapped).feasible:
                self.stats.transfers += 1
                return remapped
            self.stats.transfer_rejections += 1
        return None

    # -- public ------------------------------------------------------------------

    def plan_for(self, size: Size) -> Classification:
        """The classification used for iterations of ``size`` (cached)."""
        if size in self._plans:
            self.stats.plan_reuses += 1
            return self._plans[size]
        plan: Classification | None = None
        if self.strategy == "nearest" and self._plans:
            plan = self._transferable_plan(size)
        if plan is None:
            plan = self._optimize(size)
        self._plans[size] = plan
        return plan

    def _replan(self, size: Size) -> None:
        """Drift response: throw away the stale profile, measure again under
        the faulted ground truth, search again.  Bounded to once per size —
        drift past that means the environment itself is unstable, and
        re-planning every iteration would cost more than it saves."""
        self._replanned.add(size)
        self._profiles.pop(size, None)
        self._predictors.pop(size, None)
        self._plans.pop(size, None)
        self._profile(size, faulted=True)
        # bypass the plan cache: it would hand back the very plan that
        # drifted (cache keys ignore the profile), and a plan fitted to the
        # faulted profile must not displace the clean one stored there
        self._plans[size] = self._optimize(size, use_plan_cache=False)
        self.stats.replans += 1
        metrics.count("resilience.replans")
        log.info("re-planned size %r after drift beyond tolerance", size)

    def run_iteration(self, size: Size) -> RunResult:
        """Execute one iteration of the given size under its plan.

        With a fault injector installed the iteration runs resiliently —
        transfer retries and fallback-chain steps land in :attr:`stats` —
        and a measured makespan drifting beyond ``replan_tolerance`` from
        the predicted one triggers one re-profile + re-plan for this size
        (the paper's profile-predicts-the-future premise, re-armed)."""
        plan = self.plan_for(size)
        graph = self._graph(size)
        if self.faults is not None:
            robust = execute_resilient(
                graph, plan, self.machine,
                faults=self.faults,
                retry=self.retry,
                options=self.config.options,
                cost_model=self.cost_model,
            )
            result = robust.result
            self.stats.transfer_retries += robust.transfer_retries
            self.stats.fallbacks += len(robust.fallbacks)
            degraded = robust.degraded
        else:
            result = execute(graph, plan, self.machine,
                             options=self.config.options,
                             cost_model=self.cost_model)
            degraded = False
        self.stats.iterations += 1
        self.stats.iteration_times.append(result.makespan)
        if (self.replan_tolerance is not None
                and size not in self._replanned
                and (degraded
                     or self._predictor(size).drift(plan, result.makespan)
                     > self.replan_tolerance)):
            self._replan(size)
        return result

    def run_stream(self, sizes: list[Size]) -> DynamicStats:
        """Run a whole stream of per-iteration sizes; returns the stats."""
        for size in sizes:
            self.run_iteration(size)
        return self.stats
