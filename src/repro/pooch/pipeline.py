"""End-to-end PoocH facade: profile → classify → execute."""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.faults import FaultInjector, RetryPolicy, RobustResult
from repro.graph import NNGraph
from repro.gpusim import RunResult
from repro.hw import CostModel, MachineSpec
from repro.obs import get_logger, metrics
from repro.pooch.classifier import PoochClassifier, SearchStats
from repro.pooch.config import PoochConfig
from repro.pooch.multidevice import MultiDevicePlan, plan_staggered
from repro.pooch.predictor import PredictedOutcome, TimelinePredictor
from repro.runtime.executor import execute
from repro.runtime.plan import Classification
from repro.runtime.plan_io import PlanCache
from repro.runtime.profiler import Profile, run_profiling

log = get_logger(__name__)


@dataclass
class PoochResult:
    """Everything the optimization produced.

    ``execute()`` runs the plan on a machine (default: the one it was
    optimized for) as ground truth; executing on a *different* machine
    reproduces the paper's plan-portability experiment (a POWER9-optimized
    plan running slower — or failing — on the x86 machine, Fig. 17).
    """

    graph: NNGraph
    machine: MachineSpec
    classification: Classification
    profile: Profile
    stats: SearchStats
    predicted: PredictedOutcome
    config: PoochConfig = field(default_factory=PoochConfig)
    faults: FaultInjector | None = None
    #: staggered swap-window plan across data-parallel replicas; populated
    #: only when the machine has more than one device
    multi: MultiDevicePlan | None = None
    #: the stagger stage's ground-truth run, with the machine and cost
    #: model it ran on: ``(machine, cost_model, run)``
    ground_truth: tuple[MachineSpec, CostModel | None, RunResult] | None = \
        field(default=None, repr=False, compare=False)

    def execute(
        self,
        machine: MachineSpec | None = None,
        cost_model: CostModel | None = None,
    ) -> RunResult:
        """Ground-truth execution of the chosen plan.

        On a multi-device machine the stagger stage already ran the plan
        once; when ``machine`` equals the machine it ran on and
        ``cost_model`` is the very object it ran with (both defaults, for a
        ``PoocH`` built without a cost model) that run is returned instead
        of running the engine again.  Any other argument runs the engine.
        """
        machine = machine or self.machine
        if self.ground_truth is not None:
            ran_on, ran_with, run = self.ground_truth
            if machine == ran_on and cost_model is ran_with:
                return run
        return execute(
            self.graph,
            self.classification,
            machine,
            cost_model=cost_model,
            options=self.config.options,
        )

    def execute_resilient(
        self,
        machine: MachineSpec | None = None,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        cost_model: CostModel | None = None,
    ) -> RobustResult:
        """Fault-tolerant ground-truth execution of the chosen plan.

        Runs under the injector the optimization was configured with (or an
        explicit ``faults`` override) and degrades along the
        chosen-plan → swap-all → recompute-all chain instead of raising on an
        execution-time failure."""
        from repro.faults.resilient import execute_resilient as _resilient

        return _resilient(
            self.graph,
            self.classification,
            machine or self.machine,
            faults=faults if faults is not None else self.faults,
            retry=retry,
            cost_model=cost_model,
            options=self.config.options,
        )

    def grad_bytes(self) -> int:
        """Gradient volume one replica contributes to the allreduce."""
        return sum(layer.op.param_bytes for layer in self.graph)

    def execute_multi(
        self,
        machine: MachineSpec | None = None,
        cost_model: CostModel | None = None,
    ):
        """Ground-truth multi-device execution of the chosen plan.

        Takes the single-replica run from :meth:`execute` (the stagger
        stage's own run when the arguments match it), then replays it on
        every device of ``machine`` through the shared-link arbiter with this
        result's chosen stagger (when its device count matches).  Returns a
        :class:`~repro.gpusim.MultiDeviceResult`.
        """
        from repro.gpusim import simulate_multi_device

        m = machine or self.machine
        base = self.execute(machine=m, cost_model=cost_model)
        stagger = None
        if self.multi is not None and len(self.multi.stagger) == m.devices:
            stagger = self.multi.stagger
        return simulate_multi_device(
            base, m, stagger=stagger, grad_bytes=self.grad_bytes()
        )

    def explain(self, top: int | None = None) -> str:
        """Per-map rationale table: size, class, the profiled un-hidden swap
        overhead that made it a step-1 candidate, and the paper's r(X)
        recompute-vs-swap ratio where step 2 evaluated it.

        ``top`` limits output to the N largest maps.
        """
        from repro.analysis.report import Table
        from repro.common.units import format_bytes

        overhead = (self.stats.overlap.overhead
                    if self.stats.overlap is not None else {})
        rows = sorted(
            self.classification.classes.items(),
            key=lambda kv: -self.graph[kv[0]].out_spec.nbytes,
        )
        if top is not None:
            rows = rows[:top]
        t = Table(
            f"plan rationale for {self.graph.name!r} on {self.machine.name}",
            ["map", "layer", "size", "class", "unhidden swap (ms)", "r(X)"],
        )
        for i, cls in rows:
            r = self.stats.r_values.get(i)
            t.add(
                i,
                self.graph[i].name,
                format_bytes(self.graph[i].out_spec.nbytes),
                cls.value,
                f"{overhead[i] * 1e3:.3f}" if i in overhead else "-",
                f"{r:.3g}" if r is not None and r != float("inf") else "-",
            )
        return t.render()

    def summary(self) -> str:
        counts = self.classification.counts()
        # staged rows: speculative step-2 probes swept for later rounds
        hits, staged = (self.stats.step2_staged_hits,
                        self.stats.step2_staged_rows)
        hit_rate = (f"{hits / staged:.0%} ({hits}/{staged} staged rows read)"
                    if staged else "-")
        lines = [
            f"PoocH plan for {self.graph.name!r} on {self.machine.name}:",
            "  classes: " + " ".join(
                f"{k.value}={v}" for k, v in counts.items()
            ),
            f"  predicted iteration time: {self.predicted.time * 1e3:.3f} ms "
            + ("(from plan cache)"
               if self.stats.plan_cache_hit else
               f"(all-swap baseline {self.stats.time_all_swap * 1e3:.3f} ms)"),
            f"  search simulations: step1={self.stats.sims_step1} "
            f"step2={self.stats.sims_step2} "
            f"(vectorized={self.stats.sims_vectorized} "
            f"fallback={self.stats.sims_fallback})",
            f"  step 2: {self.stats.step2_rounds} rounds, "
            f"{self.stats.step2_sweeps} sweeps, hit rate {hit_rate}; "
            f"r-values recomputed={self.stats.r_recomputed}, "
            f"keep probes elided={self.stats.keep_probes_elided}",
            f"  search tree: {self.stats.leaves_evaluated}/"
            f"{self.stats.leaves_total} leaves evaluated",
            f"  search wall time: {self.stats.wall_time_s:.2f} s",
        ]
        if self.multi is not None:
            lines.extend(
                "  " + ln for ln in self.multi.summary().splitlines()
            )
        return "\n".join(lines)


class PoocH:
    """The system: construct with a machine, call :meth:`optimize`.

    Args:
        machine: execution environment to optimize for.
        config: search knobs (see :class:`PoochConfig`).
        cost_model: ground-truth cost model used for the profiling
            iterations and, on a multi-device machine, for the stagger
            stage's run of the chosen plan; defaults to a deterministic
            model of ``machine`` (pass one with ``jitter > 0`` to exercise
            noisy profiling).  :meth:`PoochResult.execute` returns the
            stage's run when called with this same cost model (``None``
            when none was given).
        profile_iterations: how many iterations the profiling phase averages
            (the paper runs "several"; 1 suffices when deterministic).
        plan_cache: a :class:`~repro.runtime.plan_io.PlanCache` (or a
            directory path for one).  ``optimize`` then reuses a cached plan
            when one exists for this (graph, machine, config) — after
            re-verifying it by simulation against the current profile — and
            stores a freshly searched plan for the next run.  A search
            never reads the cache, so it returns what it would without one.
        faults: a :class:`~repro.faults.FaultInjector`, which carries its
            spec and seed.  ``profile_noise`` then perturbs the measured
            profile before classification, and
            :meth:`PoochResult.execute_resilient` runs under the same
            injector.
        progress: optional ``callback(event, info)`` invoked at pipeline
            phase boundaries (``profile:start``, ``profile:done``,
            ``search:start``, ``search:done``, ``cache:hit``,
            ``stagger:start``, ``stagger:done``) with a JSON-shaped info
            dict.  The planning server streams these to job watchers.
            Exceptions raised by the callback propagate and abort the
            optimization; ``optimize`` must not swallow them.
    """

    def __init__(
        self,
        machine: MachineSpec,
        config: PoochConfig | None = None,
        cost_model: CostModel | None = None,
        profile_iterations: int = 1,
        plan_cache: PlanCache | str | pathlib.Path | None = None,
        faults: FaultInjector | None = None,
        progress: Callable[[str, dict[str, Any]], None] | None = None,
    ) -> None:
        self.machine = machine
        self.config = config or PoochConfig()
        self.cost_model = cost_model
        self.profile_iterations = profile_iterations
        if plan_cache is not None and not isinstance(plan_cache, PlanCache):
            plan_cache = PlanCache(plan_cache)
        self.plan_cache = plan_cache
        if faults is not None and not isinstance(faults, FaultInjector):
            raise TypeError(f"faults must be a FaultInjector, got "
                            f"{type(faults).__name__} (build one with "
                            f"FaultInjector(spec, seed=...))")
        self.faults = faults
        self.progress = progress

    def _emit(self, event: str, **info: Any) -> None:
        if self.progress is not None:
            self.progress(event, info)

    def optimize(self, graph: NNGraph, profile: Profile | None = None) -> PoochResult:
        """Run profiling (unless a profile is supplied) and classification."""
        with metrics.span("optimize", category="search", graph=graph.name,
                          machine=self.machine.name):
            profile = self.measure(graph, profile)
            predictor = TimelinePredictor(graph, profile, self.machine,
                                          self.config)
            return self._attach_multi(self.plan(predictor, self.plan_cache))

    def measure(self, graph: NNGraph, profile: Profile | None = None) -> Profile:
        """The profiling stage: profile ``graph`` under the config's schedule
        (unless a profile is supplied) and, under faults, perturb it — the
        classifier plans from what it *measured*."""
        if profile is None:
            self._emit("profile:start", graph=graph.name,
                       machine=self.machine.name,
                       iterations=self.profile_iterations)
            profile = run_profiling(
                graph,
                self.machine,
                cost_model=self.cost_model,
                iterations=self.profile_iterations,
                options=self.config.options,
            )
            self._emit("profile:done", graph=graph.name)
        if self.faults is not None:
            profile = self.faults.perturb_profile(
                profile, graph, self.machine, options=self.config.options)
        return profile

    def plan(self, predictor: TimelinePredictor,
             cache: PlanCache | None) -> PoochResult:
        """The planning stage: the plan for ``predictor``'s graph and
        profile — ``cache``'s plan when it has one the predictor still
        finds feasible (simulate-before-running), else a fresh search,
        stored into ``cache``.  ``predictor`` must be built from this
        PoocH's config.  No multi-device stagger stage."""
        graph = predictor.graph
        if cache is not None:
            hit = cache.load_plan(graph, self.machine, self.config.signature())
            if hit is not None:
                classification, _meta = hit
                outcome = predictor.predict(classification)
                if outcome.feasible:
                    metrics.count("search.plan_cache_hits")
                    log.info("plan cache hit for %r on %s (re-verified: "
                             "%.3f ms predicted)", graph.name,
                             self.machine.name, outcome.time * 1e3)
                    self._emit("cache:hit", graph=graph.name,
                               predicted_time_s=outcome.time)
                    stats = SearchStats(plan_cache_hit=True)
                    stats.time_after_step2 = outcome.time
                    return self._result(predictor, classification, stats,
                                        outcome)
                metrics.count("search.plan_cache_rejections")
        self._emit("search:start", graph=graph.name,
                   maps=len(graph.classifiable_maps()))
        classifier = PoochClassifier(
            graph, predictor.profile, self.machine, self.config, predictor
        )
        classification, stats = classifier.classify()
        predicted = predictor.predict(classification)
        self._emit("search:done", graph=graph.name,
                   predicted_time_s=predicted.time,
                   sims_step1=stats.sims_step1, sims_step2=stats.sims_step2,
                   wall_time_s=stats.wall_time_s)
        log.info(
            "chosen plan for %r on %s: %s, predicted %.3f ms",
            graph.name, self.machine.name,
            " ".join(f"{k.value}={v}"
                     for k, v in classification.counts().items()),
            predicted.time * 1e3,
        )
        if cache is not None:
            cache.store_plan(
                graph, self.machine, self.config.signature(), classification,
                predicted_time=predicted.time,
            )
        return self._result(predictor, classification, stats, predicted)

    def _result(self, predictor: TimelinePredictor,
                classification: Classification, stats: SearchStats,
                predicted: PredictedOutcome) -> PoochResult:
        return PoochResult(
            graph=predictor.graph,
            machine=self.machine,
            classification=classification,
            profile=predictor.profile,
            stats=stats,
            predicted=predicted,
            config=self.config,
            faults=self.faults,
        )

    def _attach_multi(self, result: PoochResult) -> PoochResult:
        """KARMA-style second planning stage for multi-device machines.

        Executes the chosen single-replica plan once as ground truth, then
        searches per-device start offsets that interleave the replicas' swap
        windows on the shared host link (scored by the deterministic
        multi-device simulation, allreduce overlapped with the backward
        tail).  The run is kept on the result, so the caller's
        ``execute()`` / ``execute_multi()`` do not run the plan again.
        Single-device machines skip this entirely, so their results stay
        bit-identical to the pre-multi-device pipeline.
        """
        if self.machine.devices <= 1:
            return result
        self._emit("stagger:start", graph=result.graph.name,
                   devices=self.machine.devices)
        with metrics.span("stagger-plan", category="search",
                          graph=result.graph.name,
                          machine=self.machine.name):
            base = result.execute(cost_model=self.cost_model)
            result.ground_truth = (self.machine, self.cost_model, base)
            plan = plan_staggered(
                base, self.machine, grad_bytes=result.grad_bytes()
            )
        self._emit("stagger:done", graph=result.graph.name,
                   makespan_s=plan.chosen.makespan)
        result.multi = plan
        stats = result.stats
        stats.devices = self.machine.devices
        stats.stagger_candidates = plan.candidates_evaluated
        stats.stagger_s = list(plan.stagger)
        stats.multi_makespan_naive = plan.naive.makespan
        stats.multi_makespan_chosen = plan.chosen.makespan
        log.info(
            "multi-device plan for %r on %s: %s",
            result.graph.name, self.machine.name,
            plan.summary().replace("\n", "; "),
        )
        return result
