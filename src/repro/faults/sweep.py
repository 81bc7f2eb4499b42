"""Monte-Carlo fault-seed sweeps: K seeds in lockstep over one plan.

``robustness_report`` needs tail statistics — P95/P99 slowdown, OOM and
fallback rates — which means executing the *same* chosen plan under many
fault seeds.  This module batches that.

The trick is the injector's keyed RNG: every duration draw is a pure
function of ``(seed, task identity)`` — :meth:`FaultInjector.duration_factor`
keys on ``("dur", kind, layer)``, never on execution order — so a seed's
entire duration table is computable *up front*.  And the schedule builder's
structure is duration-independent (durations only fill ``_TaskDraft``
fields; queue orders and headrooms derive from sizes and positions), so one
clean draft serves every seed.  Compiled once into
:class:`~repro.gpusim.vecengine.VectorTables`, it feeds the lockstep path:
:func:`seed_duration_matrix` precomputes a ``(K, n)`` matrix of per-task
durations — bit-identical to what a per-seed :class:`FaultyDurations`
rebuild would produce — and :meth:`VectorEngine.run_batch` replays all K
rows at once.

Specs whose draws are *event-order dependent* cannot be precomputed:
transfer stalls consume a variable number of draws per epoch, spurious OOMs
key on the attempt index, and host faults interleave with the fallback
chain.  :func:`vectorizable` gates on that; non-vectorizable specs (and the
few vectorized rows that genuinely fail, e.g. noise pushing a tight plan
over capacity) fall back to the serial resilient path —
:func:`~repro.faults.resilient.execute_resilient`, once per seed, in a loop
in the calling process, so every row's telemetry lands in the caller's
metrics registry.  The serial rows share one
:class:`~repro.faults.resilient.PlanChain` whose first entry is the lockstep
path's draft: a serial row costs one re-pricing of a validated schedule
plus one event simulation, not a schedule rebuild.

Every vectorized row is bit-identical (makespan, per-task times, pool
high-water marks, OOM diagnosis) to a per-seed ``FaultyDurations`` rebuild
run on the event :class:`~repro.gpusim.Engine` —
``tests/test_fault_sweep.py`` asserts exactly that across the model zoo —
and every serial row to the rebuild-per-attempt resilient executor
(``tests/test_resilient_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import (
    OutOfMemoryError,
    ReproError,
    SpuriousOOMError,
)
from repro.faults.injector import DurationTable, FaultInjector, fault_seed
from repro.faults.resilient import PlanChain, RetryPolicy, execute_resilient
from repro.faults.spec import FaultSpec
from repro.graph import NNGraph
from repro.gpusim.vecengine import VectorEngine, VectorTables, VectorUnsupported
from repro.hw import CostModel, MachineSpec
from repro.obs import get_logger, metrics
from repro.runtime.durations import DurationProvider
from repro.runtime.plan import Classification
from repro.runtime.schedule import ScheduleOptions

log = get_logger(__name__)


def vectorizable(spec: FaultSpec) -> bool:
    """Whether a spec's execution-side draws are precomputable per task.

    ``duration_noise`` and ``bandwidth_factor`` multiply per-task durations
    (keyed per task identity), ``host_capacity_factor`` statically shrinks
    the host pool, and ``profile_noise`` only perturbs *planning* (done once
    per scenario) — all expressible as per-row duration tables over one
    compiled draft.  Stalls, spurious OOMs and host allocation faults draw
    per attempt/epoch, i.e. depend on simulated event order, and need the
    serial resilient path.
    """
    return (spec.stall_prob == 0.0 and spec.oom_prob == 0.0
            and spec.host_oom_prob == 0.0)


def seed_duration_matrix(tasks, tids, spec: FaultSpec,
                         seeds) -> np.ndarray:
    """Precompute the ``(K, n)`` faulted duration table for ``seeds``: row k
    holds, for every task of the *clean* draft (in ``tids`` order), the
    duration a schedule rebuilt under ``FaultyDurations(base,
    FaultInjector(spec, seed=seeds[k]))`` would carry, bit for bit (see
    :class:`~repro.faults.injector.DurationTable`)."""
    return DurationTable(tasks, tids).rows(spec, seeds)


@dataclass(frozen=True)
class SweepOutcome:
    """One seed's execution outcome within a fault sweep.

    ``vectorized`` rows ran in lockstep under the chosen plan; the rest
    went through :func:`~repro.faults.resilient.execute_resilient` (whose
    retry/fallback accounting they carry).  ``failed`` marks a seed whose
    fallback chain was exhausted — its makespan is ``inf`` so percentile
    statistics honestly blow up instead of silently dropping the seed.
    """

    seed: int
    makespan: float
    plan_used: str
    vectorized: bool
    attempts: int = 1
    transfer_retries: int = 0
    fallbacks: int = 0
    fallback_path: str = ""
    oom: bool = False
    failed: bool = False
    device_peak: int = 0
    host_peak: int = 0

    @property
    def degraded(self) -> bool:
        """True when the chosen plan was abandoned for a fallback."""
        return self.fallbacks > 0

    @property
    def ok(self) -> bool:
        return not self.failed


def _serial_outcome(chain: PlanChain, spec: FaultSpec, seed: int,
                    retry: RetryPolicy | None) -> SweepOutcome:
    """One seed through the full serial resilient path."""
    injector = FaultInjector(spec, seed=seed)
    try:
        robust = execute_resilient(
            chain.graph, chain.classification, chain.machine,
            faults=injector, retry=retry, options=chain.options,
            cost_model=chain.cost_model, durations=chain.durations,
            chain=chain,
        )
    except ReproError as e:
        genuine_oom = (isinstance(e, OutOfMemoryError)
                       and not isinstance(e, SpuriousOOMError))
        return SweepOutcome(
            seed=seed, makespan=float("inf"), plan_used="",
            vectorized=False, oom=genuine_oom, failed=True,
            fallback_path="chain exhausted",
        )
    return SweepOutcome(
        seed=seed,
        makespan=robust.makespan,
        plan_used=robust.plan_used,
        vectorized=False,
        attempts=robust.attempts,
        transfer_retries=robust.transfer_retries,
        fallbacks=len(robust.fallbacks),
        fallback_path=" -> ".join(s.to_plan for s in robust.fallbacks),
        oom=any(s.reason_kind == "oom" for s in robust.fallbacks),
        device_peak=robust.result.device_peak,
        host_peak=robust.result.host_peak,
    )


def fault_seed_sweep(
    graph: NNGraph,
    classification: Classification,
    machine: MachineSpec,
    spec: FaultSpec | str,
    seeds,
    *,
    retry: RetryPolicy | None = None,
    options: ScheduleOptions | None = None,
    cost_model: CostModel | None = None,
    durations: DurationProvider | None = None,
    vectorize: bool = True,
) -> list[SweepOutcome]:
    """Execute one plan under every seed of ``seeds``; one outcome per seed.

    Vectorizable specs run all seeds in one lockstep batch over the clean
    draft (compiled once); rows that fail under their per-seed durations —
    and every seed of a non-vectorizable spec — take the serial resilient
    path, one seed after another over one shared :class:`PlanChain`.  Emits
    ``faults.rows_vectorized`` / ``faults.rows_fallback`` counters.

    ``durations`` overrides the clean duration provider (default: the
    machine's deterministic cost model); ``vectorize=False`` forces the
    serial path for every seed — the differential tests' control arm.
    """
    if isinstance(spec, str):
        spec = FaultSpec.parse(spec)
    seeds = [fault_seed(s) for s in seeds]
    chain = PlanChain(graph, classification, machine, options=options,
                      cost_model=cost_model, durations=durations)
    outcomes: dict[int, SweepOutcome] = {}
    serial_idx = list(range(len(seeds)))

    if vectorize and seeds and vectorizable(spec):
        try:
            tasks, queues, buffers = chain.draft()
            host_capacity = int(machine.host_swap_capacity
                                * spec.host_capacity_factor)
            tables = VectorTables(
                tasks, queues, buffers,
                device_capacity=machine.usable_gpu_memory,
                host_capacity=host_capacity,
            )
            matrix = seed_duration_matrix(tasks, tables.tids, spec, seeds)
            rows = VectorEngine(tables).run_batch(durations=matrix)
        except VectorUnsupported as e:
            log.debug("fault sweep falls back to the serial path: %s", e)
        else:
            serial_idx = []
            for i, row in enumerate(rows):
                if row.ok:
                    outcomes[i] = SweepOutcome(
                        seed=seeds[i],
                        makespan=row.makespan,
                        plan_used="chosen-plan",
                        vectorized=True,
                        device_peak=row.device_peak,
                        host_peak=row.host_peak,
                    )
                else:
                    # per-seed noise broke the plan (e.g. re-timed issues
                    # overflow a tight pool): replay the whole fallback
                    # chain serially for an honest degradation record
                    serial_idx.append(i)

    metrics.count("faults.sweeps")
    metrics.count("faults.rows_vectorized", len(outcomes))
    metrics.count("faults.rows_fallback", len(serial_idx))

    for i in serial_idx:
        outcomes[i] = _serial_outcome(chain, spec, seeds[i], retry)

    return [outcomes[i] for i in range(len(seeds))]
