"""Graceful degradation: retries, bounded backoff, and the fallback chain.

``execute_resilient`` is the fault-tolerant counterpart of
:func:`repro.runtime.executor.execute`.  Instead of letting an
execution-time failure propagate, it degrades along a declared chain:

* **transient transfer stalls** are retried in place with bounded
  exponential backoff (the retry cost is charged to the transfer's duration,
  so the timeline honestly shows the lost time);
* **spurious allocator failures** (:class:`SpuriousOOMError`) re-run the
  iteration under the same plan — transient faults draw independently per
  attempt, so a retry can succeed;
* **genuine OOM** (the plan does not fit — e.g. a plan chosen from a noisy
  profile, or host swap space shrunk under pinned-memory pressure) and
  **exhausted transfer-retry budgets** advance to the next plan of the
  fallback chain: chosen plan → swap-all → recompute-all.

Only when the *last* chain entry fails does the error propagate — at that
point the machine genuinely cannot run the model and pretending otherwise
would be dishonest.

A :class:`PlanChain` holds the chain's schedules.  The builder's structure
does not depend on durations, so each entry is drafted, finalized and
validated once, when first reached; every attempt then re-prices that one
template with the injector's duration faults (bit-identical to a rebuild
under :class:`~repro.faults.injector.FaultyDurations`) and runs the event
engine without re-validating.  A fault-seed sweep shares one chain across
all its seeds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import (
    FaultError,
    OutOfMemoryError,
    SpuriousOOMError,
    TransferFaultError,
)
from repro.faults.injector import DurationTable, FaultInjector, FaultyMemoryPool
from repro.graph import NNGraph
from repro.gpusim import Engine, RunResult, Schedule, StreamName, Task
from repro.hw import CostModel, MachineSpec
from repro.obs import get_logger, metrics
from repro.runtime.durations import CostModelDurations, DurationProvider
from repro.runtime.plan import Classification
# build_schedule is unused here; it stays importable because the end-to-end
# benchmark's tracer hooks ``repro.faults.resilient:build_schedule``
from repro.runtime.schedule import ScheduleBuilder, ScheduleOptions, build_schedule  # noqa: F401

log = get_logger(__name__)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on how hard the resilient executor tries before degrading.

    Attributes:
        max_transfer_retries: in-place retries of one faulted DMA transfer
            before the attempt is abandoned and the fallback chain engages.
        backoff_base: first retry's backoff delay, seconds; doubles per
            retry up to ``backoff_cap`` (bounded exponential backoff).
        backoff_cap: ceiling on a single backoff delay, seconds.
        max_plan_attempts: executions of the *same* plan before moving on —
            re-runs absorb transient (spurious) allocation failures.

    Construction raises :class:`FaultError` for a negative retry budget,
    ``max_plan_attempts < 1``, or a negative or non-finite backoff.
    """

    max_transfer_retries: int = 3
    backoff_base: float = 1e-4
    backoff_cap: float = 1e-2
    max_plan_attempts: int = 3

    def __post_init__(self) -> None:
        for name, least in (("max_transfer_retries", 0),
                            ("max_plan_attempts", 1)):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or v < least:
                raise FaultError(
                    f"{name} must be an integer >= {least}, got {v!r}")
        for name in ("backoff_base", "backoff_cap"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise FaultError(f"{name} must be finite and >= 0, got {v!r}")

    def backoff(self, attempt: int) -> float:
        """Backoff delay before retry number ``attempt`` (0-based)."""
        return min(self.backoff_base * (2.0 ** attempt), self.backoff_cap)


@dataclass(frozen=True)
class FallbackStep:
    """One link of the degradation chain that was actually taken.

    ``reason_kind`` is the machine-readable class of the failure that
    forced the step — ``"oom"`` (genuine capacity shortfall),
    ``"transfer"`` (retry budget exhausted) or ``"spurious"`` (transient
    allocation faults outlasted ``max_plan_attempts``) — so consumers like
    the fault-seed sweep can compute OOM/fallback rates without string
    matching on ``reason``.
    """

    from_plan: str
    to_plan: str
    reason: str
    reason_kind: str = ""


def _failure_kind(error: Exception | None) -> str:
    """Classify a plan failure for :attr:`FallbackStep.reason_kind`."""
    if isinstance(error, SpuriousOOMError):
        return "spurious"
    if isinstance(error, TransferFaultError):
        return "transfer"
    if isinstance(error, OutOfMemoryError):
        return "oom"
    return "error"


@dataclass
class RobustResult:
    """Outcome of one resilient execution.

    ``plan_used`` names the chain entry that finally ran to completion;
    ``fallbacks`` lists every degradation step taken on the way there.
    """

    result: RunResult
    plan_used: str
    classification: Classification
    transfer_retries: int = 0
    attempts: int = 1
    fallbacks: list[FallbackStep] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return self.result.makespan

    @property
    def degraded(self) -> bool:
        """True when the chosen plan was abandoned for a fallback."""
        return bool(self.fallbacks)

    def describe(self) -> str:
        lines = [
            f"executed plan: {self.plan_used} "
            f"({self.attempts} attempt{'s' if self.attempts != 1 else ''}, "
            f"{self.transfer_retries} transfer "
            f"retr{'ies' if self.transfer_retries != 1 else 'y'})"
        ]
        for step in self.fallbacks:
            lines.append(
                f"  fallback {step.from_plan} -> {step.to_plan}: {step.reason}"
            )
        return "\n".join(lines)


def fallback_chain(
    graph: NNGraph, classification: Classification
) -> list[tuple[str, Classification]]:
    """The declared degradation order, deduplicated by plan identity."""
    chain = [
        ("chosen-plan", classification),
        ("swap-all", Classification.all_swap(graph)),
        ("recompute-all", Classification.all_recompute(graph)),
    ]
    seen: set[tuple] = set()
    unique: list[tuple[str, Classification]] = []
    for name, cls in chain:
        key = cls.key()
        if key in seen:
            continue
        seen.add(key)
        unique.append((name, cls))
    return unique


def apply_transfer_faults(
    schedule: Schedule,
    injector: FaultInjector,
    retry: RetryPolicy,
    epoch: int = 0,
) -> int:
    """Resolve transient stalls for every DMA task of ``schedule``.

    Each faulted transfer is retried in place: every failed attempt charges
    the stall time plus a bounded-exponential backoff delay to the task's
    duration.  Returns the total number of retries performed; raises
    :class:`TransferFaultError` when a transfer exceeds the retry budget.
    ``epoch`` keys the draws, so a later re-execution sees fresh transient
    conditions.
    """
    retries = 0
    for task in schedule.tasks.values():
        if task.stream is StreamName.COMPUTE:
            continue
        failures = injector.transfer_failures(task.tid, retry.max_transfer_retries,
                                              epoch=epoch)
        if failures == 0:
            continue
        if failures > retry.max_transfer_retries:
            raise TransferFaultError(
                f"transfer {task.tid!r} failed {failures} consecutive attempts "
                f"(budget: {retry.max_transfer_retries} retries)",
                tid=task.tid,
                attempts=failures,
            )
        task.duration += sum(
            injector.spec.stall_time + retry.backoff(a) for a in range(failures)
        )
        retries += failures
    return retries


def _priced(task: Task, duration: float) -> Task:
    """A fresh copy of ``task`` carrying ``duration``."""
    return Task(task.tid, task.kind, task.stream, duration, task.layer,
                task.deps, task.start_deps, task.reads, task.scratch_bytes,
                task.memory_gated, task.headroom, task.alloc_on_ready)


class _ChainEntry:
    """One plan of the chain: its clean draft, and (on first run) the
    validated template and duration table derived from it."""

    def __init__(self, builder: ScheduleBuilder) -> None:
        self.draft = builder.build_raw()
        self._builder: ScheduleBuilder | None = builder
        self._template: Schedule | None = None
        self.table: DurationTable | None = None
        #: whether no run has used the draft's clean durations yet
        self.fresh = True

    def template(self) -> Schedule:
        if self._template is None:
            self._template = self._builder.finalize()
            self.table = DurationTable(self._template.tasks,
                                       list(self._template.tasks))
            self._builder = None
        return self._template


class PlanChain:
    """A plan's fallback chain, each entry drafted and validated once.

    Entries are built when first reached.  :meth:`schedule` hands every
    attempt fresh ``Task`` objects (``apply_transfer_faults`` charges
    retries to them) over the entry's shared queues and buffers, priced
    exactly as a rebuild under ``FaultyDurations(base, faults)`` would be.
    One chain serves any number of :func:`execute_resilient` calls made
    with the arguments it was built from — one per seed of a fault sweep.
    """

    def __init__(
        self,
        graph: NNGraph,
        classification: Classification,
        machine: MachineSpec,
        *,
        options: ScheduleOptions | None = None,
        cost_model: CostModel | None = None,
        durations: DurationProvider | None = None,
    ) -> None:
        self.graph = graph
        self.classification = classification
        self.machine = machine
        self.options = options or ScheduleOptions()
        self.cost_model = cost_model
        self.durations = durations
        self.base = durations
        if self.base is None:
            self.base = CostModelDurations(graph,
                                           cost_model or CostModel(machine))
        #: a jittered cost model draws fresh durations on every call, so
        #: each run after an entry's first re-draws them as a rebuild would
        self._redraws = getattr(getattr(self.base, "cost_model", None),
                                "jitter", 0.0) > 0.0
        self.plans = fallback_chain(graph, classification)
        self._entries: list[_ChainEntry | None] = [None] * len(self.plans)

    def check(self, graph, classification, machine, *, options, cost_model,
              durations) -> None:
        """Raise ``ValueError`` unless the chain was built from these
        arguments of :func:`execute_resilient`."""
        mismatched = [
            name for name, same in (
                ("graph", graph is self.graph),
                ("classification",
                 classification.key() == self.classification.key()),
                ("machine", machine == self.machine),
                ("options", (options or ScheduleOptions()) == self.options),
                ("cost_model", cost_model is self.cost_model),
                ("durations", durations is self.durations),
            ) if not same
        ]
        if mismatched:
            raise ValueError(
                f"PlanChain was built from a different {', '.join(mismatched)}")

    def entry(self, pos: int) -> _ChainEntry:
        entry = self._entries[pos]
        if entry is None:
            entry = self._entries[pos] = _ChainEntry(ScheduleBuilder(
                self.graph, self.plans[pos][1], self.base, self.options))
        return entry

    def draft(self):
        """Chain entry 0's clean draft ``(tasks, queues, buffers)``, for
        the lockstep sweep; like a run, it uses up the draft's durations."""
        entry = self.entry(0)
        entry.fresh = False
        return entry.draft

    def schedule(self, pos: int, faults: FaultInjector | None) -> Schedule:
        """A runnable copy of entry ``pos`` priced under ``faults``."""
        entry = self.entry(pos)
        template = entry.template()
        clean = None
        if self._redraws and not entry.fresh:
            tasks, _, _ = ScheduleBuilder(
                self.graph, self.plans[pos][1], self.base, self.options,
                validate=False).build_raw()
            clean = np.array([t.duration for t in tasks.values()])
        entry.fresh = False
        if faults is not None:
            durations = entry.table.rows(faults.spec, [faults.seed], clean)[0]
        else:
            durations = entry.table.clean if clean is None else clean
        return Schedule(
            tasks={tid: _priced(t, d) for (tid, t), d
                   in zip(template.tasks.items(), durations.tolist())},
            queues=template.queues,
            buffers=template.buffers,
            meta=template.meta,
        )


def execute_resilient(
    graph: NNGraph,
    classification: Classification,
    machine: MachineSpec,
    *,
    faults: FaultInjector | None = None,
    retry: RetryPolicy | None = None,
    options: ScheduleOptions | None = None,
    cost_model: CostModel | None = None,
    durations: DurationProvider | None = None,
    chain: PlanChain | None = None,
) -> RobustResult:
    """Execute one iteration, surviving injected faults by degradation.

    Without ``faults`` this is ``execute`` plus the fallback chain: the
    clean path runs the identical schedule on the identical engine, so
    results are bit-identical to the plain executor.  ``chain`` reuses the
    schedules of an earlier call with the same arguments (it never changes
    the result); one built from other arguments raises ``ValueError``.
    """
    retry = retry or RetryPolicy()
    if chain is None:
        chain = PlanChain(graph, classification, machine, options=options,
                          cost_model=cost_model, durations=durations)
    else:
        chain.check(graph, classification, machine, options=options,
                    cost_model=cost_model, durations=durations)
    host_nominal = machine.host_swap_capacity
    host_capacity = (faults.host_capacity(host_nominal)
                     if faults is not None else host_nominal)

    plans = chain.plans
    fallbacks: list[FallbackStep] = []
    total_retries = 0
    epoch = 0
    last_error: Exception | None = None
    for chain_pos, (name, cls) in enumerate(plans):
        plan_failed: Exception | None = None
        for _ in range(retry.max_plan_attempts):
            epoch += 1
            schedule = chain.schedule(chain_pos, faults)
            try:
                if faults is not None:
                    total_retries += apply_transfer_faults(
                        schedule, faults, retry, epoch=epoch
                    )
                device_pool = host_pool = None
                if faults is not None:
                    device_pool = FaultyMemoryPool(
                        machine.usable_gpu_memory, "gpu", faults, attempt=epoch
                    )
                    host_pool = FaultyMemoryPool(
                        host_capacity, "host", faults, attempt=epoch
                    )
                result = Engine(
                    schedule,
                    device_capacity=machine.usable_gpu_memory,
                    host_capacity=host_capacity,
                    validate=False,
                    device_pool=device_pool,
                    host_pool=host_pool,
                ).run()
                metrics.count("resilience.executions")
                metrics.count("resilience.plan_attempts", epoch)
                if total_retries:
                    metrics.count("resilience.transfer_retries",
                                  total_retries)
                return RobustResult(
                    result=result,
                    plan_used=name,
                    classification=cls,
                    transfer_retries=total_retries,
                    attempts=epoch,
                    fallbacks=fallbacks,
                )
            except SpuriousOOMError as e:
                # transient: retry the same plan, fresh draws under a new epoch
                metrics.count("resilience.spurious_ooms")
                log.debug("spurious allocation failure under plan %s "
                          "(attempt %d): %s", name, epoch, e)
                plan_failed = e
                continue
            except TransferFaultError as e:
                plan_failed = e
                break  # retrying the same schedule cannot fix a dead link
            except OutOfMemoryError as e:
                plan_failed = e
                break  # the plan genuinely does not fit; degrade
        last_error = plan_failed
        if chain_pos + 1 < len(plans):
            metrics.count("resilience.fallbacks")
            log.warning("plan %s failed (%s); degrading to %s",
                        name, plan_failed, plans[chain_pos + 1][0])
            fallbacks.append(FallbackStep(
                from_plan=name,
                to_plan=plans[chain_pos + 1][0],
                reason=str(plan_failed),
                reason_kind=_failure_kind(plan_failed),
            ))
    assert last_error is not None
    metrics.count("resilience.chain_exhausted")
    log.error("fallback chain exhausted; last error: %s", last_error)
    raise last_error
