"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: it wraps public functions of each layer
for the duration of a traced round and restores them afterwards.  Class
methods are wrapped on the class; module functions are wrapped in the
namespace that *calls* them (``repro.pooch.predictor.apply_keep_delta``, not
``repro.runtime.schedule.apply_keep_delta``), because ``from x import f``
binds the caller's own name.

Each thread keeps its own call stack and totals, so the planning server's
handler and worker threads never race on a counter.  A hooked call's self
time is its inclusive time minus the inclusive time of hooked calls made
beneath it on the same thread; time spent in depth-0 hooked calls is the
tracer's *coverage* of the work it observed.

A hook whose target no longer resolves (a later change deleted or renamed
it) is listed in :attr:`Tracer.missing` and contributes zeros; it never
fails the run.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

#: (args, kwargs, result) -> a per-call count added to the hook's ``units``
Units = Callable[[tuple, dict, Any], float]


def _rows(args: tuple, kwargs: dict, result: Any) -> float:
    return len(result)


def _resumed(args: tuple, kwargs: dict, result: Any) -> float:
    resume = kwargs.get("resume_from", args[2] if len(args) > 2 else None)
    return float(resume is not None)


@dataclass(frozen=True)
class Hook:
    """One traced layer boundary: ``name`` aggregates every target."""

    name: str
    #: ``"module:attr"`` or ``"module:Class.method"``
    targets: tuple[str, ...]
    units: Units | None = None


HOOKS: tuple[Hook, ...] = (
    Hook("vecengine.compile", ("repro.gpusim.vecengine:VectorTables.__init__",)),
    Hook("vecengine.run_batch", ("repro.gpusim.vecengine:VectorEngine.run_batch",),
         units=_rows),
    Hook("classifier.classify", ("repro.pooch.classifier:PoochClassifier.classify",)),
    Hook("predictor.predict", ("repro.pooch.predictor:TimelinePredictor.predict",)),
    Hook("predictor.predict_keep_batch",
         ("repro.pooch.predictor:TimelinePredictor.predict_keep_batch",)),
    Hook("predictor.provably_infeasible",
         ("repro.pooch.predictor:TimelinePredictor.provably_infeasible",)),
    Hook("schedule.apply_keep_delta", ("repro.pooch.predictor:apply_keep_delta",)),
    Hook("schedule.apply_recompute_delta",
         ("repro.pooch.predictor:apply_recompute_delta",)),
    Hook("schedule.liveness_floor", ("repro.pooch.predictor:liveness_floor",)),
    Hook("schedule.build_schedule", (
        "repro.pooch.predictor:build_schedule",
        "repro.runtime.executor:build_schedule",
        "repro.runtime.profiler:build_schedule",
        "repro.faults.resilient:build_schedule",
    )),
    Hook("schedule.build_raw", ("repro.runtime.schedule:ScheduleBuilder.build_raw",)),
    Hook("fastengine.run", ("repro.gpusim.fastengine:FastEngine.run",),
         units=_resumed),
    Hook("engine.run", ("repro.gpusim.engine:Engine.run",)),
    Hook("profiler.run_profiling", ("repro.pooch.pipeline:run_profiling",)),
    Hook("executor.execute", ("repro.pooch.pipeline:execute",)),
    Hook("multidevice.plan_staggered", ("repro.pooch.pipeline:plan_staggered",)),
    Hook("multidevice.simulate",
         ("repro.pooch.multidevice:simulate_multi_device",)),
    Hook("sweep.seed_duration_matrix", ("repro.faults.sweep:seed_duration_matrix",)),
    Hook("resilient.execute_resilient", ("repro.faults.sweep:execute_resilient",)),
    Hook("serve.submit", ("repro.serve.jobs:JobManager.submit",)),
    Hook("serve.planner_optimize", ("repro.serve.jobs:ServePlanner.optimize",)),
    Hook("plan_io.load_plan", ("repro.runtime.plan_io:PlanCache.load_plan",)),
    Hook("plan_io.store_plan", ("repro.runtime.plan_io:PlanCache.store_plan",)),
)

_ABSENT = object()


class _ThreadState:
    __slots__ = ("stack", "stats", "top")

    def __init__(self) -> None:
        #: one children-time accumulator per open hooked call
        self.stack: list[float] = []
        #: hook name -> [calls, inclusive s, self s, units]
        self.stats: dict[str, list[float]] = {}
        #: inclusive time of depth-0 hooked calls
        self.top = 0.0


class Tracer:
    """Installs :data:`HOOKS`, accumulates totals across traced rounds."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._resolved = self._resolve()

    # -- resolution ---------------------------------------------------------------

    def _resolve(self) -> list[tuple[Any, str, Hook]]:
        resolved = []
        for hook in HOOKS:
            for target in hook.targets:
                module_name, _, path = target.partition(":")
                *owner_path, attr = path.split(".")
                try:
                    owner: Any = importlib.import_module(module_name)
                    for part in owner_path:
                        owner = getattr(owner, part)
                    getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                resolved.append((owner, attr, hook))
        return resolved

    # -- installation -------------------------------------------------------------

    def install(self) -> Callable[[], None]:
        """Wrap every resolved target; returns the function that restores
        the originals."""
        saved = []
        for owner, attr, hook in self._resolved:
            original = owner.__dict__.get(attr, _ABSENT)
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(getattr(owner, attr), hook))

        def restore() -> None:
            for owner, attr, original in reversed(saved):
                if original is _ABSENT:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

        return restore

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        name, units, state_of = hook.name, hook.units, self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                rec = state.stats.get(name)
                if rec is None:
                    rec = state.stats[name] = [0, 0.0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                else:
                    state.top += elapsed
            if units is not None:
                rec[3] += units(args, kwargs, result)
            return result

        return traced

    # -- results ------------------------------------------------------------------

    def totals(self) -> dict[str, list[float]]:
        """Hook name -> [calls, inclusive s, self s, units], all threads."""
        out: dict[str, list[float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, rec in state.stats.items():
                acc = out.setdefault(name, [0, 0.0, 0.0, 0.0])
                for i, v in enumerate(rec):
                    acc[i] += v
        return out

    def top_level_s(self) -> float:
        """Inclusive time of depth-0 hooked calls, summed over threads."""
        with self._lock:
            return sum(state.top for state in self._states)
