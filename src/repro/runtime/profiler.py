"""Runtime profiling — the paper's §4.2.

PoocH's first phase runs a training iteration with the safe all-swap
classification while recording, per layer: forward/backward computation time,
swap-out/swap-in time, and (via the memory pool trace) the sizes and order of
every malloc/free.  The resulting :class:`Profile` is the *only* information
the classification search is allowed to use — the predictor replays schedules
from these measured durations, never from the analytic cost model, mirroring
the measured-vs-simulated split of the real system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ProfileLookupError, nearest_keys
from repro.graph import NNGraph
from repro.gpusim import Engine, RunResult, TaskKind
from repro.hw import CostModel, MachineSpec
from repro.obs import get_logger, metrics
from repro.runtime.durations import CostModelDurations, DurationProvider
from repro.runtime.plan import Classification
from repro.runtime.schedule import ScheduleOptions, build_schedule

log = get_logger(__name__)


@dataclass
class Profile:
    """Per-layer timings measured during the profiling iteration.

    Attributes:
        graph_name / machine_name: provenance.
        fwd / bwd: seconds per layer (fwd of an INPUT layer is its batch
            upload time).
        swap_out / swap_in: seconds per classifiable feature map.
        update_time: optimizer step duration.
        map_bytes: feature-map sizes (profiling also records sizes).
        baseline: the all-swap timeline on these durations — the timeline
            the classifier's overlap analysis (L_O / L_I) inspects.  For a
            measured profile it is the profiling iteration's own run (see
            :func:`run_profiling`).
    """

    graph_name: str
    machine_name: str
    fwd: dict[int, float]
    bwd: dict[int, float]
    swap_out: dict[int, float]
    swap_in: dict[int, float]
    update_time: float
    map_bytes: dict[int, int]
    baseline: RunResult | None = field(default=None, repr=False)

    def durations(self) -> "ProfileDurations":
        return ProfileDurations(self)


class ProfileDurations:
    """A :class:`~repro.runtime.durations.DurationProvider` backed by a
    :class:`Profile` — what PoocH's internal timeline simulation runs on."""

    def __init__(self, profile: Profile) -> None:
        self.profile = profile

    def _lookup(self, table: dict[int, float], layer: int, what: str) -> float:
        try:
            return table[layer]
        except KeyError:
            near = nearest_keys(layer, table)
            raise ProfileLookupError(
                f"profile of {self.profile.graph_name!r} "
                f"(machine {self.profile.machine_name!r}) has no {what} time "
                f"for layer {layer} (was it classifiable during profiling?); "
                f"table {what!r} holds {len(table)} layers"
                + (f", nearest: {list(near)}" if near else ""),
                key=layer,
                table=what,
                nearest=near,
            ) from None

    def fwd(self, layer: int) -> float:
        return self._lookup(self.profile.fwd, layer, "forward")

    def bwd(self, layer: int) -> float:
        return self._lookup(self.profile.bwd, layer, "backward")

    def swap_out(self, map_id: int) -> float:
        return self._lookup(self.profile.swap_out, map_id, "swap-out")

    def swap_in(self, map_id: int) -> float:
        return self._lookup(self.profile.swap_in, map_id, "swap-in")

    def input_load(self, layer: int) -> float:
        return self._lookup(self.profile.fwd, layer, "input-load")

    def update(self) -> float:
        return self.profile.update_time


def run_profiling(
    graph: NNGraph,
    machine: MachineSpec,
    cost_model: CostModel | None = None,
    options: ScheduleOptions | None = None,
    durations: DurationProvider | None = None,
) -> Profile:
    """Execute the profiling phase and return the measured :class:`Profile`.

    Runs one ground-truth iteration under the all-swap classification (the
    paper's default profiling plan) and records every task's duration.  The
    substrate is deterministic, so one iteration measures what several
    would; measurement noise is the fault layer's ``profile_noise``.  That
    iteration's :class:`RunResult` is the profile's baseline: the all-swap
    structure does not depend on durations, and the engine is deterministic,
    so it is exactly the run a replay from the profile would give.

    ``options`` (default: the EAGER schedule) is the schedule the plan will
    run under — PoocH passes its config's
    :attr:`~repro.pooch.config.PoochConfig.options` — so the profiled
    transfers and the baseline timeline are the ones execution sees.
    ``durations`` overrides the ground-truth duration source entirely (the
    fault layer profiles through it to model a machine that misbehaves while
    being measured); the default is the analytic cost model.
    """
    if durations is None:
        cost_model = cost_model or CostModel(machine)
        durations = CostModelDurations(graph, cost_model)
    options = options or ScheduleOptions()

    with metrics.span("profile", category="profile", graph=graph.name,
                      machine=machine.name):
        schedule = build_schedule(graph, Classification.all_swap(graph),
                                  durations, options)
        result = Engine(
            schedule,
            device_capacity=machine.usable_gpu_memory,
            host_capacity=machine.host_swap_capacity,
        ).run()

    # read each task's exact duration rather than the record span: (start +
    # d) - start can differ from d by one ulp, and at a knife-edge schedule
    # that is enough to flip task interleavings between the predictor's
    # replay and the ground truth.  With forward re-fetch a map has several
    # swap-in records; one provider prices them all, so they are equal.
    measured = {(rec.kind, rec.layer): schedule.tasks[rec.tid].duration
                for rec in result.records}

    def table(kind: TaskKind) -> dict[int, float]:
        return {l: t for (k, l), t in measured.items() if k is kind}

    profile = Profile(
        graph_name=graph.name,
        machine_name=machine.name,
        fwd=table(TaskKind.FWD),
        bwd=table(TaskKind.BWD),
        swap_out=table(TaskKind.SWAP_OUT),
        swap_in=table(TaskKind.SWAP_IN),
        update_time=measured.get((TaskKind.UPDATE, -1), 0.0),
        map_bytes={l.index: l.out_spec.nbytes for l in graph},
        baseline=result,
    )
    log.debug(
        "profiled %r on %s: %d layers, update %.3g s, "
        "baseline makespan %.6f s",
        graph.name, machine.name, len(profile.fwd), profile.update_time,
        result.makespan,
    )
    return profile
