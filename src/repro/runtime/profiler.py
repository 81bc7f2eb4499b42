"""Runtime profiling — the paper's §4.2.

PoocH's first phase runs a few training iterations with the safe all-swap
classification while recording, per layer: forward/backward computation time,
swap-out/swap-in time, and (via the memory pool trace) the sizes and order of
every malloc/free.  The resulting :class:`Profile` is the *only* information
the classification search is allowed to use — the predictor replays schedules
from these measured durations, never from the analytic cost model, mirroring
the measured-vs-simulated split of the real system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ProfileLookupError, ScheduleError, nearest_keys
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
    """Averaged per-layer timings measured during the profiling iterations.

    Attributes:
        graph_name / machine_name: provenance.
        fwd / bwd: seconds per layer (fwd of an INPUT layer is its batch
            upload time).
        swap_out / swap_in: seconds per classifiable feature map.
        update_time: optimizer step duration.
        map_bytes: feature-map sizes (profiling also records sizes).
        iterations: how many iterations were averaged.
        baseline: deterministic all-swap timeline on the averaged durations
            — the timeline the classifier's overlap analysis (L_O / L_I)
            inspects.  Under deterministic timing it is the profiling
            iteration's own run (see :func:`run_profiling`).
    """

    graph_name: str
    machine_name: str
    fwd: dict[int, float]
    bwd: dict[int, float]
    swap_out: dict[int, float]
    swap_in: dict[int, float]
    update_time: float
    map_bytes: dict[int, int]
    iterations: int = 1
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
    iterations: int = 1,
    options: ScheduleOptions | None = None,
    durations: DurationProvider | None = None,
) -> Profile:
    """Execute the profiling phase and return the averaged :class:`Profile`.

    Runs ``iterations`` ground-truth iterations under the all-swap
    classification (the paper's default profiling plan) and averages every
    task's duration.  The baseline timeline is the all-swap schedule run on
    the averages.  When every averaged duration equals the last iteration's
    own task duration bit for bit (deterministic timing, the default
    ``iterations=1``), that iteration already *is* that run — the all-swap
    structure does not depend on durations, and the engine is deterministic
    — so its :class:`RunResult` becomes the baseline.  Otherwise (jittered
    iterations, or an average of three or more equal values rounding off by
    an ulp) the baseline is replayed from the averages.

    ``options`` (default: the EAGER schedule) is the schedule the plan will
    run under — PoocH passes its config's
    :attr:`~repro.pooch.config.PoochConfig.options` — so the profiled
    transfers and the baseline timeline are the ones execution sees.
    ``durations`` overrides the ground-truth duration source entirely (the
    fault layer profiles through it to model a machine that misbehaves while
    being measured); the default is the analytic cost model.
    """
    if iterations < 1:
        raise ScheduleError("profiling needs at least one iteration")
    if durations is None:
        cost_model = cost_model or CostModel(machine)
        durations = CostModelDurations(graph, cost_model)
    all_swap = Classification.all_swap(graph)
    options = options or ScheduleOptions()

    sums: dict[tuple[TaskKind, int], float] = {}
    counts: dict[tuple[TaskKind, int], int] = {}
    with metrics.span("profile", category="profile", graph=graph.name,
                      machine=machine.name, iterations=iterations):
        metrics.count("profile.iterations", iterations)
        for _ in range(iterations):
            schedule = build_schedule(graph, all_swap, durations, options)
            result = Engine(
                schedule,
                device_capacity=machine.usable_gpu_memory,
                host_capacity=machine.host_swap_capacity,
            ).run()
            for rec in result.records:
                key = (rec.kind, rec.layer)
                # read the task's exact duration rather than the record
                # span: (start + d) - start can differ from d by one ulp,
                # and at a knife-edge schedule that is enough to flip task
                # interleavings between the predictor's replay and the
                # ground truth
                sums[key] = (sums.get(key, 0.0)
                             + schedule.tasks[rec.tid].duration)
                counts[key] = counts.get(key, 0) + 1

    # average per occurrence, not per iteration: with forward re-fetch a map
    # can have several swap-in records in one iteration
    avg = {key: total / counts[key] for key, total in sums.items()}
    fwd = {l: t for (k, l), t in avg.items() if k is TaskKind.FWD}
    bwd = {l: t for (k, l), t in avg.items() if k is TaskKind.BWD}
    swap_out = {l: t for (k, l), t in avg.items() if k is TaskKind.SWAP_OUT}
    swap_in = {l: t for (k, l), t in avg.items() if k is TaskKind.SWAP_IN}
    update_time = avg.get((TaskKind.UPDATE, -1), 0.0)

    profile = Profile(
        graph_name=graph.name,
        machine_name=machine.name,
        fwd=fwd,
        bwd=bwd,
        swap_out=swap_out,
        swap_in=swap_in,
        update_time=update_time,
        map_bytes={l.index: l.out_spec.nbytes for l in graph},
        iterations=iterations,
    )
    # the all-swap plan run on the averaged profile — the canonical baseline
    # timeline for the classifier's overlap analysis
    with metrics.span("profile.baseline", category="profile"):
        if all(avg[(rec.kind, rec.layer)] == schedule.tasks[rec.tid].duration
               for rec in result.records):
            # the last iteration ran exactly the schedule a replay would build
            profile.baseline = result
        else:
            baseline_schedule = build_schedule(graph, all_swap,
                                               profile.durations(), options)
            profile.baseline = Engine(
                baseline_schedule,
                device_capacity=machine.usable_gpu_memory,
                host_capacity=machine.host_swap_capacity,
            ).run()
    log.debug(
        "profiled %r on %s: %d iterations, %d layers, update %.3g s, "
        "baseline makespan %.6f s",
        graph.name, machine.name, iterations, len(fwd), update_time,
        profile.baseline.makespan,
    )
    return profile
