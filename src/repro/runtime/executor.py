"""Ground-truth execution conveniences.

``execute`` runs one training iteration of a graph under a classification on
a machine spec and returns the full timeline; the helpers convert timelines
to the paper's reporting units (#images/s)."""

from __future__ import annotations

from repro.graph import NNGraph
from repro.gpusim import Engine, RunResult
from repro.hw import CostModel, MachineSpec
from repro.runtime.durations import CostModelDurations, DurationProvider
from repro.runtime.plan import Classification
from repro.runtime.schedule import ScheduleOptions, build_schedule


def execute(
    graph: NNGraph,
    classification: Classification,
    machine: MachineSpec,
    *,
    cost_model: CostModel | None = None,
    durations: DurationProvider | None = None,
    options: ScheduleOptions | None = None,
    device_pool=None,
    host_pool=None,
) -> RunResult:
    """Simulate one training iteration (ground truth).

    Raises :class:`~repro.common.errors.OutOfMemoryError` when the plan does
    not fit the machine — the simulated analogue of the "execution fails"
    outcomes in the paper's Figs. 17–22.  ``options`` defaults to the EAGER
    schedule.  ``device_pool`` / ``host_pool`` inject pre-built memory pools
    (a :class:`~repro.gpusim.allocator.BlockMemoryPool` to model
    fragmentation; the fault layer passes pools whose allocations can
    spuriously fail).
    """
    if durations is None:
        durations = CostModelDurations(graph, cost_model or CostModel(machine))
    schedule = build_schedule(graph, classification, durations,
                              options or ScheduleOptions())
    engine = Engine(
        schedule,
        device_capacity=machine.usable_gpu_memory,
        host_capacity=machine.host_swap_capacity,
        device_pool=device_pool,
        host_pool=host_pool,
    )
    return engine.run()


def iteration_time(result: RunResult) -> float:
    """Duration of the simulated iteration, seconds."""
    return result.makespan


def images_per_second(result: RunResult, batch: int) -> float:
    """The paper's throughput metric: batch size / iteration time."""
    if result.makespan <= 0:
        raise ValueError("empty timeline")
    return batch / result.makespan
