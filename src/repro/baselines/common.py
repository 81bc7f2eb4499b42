"""Shared baseline plumbing: a (classification, schedule options) pair and a
uniform execution helper so every method measures through the same
runtime."""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph import NNGraph
from repro.gpusim import RunResult
from repro.hw import CostModel, MachineSpec
from repro.runtime.executor import execute
from repro.runtime.plan import Classification
from repro.runtime.schedule import ScheduleOptions


@dataclass(frozen=True)
class BaselinePlan:
    """A baseline's decision: what to do with each map, and the schedule
    options (swap-in policy, forward re-fetch gap) it was planned under and
    runs under."""

    name: str
    classification: Classification
    options: ScheduleOptions = ScheduleOptions()

    def execute(
        self, graph: NNGraph, machine: MachineSpec,
        cost_model: CostModel | None = None,
    ) -> RunResult:
        return execute(
            graph, self.classification, machine, cost_model=cost_model,
            options=self.options,
        )
