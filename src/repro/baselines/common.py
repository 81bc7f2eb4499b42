"""Shared baseline plumbing: a (classification, policy) pair and a uniform
execution helper so every method measures through the same runtime."""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph import NNGraph
from repro.gpusim import RunResult
from repro.hw import CostModel, MachineSpec
from repro.runtime.executor import execute
from repro.runtime.plan import Classification, SwapInPolicy
from repro.runtime.schedule import ScheduleOptions


@dataclass(frozen=True)
class BaselinePlan:
    """A baseline's decision: what to do with each map, and when swap-ins
    start."""

    name: str
    classification: Classification
    policy: SwapInPolicy

    def execute(
        self, graph: NNGraph, machine: MachineSpec,
        cost_model: CostModel | None = None,
    ) -> RunResult:
        return execute(
            graph, self.classification, machine, cost_model=cost_model,
            options=ScheduleOptions(policy=self.policy),
        )
