"""Swap-everything baselines (§5.1).

``swap-all (w/o scheduling)`` swaps every feature map and starts each
swap-in together with the computation one step ahead of its consumer — the
paper's base case in Figs. 15/16.  ``swap-all`` keeps the same classification
but adopts PoocH's improved eager swap-in schedule (§4.3)."""

from __future__ import annotations

from repro.baselines.common import BaselinePlan
from repro.graph import NNGraph
from repro.hw import MachineSpec
from repro.runtime.plan import Classification, SwapInPolicy
from repro.runtime.schedule import ScheduleOptions


def plan_swap_all_unscheduled(
    graph: NNGraph, machine: MachineSpec | None = None
) -> BaselinePlan:
    """All maps swapped; naive one-step-lookahead swap-in."""
    return BaselinePlan(
        name="swap-all(w/o scheduling)",
        classification=Classification.all_swap(graph),
        options=ScheduleOptions(policy=SwapInPolicy.NAIVE),
    )


def plan_swap_all(graph: NNGraph, machine: MachineSpec | None = None) -> BaselinePlan:
    """All maps swapped; eager memory-gated swap-in (§4.3)."""
    return BaselinePlan(
        name="swap-all",
        classification=Classification.all_swap(graph),
    )
