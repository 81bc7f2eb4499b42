"""Baseline out-of-core strategies the paper compares against (§5).

Every baseline is expressed as a *planner*: a function from (graph, machine)
to a :class:`~repro.runtime.plan.Classification` plus the
:class:`~repro.runtime.plan.SwapInPolicy` it executes with, so all methods
run through the exact same runtime and simulator as PoocH.
"""

from repro.baselines.checkpointing import plan_checkpoint
from repro.baselines.common import BaselinePlan
from repro.baselines.incore import plan_incore
from repro.baselines.recompute_all import plan_recompute_all
from repro.baselines.superneurons import plan_superneurons
from repro.baselines.swapall import plan_swap_all, plan_swap_all_unscheduled
from repro.baselines.swapopt import plan_swap_opt
from repro.baselines.vdnn import plan_vdnn

__all__ = [
    "BaselinePlan",
    "plan_incore",
    "plan_swap_all",
    "plan_swap_all_unscheduled",
    "plan_swap_opt",
    "plan_superneurons",
    "plan_vdnn",
    "plan_recompute_all",
    "plan_checkpoint",
]
