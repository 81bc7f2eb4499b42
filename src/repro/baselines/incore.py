"""The in-core baseline: no swapping, no recomputation (§5.2).

Fails with :class:`~repro.common.errors.OutOfMemoryError` as soon as the
working set exceeds GPU memory — the paper's "in-core execution fails"
outcomes for ResNet50 at batch ≥ 256."""

from __future__ import annotations

from repro.baselines.common import BaselinePlan
from repro.graph import NNGraph
from repro.hw import MachineSpec
from repro.runtime.plan import Classification


def plan_incore(graph: NNGraph, machine: MachineSpec | None = None) -> BaselinePlan:
    """Everything stays on the GPU (``machine`` accepted for planner-signature
    uniformity; in-core needs no machine knowledge)."""
    return BaselinePlan(
        name="in-core",
        classification=Classification.all_keep(graph),  # no swaps exist
    )
