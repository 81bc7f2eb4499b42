"""vDNN-style swap-only baseline (Rhu et al., MICRO'16), cited by the paper
as related work.

vDNN's "dyn" policy offloads the inputs of convolutional layers and keeps
the cheap-to-hold rest; in our map-per-layer formulation that means: a map
consumed by at least one convolution is swapped, everything else is kept.
This is a faithful *shape* of vDNN (swap-only, conv-focused, no recompute)
rather than a re-implementation of its allocator, and is included as an
extension baseline beyond the paper's own comparison set."""

from __future__ import annotations

from repro.baselines.common import BaselinePlan
from repro.graph import NNGraph
from repro.graph.ops import OpKind
from repro.hw import MachineSpec
from repro.runtime.plan import Classification, MapClass, SwapInPolicy
from repro.runtime.schedule import ScheduleOptions


def plan_vdnn(graph: NNGraph, machine: MachineSpec | None = None) -> BaselinePlan:
    """Swap maps feeding convolutions; keep the rest."""
    classes: dict[int, MapClass] = {}
    for i in graph.classifiable_maps():
        feeds_conv = any(
            graph[k].op.kind is OpKind.CONV for k in graph.consumers[i]
        )
        classes[i] = MapClass.SWAP if feeds_conv else MapClass.KEEP
    return BaselinePlan(
        name="vdnn",
        classification=Classification(classes),
        options=ScheduleOptions(policy=SwapInPolicy.NAIVE),
    )
