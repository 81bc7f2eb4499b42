"""Sublinear-memory checkpointing (Chen et al., "Training Deep Nets with
Sublinear Memory Cost", 2016) — the pure-recompute line of work the paper
cites, implemented properly.

Naive recompute-all recurses from every backward use to the network input
and materialises entire stages at once (it OOMs on deep residual nets — see
``plan_recompute_all``).  Chen's method instead *checkpoints* every k-th
activation (k ≈ √n) and recomputes only within a segment, bounding both the
extra compute and the transient memory to one segment.

Checkpoint selection here: the INPUT map, every k-th classifiable map, all
join outputs (residual adds / concats — keeping them prevents recursion
across segment boundaries through identity paths), and anything
non-recomputable.  Everything else is recomputed from the nearest upstream
checkpoints.  No swapping is used, true to the original method.
"""

from __future__ import annotations

import math

from repro.baselines.common import BaselinePlan
from repro.graph import NNGraph
from repro.graph.ops import OpKind
from repro.hw import MachineSpec
from repro.runtime.plan import Classification, MapClass


def plan_checkpoint(
    graph: NNGraph,
    machine: MachineSpec | None = None,
    segment_length: int | None = None,
) -> BaselinePlan:
    """Keep every ``segment_length``-th map (default √n) plus joins and the
    input; recompute the rest."""
    classifiable = graph.classifiable_maps()
    n = len(classifiable)
    k = segment_length or max(2, math.isqrt(n))
    classes: dict[int, MapClass] = {}
    for pos, i in enumerate(classifiable):
        layer = graph[i]
        is_checkpoint = (
            pos % k == 0
            or layer.op.kind in (OpKind.INPUT, OpKind.ADD, OpKind.CONCAT)
            or not layer.op.recomputable
        )
        classes[i] = MapClass.KEEP if is_checkpoint else MapClass.RECOMPUTE
    return BaselinePlan(
        name=f"checkpoint(k={k})",
        classification=Classification(classes),  # no swaps: any policy
    )
