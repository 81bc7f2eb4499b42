"""Recompute-only baseline in the spirit of Chen et al.'s sublinear-memory
training (arXiv 2016), cited by the paper as the pure-recompute line of work.

Every recomputable map is discarded after forward and regenerated on demand;
maps that cannot be recomputed (the mini-batch, dropout masks) swap instead.
With no checkpoint segmentation this recomputes long chains recursively — the
worst case of the recompute method's extra-computation overhead that the
hybrid approach is designed to avoid."""

from __future__ import annotations

from repro.baselines.common import BaselinePlan
from repro.graph import NNGraph
from repro.hw import MachineSpec
from repro.runtime.plan import Classification


def plan_recompute_all(
    graph: NNGraph, machine: MachineSpec | None = None
) -> BaselinePlan:
    return BaselinePlan(
        name="recompute-all",
        classification=Classification.all_recompute(graph),
    )
