"""Duration providers: where task run-times come from.

The schedule builder is agnostic to the source of durations.  Ground-truth
execution uses :class:`CostModelDurations` (the analytic V100 stand-in);
PoocH's internal timeline predictor uses
:class:`repro.runtime.profiler.ProfileDurations` (measured times from the
profiling phase) — exactly the paper's split between the real machine and the
simulation used during classification.
"""

from __future__ import annotations

from typing import Protocol

from repro.graph import NNGraph
from repro.hw import CostModel


class DurationProvider(Protocol):
    """Per-task durations, keyed by layer / feature-map index."""

    def fwd(self, layer: int) -> float:
        """Forward computation of ``layer`` (also the cost of one
        recomputation of its output)."""
        ...

    def bwd(self, layer: int) -> float:
        """Backward computation of ``layer``."""
        ...

    def swap_out(self, map_id: int) -> float:
        """Device→host copy of feature map ``map_id``."""
        ...

    def swap_in(self, map_id: int) -> float:
        """Host→device copy of feature map ``map_id``."""
        ...

    def input_load(self, layer: int) -> float:
        """Host→device upload of the training mini-batch (INPUT layers)."""
        ...

    def update(self) -> float:
        """Optimizer parameter update at the end of the iteration."""
        ...


class CostModelDurations:
    """Durations derived analytically from a :class:`~repro.hw.CostModel`."""

    def __init__(self, graph: NNGraph, cost_model: CostModel) -> None:
        self.graph = graph
        self.cost_model = cost_model

    def fwd(self, layer: int) -> float:
        return self.cost_model.fwd_time(self.graph[layer].op)

    def bwd(self, layer: int) -> float:
        return self.cost_model.bwd_time(self.graph[layer].op)

    def swap_out(self, map_id: int) -> float:
        return self.cost_model.swap_out_time(self.graph[map_id].out_spec.nbytes)

    def swap_in(self, map_id: int) -> float:
        return self.cost_model.swap_in_time(self.graph[map_id].out_spec.nbytes)

    def input_load(self, layer: int) -> float:
        return self.cost_model.swap_in_time(self.graph[layer].out_spec.nbytes)

    def update(self) -> float:
        return self.cost_model.update_time(self.graph.total_param_bytes)
