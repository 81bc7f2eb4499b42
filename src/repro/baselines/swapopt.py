"""The "swap-opt" ablation point (§5.1): PoocH's step-1 keep/swap search
only, with the improved swap-in schedule but no recomputation."""

from __future__ import annotations

from repro.baselines.common import BaselinePlan
from repro.graph import NNGraph
from repro.hw import CostModel, MachineSpec
from repro.pooch.classifier import PoochClassifier
from repro.pooch.config import PoochConfig
from repro.runtime.profiler import Profile, run_profiling


def plan_swap_opt(
    graph: NNGraph,
    machine: MachineSpec,
    *,
    profile: Profile | None = None,
    cost_model: CostModel | None = None,
    config: PoochConfig | None = None,
) -> BaselinePlan:
    """Profile under the config's schedule (unless given) and run only
    step 1 of the classification."""
    cfg = config or PoochConfig()
    if profile is None:
        profile = run_profiling(graph, machine, cost_model=cost_model,
                                options=cfg.options)
    classifier = PoochClassifier(graph, profile, machine, cfg)
    classification, _ = classifier.classify(steps=1)
    return BaselinePlan(
        name="swap-opt",
        classification=classification,
        options=cfg.options,
    )
