"""Per-optimization ablation — the paper's Figs. 15 and 16.

Four methods, cumulative: swap-all without the improved swap-in schedule,
swap-all with it, step-1-only classification (swap-opt), and full PoocH.
Speedups are reported relative to the first, matching the figures' y-axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.baselines import plan_swap_all, plan_swap_all_unscheduled
from repro.baselines.common import BaselinePlan
from repro.baselines.swapopt import plan_swap_opt
from repro.common.errors import OutOfMemoryError
from repro.experiments.cache import optimize_cached, profile_cached
from repro.graph import NNGraph
from repro.hw import MachineSpec
from repro.pooch import PoochConfig
from repro.runtime.executor import images_per_second

ABLATION_METHODS = (
    "swap-all(w/o scheduling)",
    "swap-all",
    "swap-opt",
    "pooch",
)


@dataclass(frozen=True)
class AblationRow:
    model: str
    method: str
    images_per_second: float | None
    speedup: float | None  # vs swap-all(w/o scheduling)
    failure: str = ""

    @property
    def ok(self) -> bool:
        return self.images_per_second is not None


def ablation_rows(
    model_key: str,
    build: Callable[[], NNGraph],
    batch: int,
    machine: MachineSpec,
    config: PoochConfig | None = None,
) -> list[AblationRow]:
    """Measure the four ablation points for one model on one machine."""
    graph = build()
    plans: list[tuple[str, BaselinePlan | None]] = [
        ("swap-all(w/o scheduling)", plan_swap_all_unscheduled(graph)),
        ("swap-all", plan_swap_all(graph)),
    ]
    _, profile = profile_cached(model_key, build, machine,
                                (config or PoochConfig()).options)
    plans.append(
        ("swap-opt", plan_swap_opt(graph, machine, profile=profile,
                                   config=config))
    )
    pooch_res = optimize_cached(model_key, build, machine, config)

    rows: list[AblationRow] = []
    base_ips: float | None = None
    for name, plan in plans:
        try:
            result = plan.execute(graph, machine)
            ips = images_per_second(result, batch)
        except OutOfMemoryError as e:
            rows.append(AblationRow(graph.name, name, None, None, str(e)[:120]))
            continue
        if base_ips is None:
            base_ips = ips
        rows.append(AblationRow(graph.name, name, ips,
                                ips / base_ips if base_ips else None))
    try:
        gt = pooch_res.execute(machine)
        ips = images_per_second(gt, batch)
        rows.append(AblationRow(graph.name, "pooch", ips,
                                ips / base_ips if base_ips else None))
    except OutOfMemoryError as e:
        rows.append(AblationRow(graph.name, "pooch", None, None, str(e)[:120]))
    return rows
