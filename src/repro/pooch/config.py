"""PoocH's planning configuration — the one source of a plan's schedule
settings.

Profiling, the timeline predictor and ground-truth execution must run one
swap-in policy, one forward re-fetch rule and one memory budget, or a plan
trusted by simulation is not the plan that runs (§4.3).  Every stage
therefore derives them from a :class:`PoochConfig`: the schedule through
:attr:`PoochConfig.options`, the planning capacity through the
:class:`~repro.pooch.predictor.TimelinePredictor` built from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.plan import SwapInPolicy
from repro.runtime.schedule import ScheduleOptions


@dataclass(frozen=True)
class PoochConfig:
    """Classifier knobs; defaults follow the paper where it specifies them."""

    #: swap-in schedule used for every simulation and for execution (§4.3)
    policy: SwapInPolicy = SwapInPolicy.EAGER
    #: exact-search width: at most this many L_I maps get true binary-tree
    #: enumeration; the rest fall back to the greedy scan
    max_exact_li: int = 8
    #: hard cap on step-1 predictor simulations (best plan so far is kept)
    step1_sim_budget: int = 1200
    #: bytes of device capacity the chosen plan must leave free — slack for
    #: allocator fragmentation that the counting memory model cannot see
    #: (0 reproduces the paper; see the fragmentation ablation benchmark)
    capacity_margin: int = 0
    #: forward re-fetch gap for long skip connections (extension; see
    #: ScheduleOptions.forward_refetch_gap; None reproduces the paper)
    forward_refetch_gap: int | None = None

    def __post_init__(self) -> None:
        # configs arrive from CLI flags and HTTP bodies: reject a bad value
        # here, naming it, instead of deep inside the search
        for name, low in (("step1_sim_budget", 1), ("max_exact_li", 0),
                          ("capacity_margin", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < low:
                kind = "positive" if low else "non-negative"
                raise ValueError(f"{name} must be a {kind} integer, "
                                 f"got {value!r}")
        # ScheduleOptions checks the policy and the re-fetch gap
        _ = self.options

    @property
    def options(self) -> ScheduleOptions:
        """The schedule every stage builds under this config: profiling,
        prediction and execution alike."""
        return ScheduleOptions(policy=self.policy,
                               forward_refetch_gap=self.forward_refetch_gap)

    def signature(self) -> str:
        """Stable identity of every knob that affects the *chosen plan*.
        Plan caches key on this."""
        return (
            f"policy={self.policy.value};li={self.max_exact_li};"
            f"budget={self.step1_sim_budget};margin={self.capacity_margin};"
            f"gap={self.forward_refetch_gap}"
        )
