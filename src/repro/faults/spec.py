"""Declarative fault specifications.

A :class:`FaultSpec` names *what* can go wrong and how often; the
:class:`~repro.faults.injector.FaultInjector` turns it into deterministic,
seed-driven decisions.  Specs parse from the CLI's compact
``key=value,key=value`` syntax::

    --faults "duration_noise=0.1,stall_prob=0.05,oom_prob=0.01"

Every knob defaults to "off", so an empty spec is the identity: a run under
``FaultSpec()`` is bit-identical to a run with no fault layer at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from repro.common.errors import FaultError


@dataclass(frozen=True)
class FaultSpec:
    """What the fault injector is allowed to break, and how hard.

    Attributes:
        duration_noise: relative stddev of multiplicative noise applied to
            every executed task duration (compute and transfers) — models
            interference on a shared node.  0 disables.
        profile_noise: relative stddev of multiplicative noise applied to
            the *profiled* durations fed to the classifier — models the
            paper's few-iteration profile mispredicting the rest of
            training.  0 disables.
        bandwidth_factor: fraction of nominal H2D/D2H bandwidth actually
            delivered (a degraded PCIe link); transfer durations are divided
            by it.  1.0 disables, must be in (0, 1].
        stall_prob: per-attempt probability that a DMA transfer transiently
            fails and must be retried (after wasting ``stall_time`` plus
            backoff).  0 disables.
        stall_time: seconds one failed transfer attempt wastes before the
            failure is detected; must be finite and >= 0.
        oom_prob: per-allocation probability that a *device* allocation
            spuriously fails even though memory is available.  0 disables.
        host_oom_prob: same for *host* (pinned-memory) allocations.
        host_capacity_factor: fraction of host DRAM actually available for
            swap space (pinned-memory exhaustion by other tenants); must be
            in (0, 1].  1.0 disables.
    """

    duration_noise: float = 0.0
    profile_noise: float = 0.0
    bandwidth_factor: float = 1.0
    stall_prob: float = 0.0
    stall_time: float = 1e-3
    oom_prob: float = 0.0
    host_oom_prob: float = 0.0
    host_capacity_factor: float = 1.0

    def __post_init__(self) -> None:
        for name in ("duration_noise", "profile_noise", "stall_prob",
                     "oom_prob", "host_oom_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise FaultError(f"{name} must be in [0, 1], got {v!r}")
        for name in ("bandwidth_factor", "host_capacity_factor"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise FaultError(f"{name} must be in (0, 1], got {v!r}")
        if not (math.isfinite(self.stall_time) and self.stall_time >= 0):
            raise FaultError(
                f"stall_time must be finite and >= 0, got {self.stall_time!r}"
            )

    @property
    def active(self) -> bool:
        """Whether any fault is actually enabled."""
        return self != FaultSpec()

    @staticmethod
    def parse(text: str) -> "FaultSpec":
        """Parse the CLI syntax: comma-separated ``key=value`` pairs.

        ``"none"`` / ``""`` yield the inert spec.  Unknown keys, duplicated
        keys and unparseable values raise
        :class:`~repro.common.errors.FaultError`.
        """
        text = text.strip()
        if not text or text == "none":
            return FaultSpec()
        known = {f.name for f in fields(FaultSpec)}
        seen: set[str] = set()
        spec = FaultSpec()
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise FaultError(
                    f"bad fault spec item {item!r} (expected key=value; "
                    f"known keys: {sorted(known)})"
                )
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in known:
                raise FaultError(
                    f"unknown fault spec key {key!r} (known: {sorted(known)})"
                )
            if key in seen:
                raise FaultError(
                    f"duplicate fault spec key {key!r} (each key may appear "
                    "at most once)"
                )
            seen.add(key)
            try:
                spec = replace(spec, **{key: float(value)})
            except ValueError:
                raise FaultError(
                    f"bad value for fault spec key {key!r}: {value!r}"
                ) from None
        return spec

    def describe(self) -> str:
        """Compact non-default ``key=value`` rendering (inverse of parse)."""
        default = FaultSpec()
        parts = [
            f"{f.name}={getattr(self, f.name):g}"
            for f in fields(FaultSpec)
            if getattr(self, f.name) != getattr(default, f.name)
        ]
        return ",".join(parts) if parts else "none"
