"""Seeded fault injection and graceful degradation.

The paper's premise is that a short profile predicts the rest of training —
this package supplies the adversary: deterministic, seed-driven faults
(duration noise, degraded links, transient transfer stalls, spurious
allocator failures, host pinned-memory exhaustion, noisy profiles) and the
resilience machinery that survives them (bounded transfer retries, plan
re-execution, and the chosen-plan → swap-all → recompute-all fallback
chain).

Everything is keyed off a single ``seed``: a faulted run is bit-reproducible
under the same ``FaultSpec`` and seed, and an inert spec is exactly the
unfaulted system.
"""

from repro.faults.injector import FaultInjector, FaultyDurations, FaultyMemoryPool
from repro.faults.resilient import (
    FallbackStep,
    PlanChain,
    RetryPolicy,
    RobustResult,
    apply_transfer_faults,
    execute_resilient,
    fallback_chain,
)
from repro.faults.spec import FaultSpec
from repro.faults.sweep import (
    SweepOutcome,
    fault_seed_sweep,
    seed_duration_matrix,
    vectorizable,
)

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "FaultyDurations",
    "FaultyMemoryPool",
    "RetryPolicy",
    "FallbackStep",
    "PlanChain",
    "RobustResult",
    "SweepOutcome",
    "apply_transfer_faults",
    "execute_resilient",
    "fallback_chain",
    "fault_seed_sweep",
    "seed_duration_matrix",
    "vectorizable",
]
