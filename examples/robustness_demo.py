#!/usr/bin/env python
"""Robustness: what happens when the machine misbehaves?

The paper profiles once and trusts the numbers.  This example stops
trusting them: a seeded `FaultInjector` perturbs the profile, inflates
task durations, stalls transfers and fires spurious allocator OOMs, and
the resilient executor has to live with it — bounded transfer retries,
plan-level retry on transient OOM, and the chosen-plan → swap-all →
recompute-all fallback chain when a plan stops being viable.

1. run one faulted iteration and print the recovery story,
2. show that the same fault seed reproduces it bit-for-bit,
3. sweep a noise ladder and tabulate the degradation profile.

Run:  python examples/robustness_demo.py  [fault-seed]   (~30 s)
"""

import sys

from repro import PoocH
from repro.analysis import robustness_report
from repro.faults import FaultInjector, FaultSpec, RetryPolicy
from repro.models import alexnet
from repro.hw import scaled_machine, X86_V100


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    machine = scaled_machine(X86_V100, mem_scale=0.25, name="x86_quarter")
    graph = alexnet(batch=128)

    # 1. one hostile run: 10% timing noise, 5% profile noise, stalls and
    # occasional spurious OOMs.  execute_resilient() never raises for
    # transient faults — it degrades and reports.
    spec = FaultSpec(duration_noise=0.10, profile_noise=0.05,
                     stall_prob=0.05, oom_prob=0.02)
    result = PoocH(machine, faults=FaultInjector(spec, seed=seed)).optimize(graph)
    robust = result.execute_resilient(retry=RetryPolicy(max_transfer_retries=3))
    print(f"faults: {spec.describe()}  (seed {seed})")
    print(robust.describe())

    # 2. same seed, fresh pipeline: the faulted run is bit-reproducible
    again = (PoocH(machine, faults=FaultInjector(spec, seed=seed))
             .optimize(graph).execute_resilient())
    assert again.makespan == robust.makespan
    assert again.plan_used == robust.plan_used
    print(f"\nreplayed with the same seed: makespan identical "
          f"({robust.makespan * 1e3:.3f} ms)")

    # 3. the degradation profile across a noise ladder
    print()
    print(robustness_report(graph, machine, seed=seed).render())


if __name__ == "__main__":
    main()
