"""Robustness-sweep cost: 64 fault seeds in lockstep vs a serial loop.

``robustness_report`` used to quote single-draw degradation numbers; the
seed-distribution rewrite executes the chosen plan under many fault seeds.
This benchmark measures what makes that affordable: for a vectorizable spec
(pure ``duration_noise``) the sweep compiles the chosen plan's draft *once*
into ``VectorTables``, precomputes each seed's keyed-RNG duration table into
a (K, n) matrix, and replays all K seeds in one lockstep batch — versus the
serial arm's per-seed re-pricing of one validated schedule + event-engine
run.

The headline claim (ISSUE 8 acceptance): a 64-seed ``duration_noise`` sweep
on ResNet-50 (batch=256, x86) is >=5x faster wall-clock than the serial
per-seed loop, with every vectorized row bit-identical to its serial
counterpart.  Machine-readable numbers (walls, speedup, P50/P95/P99,
vectorized-vs-fallback row split) go to
``benchmarks/results/BENCH_robustness.json`` — uploaded by the CI bench
job's artifact step, which also prints the row breakdown in the run log.
"""

import json
import time

import numpy as np

from repro.experiments.cache import optimize_cached
from repro.faults import FaultSpec, fault_seed_sweep
from repro.hw import X86_V100
from repro.models import resnet50
from repro.runtime.schedule import ScheduleOptions

from benchmarks.conftest import BENCH_CONFIG, run_once

N_SEEDS = 64
SPEC = FaultSpec(duration_noise=0.1)


def test_bench_robustness_sweep(benchmark, report, results_dir):
    def run():
        result = optimize_cached("resnet50_b256", lambda: resnet50(256),
                                 X86_V100, BENCH_CONFIG)
        options = ScheduleOptions(
            policy=result.config.policy,
            forward_refetch_gap=result.config.forward_refetch_gap,
        )
        seeds = range(N_SEEDS)
        arms = {}
        for label, vectorize in (("vectorized", True), ("serial", False)):
            t0 = time.perf_counter()
            outs = fault_seed_sweep(
                result.graph, result.classification, X86_V100, SPEC, seeds,
                options=options, vectorize=vectorize,
            )
            arms[label] = (outs, time.perf_counter() - t0)
        return arms

    arms = run_once(benchmark, run)
    vec, t_vec = arms["vectorized"]
    ser, t_ser = arms["serial"]

    # bit-identity first: every vectorized row equals its serial counterpart
    # (the serial arm re-prices the plan chain's schedule under each seed's
    # injector and replays it on the event engine inside execute_resilient)
    assert all(o.vectorized for o in vec)
    assert all(not o.vectorized for o in ser)
    for a, b in zip(vec, ser):
        assert a.seed == b.seed
        assert a.makespan == b.makespan  # exact, never approx
        assert a.device_peak == b.device_peak
        assert a.host_peak == b.host_peak
        assert b.plan_used == "chosen-plan" and not b.degraded

    makespans = np.array([o.makespan for o in vec])
    p50, p95, p99 = (float(np.percentile(makespans, q)) for q in (50, 95, 99))
    speedup = t_ser / t_vec
    n_vec = sum(o.vectorized for o in vec)
    n_fb = N_SEEDS - n_vec

    payload = {
        "model": "resnet50",
        "batch": 256,
        "machine": X86_V100.name,
        "spec": SPEC.describe(),
        "seeds": N_SEEDS,
        "vectorized": {"wall_s": round(t_vec, 3), "rows_vectorized": n_vec,
                       "rows_fallback": n_fb},
        "serial": {"wall_s": round(t_ser, 3)},
        "wall_speedup": round(speedup, 2),
        "p50_ms": round(p50 * 1e3, 4),
        "p95_ms": round(p95 * 1e3, 4),
        "p99_ms": round(p99 * 1e3, 4),
        "oom_rate": sum(o.oom for o in vec) / N_SEEDS,
        "fallback_rate": sum(o.degraded for o in vec) / N_SEEDS,
        "retry_rate": sum(o.transfer_retries > 0 for o in vec) / N_SEEDS,
        "rows_bit_identical": True,
    }
    (results_dir / "BENCH_robustness.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    report(
        "extension_robustness_sweep",
        f"Monte-Carlo robustness sweep, ResNet-50 (batch=256, x86), "
        f"{N_SEEDS} seeds of '{SPEC.describe()}' over the chosen plan:\n"
        f"  lockstep (per-row duration tables): {t_vec:.2f} s wall "
        f"({n_vec} vectorized rows, {n_fb} fallback)\n"
        f"  serial per-seed loop: {t_ser:.2f} s wall\n"
        f"  makespan P50/P95/P99: {p50 * 1e3:.3f} / {p95 * 1e3:.3f} / "
        f"{p99 * 1e3:.3f} ms\n"
        f"  wall speedup: {speedup:.1f}x; every row bit-identical",
    )

    # headline claim: >=5x wall reduction, all rows lockstep for this spec
    assert n_vec == N_SEEDS
    assert speedup >= 5.0
