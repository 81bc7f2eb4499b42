"""Search cost of the one search configuration on the headline problem.

The search runs one configuration: branch-and-bound pruning of the step-1
tree, delta drafts resumed from sibling checkpoints, liveness-floor elision
of step-2 keep probes, and lockstep vectorization of keep/swap candidates
(event engines as fallback for everything else).  Each mechanism's
marginal wall was measured when the switches that turned them off were
deleted; this benchmark records where the remaining search wall goes on
ResNet-50 (batch=256, x86) with an untruncated budget.

Gates the configuration can still fail:

* the plan digest and ground-truth makespan equal the ``r50-x86-exact``
  entry of ``benchmarks/e2e/expected.json`` (the same problem);
* every step-1 candidate of the untruncated tree is simulated, all of them
  by lockstep sweeps: ``sims_step1 == sims_vectorized == 25,223``;
* the liveness floor answers all 42 step-2 keep probes without simulating.

Speed is gated by the end-to-end benchmark (``python -m benchmarks.e2e``),
whose ``slow_path_ms`` bound covers this workload.  Profiling runs once
outside the timed search (``profile_wall_s``).  Machine-readable numbers go
to ``benchmarks/results/BENCH_search.json`` (uploaded by the CI bench job's
artifact step, which also prints a summary).
"""

import json
import time

from repro.hw import X86_V100
from repro.models import resnet50
from repro.pooch import PoocH, PoochConfig
from repro.runtime import run_profiling

from benchmarks.conftest import run_once
from benchmarks.e2e.workloads import EXPECTED, classes_of, plan_digest

#: ample budget: the search never truncates, so it visits the whole tree
_CONFIG = PoochConfig(max_exact_li=8, step1_sim_budget=100_000)


def test_bench_search_cost_incremental(benchmark, report, results_dir):
    def run():
        g = resnet50(256)
        t0 = time.perf_counter()
        profile = run_profiling(g, X86_V100)
        t_prof = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = PoocH(X86_V100, _CONFIG).optimize(g, profile)
        wall = time.perf_counter() - t0
        return g, t_prof, result, wall, result.execute()

    g, t_prof, result, wall, timeline = run_once(benchmark, run)
    s = result.stats
    digest = plan_digest(classes_of(result, g))
    want = EXPECTED["full"]["r50-x86-exact"]

    payload = {
        "model": "resnet50",
        "batch": 256,
        "machine": X86_V100.name,
        "budget": _CONFIG.step1_sim_budget,
        "profile_wall_s": round(t_prof, 3),
        "wall_s": round(wall, 3),
        "plan_digest": digest,
        "makespan_s": timeline.makespan,
        "simulations": {
            "step1": s.sims_step1,
            "step2": s.sims_step2,
            "vectorized": s.sims_vectorized,
            "fallback": s.sims_fallback,
            "full": s.sims_full,
            "resumed": s.sims_resumed,
            "vector_sweeps": s.vector_sweeps,
            "vector_candidates": s.vector_candidates,
        },
        "step1": {
            "leaves_total": s.leaves_total,
            "leaves_evaluated": s.leaves_evaluated,
            "subtrees_pruned": s.subtrees_pruned,
            "leaves_pruned": s.leaves_pruned,
        },
        "step2": {
            "rounds": s.step2_rounds,
            "r_values": s.r_recomputed,
            "full": s.sims_step2_full,
            "resumed": s.sims_step2_resumed,
            "keep_elided": s.keep_probes_elided,
        },
    }
    (results_dir / "BENCH_search.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    report(
        "extension_search_cost_incremental",
        "PoocH search cost, ResNet-50 (batch=256, x86), budget "
        f"{_CONFIG.step1_sim_budget}; wall is pure search (profiling: "
        f"{t_prof:.2f} s):\n"
        f"  search wall: {wall:.1f} s\n"
        f"  step 1: {s.sims_step1} simulations, {s.leaves_evaluated}/"
        f"{s.leaves_total} leaves evaluated, {s.subtrees_pruned} subtrees "
        "pruned\n"
        f"  simulations: {s.sims_vectorized} lockstep + {s.sims_fallback} "
        f"event-engine ({s.sims_full} full + {s.sims_resumed} resumed) "
        f"over {s.vector_sweeps} sweeps ({s.vector_candidates} speculated "
        "rows)\n"
        f"  step 2: {s.step2_rounds} rounds, {s.sims_step2} simulations "
        f"({s.sims_step2_full} full + {s.sims_step2_resumed} resumed), "
        f"{s.keep_probes_elided} keep probes elided\n"
        f"  plan {digest}, ground truth {timeline.makespan * 1e3:.3f} ms",
    )

    assert (digest, timeline.makespan) == (want["digest"], want["makespan_s"])
    assert not s.budget_exhausted
    assert s.sims_step1 == s.sims_vectorized == 25_223
    assert s.keep_probes_elided == 42
