"""Extension — allocator-model ablation: counting pool vs best-fit arena.

DESIGN.md §5 argues the paper's memory effects are capacity effects, which
justifies the counting pool that keeps PoocH's predictor exactly consistent
with ground truth.  This benchmark quantifies the limits of that choice:

* the all-swap plan is insensitive to the allocator model;
* PoocH's default plan runs the pool at 100 % occupancy and a real best-fit
  arena *can* break it through fragmentation (a genuine finding of this
  reproduction, not in the paper);
* a ``capacity_margin`` in the search (plans must leave slack) restores
  robustness at a small throughput price.
"""

from repro.analysis import Table
from repro.common.errors import OutOfMemoryError
from repro.common.units import MiB
from repro.experiments import optimize_cached
from repro.gpusim import BlockMemoryPool
from repro.hw import X86_V100
from repro.models import resnet50
from repro.pooch import PoochConfig
from repro.runtime import Classification, execute, images_per_second

from benchmarks.conftest import BENCH_CONFIG, run_once

MARGIN_CONFIG = PoochConfig(
    max_exact_li=BENCH_CONFIG.max_exact_li,
    step1_sim_budget=BENCH_CONFIG.step1_sim_budget,
    capacity_margin=2048 * MiB,
)


def test_bench_extension_fragmentation(benchmark, report):
    g = resnet50(512)

    def run():
        plans = [("all-swap", Classification.all_swap(g))]
        res = optimize_cached("resnet50:batch=512", lambda: resnet50(512),
                              X86_V100, BENCH_CONFIG)
        plans.append(("pooch (no margin)", res.classification))
        res_m = optimize_cached("resnet50:batch=512", lambda: resnet50(512),
                                X86_V100, MARGIN_CONFIG)
        plans.append(("pooch (2 GiB margin)", res_m.classification))
        rows = []
        for name, cls in plans:
            counting = execute(g, cls, X86_V100)
            try:
                block = execute(g, cls, X86_V100, device_pool=BlockMemoryPool(
                    X86_V100.usable_gpu_memory))
                arena = images_per_second(block, 512)
            except OutOfMemoryError as e:
                arena = None
            rows.append((name, images_per_second(counting, 512), arena))
        return rows

    rows = run_once(benchmark, run)
    t = Table(
        "Extension: counting pool vs best-fit arena (ResNet-50 b512, x86)",
        ["plan", "img/s (counting)", "img/s (arena)"],
    )
    for name, a, b in rows:
        t.add(name, a, b if b is not None else "FAIL (fragmentation)")
    report("extension_fragmentation", t.render())

    by = {name: (a, b) for name, a, b in rows}
    # all-swap never fills the pool: allocator model irrelevant
    a, b = by["all-swap"]
    assert b is not None and abs(a / b - 1.0) < 0.02
    # the margin-searched plan survives the arena.  (Survival is not
    # monotone in the margin — the plan itself changes with it and so does
    # the arena layout; 2 GiB is an empirically robust point for this
    # deterministic workload.)
    a_m, b_m = by["pooch (2 GiB margin)"]
    assert b_m is not None
    # and still clearly beats all-swap
    assert b_m > by["all-swap"][0] * 1.5
