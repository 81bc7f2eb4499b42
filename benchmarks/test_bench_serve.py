"""Planner-as-a-service throughput on a duplicate-heavy workload (ISSUE 10).

The serving argument mirrors the paper's: one profiling + search amortizes
over everything that reuses it.  Here 8 tenants each submit the same
ResNet-18 (batch=256, x86) optimize request 3 times — 24 requests, one
distinct problem — the shape of a hyperparameter sweep or a fleet of
identical training jobs hitting a shared planner.

Measured against a serial no-server baseline (24 independent
``PoocH.optimize`` calls, no cache):

* the server answers all 24 with **exactly one** search (counter-asserted)
  — the in-flight duplicates coalesce, later arrivals hit the warm LRU;
* every response carries a **bit-identical** plan, equal to the direct
  no-server optimize;
* wall-time speedup is **>= 5x** (the ISSUE acceptance floor; in practice
  it tracks the duplicate ratio, ~24x minus HTTP overhead).

A second all-warm round measures the served hit path itself, and a
microbenchmark isolates the satellite perf fix: ``graph_signature`` is
memoized on the graph instance, so the per-request key computation is a
dict lookup instead of a fresh SHA-256 over every layer.

Machine-readable numbers go to ``benchmarks/results/BENCH_serve.json``
(uploaded by the CI bench job's artifact step).
"""

from __future__ import annotations

import json
import threading
import time

from repro.analysis import Table
from repro.hw import X86_V100
from repro.models import build_model
from repro.pooch import PoocH, PoochConfig
from repro.runtime.plan_io import graph_signature, plan_to_dict
from repro.serve import JobManager, PlannerClient, PlannerServer, ServePlanner

from benchmarks.conftest import run_once

MODEL = "resnet18"
BATCH = 256
BUDGET = 200
TENANTS = 8
REPEATS = 3  # per tenant
N_REQUESTS = TENANTS * REPEATS

SERVE_CONFIG = PoochConfig(step1_sim_budget=BUDGET)


def _submit_round(url: str) -> tuple[float, list[dict]]:
    """All tenants fire concurrently; returns (wall_s, final job docs)."""
    barrier = threading.Barrier(N_REQUESTS)
    docs: list[dict] = []
    lock = threading.Lock()

    def one_request(tenant: int) -> None:
        client = PlannerClient(url, timeout=120)
        barrier.wait()
        doc = client.submit(MODEL, batch=BATCH, tenant=f"tenant-{tenant}",
                            config={"budget": BUDGET})
        if doc["state"] not in ("done", "failed"):
            doc = client.wait(doc["id"], timeout=120)
        with lock:
            docs.append(doc)

    threads = [
        threading.Thread(target=one_request, args=(t,))
        for t in range(TENANTS) for _ in range(REPEATS)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    assert len(docs) == N_REQUESTS
    assert all(d["state"] == "done" for d in docs)
    return wall, docs


def test_bench_serve_coalescing(benchmark, report, results_dir):
    def run():
        # -- baseline: 24 independent searches, no server, no cache --------
        serial_start = time.perf_counter()
        direct = None
        for _ in range(N_REQUESTS):
            graph = build_model(MODEL, batch=BATCH)
            direct = PoocH(X86_V100, SERVE_CONFIG).optimize(graph)
        serial_wall = time.perf_counter() - serial_start

        # -- the server: same 24 requests, concurrently --------------------
        manager = JobManager(ServePlanner(), workers=2, max_queue=N_REQUESTS)
        with PlannerServer(manager, port=0) as server:
            served_wall, docs = _submit_round(server.url)
            round1 = {k: v for k, v in manager.counters.items() if v}
            # -- round 2: everything warm ----------------------------------
            warm_wall, warm_docs = _submit_round(server.url)
            stats = manager.stats()
        return {
            "serial_wall": serial_wall,
            "served_wall": served_wall,
            "warm_wall": warm_wall,
            "docs": docs,
            "warm_docs": warm_docs,
            "round1": round1,
            "stats": stats,
            "direct": direct,
        }

    out = run_once(benchmark, run)
    docs, stats = out["docs"], out["stats"]

    # exactly one profiling+search served the whole first round
    assert out["round1"]["searches"] == 1, out["round1"]
    tiers: dict[str, int] = {}
    for d in docs:
        tiers[d["cache_tier"]] = tiers.get(d["cache_tier"], 0) + 1
    assert tiers["miss-search"] == 1
    assert tiers.get("coalesced", 0) + tiers.get("warm-lru", 0) == N_REQUESTS - 1

    # round 2 is pure L1: no new searches, all warm
    assert stats["counters"]["searches"] == 1
    assert all(d["cache_tier"] == "warm-lru" for d in out["warm_docs"])

    # bit-identical plans: all 24 responses equal each other *and* the
    # direct no-server optimize
    graph = build_model(MODEL, batch=BATCH)
    expected = json.dumps(
        plan_to_dict(out["direct"].classification, graph,
                     machine=X86_V100.name,
                     predicted_time=out["direct"].predicted.time),
        sort_keys=True)
    served_plans = {json.dumps(d["result"]["plan"], sort_keys=True)
                    for d in docs + out["warm_docs"]}
    assert served_plans == {expected}

    # the acceptance floor: >= 5x over the serial no-server loop
    speedup = out["serial_wall"] / out["served_wall"]
    assert speedup >= 5.0, (
        f"server {out['served_wall']:.2f}s vs serial "
        f"{out['serial_wall']:.2f}s = {speedup:.1f}x (< 5x floor)")

    coalesce_rate = tiers.get("coalesced", 0) / N_REQUESTS

    # -- satellite microbenchmark: memoized graph_signature ----------------
    cold_graph = build_model(MODEL, batch=BATCH)
    t0 = time.perf_counter()
    sig = graph_signature(cold_graph)
    cold_us = (time.perf_counter() - t0) * 1e6
    reps = 10_000
    t0 = time.perf_counter()
    for _ in range(reps):
        graph_signature(cold_graph)
    memo_us = (time.perf_counter() - t0) * 1e6 / reps
    assert cold_graph.__dict__["_graph_signature"] == sig
    sig_speedup = cold_us / memo_us if memo_us else float("inf")

    payload = {
        "model": MODEL,
        "batch": BATCH,
        "machine": X86_V100.name,
        "budget": BUDGET,
        "tenants": TENANTS,
        "requests": N_REQUESTS,
        "serial_wall_s": round(out["serial_wall"], 4),
        "served_wall_s": round(out["served_wall"], 4),
        "warm_round_wall_s": round(out["warm_wall"], 4),
        "speedup": round(speedup, 2),
        "searches": stats["counters"]["searches"],
        "coalesced": stats["counters"]["coalesced"],
        "warm_hits": stats["counters"]["warm_hits"],
        "coalesce_rate": round(coalesce_rate, 4),
        "tier_counts_round1": tiers,
        "warm_requests_per_s": round(N_REQUESTS / out["warm_wall"], 1),
        "graph_signature_cold_us": round(cold_us, 2),
        "graph_signature_memo_us": round(memo_us, 3),
        "graph_signature_speedup": round(sig_speedup, 1),
    }
    (results_dir / "BENCH_serve.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    t = Table(
        f"planning service vs serial optimize — {N_REQUESTS} identical "
        f"requests ({MODEL}, batch={BATCH}, x86) from {TENANTS} tenants",
        ["mode", "wall (s)", "searches", "req/s"],
    )
    t.add("serial loop", f"{out['serial_wall']:.2f}", N_REQUESTS,
          f"{N_REQUESTS / out['serial_wall']:.1f}")
    t.add("server round 1", f"{out['served_wall']:.2f}", 1,
          f"{N_REQUESTS / out['served_wall']:.1f}")
    t.add("server round 2 (warm)", f"{out['warm_wall']:.2f}", 0,
          f"{N_REQUESTS / out['warm_wall']:.1f}")
    t.add("speedup (round 1)", f"{speedup:.1f}x", "", "")
    t.add("coalesce rate", f"{coalesce_rate:.0%}", "", "")
    t.add("graph_signature memo",
          f"{cold_us:.0f}us -> {memo_us:.2f}us", "", f"{sig_speedup:.0f}x")
    report("extension_serve", t.render())
