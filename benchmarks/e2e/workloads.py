"""The benchmark's workloads.

Every workload times two paths through the system, a fast one and a slow
one, so that each end-to-end metric exists on every workload:

============== ================================== ===============================
workload       fast path (``fast_path_ms``)       slow path (``slow_path_ms``)
============== ================================== ===============================
r50-*          ``optimize`` answered from a warm  fresh ``optimize`` (profile,
               ``PlanCache`` + ground truth       search, stagger) + ground truth
fault-sweep    64-seed lockstep sweep             64-seed serial sweep
serve-zipf     warm-cache request                 cold request (search/coalesced)
============== ================================== ===============================

A workload runs in its own process.  :meth:`Workload.setup` builds the
inputs; :meth:`Workload.round` runs one round of timed operations and
returns their wall; :meth:`Workload.check` verifies outputs after timing.
:meth:`Workload.record` keeps each wall as measured and scaled to the
reference host speed of :mod:`benchmarks.e2e.hostspeed`.  Only public
entry points of ``repro`` are driven.  Every timed operation
starts right after a full garbage collection, so one operation's garbage is
never collected on the next one's clock (on the 60 ms plan-cache path that
alone moved the interquartile spread from about 14% to 2%).
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

from benchmarks.e2e.hostspeed import Speed
from benchmarks.e2e.trace import HOOKS
from repro.common.errors import ReproError
from repro.faults.sweep import fault_seed_sweep
from repro.hw import POWER9_V100, X86_V100, multi_gpu
from repro.models import build_model
from repro.pooch import PoocH, PoochConfig
from repro.runtime.plan_io import PlanCache, plan_to_dict
from repro.runtime.schedule import ScheduleOptions
from repro.serve import (
    TIER_COALESCED,
    TIER_PERSISTENT,
    TIER_SEARCH,
    TIER_WARM,
    JobManager,
    PlannerClient,
    PlannerServer,
    ServeClientError,
    ServePlanner,
)

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

MACHINES = {"x86": X86_V100, "power9": POWER9_V100}


def plan_digest(classes: dict[str, str]) -> str:
    """Short content hash of a plan's ``{map: class}`` dict."""
    blob = json.dumps(classes, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def classes_of(result, graph) -> dict[str, str]:
    return plan_to_dict(result.classification, graph)["classes"]


class Workload:
    """Samples, failure counts and check results shared by all workloads."""

    #: whether traced rounds install a ``repro.obs`` registry; the registry
    #: is single-threaded by design, so the serving workload does without
    uses_registry = True

    def __init__(self, name: str, seed: int, smoke: bool, work: Path) -> None:
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.work = work
        #: per path ("fast", "slow"): operation walls at reference host
        #: speed, and as measured
        self.ms: dict[str, list[float]] = {"fast": [], "slow": []}
        self.raw_ms: dict[str, list[float]] = {"fast": [], "slow": []}
        #: probes the host between timed operations; made just before the
        #: first one
        self.speed: Speed | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: deterministic facts about the outputs (plan digest, img/s, ...)
        self.info: dict[str, Any] = {}

    def golden(self) -> dict[str, Any]:
        return EXPECTED["smoke" if self.smoke else "full"][self.name]

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, traced: bool) -> float:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def record(self, path: str, walls_ms: list[float]) -> None:
        """Keeps the walls of the operations that just ended on ``path``,
        as measured and scaled to reference host speed."""
        factor = self.speed.factor()
        self.raw_ms[path].extend(walls_ms)
        self.ms[path].extend(wall * factor for wall in walls_ms)

    def layer_extras(self, totals: dict[str, list[float]]) -> dict[str, float]:
        """Per-layer metrics only this workload can compute."""
        return {}

    def close(self) -> None:
        pass


# -- r50-*: one optimize problem -------------------------------------------------


class OptimizeWorkload(Workload):
    """``repro optimize`` on one problem: a fresh search (slow path), then
    the same request answered from a warm plan cache (fast path)."""

    fast_per_round = 3

    def __init__(self, name, seed, smoke, work, *, model, batch, machine,
                 budget) -> None:
        super().__init__(name, seed, smoke, work)
        self.model, self.batch, self.budget = model, batch, budget
        self.machine = machine
        self.cache_dir: Path | None = None
        self.outputs: set[tuple[str, float]] = set()

    def setup(self) -> None:
        self.graph = build_model(self.model, batch=self.batch)
        self.config = PoochConfig(step1_sim_budget=self.budget)

    def _op(self, path: str, plan_cache: Path | None):
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            with self.speed.sampling():
                result = PoocH(self.machine, self.config,
                               plan_cache=plan_cache).optimize(self.graph)
                timeline = result.execute()
        except ReproError as e:
            self.failed += 1
            self.problems.append(f"optimize raised {e!r}")
            return None, time.perf_counter() - start
        wall = time.perf_counter() - start - self.speed.stolen_s
        self.record(path, [wall * 1e3])
        makespan = (result.multi.chosen.makespan if result.multi is not None
                    else timeline.makespan)
        self.outputs.add((plan_digest(classes_of(result, self.graph)),
                          makespan))
        if plan_cache is not None and not result.stats.plan_cache_hit:
            self.problems.append("fast path missed the warm plan cache")
        return result, wall

    def round(self, traced: bool) -> float:
        result, wall = self._op("slow", None)
        if result is None:
            return wall
        if self.cache_dir is None:
            # seed the fast path's cache from the first search (untimed);
            # it lives under the scratch directory the process removes
            self.cache_dir = Path(tempfile.mkdtemp(dir=self.work))
            PlanCache(self.cache_dir).store_plan(
                self.graph, self.machine, self.config.signature(),
                result.classification, predicted_time=result.predicted.time)
        for _ in range(self.fast_per_round):
            wall += self._op("fast", self.cache_dir)[1]
        return wall

    def check(self) -> None:
        want = self.golden()
        for digest, makespan in sorted(self.outputs):
            if digest != want["digest"] or makespan != want["makespan_s"]:
                self.problems.append(
                    f"plan {digest} / makespan {makespan!r} s, expected "
                    f"{want['digest']} / {want['makespan_s']!r} s")
        if self.outputs:
            digest, makespan = min(self.outputs)
            self.info.update(
                digest=digest, makespan_s=makespan,
                sim_img_per_s=self.machine.devices * self.batch / makespan)


# -- fault-sweep: Monte-Carlo execution of one fixed plan ------------------------


class FaultSweepWorkload(Workload):
    """Two ``fault_seed_sweep`` calls over a plan made in setup.  The first
    spec is fully vectorizable (lockstep path); the second adds transfer
    stalls, whose draws depend on event order, so every row takes the
    serial ``execute_resilient`` path."""

    LOCKSTEP = "duration_noise=0.1"
    SERIAL = "duration_noise=0.05,stall_prob=0.025"

    def __init__(self, name, seed, smoke, work) -> None:
        super().__init__(name, seed, smoke, work)
        self.model, self.batch = (("poster_example", 64) if smoke
                                  else ("resnet50", 256))
        n = 8 if smoke else 64
        self.seeds = list(range(n * seed, n * seed + n))
        self.machine = X86_V100
        self.first: dict[str, list] = {}

    def setup(self) -> None:
        self.graph = build_model(self.model, batch=self.batch)
        self.result = PoocH(self.machine,
                            PoochConfig(step1_sim_budget=600)).optimize(self.graph)
        cfg = self.result.config
        self.options = ScheduleOptions(
            policy=cfg.policy, forward_refetch_gap=cfg.forward_refetch_gap)

    def _sweep(self, spec: str, seeds, vectorize: bool = True):
        return fault_seed_sweep(self.graph, self.result.classification,
                                self.machine, spec, seeds,
                                options=self.options, vectorize=vectorize)

    def round(self, traced: bool) -> float:
        total = 0.0
        for spec, path in ((self.LOCKSTEP, "fast"), (self.SERIAL, "slow")):
            gc.collect()
            start = time.perf_counter()
            with self.speed.sampling():
                outcomes = self._sweep(spec, self.seeds)
            wall = time.perf_counter() - start - self.speed.stolen_s
            total += wall
            self.record(path, [wall * 1e3])
            self.attempted += len(outcomes)
            self.failed += sum(o.failed for o in outcomes)
            if outcomes != self.first.setdefault(spec, outcomes):
                self.problems.append(f"sweep {spec!r} is not deterministic")
        return total

    def check(self) -> None:
        want = self.golden()
        digest = plan_digest(classes_of(self.result, self.graph))
        if digest != want["digest"]:
            self.problems.append(f"setup plan {digest}, expected "
                                 f"{want['digest']}")
        lockstep, serial = self.first[self.LOCKSTEP], self.first[self.SERIAL]
        if not all(o.vectorized for o in lockstep):
            self.problems.append("lockstep spec left the lockstep path")
        if any(o.vectorized for o in serial):
            self.problems.append("serial spec took the lockstep path")
        picks = sorted(random.Random(self.seed).sample(range(len(self.seeds)), 4))
        reference = self._sweep(self.LOCKSTEP, [self.seeds[i] for i in picks],
                                vectorize=False)
        for i, ref in zip(picks, reference):
            got = lockstep[i]
            if ((got.makespan, got.device_peak, got.host_peak, got.failed)
                    != (ref.makespan, ref.device_peak, ref.host_peak,
                        ref.failed)):
                self.problems.append(
                    f"seed {got.seed}: lockstep {got.makespan!r} s != serial "
                    f"{ref.makespan!r} s")
        p50 = statistics.median(o.makespan for o in lockstep)
        self.info.update(digest=digest, lockstep_p50_makespan_s=p50,
                         sim_img_per_s=self.batch / p50,
                         checked_seeds=[self.seeds[i] for i in picks])


# -- serve-zipf: the planning service under a skewed closed loop ------------------


class ServeWorkload(Workload):
    """The planning server under two closed-loop clients.

    One round, against a fresh server with a fresh plan cache:

    1. *cold*: for each of the eight budget-200 problems, in a seeded order,
       both clients submit it at once — one request searches, the other
       coalesces onto it (slow path);
    2. *warm*: each client sends 1,000 requests, keys drawn Zipf(1.2) from
       the seed, all answered by the warm cache (fast path);
    3. *persistent*: the server restarts on the same cache directory and
       each problem is requested once.

    Cold searches run apart from the warm loop on purpose: interleaved, a
    cold request's latency depended on which other search happened to
    overlap it, and its median moved by 87% (interquartile) across seeds.

    The server and client threads start on the one CPU the measuring
    thread is pinned to (:func:`~benchmarks.e2e.hostspeed.pin`).  Spread
    over two cores, every request hands the interpreter lock between
    threads on different cores, and warm latency then depends on what else
    the host runs: a busy loop on the other core made it about 25%
    *faster*.  Pinned, the warm median stayed within 0.74–0.88 ms (one
    client) with or without such a load.

    Host-speed probes taken while a phase runs hold the interpreter lock
    for one probe (about 3 ms every 0.5 s); a request in flight then waits
    that long, and its latency keeps the wait.
    """

    uses_registry = False
    CATALOG = (
        ("resnet18", 256, "x86"), ("resnet34", 256, "x86"),
        ("vgg16", 128, "x86"), ("alexnet", 1024, "x86"),
        ("googlenet", 256, "x86"), ("mobilenet_v1", 256, "x86"),
        ("unet", 32, "x86"), ("resnet18", 256, "power9"),
    )
    SMOKE_CATALOG = (
        ("poster_example", 64, "x86"), ("mlp", 64, "x86"),
        ("poster_example", 64, "power9"),
    )
    CLIENTS = 2
    #: warm requests per client and round; short rounds spread the cold
    #: requests over the whole run instead of a few bursts
    WARM_PER_CLIENT = 250
    BUDGET = 200
    ZIPF_S = 1.2

    def __init__(self, name, seed, smoke, work) -> None:
        super().__init__(name, seed, smoke, work)
        self.catalog = self.SMOKE_CATALOG if smoke else self.CATALOG
        per_client = 10 if smoke else self.WARM_PER_CLIENT
        rng = random.Random(seed)
        weights = [1.0 / (k + 1) ** self.ZIPF_S
                   for k in range(len(self.catalog))]
        self.cold_order = rng.sample(range(len(self.catalog)),
                                     len(self.catalog))
        self.streams = [rng.choices(range(len(self.catalog)), weights,
                                    k=per_client)
                        for _ in range(self.CLIENTS)]
        #: key -> distinct (classes json, predicted time) seen in responses
        self.served: dict[int, set[tuple[str, float]]] = {}
        self.lock = threading.Lock()
        #: one dict of raw per-layer inputs per traced round
        self.traced_rounds: list[dict[str, Any]] = []
        #: the fresh server setup started, kept for the first round
        self.ready: tuple[PlannerServer, Path] | None = None

    def _start(self, cache_dir: Path) -> PlannerServer:
        manager = JobManager(ServePlanner(plan_cache=cache_dir), workers=2)
        return PlannerServer(manager=manager, port=0).start()

    def setup(self) -> None:
        """A fresh server with a fresh cache, answering its health probe."""
        cache_dir = Path(tempfile.mkdtemp(dir=self.work))
        server = self._start(cache_dir)
        self.ready = (server, cache_dir)
        PlannerClient(server.url).health()

    def close(self) -> None:
        if self.ready is not None:
            server, cache_dir = self.ready
            server.shutdown()
            shutil.rmtree(cache_dir, ignore_errors=True)
            self.ready = None

    def _request(self, client: PlannerClient, key: int, tenant: str
                 ) -> tuple[float, str | None]:
        """One submit-and-wait; returns (latency s, cache tier or None)."""
        model, batch, machine = self.catalog[key]
        start = time.perf_counter()
        try:
            doc = client.submit(model, batch=batch, machine=machine,
                                tenant=tenant,
                                config={"budget": self.BUDGET})
            if doc["state"] not in ("done", "failed", "cancelled"):
                # the event stream ends the moment the job settles; polling
                # either quantizes cold latency (50 ms) or, at 5 ms, makes
                # the server thread compete with the search it waits for
                for _ in client.events(doc["id"]):
                    pass
                doc = client.job(doc["id"])
        except ServeClientError:
            return time.perf_counter() - start, None
        latency = time.perf_counter() - start
        if doc["state"] != "done":
            return latency, None
        result = doc["result"]
        seen = (json.dumps(result["plan"]["classes"], sort_keys=True),
                result["predicted_time_s"])
        with self.lock:
            self.served.setdefault(key, set()).add(seen)
        return latency, result["cache_tier"]

    def _loop(self, url: str, keys: list[list[int]],
              barrier: threading.Barrier | None = None
              ) -> tuple[list[tuple[float, str | None]], float]:
        """Client ``c`` sends ``keys[c]`` closed-loop, meeting the others at
        ``barrier`` before each request when given; returns every reply and
        the loop's wall."""
        outs: list[list] = [[] for _ in range(self.CLIENTS)]
        errors: list[BaseException] = []

        def client(c: int) -> None:
            conn = PlannerClient(url)
            try:
                for key in keys[c]:
                    if barrier is not None:
                        barrier.wait(timeout=60)
                    outs[c].append(self._request(conn, key, f"client-{c}"))
            except Exception as e:  # noqa: BLE001 - re-raised after join
                errors.append(e)
                if barrier is not None:
                    barrier.abort()

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(self.CLIENTS)]
        gc.collect()
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        wall = time.perf_counter() - start
        if any(t.is_alive() for t in threads):
            raise RuntimeError("serve clients did not finish in 120 s")
        if errors:
            raise RuntimeError(f"serve client failed: {errors[0]!r}")
        return [r for out in outs for r in out], wall

    def round(self, traced: bool) -> float:
        """Returns the summed client-observed latency of the round."""
        if self.ready is not None:
            (server, cache_dir), self.ready = self.ready, None
        else:
            cache_dir = Path(tempfile.mkdtemp(dir=self.work))
            server = self._start(cache_dir)
        try:
            try:
                with self.speed.sampling():
                    cold, _ = self._loop(server.url,
                                         [self.cold_order] * self.CLIENTS,
                                         threading.Barrier(self.CLIENTS))
                self.record("slow", [lat * 1e3 for lat, tier in cold
                                     if tier in (TIER_SEARCH, TIER_COALESCED)])
                with self.speed.sampling():
                    warm, warm_wall = self._loop(server.url, self.streams)
                self.record("fast", [lat * 1e3 for lat, tier in warm
                                     if tier == TIER_WARM])
                counters = PlannerClient(server.url).stats()["counters"]
            finally:
                server.shutdown()
            server = self._start(cache_dir)
            try:
                client = PlannerClient(server.url)
                gc.collect()
                persistent = [self._request(client, k, "restart")
                              for k in range(len(self.catalog))]
            finally:
                server.shutdown()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        replies = cold + warm + persistent
        self.attempted += len(replies)
        self.failed += sum(tier is None for _, tier in replies)
        if any(tier != TIER_PERSISTENT for _, tier in persistent):
            self.problems.append("restarted server missed the persistent tier")
        if traced:
            self.traced_rounds.append({
                "warm_ms": [lat * 1e3 for lat, tier in warm
                            if tier == TIER_WARM],
                "persistent_ms": [lat * 1e3 for lat, _ in persistent],
                "req_per_s": len(warm) / warm_wall,
                "requests": len(cold) + len(warm),
                **{k: counters[k] for k in ("warm_hits", "coalesced",
                                            "searches")},
            })
        return sum(lat for lat, _ in replies)

    def layer_extras(self, totals: dict[str, list[float]]) -> dict[str, float]:
        rounds = self.traced_rounds
        if not rounds:
            return {}
        warm = sorted(v for r in rounds for v in r["warm_ms"])
        requests = sum(r["requests"] for r in rounds)
        warm_hits = sum(r["warm_hits"] for r in rounds)
        calls, busy = totals.get("serve.submit", (0, 0.0))[:2]
        submit_ms = busy / calls * 1e3 if calls else 0.0
        return {
            "serve.http_ms": (statistics.median(warm) - submit_ms
                              if warm else 0.0),
            "serve.warm_hit_ratio": warm_hits / requests,
            "serve.coalesce_rate": (
                sum(r["coalesced"] for r in rounds) / (requests - warm_hits)
                if requests > warm_hits else 0.0),
            "serve.searches": statistics.mean(r["searches"] for r in rounds),
            "serve.persistent_ms": statistics.median(
                v for r in rounds for v in r["persistent_ms"]),
            "serve.warm_p99_ms": (warm[min(len(warm) - 1,
                                           int(0.99 * len(warm)))]
                                  if warm else 0.0),
            "serve.req_per_s": statistics.median(r["req_per_s"]
                                                 for r in rounds),
        }

    def check(self) -> None:
        """Every served plan must equal a direct ``PoocH.optimize``."""
        for key, seen in sorted(self.served.items()):
            model, batch, machine = self.catalog[key]
            graph = build_model(model, batch=batch)
            direct = PoocH(MACHINES[machine],
                           PoochConfig(step1_sim_budget=self.BUDGET)
                           ).optimize(graph)
            want = (json.dumps(classes_of(direct, graph), sort_keys=True),
                    direct.predicted.time)
            if seen != {want}:
                self.problems.append(
                    f"{model}/{batch}/{machine}: {len(seen)} served plan(s) "
                    f"differ from the direct optimize")
        self.info.update(keys_served=len(self.served),
                         warm_requests=len(self.ms["fast"]),
                         cold_requests=len(self.ms["slow"]))


def make(name: str, seed: int, smoke: bool, work: Path) -> Workload:
    """The workload called ``name``, at full or ``--smoke`` size."""
    optimize = {
        "r50-x86-exact": (("resnet50", 256, X86_V100, 100_000),
                          ("poster_example", 64, X86_V100, 100_000)),
        "r50-x86-b512": (("resnet50", 512, X86_V100, 600),
                         ("poster_example", 128, X86_V100, 600)),
        "r50-p9-4gpu": (("resnet50", 256, multi_gpu(POWER9_V100, 4), 600),
                        ("poster_example", 64, multi_gpu(POWER9_V100, 4), 600)),
    }
    if name in optimize:
        model, batch, machine, budget = optimize[name][smoke]
        return OptimizeWorkload(name, seed, smoke, work, model=model,
                                batch=batch, machine=machine, budget=budget)
    if name == "fault-sweep":
        return FaultSweepWorkload(name, seed, smoke, work)
    if name == "serve-zipf":
        return ServeWorkload(name, seed, smoke, work)
    raise KeyError(f"unknown workload {name!r}")


# -- per-layer metrics -----------------------------------------------------------

#: registry counters reported per traced round: metric -> counter
COUNTERS = {
    "classifier.sims_step1": "search.sims_step1",
    "classifier.sims_step2": "search.sims_step2",
    "classifier.sims_vectorized": "search.sims_vectorized",
    "classifier.sims_fallback": "search.sims_fallback",
    "classifier.keep_probes_elided": "search.keep_probes_elided",
    "classifier.r_reused": "search.r_reused",
    "classifier.subtrees_pruned": "search.subtrees_pruned",
    "multidevice.stagger_candidates": "devices.stagger_candidates",
    "sweep.rows_vectorized": "faults.rows_vectorized",
    "sweep.rows_fallback": "faults.rows_fallback",
    "resilient.transfer_retries": "resilience.transfer_retries",
}

SERVE_EXTRAS = ("serve.http_ms", "serve.warm_hit_ratio", "serve.coalesce_rate",
                "serve.searches", "serve.persistent_ms", "serve.warm_p99_ms",
                "serve.req_per_s")


def layer_metrics(workload: Workload, totals: dict[str, list[float]],
                  registry, rounds: int, coverage: float,
                  overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric, per traced round; zero where the workload
    never reaches the layer."""
    zero = (0, 0.0, 0.0, 0.0)

    def hook(name: str) -> tuple:
        return tuple(totals.get(name, zero))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    counters = registry.counters if registry is not None else {}
    timers = registry.timers if registry is not None else {}
    m: dict[str, float] = {}
    for name in (h.name for h in HOOKS):
        calls, busy, _self, _units = hook(name)
        m[f"{name}.calls"] = ratio(calls, rounds)
        m[f"{name}.busy_s"] = ratio(busy, rounds)
    for name in ("classifier.classify", "predictor.predict"):
        m[f"{name}.self_s"] = ratio(hook(name)[2], rounds)
    _calls, busy, _self, rows = hook("vecengine.run_batch")
    m["vecengine.run_batch.rows"] = ratio(rows, rounds)
    m["vecengine.run_batch.us_per_row"] = ratio(busy * 1e6, rows)
    for metric, span in (("classifier.step1_s", "search.step1"),
                         ("classifier.step2_s", "search.step2")):
        m[metric] = ratio(timers.get(span, (0, 0.0))[1], rounds)
    for metric, counter in COUNTERS.items():
        m[metric] = ratio(counters.get(counter, 0), rounds)
    m["classifier.speculation_yield"] = ratio(
        counters.get("search.sims_vectorized", 0),
        counters.get("search.vector_candidates", 0))
    m["predictor.predict.hit_ratio"] = ratio(
        counters.get("search.predictor_cache_hits", 0),
        hook("predictor.predict")[0])
    calls, _busy, _self, resumed = hook("fastengine.run")
    m["fastengine.resumed_ratio"] = ratio(resumed, calls)
    m.update(dict.fromkeys(SERVE_EXTRAS, 0.0))
    m.update(workload.layer_extras(totals))
    m["trace.coverage"] = coverage
    m["trace.overhead_pct"] = overhead_pct
    return m
