"""Planner-as-a-service: coalescing, cache tiers, admission, HTTP layer.

The concurrency suite is deterministic by construction: a gated planner
blocks every search on an event the test controls, so "N concurrent
identical requests" genuinely overlap and the single-search assertion is
counter-based (profiling invocations are counted at the pipeline boundary),
not timing-based.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from urllib.parse import urlparse

import pytest

import repro.pooch.pipeline as pipeline_mod
from repro.models import build_model
from repro.pooch import PoocH, PoochConfig
from repro.runtime.plan_io import graph_signature, plan_to_dict
from repro.serve import (
    BadRequest,
    JobManager,
    JobState,
    LruCache,
    PlannerClient,
    PlannerServer,
    QueueFull,
    ServeClientError,
    ServePlanner,
    TIER_COALESCED,
    TIER_PERSISTENT,
    TIER_SEARCH,
    TIER_WARM,
)
from repro.serve.jobs import MAX_SETTLED_JOBS

REQ = {"model": "mlp", "batch": 8, "config": {"budget": 20}}


def small_request(batch: int = 8, **config) -> dict:
    return {"model": "mlp", "batch": batch,
            "config": {"budget": 20, **config}}


class GatedPlanner(ServePlanner):
    """A ServePlanner whose optimize() blocks until the test opens the gate
    (and counts its invocations), so submissions provably overlap."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.optimize_calls = 0
        self._count_lock = threading.Lock()

    def optimize(self, resolved, progress=None):
        assert self.gate.wait(timeout=30), "test gate never opened"
        with self._count_lock:
            self.optimize_calls += 1
        return super().optimize(resolved, progress=progress)


class FailingPlanner(GatedPlanner):
    """A GatedPlanner whose every search fails once the gate opens."""

    def optimize(self, resolved, progress=None):
        assert self.gate.wait(timeout=30), "test gate never opened"
        with self._count_lock:
            self.optimize_calls += 1
        raise RuntimeError("search exploded")


def drain(manager: JobManager, *jobs, timeout: float = 30.0) -> None:
    for job in jobs:
        assert job.wait(timeout), f"{job.id} stuck in {job.state}"


def wait_until_running(job, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while job.state is not JobState.RUNNING:
        assert time.monotonic() < deadline, f"{job.id} never started"
        time.sleep(0.005)


@pytest.fixture
def manager():
    m = JobManager(ServePlanner(), workers=2, max_queue=8)
    yield m
    m.shutdown()


# -- LRU / warm cache units -------------------------------------------------------


class TestLruCache:
    def test_bounded_with_lru_eviction(self):
        lru = LruCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh a
        lru.put("c", 3)  # evicts b, the least recent
        assert "b" not in lru and "a" in lru and "c" in lru
        assert lru.stats()["evictions"] == 1

    def test_hit_miss_accounting(self):
        lru = LruCache(4)
        assert lru.get("nope") is None
        lru.put("k", "v")
        assert lru.get("k") == "v"
        stats = lru.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_thread_safety_smoke(self):
        lru = LruCache(16)

        def hammer(seed: int) -> None:
            for i in range(200):
                lru.put((seed, i % 20), i)
                lru.get((seed, (i + 7) % 20))

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(lru) <= 16


# -- the coalescer (open flights inside JobManager) -------------------------------


class TestCoalescer:
    def test_leader_then_followers(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=1, max_queue=16)
        try:
            leader = manager.submit(small_request())
            followers = [manager.submit(small_request()) for _ in range(2)]
            assert leader.state in (JobState.QUEUED, JobState.RUNNING)
            for f in followers:
                assert f.state is JobState.COALESCED
                assert f.coalesced_with == leader.id
                assert f.events[0]["event"] == "coalesce:joined"
                assert f.events[0]["leader"] == leader.id
            assert manager.stats()["open_flights"] == 1
            planner.gate.set()
            drain(manager, leader, *followers)
        finally:
            manager.shutdown()
        assert manager.stats()["open_flights"] == 0
        assert planner.optimize_calls == 1
        for f in followers:
            assert f.cache_tier == TIER_COALESCED
            assert f.result["coalesced_with"] == leader.id
            # each job gets its own stamped copy; the plan itself is shared
            assert f.result["plan"] is leader.result["plan"]
        assert leader.result["coalesced_with"] is None
        cached = manager.warm.get(leader.key)
        assert "cache_tier" not in cached  # the cached payload is never stamped

    def test_distinct_keys_do_not_coalesce(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=1, max_queue=16)
        try:
            a = manager.submit(small_request(batch=8))
            b = manager.submit(small_request(batch=16))
            again = manager.submit(small_request(batch=16))
            assert manager.stats()["open_flights"] == 2
            assert a.coalesced_with is None and b.coalesced_with is None
            assert again.coalesced_with == b.id
            planner.gate.set()
            drain(manager, a, b, again)
        finally:
            manager.shutdown()
        assert manager.stats()["open_flights"] == 0

    def test_concurrent_joins_elect_exactly_one_leader(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=2, max_queue=16)
        barrier = threading.Barrier(8)
        jobs, lock = [], threading.Lock()

        def contender() -> None:
            barrier.wait()
            job = manager.submit(small_request())
            with lock:
                jobs.append(job)

        try:
            threads = [threading.Thread(target=contender) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            leaders = [j for j in jobs if j.state is not JobState.COALESCED]
            assert len(leaders) == 1
            assert {j.coalesced_with for j in jobs if j not in leaders} == {
                leaders[0].id}
            assert manager.stats()["open_flights"] == 1
            planner.gate.set()
            drain(manager, *jobs)
        finally:
            manager.shutdown()
        assert manager.counters["coalesced"] == 7

    def test_leader_error_settles_the_whole_cohort(self):
        planner = FailingPlanner()
        manager = JobManager(planner, workers=1, max_queue=16)
        try:
            leader = manager.submit(small_request())
            followers = [manager.submit(small_request()) for _ in range(2)]
            planner.gate.set()
            drain(manager, leader, *followers)
            for job in (leader, *followers):
                assert job.state is JobState.FAILED
                assert job.error == "search exploded"
                assert job.events[-1]["event"] == "job:failed"
            assert {f.coalesced_with for f in followers} == {leader.id}
            assert manager.counters["failed"] == 3
            assert manager.counters["completed"] == 0
            assert manager.stats()["open_flights"] == 0
            # the flight closed: a retry leads a fresh search
            retry = manager.submit(small_request())
            assert retry.state is not JobState.COALESCED
            assert retry.coalesced_with is None
            drain(manager, retry)
        finally:
            manager.shutdown()
        assert planner.optimize_calls == 2
        assert manager.counters["failed"] == 4


# -- request resolution -----------------------------------------------------------


class TestResolve:
    def test_identical_requests_share_a_key_and_graph(self):
        p = ServePlanner()
        a = p.resolve(small_request())
        b = p.resolve(small_request())
        assert a.key == b.key
        assert a.graph is b.graph  # graph LRU: one NNGraph instance

    def test_different_requests_differ_in_key(self):
        p = ServePlanner()
        base = p.resolve(small_request()).key
        assert p.resolve(small_request(batch=16)).key != base
        assert p.resolve(small_request(budget=40)).key != base
        other = dict(small_request())
        other["machine"] = "power9"
        assert p.resolve(other).key != base

    @pytest.mark.parametrize("broken", [
        {"batch": 8},                                   # no model
        {"model": "no-such-model"},
        {"model": "mlp", "batch": 0},
        {"model": "mlp", "batch": True},
        {"model": "mlp", "machine": "sparc"},
        {"model": "mlp", "devices": -1},
        {"model": "mlp", "config": {"warp_drive": 9}},
        {"model": "mlp", "config": ["not", "a", "dict"]},
        {"model": "mlp", "input_size": "wide"},
        # config values fail at resolve, not inside the leader's search
        {"model": "mlp", "config": {"budget": "x"}},
        {"model": "mlp", "config": {"capacity_margin": "1"}},
        {"model": "mlp", "config": {"budget": True}},
        {"model": "mlp", "config": {"capacity_margin": -5}},
        # search speed knobs are not configurable
        {"model": "mlp", "config": {"workers": 2}},
        {"model": "mlp", "config": {"prune": False}},
        {"model": "mlp", "config": {"incremental": False}},
        {"model": "mlp", "config": {"incremental_step2": False}},
        {"model": "mlp", "config": {"vectorize": False}},
        # input_size: exactly three positive integers, checked before any
        # graph is built (json.loads accepts Infinity)
        {"model": "resnext101_3d", "input_size": [float("inf"), 8, 8]},
        {"model": "resnext101_3d", "input_size": [8, 8]},
        {"model": "resnext101_3d", "input_size": "888"},
        {"model": "resnext101_3d", "input_size": [8.9, 8, 8]},
        {"model": "resnext101_3d", "input_size": [True, 8, 8]},
        {"model": "resnext101_3d", "input_size": [0, 8, 8]},
    ])
    def test_bad_requests_rejected(self, broken):
        with pytest.raises(BadRequest) as e:
            ServePlanner().resolve(broken)
        config = broken.get("config")
        if isinstance(config, dict):
            for key, value in config.items():
                assert repr(key) in str(e.value) or repr(value) in str(e.value)
        if "input_size" in broken:
            assert repr(broken["input_size"]) in str(e.value)

    def test_input_size_reaches_the_graph(self):
        p = ServePlanner()
        small = p.resolve({"model": "resnext101_3d", "batch": 1,
                           "input_size": [4, 8, 8]})
        large = p.resolve({"model": "resnext101_3d", "batch": 1,
                           "input_size": (8, 16, 16)})
        assert (small.graph[0].out_spec.nbytes * 8
                == large.graph[0].out_spec.nbytes)

    def test_multi_device_request_changes_machine(self):
        p = ServePlanner()
        multi = dict(small_request())
        multi["devices"] = 4
        resolved = p.resolve(multi)
        assert resolved.machine.devices == 4
        assert resolved.key != p.resolve(small_request()).key


# -- the core acceptance test: N concurrent identical requests, one search --------


class TestCoalescedSubmission:
    def test_eight_concurrent_identical_requests_run_one_search(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=2, max_queue=16)
        profiles = {"n": 0}
        real_profiling = pipeline_mod.run_profiling

        def counting_profiling(*args, **kwargs):
            profiles["n"] += 1
            return real_profiling(*args, **kwargs)

        pipeline_mod.run_profiling = counting_profiling
        try:
            barrier = threading.Barrier(8)
            jobs, lock = [], threading.Lock()

            def client() -> None:
                barrier.wait()
                job = manager.submit(small_request())
                with lock:
                    jobs.append(job)

            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            planner.gate.set()
            drain(manager, *jobs)
        finally:
            pipeline_mod.run_profiling = real_profiling
            manager.shutdown()

        # exactly one profiling + one search for the whole cohort
        assert profiles["n"] == 1
        assert planner.optimize_calls == 1
        assert manager.counters["searches"] == 1
        assert manager.counters["coalesced"] == 7
        assert manager.counters["completed"] == 8
        tiers = sorted(j.cache_tier for j in jobs)
        assert tiers == [TIER_COALESCED] * 7 + [TIER_SEARCH]
        # every response carries the identical plan (shared by reference)
        plans = {json.dumps(j.result["plan"], sort_keys=True) for j in jobs}
        assert len(plans) == 1
        leader = next(j for j in jobs if j.cache_tier == TIER_SEARCH)
        for j in jobs:
            if j is not leader:
                assert j.coalesced_with == leader.id

    def test_distinct_requests_do_not_coalesce(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=2, max_queue=16)
        try:
            a = manager.submit(small_request(batch=8))
            b = manager.submit(small_request(batch=16))
            # neither is a follower (a worker may already have picked one up)
            assert a.state in (JobState.QUEUED, JobState.RUNNING)
            assert b.state in (JobState.QUEUED, JobState.RUNNING)
            planner.gate.set()
            drain(manager, a, b)
        finally:
            manager.shutdown()
        assert planner.optimize_calls == 2
        assert manager.counters["coalesced"] == 0
        assert {a.cache_tier, b.cache_tier} == {TIER_SEARCH}


class TestAdmissionControl:
    def test_queue_full_fails_fast(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=1, max_queue=1)
        try:
            running = manager.submit(small_request(batch=4))
            wait_until_running(running)
            queued = manager.submit(small_request(batch=8))
            with pytest.raises(QueueFull):
                manager.submit(small_request(batch=16))
            assert manager.counters["rejected_queue"] == 1
            # but a *coalescible* request still gets in (no queue slot needed)
            follower = manager.submit(small_request(batch=8))
            assert follower.state is JobState.COALESCED
            planner.gate.set()
            drain(manager, running, queued, follower)
        finally:
            manager.shutdown()

    def test_rejected_leader_does_not_leak_a_flight(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=1, max_queue=1)
        try:
            running = manager.submit(small_request(batch=4))
            wait_until_running(running)
            queued = manager.submit(small_request(batch=8))  # fills the queue
            with pytest.raises(QueueFull):
                manager.submit(small_request(batch=16))
            # the rejected request opened no flight: a retry is not admitted
            # as a follower of a ghost flight, so the full queue rejects it
            with pytest.raises(QueueFull):
                manager.submit(small_request(batch=16))
            planner.gate.set()
            drain(manager, running, queued)
            # once the queue drains, the retry leads its own search
            retry = manager.submit(small_request(batch=16))
            assert retry.state is not JobState.COALESCED
            drain(manager, retry)
        finally:
            manager.shutdown()
        assert retry.cache_tier == TIER_SEARCH
        assert manager.counters["rejected_queue"] == 2


# -- cache tiers + the bit-identical guarantee ------------------------------------


class TestCacheTiers:
    def test_warm_hit_skips_queue_and_quota(self, manager):
        first = manager.submit(small_request())
        drain(manager, first)
        assert first.cache_tier == TIER_SEARCH
        second = manager.submit(small_request())
        assert second.state is JobState.DONE  # terminal at submit time
        assert second.cache_tier == TIER_WARM
        assert manager.counters["warm_hits"] == 1
        # identical plan, shared by construction
        assert second.result["plan"] == first.result["plan"]

    def test_persistent_tier_across_managers(self, tmp_path):
        cache_dir = tmp_path / "cache"
        m1 = JobManager(ServePlanner(plan_cache=str(cache_dir)), workers=1)
        try:
            cold = m1.submit(small_request())
            drain(m1, cold)
            assert cold.cache_tier == TIER_SEARCH
        finally:
            m1.shutdown()
        # a fresh manager (fresh process, conceptually) shares the directory
        m2 = JobManager(ServePlanner(plan_cache=str(cache_dir)), workers=1)
        try:
            warmish = m2.submit(small_request())
            drain(m2, warmish)
            assert warmish.cache_tier == TIER_PERSISTENT
            assert m2.counters["persistent_hits"] == 1
            assert warmish.result["search"]["plan_cache_hit"] is True
            assert warmish.result["plan"] == cold.result["plan"]
        finally:
            m2.shutdown()

    def test_served_plan_bit_identical_to_direct_optimize(self, manager):
        job = manager.submit(small_request())
        drain(manager, job)
        graph = build_model("mlp", batch=8)
        direct = PoocH(job.resolved.machine,
                       PoochConfig(step1_sim_budget=20)).optimize(graph)
        expected = plan_to_dict(direct.classification, graph,
                                machine=job.resolved.machine.name,
                                predicted_time=direct.predicted.time)
        assert (json.dumps(job.result["plan"], sort_keys=True)
                == json.dumps(expected, sort_keys=True))
        assert job.result["predicted_time_s"] == direct.predicted.time


# -- the job table ----------------------------------------------------------------


class TestJobTable:
    def test_settled_jobs_are_bounded(self, manager):
        first = manager.submit(small_request())
        drain(manager, first)
        warm = [manager.submit(small_request())
                for _ in range(MAX_SETTLED_JOBS + 10)]
        assert all(j.state is JobState.DONE for j in warm)
        stats = manager.stats()
        assert sum(stats["jobs_by_state"].values()) == MAX_SETTLED_JOBS
        assert stats["counters"]["requests"] == MAX_SETTLED_JOBS + 11
        # the oldest settled jobs go first
        for gone in (first, *warm[:10]):
            with pytest.raises(KeyError):
                manager.get(gone.id)
        assert manager.get(warm[10].id) is warm[10]
        assert manager.get(warm[-1].id) is warm[-1]

    def test_active_jobs_survive_eviction(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=1, max_queue=16)
        try:
            planner.gate.set()
            drain(manager, manager.submit(small_request()))
            planner.gate.clear()
            running = manager.submit(small_request(batch=4))
            wait_until_running(running)
            follower = manager.submit(small_request(batch=4))
            queued = manager.submit(small_request(batch=16))
            for _ in range(MAX_SETTLED_JOBS + 10):
                manager.submit(small_request())  # warm hits
            assert sum(manager.stats()["jobs_by_state"].values()) == (
                MAX_SETTLED_JOBS + 3)
            for job in (running, follower, queued):
                assert manager.get(job.id) is job
            planner.gate.set()
            drain(manager, running, follower, queued)
        finally:
            manager.shutdown()
        assert follower.cache_tier == TIER_COALESCED
        assert queued.cache_tier == TIER_SEARCH


class TestServeMetrics:
    def test_publish_metrics_fills_the_serve_section(self, manager):
        from repro.obs.metrics import (
            MetricsRegistry,
            use_registry,
            validate_run_metrics,
        )

        drain(manager, manager.submit(small_request()))
        manager.submit(small_request())  # warm hit
        with use_registry(MetricsRegistry()) as registry:
            manager.publish_metrics()
            doc = registry.snapshot()
        assert validate_run_metrics(doc) == []
        serve = doc["sections"]["serve"]
        assert serve["requests"] == 2
        assert serve["warm_hits"] == 1
        assert serve["searches"] == 1
        assert "queue_depth" in serve


# -- the HTTP layer ---------------------------------------------------------------


@pytest.fixture
def server():
    manager = JobManager(ServePlanner(), workers=2, max_queue=8)
    with PlannerServer(manager, port=0) as srv:
        yield srv


class TestHTTP:
    def test_submit_wait_result_roundtrip(self, server):
        client = PlannerClient(server.url)
        assert client.health() == {"status": "ok"}
        doc = client.submit("mlp", batch=8, config={"budget": 20})
        result = client.result(doc["id"])
        assert result["plan"]["classes"]
        assert result["cache_tier"] in (TIER_SEARCH, TIER_WARM)
        # repeat: warm, terminal in the submit response itself
        again = client.submit("mlp", batch=8, config={"budget": 20})
        assert again["state"] == "done"
        assert again["result"]["cache_tier"] == TIER_WARM

    def test_event_stream_replays_the_pipeline(self, server):
        client = PlannerClient(server.url)
        doc = client.submit("mlp", batch=8, config={"budget": 20})
        client.wait(doc["id"])
        events = [e["event"] for e in client.events(doc["id"])]
        assert events[0] == "queue:admitted"
        assert "profile:start" in events and "search:done" in events
        assert events[-1] == "job:done"
        # ?from=N skips the replayed prefix
        tail = list(client.events(doc["id"], from_seq=len(events) - 1))
        assert [e["event"] for e in tail] == ["job:done"]

    def test_bad_request_maps_to_400(self, server):
        client = PlannerClient(server.url)
        with pytest.raises(ServeClientError) as e:
            client.submit("no-such-model")
        assert e.value.status == 400
        for config, named in (({"budget": "x"}, "'x'"),
                              ({"capacity_margin": -5}, "-5"),
                              ({"workers": 2}, "'workers'")):
            with pytest.raises(ServeClientError) as e:
                client.submit("mlp", batch=8, config=config)
            assert e.value.status == 400
            assert named in e.value.body["error"]

    @pytest.mark.parametrize("input_size", [
        "[Infinity, 8, 8]", "[8, 8]", '"888"', "[8.9, 8, 8]",
    ], ids=["infinity", "two-dims", "string", "float"])
    def test_malformed_input_size_maps_to_400(self, server, capsys,
                                               input_size):
        # json.loads accepts Infinity; none of these may reach build_model
        body = ('{"model": "resnext101_3d", "batch": 1, "input_size": '
                f"{input_size}}}").encode()
        url = urlparse(server.url)
        with socket.create_connection((url.hostname, url.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /v1/optimize HTTP/1.1\r\nHost: x\r\n"
                         b"Connection: close\r\nContent-Length: "
                         + str(len(body)).encode() + b"\r\n\r\n" + body)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.split()[1] == b"400", reply
        error = json.loads(rest.partition(b"\r\n\r\n")[2])["error"]
        assert "'input_size'" in error
        assert repr(json.loads(input_size)) in error
        assert "Traceback" not in capsys.readouterr().err
        assert PlannerClient(server.url).health() == {"status": "ok"}

    def test_unknown_job_maps_to_404(self, server):
        client = PlannerClient(server.url)
        with pytest.raises(ServeClientError) as e:
            client.job("job-424242")
        assert e.value.status == 404

    def test_queue_full_maps_to_429_with_reason(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=1, max_queue=1)
        with PlannerServer(manager, port=0) as srv:
            client = PlannerClient(srv.url)
            running = client.submit("mlp", batch=4, config={"budget": 20})
            wait_until_running(manager.get(running["id"]))
            client.submit("mlp", batch=8, config={"budget": 20})
            with pytest.raises(ServeClientError) as e:
                client.submit("mlp", batch=16, config={"budget": 20})
            assert e.value.status == 429
            assert e.value.body["reason"] == "queue-full"
            planner.gate.set()

    @pytest.mark.parametrize("request_head, named", [
        ("POST /v1/optimize HTTP/1.1\r\nContent-Length: abc", "'abc'"),
        ("POST /v1/optimize HTTP/1.1\r\nContent-Length: -1", "'-1'"),
        ("POST /v1/optimize HTTP/1.1\r\nContent-Length: 2000000",
         "'2000000'"),
        ("GET /v1/jobs/{job}/events?from=abc HTTP/1.1", "'abc'"),
        ("GET /v1/jobs/{job}/events?from=-3 HTTP/1.1", "'-3'"),
    ], ids=["length-abc", "length-negative", "length-too-large", "from-abc",
            "from-negative"])
    def test_malformed_http_input_maps_to_400(self, server, request_head,
                                               named):
        client = PlannerClient(server.url)
        job = client.submit("mlp", batch=8, config={"budget": 20})["id"]
        client.wait(job)
        url = urlparse(server.url)
        head = request_head.format(job=job)
        with socket.create_connection((url.hostname, url.port),
                                      timeout=5) as sock:
            sock.sendall(f"{head}\r\nHost: x\r\nConnection: close"
                         f"\r\n\r\n".encode())
            reply = b""
            while chunk := sock.recv(65536):  # a hang raises socket.timeout
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.split()[1] == b"400", reply
        error = json.loads(rest.partition(b"\r\n\r\n")[2])["error"]
        assert named in error
        assert client.health() == {"status": "ok"}  # the server survived

    def test_stats_endpoint(self, server):
        client = PlannerClient(server.url)
        client.result(client.submit("mlp", batch=8,
                                    config={"budget": 20})["id"])
        stats = client.stats()
        assert stats["counters"]["requests"] >= 1
        assert stats["warm_cache"]["capacity"] > 0
        assert "queue_depth" in stats and "open_flights" in stats

    def test_started_server_stops_promptly(self):
        # shutdown() waits for the accept loop's next poll
        server = PlannerServer(JobManager(ServePlanner(), workers=1),
                               port=0).start()
        assert PlannerClient(server.url).health() == {"status": "ok"}
        start = time.perf_counter()
        server.shutdown()
        assert time.perf_counter() - start < 0.25

    def test_remote_shutdown_can_be_disabled(self):
        manager = JobManager(ServePlanner(), workers=1)
        server = PlannerServer(manager, port=0, allow_remote_shutdown=False)
        server.start()
        try:
            client = PlannerClient(server.url)
            with pytest.raises(ServeClientError) as e:
                client.shutdown_server()
            assert e.value.status == 403
        finally:
            server.shutdown()

    def test_eight_concurrent_http_clients_one_search(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=2, max_queue=16)
        with PlannerServer(manager, port=0) as srv:
            barrier = threading.Barrier(8)
            docs, lock = [], threading.Lock()

            def client_thread(i: int) -> None:
                client = PlannerClient(srv.url)
                barrier.wait()
                doc = client.submit("mlp", batch=8, tenant=f"t{i}",
                                    config={"budget": 20})
                with lock:
                    docs.append(doc)

            threads = [threading.Thread(target=client_thread, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            planner.gate.set()
            client = PlannerClient(srv.url)
            finals = [client.wait(d["id"]) for d in docs]
            tiers = sorted(f["cache_tier"] for f in finals)
            assert tiers == [TIER_COALESCED] * 7 + [TIER_SEARCH]
            assert planner.optimize_calls == 1
            plans = {json.dumps(f["result"]["plan"], sort_keys=True)
                     for f in finals}
            assert len(plans) == 1
