"""Event engine semantics, exercised through hand-built schedules, and
the draft contract: a raw builder draft replayed by
``Engine.replay_draft`` equals its finalized schedule on ``Engine``."""

import os
import random

import pytest

from repro.common.errors import OutOfMemoryError, ReproError, ScheduleError
from repro.common.units import MiB
from repro.faults import FaultInjector, FaultSpec, FaultyDurations
from repro.gpusim import (
    BlockMemoryPool,
    BufferSpec,
    Engine,
    Schedule,
    StreamName,
    Task,
    TaskKind,
)
from repro.hw import CostModel, X86_V100, scaled_machine
from repro.models import linear_chain, poster_example, small_cnn
from repro.models.zoo import MODEL_ZOO
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.runtime.durations import CostModelDurations
from repro.runtime.plan import Classification, MapClass, SwapInPolicy
from repro.runtime.profiler import run_profiling
from repro.runtime.schedule import ScheduleBuilder, ScheduleOptions
from tests.conftest import tiny_machine

#: CI pins a seed matrix through this env var; locally it defaults to 0
FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

C, H, D = StreamName.COMPUTE, StreamName.H2D, StreamName.D2H


def make_schedule(tasks: list[Task], buffers: list[BufferSpec] | None = None,
                  meta: dict | None = None) -> Schedule:
    queues: dict[StreamName, list[str]] = {C: [], H: [], D: []}
    for t in tasks:
        queues[t.stream].append(t.tid)
    return Schedule(
        tasks={t.tid: t for t in tasks},
        queues=queues,
        buffers={b.bid: b for b in (buffers or [])},
        meta=meta or {},
    )


def task(tid, stream=C, dur=1.0, kind=TaskKind.FWD, **kw) -> Task:
    return Task(tid=tid, kind=kind, stream=stream, duration=dur, **kw)


class TestSequencing:
    def test_single_task(self):
        r = Engine(make_schedule([task("a", dur=2.5)]), 1024).run()
        assert r.makespan == 2.5
        assert r.records[0].tid == "a"

    def test_fifo_within_stream(self):
        r = Engine(make_schedule([task("a"), task("b"), task("c")]), 1024).run()
        rec = {x.tid: x for x in r.records}
        assert rec["a"].end <= rec["b"].start
        assert rec["b"].end <= rec["c"].start
        assert r.makespan == 3.0

    def test_streams_run_concurrently(self):
        r = Engine(make_schedule([task("a", C), task("b", H), task("c", D)]),
                   1024).run()
        assert r.makespan == 1.0

    def test_deps_across_streams(self):
        r = Engine(
            make_schedule([task("a", C, 1.0), task("b", H, 1.0, deps=("a",))]),
            1024,
        ).run()
        rec = {x.tid: x for x in r.records}
        assert rec["b"].start == rec["a"].end

    def test_start_deps_allow_concurrency(self):
        # b may start when a STARTS, not when it completes
        r = Engine(
            make_schedule([task("a", C, 5.0), task("b", H, 1.0, start_deps=("a",))]),
            1024,
        ).run()
        rec = {x.tid: x for x in r.records}
        assert rec["b"].start == rec["a"].start == 0.0
        assert r.makespan == 5.0

    def test_head_of_line_blocking(self):
        # c is ready but queued behind b which waits for a
        r = Engine(
            make_schedule([
                task("a", C, 3.0),
                task("b", H, 1.0, deps=("a",)),
                task("c", H, 1.0),
            ]),
            1024,
        ).run()
        rec = {x.tid: x for x in r.records}
        assert rec["c"].start >= rec["b"].end

    def test_zero_duration_tasks(self):
        r = Engine(make_schedule([task("a", dur=0.0), task("b", dur=0.0)]),
                   1024).run()
        assert r.makespan == 0.0
        assert len(r.records) == 2


class TestMemory:
    def test_buffer_lifetime(self):
        bufs = [BufferSpec("x", 512, alloc_by="a", free_after=frozenset({"b"}))]
        sched = make_schedule(
            [task("a"), task("b", deps=("a",), reads=("x",))], bufs
        )
        eng = Engine(sched, 1024)
        r = eng.run()
        assert r.device_peak == 512
        assert eng.device.in_use == 0  # freed at the end

    def test_free_waits_for_all_readers(self):
        bufs = [BufferSpec("x", 512, alloc_by="a",
                           free_after=frozenset({"b", "c"}))]
        sched = make_schedule(
            [task("a", dur=1), task("b", deps=("a",), reads=("x",), dur=1),
             task("c", deps=("a",), reads=("x",), dur=1)],
            bufs,
        )
        eng = Engine(sched, 1024)
        eng.run()
        trace = [e for e in eng.device.trace if e.kind == "free"]
        assert trace[0].time == 3.0  # after c, not after b

    def test_memory_gating_stalls(self):
        # b needs memory that only frees when a's buffer is released
        bufs = [
            BufferSpec("x", 768, alloc_by="a", free_after=frozenset({"a"})),
            BufferSpec("y", 768, alloc_by="b", free_after=frozenset({"b"})),
        ]
        sched = make_schedule(
            [task("a", C, 2.0), task("b", H, 1.0)], bufs
        )
        r = Engine(sched, 1024).run()
        rec = {x.tid: x for x in r.records}
        assert rec["b"].start == 2.0  # waited for a's free
        assert r.makespan == 3.0

    def test_ungated_task_raises_on_shortfall(self):
        bufs = [
            BufferSpec("x", 768, alloc_by="a", free_after=frozenset({"a"})),
            BufferSpec("y", 768, alloc_by="b", free_after=frozenset({"b"})),
        ]
        sched = make_schedule(
            [task("a", C, 2.0), task("b", H, 1.0, memory_gated=False)], bufs
        )
        with pytest.raises(OutOfMemoryError, match="ungated"):
            Engine(sched, 1024).run()

    def test_headroom_delays_issue(self):
        bufs = [
            BufferSpec("x", 512, alloc_by="a", free_after=frozenset({"a"})),
            BufferSpec("y", 256, alloc_by="b", free_after=frozenset({"b"})),
        ]
        # without headroom b fits alongside a; with headroom it must wait
        sched = make_schedule(
            [task("a", C, 2.0), task("b", H, 1.0, headroom=512)], bufs
        )
        r = Engine(sched, 1024).run()
        rec = {x.tid: x for x in r.records}
        assert rec["b"].start == 2.0

    def test_scratch_freed_at_completion(self):
        sched = make_schedule([task("a", dur=1.0, scratch_bytes=512),
                               task("b", dur=1.0, scratch_bytes=512)])
        eng = Engine(sched, 600)  # only room for one scratch at a time
        r = eng.run()
        assert r.makespan == 2.0
        assert eng.device.in_use == 0

    def test_preallocated_buffers(self):
        bufs = [BufferSpec("params", 512, alloc_by=None)]
        sched = make_schedule([task("a", reads=("params",))], bufs)
        r = Engine(sched, 1024).run()
        assert r.device_peak == 512

    def test_host_buffers_do_not_consume_device(self):
        bufs = [BufferSpec("hx", 10**9, alloc_by="a", host=True,
                           free_after=frozenset({"a"}))]
        r = Engine(make_schedule([task("a")], bufs), 1024).run()
        assert r.device_peak == 0
        assert r.host_peak >= 10**9

    def test_memory_deadlock_detected(self):
        bufs = [BufferSpec("x", 1024, alloc_by="a", free_after=frozenset())]
        sched = make_schedule([task("a"), task("b", scratch_bytes=1024)], bufs)
        with pytest.raises(OutOfMemoryError, match="deadlock"):
            Engine(sched, 1024).run()

    def test_fragmentation_gates_on_contiguous_block(self):
        # at t=1 "c" frees the middle of A|Cc|B, leaving 1536 bytes free in
        # two blocks (1024 + 512): the counting pool issues "d" (1536), the
        # best-fit arena has no block that size and deadlocks on it
        bufs = [
            BufferSpec("A", 1024, alloc_by="a", free_after=frozenset({"d"})),
            BufferSpec("Cc", 1024, alloc_by="c", free_after=frozenset({"c"})),
            BufferSpec("B", 1024, alloc_by="b", free_after=frozenset({"d"})),
            BufferSpec("D", 1536, alloc_by="d", free_after=frozenset({"d"})),
        ]
        sched = make_schedule(
            [task("a", C), task("c", D), task("b", H),
             task("d", C, deps=("a", "b", "c"))],
            bufs,
        )
        assert Engine(sched, 3584).run().makespan == 2.0
        with pytest.raises(OutOfMemoryError, match="memory deadlock"):
            Engine(sched, 3584, device_pool=BlockMemoryPool(3584)).run()

    def test_alloc_on_ready_reserves_early(self):
        # b's buffer is reserved the moment its start_dep starts, long
        # before b reaches the head of its queue
        bufs = [BufferSpec("y", 512, alloc_by="b", free_after=frozenset({"b"}))]
        sched = make_schedule(
            [task("a", C, 4.0),
             task("blocker", H, 3.0),
             task("b", H, 1.0, start_deps=("a",), alloc_on_ready=True)],
            bufs,
        )
        eng = Engine(sched, 1024)
        eng.run()
        mallocs = [e for e in eng.device.trace if e.buffer == "y"]
        assert mallocs[0].time == 0.0  # reserved at a's start, not at t=3

    def test_alloc_on_ready_ungated_can_oom(self):
        bufs = [
            BufferSpec("x", 768, alloc_by="a", free_after=frozenset({"a"})),
            BufferSpec("y", 768, alloc_by="b", free_after=frozenset({"b"})),
        ]
        sched = make_schedule(
            [task("a", C, 2.0),
             task("b", H, 1.0, start_deps=("a",), alloc_on_ready=True,
                  memory_gated=False)],
            bufs,
        )
        with pytest.raises(OutOfMemoryError):
            Engine(sched, 1024).run()


class TestValidationAndErrors:
    def test_unknown_dep_rejected(self):
        sched = make_schedule([task("a", deps=("ghost",))])
        with pytest.raises(ScheduleError, match="unknown task"):
            Engine(sched, 1024)

    def test_unknown_read_rejected(self):
        sched = make_schedule([task("a", reads=("ghost",))])
        with pytest.raises(ScheduleError, match="unknown buffer"):
            Engine(sched, 1024)

    def test_queue_stream_mismatch(self):
        t = task("a", C)
        sched = Schedule(tasks={"a": t}, queues={H: ["a"]}, buffers={})
        with pytest.raises(ScheduleError):
            sched.validate()

    def test_dependency_cycle_detected(self):
        sched = make_schedule([
            task("a", C, deps=("b",)), task("b", H, deps=("a",)),
        ])
        with pytest.raises(ScheduleError, match="deadlock"):
            Engine(sched, 1024).run()

    def test_use_after_free_detected(self):
        # b reads x but x is freed after a (no dep keeps it alive for b)
        bufs = [BufferSpec("x", 512, alloc_by="a", free_after=frozenset({"a"}))]
        sched = make_schedule(
            [task("a", C, 1.0), task("b", C, 1.0, reads=("x",))], bufs
        )
        with pytest.raises(ScheduleError, match="not resident"):
            Engine(sched, 1024).run()

    def test_task_never_queued_rejected(self):
        t = task("a")
        sched = Schedule(tasks={"a": t, "b": task("b")}, queues={C: ["a"]},
                         buffers={})
        with pytest.raises(ScheduleError, match="never queued"):
            sched.validate()


class TestRunResult:
    def test_busy_intervals_merge(self):
        r = Engine(make_schedule([task("a", C, 1.0), task("b", C, 1.0),
                                  task("c", C, 1.0)]), 1024).run()
        assert r.busy_intervals(C) == [(0.0, 3.0)]

    def test_busy_intervals_gap(self):
        r = Engine(
            make_schedule([task("a", C, 1.0), task("x", H, 2.0),
                           task("b", C, 1.0, deps=("x",))]),
            1024,
        ).run()
        assert r.busy_intervals(C) == [(0.0, 1.0), (2.0, 3.0)]

    def test_records_by_kind(self):
        r = Engine(make_schedule([task("a", kind=TaskKind.BWD)]), 1024).run()
        assert len(r.records_by_kind(TaskKind.BWD)) == 1
        assert r.records_by_kind(TaskKind.FWD) == []

    def test_record_of(self):
        r = Engine(make_schedule([task("a")]), 1024).run()
        assert r.record_of("a").tid == "a"
        with pytest.raises(KeyError):
            r.record_of("nope")

    def test_record_of_matches_linear_scan(self):
        tids = [f"t{i}" for i in range(40)]
        r = Engine(make_schedule([task(t, dur=0.5) for t in tids]),
                   1024).run()
        # the lazy index must agree with a full scan for every tid
        for tid in tids:
            expected = next(rec for rec in r.records if rec.tid == tid)
            assert r.record_of(tid) is expected

    def test_record_of_miss_is_diagnosable(self):
        from repro.common.errors import MissingKeyError

        r = Engine(make_schedule([task("fwd_1"), task("fwd_2")]), 1024).run()
        with pytest.raises(MissingKeyError) as exc:
            r.record_of("fwd_3")
        err = exc.value
        assert err.key == "fwd_3"
        assert err.table == "RunResult.records"
        assert "fwd_1" in err.nearest or "fwd_2" in err.nearest
        assert "fwd_3" in str(err)  # message, not KeyError's repr-quoting

    def test_payload_executes(self):
        hits = []
        t = task("a")
        t.payload = lambda: hits.append(1)
        Engine(make_schedule([t]), 1024).run()
        assert hits == [1]

    def test_free_hook_called(self):
        freed = []
        bufs = [BufferSpec("x", 512, alloc_by="a", free_after=frozenset({"a"}))]
        Engine(make_schedule([task("a")], bufs), 1024,
               free_hook=freed.append).run()
        assert freed == ["x"]


class TestTelemetry:
    """``engine.*`` counters: a Schedule run counts its run, tasks and
    stalls; a draft replay (``Engine.replay_draft``) counts only
    ``draft_runs``."""

    def _counters(self, run) -> dict:
        registry = MetricsRegistry()
        with use_registry(registry):
            try:
                run()
            except (OutOfMemoryError, ScheduleError):
                pass
        return {k: v for k, v in registry.counters.items()
                if k.startswith("engine.")}

    def test_schedule_run_counts(self):
        sched = make_schedule([task("a"), task("b", kind=TaskKind.BWD)])
        assert self._counters(Engine(sched, 1024).run) == {
            "engine.runs": 1, "engine.tasks": 2, "engine.tasks_fwd": 1,
            "engine.tasks_bwd": 1}

    def test_stalls_counted_on_schedule_runs_only(self):
        bufs = [BufferSpec("x", 1024, alloc_by="a", free_after=frozenset())]
        memory = make_schedule([task("a"), task("b", scratch_bytes=1024)],
                               bufs)
        cycle = make_schedule([task("a", C, deps=("b",)),
                               task("b", H, deps=("a",))])
        assert self._counters(Engine(memory, 1024).run) == {
            "engine.stalls_memory": 1}
        assert self._counters(Engine(cycle, 1024).run) == {
            "engine.stalls_dependency": 1}
        for sched in (memory, cycle):
            assert self._counters(lambda: Engine.replay_draft(
                sched.tasks, sched.queues, sched.buffers, 1024)) == {
                "engine.draft_runs": 1}


class TestSchedulesWithHostBuffers:
    def test_host_capacity_enforced(self):
        bufs = [BufferSpec("hx", 2048, alloc_by="a", host=True,
                           free_after=frozenset({"a"}))]
        sched = make_schedule([task("a")], bufs)
        with pytest.raises(OutOfMemoryError):
            Engine(sched, 1024, host_capacity=1024).run()

    def test_host_read_residency(self):
        bufs = [
            BufferSpec("hx", 512, alloc_by="a", host=True,
                       free_after=frozenset({"b"})),
        ]
        sched = make_schedule(
            [task("a", C, 1.0), task("b", H, 1.0, deps=("a",), reads=("hx",))],
            bufs,
        )
        r = Engine(sched, 1024).run()
        assert r.host_peak == 512


class TestDeterminismUnderTies:
    def test_simultaneous_completions_are_stable(self):
        # three equal-duration tasks across streams complete at the same
        # instant; record order must be deterministic across runs
        tasks = [task("a", C, 1.0), task("b", H, 1.0), task("c", D, 1.0),
                 task("d", C, 1.0, deps=("b", "c"))]
        orders = set()
        for _ in range(3):
            r = Engine(make_schedule(list(tasks)), 1024).run()
            orders.add(tuple(rec.tid for rec in r.records))
        assert len(orders) == 1

    def test_zero_capacity_like_conditions(self):
        # a task with no allocations runs even on a minimal pool
        r = Engine(make_schedule([task("a")]), 512).run()
        assert r.makespan == 1.0


# -- the draft contract -----------------------------------------------------
#
# ``ScheduleBuilder.build_raw``'s drafts (set-valued dependencies,
# ``writers | readers`` free lists, no validation) fed straight to
# ``Engine.replay_draft`` must replay exactly like the ``Task``/``BufferSpec``
# schedule ``finalize`` makes of them on ``Engine.run`` — same makespan, same
# peaks, and the same error type and text for infeasible plans — on
# hand-picked toy plans and for every zoo model under seeded duration noise
# (``FAULT_SEED`` shifts the interleavings), across the swap-in policies,
# forward re-fetch and random mixed plans.  The predictor's lone
# predictions, the search oracle and every test that holds a prediction to
# ground truth rest on this.


def _outcome(run):
    """(makespan, device peak, host peak), or the error's type and text."""
    try:
        return run()
    except ReproError as e:
        return type(e), str(e)


def assert_draft_matches_schedule(graph, cls, machine, durations, options,
                                  margin=0):
    builder = ScheduleBuilder(graph, cls, durations, options, validate=False)
    tasks, queues, buffers = builder.build_raw()
    capacity = machine.usable_gpu_memory - margin
    host_cap = machine.cpu_mem_capacity
    full = Engine(builder.finalize(), device_capacity=capacity,
                  host_capacity=host_cap, validate=False)

    def run_draft():
        return Engine.replay_draft(tasks, queues, buffers,
                                   device_capacity=capacity,
                                   host_capacity=host_cap)

    def run_full():
        result = full.run()
        return result.makespan, result.device_peak, result.host_peak

    # exact equality — never approx
    assert _outcome(run_draft) == _outcome(run_full)


def _random_classification(graph, rng):
    classes = {}
    for m in graph.classifiable_maps():
        options = [MapClass.SWAP, MapClass.KEEP]
        if graph[m].op.recomputable:
            options.append(MapClass.RECOMPUTE)
        classes[m] = rng.choice(options)
    return Classification(classes)


def assert_equivalent(graph, cls, machine, *, policy=SwapInPolicy.EAGER,
                      gap=None, margin=0):
    """The contract on profiled durations, as the predictor replays them."""
    options = ScheduleOptions(policy=policy, forward_refetch_gap=gap)
    durations = run_profiling(graph, machine, options=options).durations()
    assert_draft_matches_schedule(graph, cls, machine, durations, options,
                                  margin)


class TestDraftEquivalence:
    """Hand-picked plans on the toys: each swap-in policy's triggers and
    reservations, in-core, infeasible (same blame), a capacity margin,
    forward re-fetch, and random mixed plans with and without room."""

    @pytest.mark.parametrize("policy", list(SwapInPolicy))
    def test_poster_all_swap(self, policy):
        g = poster_example()
        assert_equivalent(g, Classification.all_swap(g),
                          tiny_machine(mem_mib=224), policy=policy)

    def test_poster_all_recompute(self):
        g = poster_example()
        assert_equivalent(g, Classification.all_recompute(g),
                          tiny_machine(mem_mib=224))

    def test_in_core_plan(self):
        g = poster_example()
        assert_equivalent(g, Classification.all_keep(g), X86_V100)

    def test_all_keep_oom_matches(self):
        g = poster_example()
        assert_equivalent(g, Classification.all_keep(g),
                          tiny_machine(mem_mib=224))

    def test_capacity_margin(self):
        g = poster_example()
        assert_equivalent(g, Classification.all_swap(g),
                          tiny_machine(mem_mib=224), margin=16 * MiB)

    def test_forward_refetch_gap(self):
        g = linear_chain(6, batch=16, channels=32, image=64)
        assert_equivalent(g, Classification.all_swap(g),
                          tiny_machine(mem_mib=224), gap=2)

    def test_random_mixed_plans(self):
        g = small_cnn()
        machine = tiny_machine(mem_mib=160)
        rng = random.Random(7)
        for _ in range(12):
            assert_equivalent(g, _random_classification(g, rng), machine)

    def test_random_mixed_plans_near_capacity(self):
        g = small_cnn()
        machine = tiny_machine(mem_mib=96)
        rng = random.Random(11)
        for _ in range(12):
            assert_equivalent(g, _random_classification(g, rng), machine)


class TestDraftZooEquivalenceUnderNoise:
    """Every zoo model, at two batch sizes, with seeded duration noise on
    every task: all-swap under each swap-in policy and with forward
    re-fetch, all-recompute, all-keep and a random mixed plan.  On a
    1 GiB V100 about a third of them fail — memory deadlocks and failed
    allocations — so error texts are compared as well as timelines."""

    MACHINE = scaled_machine(X86_V100, mem_scale=1 / 16, name="x86_sixteenth")

    @pytest.mark.parametrize("batch", [2, 8])
    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_zoo_model_equivalence(self, name, batch):
        graph = MODEL_ZOO[name](batch=batch)
        injector = FaultInjector(FaultSpec(duration_noise=0.1),
                                 seed=FAULT_SEED + batch)
        durations = FaultyDurations(
            CostModelDurations(graph, CostModel(self.MACHINE)), injector
        )
        all_swap = Classification.all_swap(graph)
        rng = random.Random(FAULT_SEED * 31 + batch)
        cases = [(all_swap, ScheduleOptions(policy=policy))
                 for policy in SwapInPolicy]
        cases.append((all_swap, ScheduleOptions(forward_refetch_gap=2)))
        cases += [(cls, ScheduleOptions()) for cls in (
            Classification.all_recompute(graph),
            Classification.all_keep(graph),
            _random_classification(graph, rng))]
        for cls, options in cases:
            assert_draft_matches_schedule(graph, cls, self.MACHINE,
                                          durations, options)
