"""VectorEngine == FastEngine == Engine: the lockstep sweep is *bit-identical*.

The search's lockstep sweeps rest on the lockstep replay agreeing with both
event engines float-for-float — same makespans, same per-task start/end
times, same allocator high-water marks, and the same OOM attribution for
infeasible plans (the stall diagnosis).  This harness checks that three
ways:

* a three-way differential on fixed plans, random mixed plans, and the
  whole model zoo under seeded duration noise (``FAULT_SEED`` shifts the
  interleavings like the fault property harness);
* the conditional keep-flip tables: a ``run_batch`` row for keep-set S must
  equal a from-scratch ``ScheduleBuilder`` draft for the classification
  that keeps S, replayed on ``FastEngine`` — the compiled family and the
  rebuilt schedule are two independent constructions of the same plan —
  for every zoo model on both quarter-memory machines;
* same-instant completions: with every duration on a coarse grid, several
  streams of one row complete together and two last edges can empty one
  buffer at once — keep-flip and duration-matrix batches must still match
  both event engines task for task, also when some rows overflow the host
  pool mid-batch;
* the fallback matrix: draft families the lockstep formulation cannot
  express must refuse at compile time (``VectorUnsupported``), never
  silently diverge.

End-to-end plan identity of the search against its oracle is covered in
``tests/test_search_oracle.py``.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.common.errors import OutOfMemoryError, SimulationError
from repro.faults import FaultInjector, FaultSpec, FaultyDurations
from repro.gpusim import Engine
from repro.gpusim.engine import Schedule, TaskKind
from repro.gpusim.fastengine import FastEngine
from repro.gpusim.vecengine import (
    VectorEngine,
    VectorTables,
    VectorUnsupported,
    simulate_draft,
)
from repro.hw import CostModel, POWER9_V100, X86_V100, scaled_machine
from repro.models import linear_chain, poster_example, small_cnn
from repro.models.zoo import MODEL_ZOO
from repro.pooch import PoocH
from repro.runtime.durations import CostModelDurations
from repro.runtime.plan import Classification, MapClass, SwapInPolicy
from repro.runtime.profiler import run_profiling
from repro.runtime.schedule import (
    ScheduleBuilder,
    ScheduleOptions,
    build_schedule,
    keep_flip_specs,
)
from tests.conftest import tiny_machine

#: CI pins a seed matrix through this env var; locally it defaults to 0
FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


def _raw_draft(graph, cls, machine, durations=None, *, gap=None, margin=0):
    """EAGER raw draft plus the capacities both engine families use."""
    if durations is None:
        durations = run_profiling(
            graph, machine, forward_refetch_gap=gap
        ).durations()
    options = ScheduleOptions(policy=SwapInPolicy.EAGER,
                              forward_refetch_gap=gap)
    tasks, queues, buffers = ScheduleBuilder(
        graph, cls, durations, options, validate=False
    ).build_raw()
    capacity = machine.usable_gpu_memory - margin
    return (tasks, queues, buffers, capacity, machine.cpu_mem_capacity,
            durations, options)


def assert_three_way(graph, cls, machine, durations=None, **kw):
    """Engine, FastEngine and VectorEngine on one draft: identical makespan,
    per-task start/end times, high-water marks — or identical OOM blame."""
    (tasks, queues, buffers, capacity, host_cap,
     durations, options) = _raw_draft(graph, cls, machine, durations, **kw)
    vec = simulate_draft(tasks, queues, buffers, capacity, host_cap,
                         record_times=True)
    full = Engine(
        build_schedule(graph, cls, durations, options),
        device_capacity=capacity, host_capacity=host_cap, validate=False,
    )
    fast = FastEngine(tasks, queues, buffers, device_capacity=capacity,
                      host_capacity=host_cap)
    try:
        want = full.run()
    except OutOfMemoryError as e:
        with pytest.raises(OutOfMemoryError) as caught:
            fast.run()
        assert caught.value.context == e.context
        assert isinstance(vec.error, OutOfMemoryError)
        assert vec.error.context == e.context
        return
    makespan, device_peak, host_peak = fast.run()
    assert vec.ok, vec.error
    # exact equality throughout — never approx
    assert vec.makespan == want.makespan == makespan
    assert vec.device_peak == want.device_peak == device_peak
    assert vec.host_peak == want.host_peak == host_peak
    assert len(vec.starts) == len(want.records)
    for rec in want.records:
        assert vec.starts[rec.tid] == rec.start
        assert vec.ends[rec.tid] == rec.end


def _random_classification(graph, rng):
    classes = {}
    for m in graph.classifiable_maps():
        options = [MapClass.SWAP, MapClass.KEEP]
        if graph[m].op.recomputable:
            options.append(MapClass.RECOMPUTE)
        classes[m] = rng.choice(options)
    return Classification(classes)


class TestThreeWayEquivalence:
    def test_poster_all_swap(self):
        g = poster_example()
        assert_three_way(g, Classification.all_swap(g),
                         tiny_machine(mem_mib=224))

    def test_poster_all_recompute(self):
        g = poster_example()
        assert_three_way(g, Classification.all_recompute(g),
                         tiny_machine(mem_mib=224))

    def test_in_core_plan(self):
        g = poster_example()
        assert_three_way(g, Classification.all_keep(g), X86_V100)

    def test_all_keep_oom_matches(self):
        # infeasible plans must fail the same way, blaming the same task
        g = poster_example()
        assert_three_way(g, Classification.all_keep(g),
                         tiny_machine(mem_mib=224))

    def test_forward_refetch_gap(self):
        g = linear_chain(6, batch=16, channels=32, image=64)
        assert_three_way(g, Classification.all_swap(g),
                         tiny_machine(mem_mib=224), gap=2)

    def test_random_mixed_plans(self):
        g = small_cnn()
        machine = tiny_machine(mem_mib=160)
        rng = random.Random(7)
        for _ in range(12):
            assert_three_way(g, _random_classification(g, rng), machine)

    def test_random_mixed_plans_near_capacity(self):
        # tighter memory: exercise the OOM/stall-diagnosis branch too
        g = small_cnn()
        machine = tiny_machine(mem_mib=96)
        rng = random.Random(11)
        for _ in range(12):
            assert_three_way(g, _random_classification(g, rng), machine)


class TestZooEquivalenceUnderNoise:
    """Three-way differential for *every* zoo model, at two batch sizes,
    with seeded duration noise on every task."""

    MACHINE = scaled_machine(X86_V100, mem_scale=0.25, name="x86_quarter")

    @pytest.mark.parametrize("batch", [2, 8])
    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_zoo_model_equivalence(self, name, batch):
        graph = MODEL_ZOO[name](batch=batch)
        injector = FaultInjector(FaultSpec(duration_noise=0.1),
                                 seed=FAULT_SEED + batch)
        durations = FaultyDurations(
            CostModelDurations(graph, CostModel(self.MACHINE)), injector
        )
        for cls in (Classification.all_swap(graph),
                    Classification.all_recompute(graph),
                    Classification.all_keep(graph)):
            assert_three_way(graph, cls, self.MACHINE, durations)


#: quarter-memory paper machines: the zoo models at batch 2 go out-of-core
_QUARTER_MACHINES = [
    scaled_machine(X86_V100, mem_scale=0.25, name="x86_quarter"),
    scaled_machine(POWER9_V100, mem_scale=0.25, name="p9_quarter"),
]


class TestKeepFlipFamily:
    """A ``run_batch`` row must equal an independent from-scratch draft for
    the classification it encodes — compiled conditional tables vs a fresh
    ``ScheduleBuilder`` build, agreeing feasible-for-feasible and
    OOM-context-for-OOM-context."""

    def _family(self, graph, machine):
        base = Classification.all_swap(graph)
        (tasks, queues, buffers, capacity, host_cap,
         durations, options) = _raw_draft(graph, base, machine)
        maps = sorted(graph.classifiable_maps())
        flips = keep_flip_specs(tasks, buffers, maps)
        tables = VectorTables(tasks, queues, buffers, capacity, host_cap,
                              flips)
        return (VectorEngine(tables), [f.map_id for f in flips], base,
                durations, capacity, host_cap)

    def _check(self, graph, machine, seed, rows=16) -> int:
        """Compare ``rows`` random keep rows; return how many ran feasibly.
        Row r keeps each map with probability r / rows, so the batch ramps
        from all-swap toward all-keep and crosses the capacity wall."""
        engine, maps, base, durations, capacity, host_cap = self._family(
            graph, machine)
        rng = random.Random(seed)
        keep = np.zeros((rows, len(maps)), bool)
        for r in range(rows):
            for c in range(len(maps)):
                keep[r, c] = rng.random() < r / rows
        outs = engine.run_batch(keep)
        feasible = 0
        options = ScheduleOptions(policy=SwapInPolicy.EAGER)
        for r, out in enumerate(outs):
            cls = base.with_classes(
                {m: MapClass.KEEP for c, m in enumerate(maps) if keep[r, c]})
            tasks, queues, buffers = ScheduleBuilder(
                graph, cls, durations, options, validate=False
            ).build_raw()
            fast = FastEngine(tasks, queues, buffers,
                              device_capacity=capacity,
                              host_capacity=host_cap)
            try:
                makespan, device_peak, host_peak = fast.run()
            except OutOfMemoryError as e:
                assert isinstance(out.error, OutOfMemoryError)
                assert out.error.context == e.context
                continue
            assert out.ok, out.error
            assert out.makespan == makespan
            assert out.device_peak == device_peak
            assert out.host_peak == host_peak
            feasible += 1
        return feasible

    @pytest.mark.parametrize("machine", _QUARTER_MACHINES,
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_zoo_family(self, name, machine):
        graph = MODEL_ZOO[name](batch=2)
        assert self._check(graph, machine, FAULT_SEED + 5) >= 1

    def test_small_cnn_family(self):
        self._check(small_cnn(), tiny_machine(mem_mib=160), FAULT_SEED + 1)

    def test_small_cnn_family_near_capacity(self):
        self._check(small_cnn(), tiny_machine(mem_mib=96), FAULT_SEED + 2)

    def test_poster_family(self):
        self._check(poster_example(), tiny_machine(mem_mib=224),
                    FAULT_SEED + 3)

    def test_resnet18_family(self):
        self._check(MODEL_ZOO["resnet18"](batch=4),
                    scaled_machine(X86_V100, mem_scale=0.25),
                    FAULT_SEED + 4, rows=8)


#: ~61 us; a power of two, so grid multiples and all their sums are exact
#: floats and equal sums tie exactly
_GRID = 2.0 ** -14


class _GridDurations:
    """Profiled durations rounded to whole multiples of ``_GRID`` (at least
    one), each optionally scaled by a per-task integer factor drawn from
    ``seed`` — still on the grid, so ties survive the scaling."""

    def __init__(self, base, seed=None):
        self.base = base
        self.seed = seed

    def _grid(self, kind, key, x):
        units = max(1, round(x / _GRID))
        if self.seed is not None:
            units *= random.Random(f"{self.seed}:{kind}:{key}").randint(1, 3)
        return units * _GRID

    def fwd(self, layer):
        return self._grid("fwd", layer, self.base.fwd(layer))

    def bwd(self, layer):
        return self._grid("bwd", layer, self.base.bwd(layer))

    def swap_out(self, map_id):
        return self._grid("swap_out", map_id, self.base.swap_out(map_id))

    def swap_in(self, map_id):
        return self._grid("swap_in", map_id, self.base.swap_in(map_id))

    def input_load(self, layer):
        return self._grid("input_load", layer, self.base.input_load(layer))

    def update(self):
        return self._grid("update", 0, self.base.update())


class TestSameInstantCompletions:
    """Lockstep rows on grid durations == ``FastEngine`` == ``Engine``:
    makespan, per-task start/end and both pool peaks, for keep-flip rows
    and for per-row duration tables."""

    MACHINES = [
        tiny_machine(mem_mib=224, link_gbps=2.0, name="tiny-slow"),
        tiny_machine(mem_mib=224, link_gbps=200.0, name="tiny-fast"),
    ]
    MODELS = {
        "poster_example": poster_example,
        "small_cnn": small_cnn,
        "resnet18": lambda: MODEL_ZOO["resnet18"](batch=2),
    }
    OPTIONS = ScheduleOptions(policy=SwapInPolicy.EAGER)

    def _setup(self, name, machine):
        graph = self.MODELS[name]()
        profiled = run_profiling(graph, machine).durations()
        return graph, profiled

    def _assert_row(self, out, tasks, queues, buffers, machine,
                    host_cap=None):
        """One lockstep row against both event engines on the same draft;
        returns how many task ends share their instant with another."""
        capacity = machine.usable_gpu_memory
        host_cap = host_cap or machine.cpu_mem_capacity
        fast = FastEngine(tasks, queues, buffers, device_capacity=capacity,
                          host_capacity=host_cap)
        schedule = Schedule(
            tasks={tid: d.to_task() for tid, d in tasks.items()},
            queues=queues,
            buffers={bid: b.to_spec() for bid, b in buffers.items()})
        full = Engine(schedule, device_capacity=capacity,
                      host_capacity=host_cap, validate=False)
        try:
            want = full.run()
        except OutOfMemoryError as e:
            with pytest.raises(OutOfMemoryError):
                fast.run()
            assert isinstance(out.error, OutOfMemoryError)
            assert out.error.context == e.context
            return 0
        makespan, device_peak, host_peak = fast.run()
        assert out.ok, out.error
        assert out.makespan == want.makespan == makespan
        assert out.device_peak == want.device_peak == device_peak
        assert out.host_peak == want.host_peak == host_peak
        assert len(out.starts) == len(want.records)
        for rec in want.records:
            assert out.starts[rec.tid] == rec.start
            assert out.ends[rec.tid] == rec.end
        ends = [rec.end for rec in want.records]
        return len(ends) - len(set(ends))

    def _draft(self, graph, cls, durations):
        return ScheduleBuilder(graph, cls, durations, self.OPTIONS,
                               validate=False).build_raw()

    def _keep_flip_batch(self, name, machine, host_cap=None):
        """Grid-duration keep-flip family: the all-swap base row plus seven
        random keep sets, each checked against both event engines."""
        graph, profiled = self._setup(name, machine)
        durations = _GridDurations(profiled)
        base = Classification.all_swap(graph)
        tasks, queues, buffers = self._draft(graph, base, durations)
        flips = keep_flip_specs(tasks, buffers,
                                sorted(graph.classifiable_maps()))
        tables = VectorTables(tasks, queues, buffers,
                              machine.usable_gpu_memory,
                              host_cap or machine.cpu_mem_capacity, flips)
        rng = random.Random(FAULT_SEED + 5)
        keep = np.zeros((8, len(flips)), bool)
        for r in range(1, 8):  # row 0 stays the all-swap base
            for c in range(len(flips)):
                keep[r, c] = rng.random() < 0.5
        outs = VectorEngine(tables).run_batch(keep, record_times=True)
        ties = 0
        for r, out in enumerate(outs):
            cls = base.with_classes({f.map_id: MapClass.KEEP
                                     for c, f in enumerate(flips)
                                     if keep[r, c]})
            ties += self._assert_row(out, *self._draft(graph, cls, durations),
                                     machine, host_cap)
        return outs, ties

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_keep_flip_rows(self, name, machine):
        _outs, ties = self._keep_flip_batch(name, machine)
        assert ties > 0

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_host_pool_overflow_rows(self, name):
        # a host pool between the rows' host peaks: rows that swap more
        # maps fail their host malloc mid-scan while the rest of the batch
        # runs on, and each failure must blame the event engines' task
        machine = self.MACHINES[0]
        outs, _ties = self._keep_flip_batch(name, machine)
        peaks = sorted({o.host_peak for o in outs if o.ok})
        assert len(peaks) > 1
        outs, _ties = self._keep_flip_batch(name, machine,
                                            host_cap=peaks[len(peaks) // 2])
        assert any(o.ok for o in outs)
        assert any(isinstance(o.error, OutOfMemoryError) for o in outs)

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_duration_matrix_rows(self, name, machine):
        graph, profiled = self._setup(name, machine)
        cls = Classification.all_swap(graph)
        tasks, queues, buffers = ScheduleBuilder(
            graph, cls, _GridDurations(profiled), self.OPTIONS,
            validate=False,
        ).build_raw()
        tables = VectorTables(tasks, queues, buffers,
                              machine.usable_gpu_memory,
                              machine.cpu_mem_capacity)
        providers = [_GridDurations(profiled, seed=FAULT_SEED + r)
                     for r in range(6)]
        matrix = np.array([
            [row_tasks[tid].duration for tid in tables.tids]
            for row_tasks in (
                ScheduleBuilder(graph, cls, p, self.OPTIONS,
                                validate=False).build_raw()[0]
                for p in providers)
        ])
        outs = VectorEngine(tables).run_batch(durations=matrix,
                                              record_times=True)
        ties = sum(self._assert_row(out, *self._draft(graph, cls, p), machine)
                   for out, p in zip(outs, providers))
        assert ties > 0

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_two_last_edges_release_one_buffer(self, machine):
        # builder drafts order a swap-out after its map's forward consumer;
        # freed from that dep, each swap-out runs beside the consumer and,
        # with small_cnn's durations all one grid unit, both of the forward
        # buffer's last edges fire at the same instant: the buffer must be
        # released once, not once per edge
        graph, profiled = self._setup("small_cnn", machine)
        tasks, queues, buffers = self._draft(
            graph, Classification.all_swap(graph), _GridDurations(profiled))
        tied = 0
        for task in tasks.values():
            if task.kind is TaskKind.SWAP_OUT:
                (fwd,) = (b for b in task.reads if not buffers[b].host)
                task.deps = {buffers[fwd].alloc_by}
                tied += 1
        assert tied
        tables = VectorTables(tasks, queues, buffers,
                              machine.usable_gpu_memory,
                              machine.cpu_mem_capacity)
        (out,) = VectorEngine(tables).run_batch(record_times=True)
        assert self._assert_row(out, tasks, queues, buffers, machine) > 0


class TestFallbackMatrix:
    """Inexpressible draft families must refuse at compile time."""

    def _draft(self, policy):
        g = poster_example()
        machine = tiny_machine(mem_mib=224)
        durations = run_profiling(g, machine, policy=policy).durations()
        options = ScheduleOptions(policy=policy)
        return ScheduleBuilder(
            g, Classification.all_swap(g), durations, options,
            validate=False,
        ).build_raw(), machine

    def test_naive_policy_unsupported(self):
        (tasks, queues, buffers), machine = self._draft(SwapInPolicy.NAIVE)
        with pytest.raises(VectorUnsupported):
            VectorTables(tasks, queues, buffers,
                         machine.usable_gpu_memory)

    def test_superneurons_policy_unsupported(self):
        (tasks, queues, buffers), machine = self._draft(
            SwapInPolicy.SUPERNEURONS)
        with pytest.raises(VectorUnsupported):
            VectorTables(tasks, queues, buffers,
                         machine.usable_gpu_memory)

    def test_nonpositive_capacity_rejected(self):
        (tasks, queues, buffers), _machine = self._draft(SwapInPolicy.EAGER)
        with pytest.raises(SimulationError):
            VectorTables(tasks, queues, buffers, 0)

    def test_predictor_gates_on_refetch_gap(self):
        # the integration layer must not even try to vectorize drafts the
        # flip family cannot describe (forward re-fetch reads the host
        # instance a keep flip deletes)
        from repro.pooch.predictor import TimelinePredictor

        g = poster_example()
        machine = tiny_machine(mem_mib=224)
        profile = run_profiling(g, machine, forward_refetch_gap=2)
        predictor = TimelinePredictor(g, profile, machine,
                                      forward_refetch_gap=2)
        assert predictor.vector_flip_index() is None


class TestSearchPlanIdentity:
    """The search actually takes the lockstep path on a zoo model."""

    def test_vectorized_search_actually_vectorizes(self):
        machine = _QUARTER_MACHINES[0]
        graph = MODEL_ZOO["resnet18"](batch=2)
        res = PoocH(machine).optimize(graph)
        assert res.stats.sims_vectorized > 0
        assert res.stats.vector_sweeps > 0
