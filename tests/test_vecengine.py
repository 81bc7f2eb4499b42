"""VectorEngine == Engine: the lockstep sweep is *bit-identical*.

The search's lockstep sweeps rest on the lockstep replay agreeing with the
event loop float-for-float — same makespans, same per-task start/end
times, same allocator high-water marks, and the same OOM attribution for
infeasible plans (the stall diagnosis).  This harness checks that against
``Engine`` (its draft entry point ``Engine.replay_draft`` is held to
``Engine.run`` by the draft contract in ``tests/test_engine.py``):

* a differential on fixed plans, random mixed plans, and the whole model
  zoo under seeded duration noise (``FAULT_SEED`` shifts the
  interleavings like the fault property harness);
* the conditional keep-flip tables: a ``run_batch`` row for keep-set S must
  equal a from-scratch ``ScheduleBuilder`` schedule for the classification
  that keeps S, run on ``Engine`` — the compiled family and the rebuilt
  schedule are two independent constructions of the same plan — for every
  zoo model on both quarter-memory machines;
* same-instant completions: with every duration on a coarse grid, several
  streams of one row complete together and two last edges can empty one
  buffer at once — keep-flip and duration-matrix batches must still match
  the event engine task for task, also when some rows overflow the host
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

from repro.common.errors import OutOfMemoryError, ScheduleError, SimulationError
from repro.faults import FaultInjector, FaultSpec, FaultyDurations
from repro.gpusim import Engine
from repro.gpusim.engine import Schedule, StreamName, TaskKind
from repro.gpusim.vecengine import (
    VariantTables,
    VectorEngine,
    VectorTables,
    VectorUnsupported,
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
    apply_recompute_delta,
    build_schedule,
    keep_flip_specs,
)
from tests.conftest import tiny_machine
from tests.test_search_pruning import _assert_drafts_equal

#: CI pins a seed matrix through this env var; locally it defaults to 0
FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


def _raw_draft(graph, cls, machine, durations=None, *, gap=None, margin=0):
    """EAGER raw draft plus the capacities both engine families use."""
    options = ScheduleOptions(policy=SwapInPolicy.EAGER,
                              forward_refetch_gap=gap)
    if durations is None:
        durations = run_profiling(graph, machine,
                                  options=options).durations()
    tasks, queues, buffers = ScheduleBuilder(
        graph, cls, durations, options, validate=False
    ).build_raw()
    capacity = machine.usable_gpu_memory - margin
    return (tasks, queues, buffers, capacity, machine.cpu_mem_capacity,
            durations, options)


def simulate_draft(tasks, queues, buffers, device_capacity: int,
                   host_capacity: int | None = None,
                   record_times: bool = False):
    """Compile one draft and run it alone (no flip family)."""
    tables = VectorTables(tasks, queues, buffers, device_capacity,
                          host_capacity)
    return VectorEngine(tables).run_batch(record_times=record_times)[0]


def assert_matches_engine(graph, cls, machine, durations=None, **kw):
    """VectorEngine on one draft against Engine on its schedule: identical
    makespan, per-task start/end times, high-water marks — or identical OOM
    blame."""
    (tasks, queues, buffers, capacity, host_cap,
     durations, options) = _raw_draft(graph, cls, machine, durations, **kw)
    vec = simulate_draft(tasks, queues, buffers, capacity, host_cap,
                         record_times=True)
    full = Engine(
        build_schedule(graph, cls, durations, options),
        device_capacity=capacity, host_capacity=host_cap, validate=False,
    )
    try:
        want = full.run()
    except OutOfMemoryError as e:
        assert isinstance(vec.error, OutOfMemoryError)
        assert vec.error.context == e.context
        return
    assert vec.ok, vec.error
    # exact equality throughout — never approx
    assert vec.makespan == want.makespan
    assert vec.device_peak == want.device_peak
    assert vec.host_peak == want.host_peak
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
    """VectorEngine against Engine on fixed and random plans."""

    def test_poster_all_swap(self):
        g = poster_example()
        assert_matches_engine(g, Classification.all_swap(g),
                         tiny_machine(mem_mib=224))

    def test_poster_all_recompute(self):
        g = poster_example()
        assert_matches_engine(g, Classification.all_recompute(g),
                         tiny_machine(mem_mib=224))

    def test_in_core_plan(self):
        g = poster_example()
        assert_matches_engine(g, Classification.all_keep(g), X86_V100)

    def test_all_keep_oom_matches(self):
        # infeasible plans must fail the same way, blaming the same task
        g = poster_example()
        assert_matches_engine(g, Classification.all_keep(g),
                         tiny_machine(mem_mib=224))

    def test_forward_refetch_gap(self):
        g = linear_chain(6, batch=16, channels=32, image=64)
        assert_matches_engine(g, Classification.all_swap(g),
                         tiny_machine(mem_mib=224), gap=2)

    def test_random_mixed_plans(self):
        g = small_cnn()
        machine = tiny_machine(mem_mib=160)
        rng = random.Random(7)
        for _ in range(12):
            assert_matches_engine(g, _random_classification(g, rng), machine)

    def test_random_mixed_plans_near_capacity(self):
        # tighter memory: exercise the OOM/stall-diagnosis branch too
        g = small_cnn()
        machine = tiny_machine(mem_mib=96)
        rng = random.Random(11)
        for _ in range(12):
            assert_matches_engine(g, _random_classification(g, rng), machine)


class TestZooEquivalenceUnderNoise:
    """VectorEngine against Engine for *every* zoo model, at two batch
    sizes, with seeded duration noise on every task."""

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
            assert_matches_engine(graph, cls, self.MACHINE, durations)


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
            full = Engine(build_schedule(graph, cls, durations, options),
                          device_capacity=capacity, host_capacity=host_cap,
                          validate=False)
            try:
                want = full.run()
            except OutOfMemoryError as e:
                assert isinstance(out.error, OutOfMemoryError)
                assert out.error.context == e.context
                continue
            assert out.ok, out.error
            assert out.makespan == want.makespan
            assert out.device_peak == want.device_peak
            assert out.host_peak == want.host_peak
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
    """Lockstep rows on grid durations == ``Engine``:
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
        """One lockstep row against Engine on the same draft; returns how
        many task ends share their instant with another."""
        capacity = machine.usable_gpu_memory
        host_cap = host_cap or machine.cpu_mem_capacity
        schedule = Schedule(
            tasks={tid: d.to_task() for tid, d in tasks.items()},
            queues=queues,
            buffers={bid: b.to_spec() for bid, b in buffers.items()})
        full = Engine(schedule, device_capacity=capacity,
                      host_capacity=host_cap, validate=False)
        try:
            want = full.run()
        except OutOfMemoryError as e:
            assert isinstance(out.error, OutOfMemoryError)
            assert out.error.context == e.context
            return 0
        assert out.ok, out.error
        assert out.makespan == want.makespan
        assert out.device_peak == want.device_peak
        assert out.host_peak == want.host_peak
        assert len(out.starts) == len(want.records)
        for rec in want.records:
            assert out.starts[rec.tid] == rec.start
            assert out.ends[rec.tid] == rec.end
        ends = [rec.end for rec in want.records]
        return len(ends) - len(set(ends))

    def _draft(self, graph, cls, durations):
        return ScheduleBuilder(graph, cls, durations, self.OPTIONS,
                               validate=False).build_raw()

    def _keep_flip_batch(self, name, machine, host_cap=None, keep=None,
                         distinct_host_peaks=False):
        """Grid-duration keep-flip family: the all-swap base row plus seven
        random keep sets (or the given ``keep`` matrix), each checked
        against Engine.  Returns the rows' outcomes, the count
        of same-instant task ends and the keep matrix.

        With ``distinct_host_peaks`` the drawn batch is guaranteed two
        feasible rows with different host peaks: while it lacks them, keep
        sets are drawn further from the same stream and the first feasible
        one with a new peak joins the batch."""
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

        def draw(rows):
            keep = np.zeros((rows, len(flips)), bool)
            for r in range(rows):
                for c in range(len(flips)):
                    keep[r, c] = rng.random() < 0.5
            return keep

        if keep is None:
            # row 0 stays the all-swap base
            keep = np.vstack([np.zeros((1, len(flips)), bool), draw(7)])
        if distinct_host_peaks:
            peaks = {o.host_peak for o in VectorEngine(tables).run_batch(keep)
                     if o.ok}
            for _ in range(200):
                if len(peaks) > 1:
                    break
                extra = draw(8)
                for row, out in zip(extra,
                                    VectorEngine(tables).run_batch(extra)):
                    if out.ok and out.host_peak not in peaks:
                        keep = np.vstack([keep, row])
                        peaks.add(out.host_peak)
                        break
        outs = VectorEngine(tables).run_batch(keep, record_times=True)
        ties = 0
        for r, out in enumerate(outs):
            cls = base.with_classes({f.map_id: MapClass.KEEP
                                     for c, f in enumerate(flips)
                                     if keep[r, c]})
            ties += self._assert_row(out, *self._draft(graph, cls, durations),
                                     machine, host_cap)
        return outs, ties, keep

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_keep_flip_rows(self, name, machine):
        _outs, ties, _keep = self._keep_flip_batch(name, machine)
        assert ties > 0

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_host_pool_overflow_rows(self, name):
        # a host pool between the rows' host peaks: rows that swap more
        # maps fail their host malloc mid-scan while the rest of the batch
        # runs on, and each failure must blame the event engines' task
        machine = self.MACHINES[0]
        outs, _ties, keep = self._keep_flip_batch(name, machine,
                                                  distinct_host_peaks=True)
        peaks = sorted({o.host_peak for o in outs if o.ok})
        assert len(peaks) > 1
        # the median peak, or the lower of exactly two
        cap = peaks[min(len(peaks) // 2, len(peaks) - 2)]
        outs, _ties, _keep = self._keep_flip_batch(name, machine,
                                                   host_cap=cap, keep=keep)
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


def _assert_same_run(out, draft, capacity, host_cap) -> bool:
    """One lockstep row against ``draft``'s schedule on Engine: identical
    makespan, per-task start/end and both peaks — or the same error type
    and text.  Returns whether the row ran feasibly."""
    tasks, queues, buffers = draft
    full = Engine(
        Schedule(tasks={tid: d.to_task() for tid, d in tasks.items()},
                 queues=queues,
                 buffers={bid: b.to_spec() for bid, b in buffers.items()}),
        device_capacity=capacity, host_capacity=host_cap, validate=False)
    try:
        want = full.run()
    except (OutOfMemoryError, ScheduleError) as e:
        assert type(out.error) is type(e)
        assert str(out.error) == str(e)
        return False
    assert out.ok, out.error
    assert out.makespan == want.makespan
    assert out.device_peak == want.device_peak
    assert out.host_peak == want.host_peak
    assert len(out.starts) == len(want.records)
    for rec in want.records:
        assert out.starts[rec.tid] == rec.start
        assert out.ends[rec.tid] == rec.end
    return True


class TestVariantFamily:
    """Step 2's variant family: each row "current with X recomputed (or
    kept)" — or, speculatively, a later round's probe, one flip of a plan
    several predicted flips ahead, composed back onto current's draft —
    compiled from the search's own patches of current's draft into one
    ``VariantTables``, must equal that classification's fresh
    ``ScheduleBuilder`` draft's schedule on ``Engine`` —
    the patches plus the family compile against an independent build.
    Profiles carry ``FAULT_SEED`` duration noise; current plans are random
    keep/swap/recompute partitions."""

    OPTIONS = ScheduleOptions(policy=SwapInPolicy.EAGER)
    TINY = [tiny_machine(mem_mib=224, link_gbps=3.0, name="tiny-slow"),
            tiny_machine(mem_mib=224, link_gbps=200.0, name="tiny-fast")]

    def _rows(self, graph, machine, current, seed, limit=None):
        """Sweep the one-flip probes of ``current`` (at most ``limit`` of
        them, sampled) under a noisy profile and check every row."""
        profile = FaultInjector(FaultSpec(profile_noise=0.1),
                                seed=seed).perturb_profile(
            run_profiling(graph, machine))
        probes = self._one_flip_probes(graph, current)
        if limit is not None and len(probes) > limit:
            probes = random.Random(seed).sample(probes, limit)
        return self._check_rows(graph, machine, profile, current, probes)

    def _check_rows(self, graph, machine, profile, current, probes,
                    paths=None):
        """Compile the search's patches of ``current``'s draft for
        ``probes`` into one variant family, sweep it (in both row orders)
        and check every row against its fresh build; returns (drafts,
        feasible rows).  ``paths`` drafts rows as the speculation tree
        does (see ``TimelinePredictor.predict_variant_batch``)."""
        from repro.pooch.predictor import TimelinePredictor

        predictor = TimelinePredictor(graph, profile, machine)
        base = predictor._plan_draft(current)
        ahead: dict = {}
        patches = [
            predictor._patch(*predictor._delta_split(c)) if not path
            else predictor._ahead_patch(path, *predictor._delta_split(c),
                                        ahead)
            for c, path in zip(probes, paths or [()] * len(probes))]
        assert all(p.base[0] is base[0] for p in patches)
        capacity = machine.usable_gpu_memory
        host_cap = machine.cpu_mem_capacity

        def sweep(rows):
            return VectorEngine(VariantTables(base, rows, capacity, host_cap)
                                ).run_batch(record_times=True)

        outs = sweep(patches)
        assert len(outs) == len(probes)
        # slots are told apart by content across rows: any row order must
        # give every row the same replay
        for a, b in zip(outs, reversed(sweep(patches[::-1]))):
            assert (a.makespan, a.device_peak, a.host_peak, a.starts,
                    a.ends, repr(a.error)) == (
                b.makespan, b.device_peak, b.host_peak, b.starts, b.ends,
                repr(b.error))
        durations = profile.durations()
        feasible = sum(
            _assert_same_run(out, ScheduleBuilder(
                graph, cls, durations, self.OPTIONS,
                validate=False).build_raw(), capacity, host_cap)
            for cls, out in zip(probes, outs))
        return [p.draft for p in patches], feasible

    @pytest.mark.parametrize("machine", _QUARTER_MACHINES,
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_zoo_variant_rows(self, name, machine):
        graph = MODEL_ZOO[name](batch=2)
        rng = random.Random(FAULT_SEED * 101 + len(name))
        current = _random_classification(graph, rng)
        self._rows(graph, machine, current, FAULT_SEED + 17, limit=8)

    @pytest.mark.parametrize("machine", TINY, ids=lambda m: m.name)
    @pytest.mark.parametrize("name", ["poster_example", "small_cnn",
                                      "resnet18"])
    def test_tiny_variant_rows(self, name, machine):
        graph = {"poster_example": poster_example, "small_cnn": small_cnn,
                 "resnet18": lambda: MODEL_ZOO["resnet18"](batch=4)}[name]()
        rng = random.Random(FAULT_SEED * 31 + 3)
        feasible = 0
        for _ in range(3):
            # swap-heavy partitions, so that most rows fit the machine
            current = Classification({
                m: rng.choice([MapClass.SWAP, MapClass.SWAP]
                              + [MapClass.RECOMPUTE] * graph[m].op.recomputable)
                for m in graph.classifiable_maps()})
            feasible += self._rows(graph, machine, current,
                                   FAULT_SEED + 29, limit=16)[1]
        assert feasible >= 1

    @staticmethod
    def _one_flip_probes(graph, current):
        probes = []
        for x in current.maps_of(MapClass.SWAP):
            if graph[x].op.recomputable:
                probes.append(current.with_class(x, MapClass.RECOMPUTE))
            probes.append(current.with_class(x, MapClass.KEEP))
        return probes

    def test_rows_raising_the_eager_headroom(self):
        # the headroom-repair fixture of tests/test_step2_incremental.py on
        # a tighter, faster machine: recomputing map 1 out-allocates every
        # backward task, which raises every swap-in's headroom in that row
        # only — and the raised reserve holds a prefetch back
        def headroom(draft):
            return max((t.headroom for t in draft[0].values()
                        if t.kind is TaskKind.SWAP_IN), default=0)

        graph = MODEL_ZOO["resnet18"](batch=4)
        machine = tiny_machine(mem_mib=160, link_gbps=16.0)
        profile = run_profiling(graph, machine)
        recable = [m for m in graph.classifiable_maps()
                   if graph[m].op.recomputable]
        raised = 0
        for seed in (0, 1):
            rng = random.Random(seed)
            recs = set(rng.sample(recable, rng.randint(1, len(recable) // 2)))
            current = Classification.all_swap(graph).with_classes(
                {m: MapClass.RECOMPUTE for m in recs})
            drafts, feasible = self._check_rows(
                graph, machine, profile, current,
                self._one_flip_probes(graph, current))
            floor = min(headroom(d) for d in drafts)
            raised += sum(headroom(d) > floor for d in drafts)
            assert feasible
        assert raised, "no row raised the headroom: fixture lost its bite"

    def test_rows_moving_swap_ins_earlier(self):
        # densenet's concatenations give recompute chains several swapped
        # inputs, resolved in graph order but first read in chain order:
        # the row's H2D queue is re-sorted by first need, moving swap-ins
        # earlier than the order they were requested in
        graph = MODEL_ZOO["densenet121"](batch=2)
        machine = self.TINY[0]
        recable = [m for m in graph.classifiable_maps()
                   if graph[m].op.recomputable]
        rng = random.Random(2)
        recs = set(rng.sample(recable, rng.randint(1, len(recable) // 2)))
        current = Classification.all_swap(graph).with_classes(
            {m: MapClass.RECOMPUTE for m in recs})
        probes = [current.with_class(x, MapClass.RECOMPUTE)
                  for x in current.maps_of(MapClass.SWAP)
                  if graph[x].op.recomputable][:12]
        profile = run_profiling(graph, machine)
        drafts, _feasible = self._check_rows(graph, machine, profile,
                                             current, probes)
        h2d = ScheduleBuilder(graph, current, profile.durations(),
                              self.OPTIONS, validate=False
                              ).build_raw()[1][StreamName.H2D]
        assert any([t for t in h2d if t in tasks] != queues[StreamName.H2D]
                   for tasks, queues, _b in drafts), (
            "no row re-sorted its H2D queue: fixture lost its bite")

    @pytest.mark.parametrize("machine", TINY, ids=lambda m: m.name)
    @pytest.mark.parametrize("name", ["small_cnn", "resnet18"])
    def test_speculative_two_flip_rows(self, name, machine):
        # a step-2 sweep also carries the next round's probes: "ahead" is
        # current with its guessed flip G recomputed, and each speculative
        # row recomputes one more map Y — a two-flip patch of current's
        # draft, in one family with the round's own one-flip probes
        graph = {"small_cnn": small_cnn,
                 "resnet18": lambda: MODEL_ZOO["resnet18"](batch=4)}[name]()
        rng = random.Random(FAULT_SEED * 43 + len(name))
        profile = FaultInjector(FaultSpec(profile_noise=0.1),
                                seed=FAULT_SEED + 5).perturb_profile(
            run_profiling(graph, machine))
        recable = [m for m in graph.classifiable_maps()
                   if graph[m].op.recomputable]
        current = Classification.all_swap(graph).with_classes(
            {m: MapClass.RECOMPUTE
             for m in rng.sample(recable, len(recable) // 3)})
        pool = [m for m in current.maps_of(MapClass.SWAP)
                if graph[m].op.recomputable]
        guess = rng.choice(pool)
        ahead = current.with_class(guess, MapClass.RECOMPUTE)
        probes = [current.with_class(x, MapClass.RECOMPUTE) for x in pool]
        probes += [ahead.with_class(y, MapClass.RECOMPUTE)
                   for y in pool if y != guess]
        drafts, _feasible = self._check_rows(graph, machine, profile,
                                             current, probes)
        assert len(drafts) == 2 * len(pool) - 1

    @pytest.mark.parametrize("machine", TINY, ids=lambda m: m.name)
    @pytest.mark.parametrize("name", ["poster_example", "resnet18"])
    def test_tree_rows_of_several_levels(self, name, machine):
        # a sweep that speculates several rounds carries rows of every tree
        # level: level d is current with d predicted flips recomputed, and
        # its rows recompute one more map each — drafted as one flip of the
        # level's plan and composed back onto current's draft, so a row of
        # level 2 or deeper is a composed patch of three or more flips
        graph = {"poster_example": poster_example,
                 "resnet18": lambda: MODEL_ZOO["resnet18"](batch=4)}[name]()
        rng = random.Random(FAULT_SEED * 53 + len(name))
        profile = FaultInjector(FaultSpec(profile_noise=0.1),
                                seed=FAULT_SEED + 7).perturb_profile(
            run_profiling(graph, machine))
        recable = [m for m in graph.classifiable_maps()
                   if graph[m].op.recomputable]
        current = Classification.all_swap(graph).with_classes(
            {m: MapClass.RECOMPUTE
             for m in rng.sample(recable, len(recable) // 4)})
        pool = [m for m in current.maps_of(MapClass.SWAP)
                if graph[m].op.recomputable]
        rng.shuffle(pool)
        path = tuple(pool[:3])
        probes, paths = [], []
        for depth in range(len(path) + 1):
            node = current.with_classes(
                {m: MapClass.RECOMPUTE for m in path[:depth]})
            for y in pool[depth:depth + 4]:
                probes.append(node.with_class(y, MapClass.RECOMPUTE))
                paths.append(path[:depth])
        assert max(map(len, paths)) >= 2  # rows of three flips or more
        drafts, _feasible = self._check_rows(graph, machine, profile,
                                             current, probes, paths)
        # the composed patch's draft is the patch apply_recompute_delta
        # builds from current's draft in one go
        durations = profile.durations()
        base = ScheduleBuilder(graph, current, durations, self.OPTIONS,
                               validate=False).build_raw()
        for cls, draft in zip(probes, drafts):
            keeps = cls.maps_of(MapClass.KEEP)
            recs = cls.maps_of(MapClass.RECOMPUTE)
            direct = apply_recompute_delta(*base, graph, durations,
                                           self.OPTIONS, keeps, recs)
            _assert_drafts_equal(draft, direct.draft)

    def test_variant_family_refuses_keep_matrix(self):
        graph = poster_example()
        machine = self.TINY[0]
        durations = run_profiling(graph, machine).durations()
        draft = ScheduleBuilder(
            graph, Classification.all_swap(graph), durations, self.OPTIONS,
            validate=False).build_raw()
        same = apply_recompute_delta(*draft, graph, durations, self.OPTIONS,
                                     (), ())
        engine = VectorEngine(VariantTables(draft, [same], 1 << 30))
        with pytest.raises(SimulationError, match="keep matrix"):
            engine.run_batch(np.zeros((1, 0), bool))

    def test_empty_family_is_refused(self):
        graph = poster_example()
        draft = ScheduleBuilder(
            graph, Classification.all_swap(graph),
            run_profiling(graph, self.TINY[0]).durations(), self.OPTIONS,
            validate=False).build_raw()
        with pytest.raises(VectorUnsupported, match="family is empty"):
            VariantTables(draft, [], 1 << 30)


class TestFallbackMatrix:
    """Inexpressible draft families must refuse at compile time."""

    def _draft(self, policy):
        g = poster_example()
        machine = tiny_machine(mem_mib=224)
        options = ScheduleOptions(policy=policy)
        durations = run_profiling(g, machine, options=options).durations()
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
        from repro.pooch import PoochConfig, TimelinePredictor

        g = poster_example()
        machine = tiny_machine(mem_mib=224)
        config = PoochConfig(forward_refetch_gap=2)
        profile = run_profiling(g, machine, options=config.options)
        predictor = TimelinePredictor(g, profile, machine, config)
        assert predictor.vector_flip_index() is None


class TestSearchPlanIdentity:
    """The search actually takes the lockstep path on a zoo model."""

    def test_vectorized_search_actually_vectorizes(self):
        machine = _QUARTER_MACHINES[0]
        graph = MODEL_ZOO["resnet18"](batch=2)
        res = PoocH(machine).optimize(graph)
        assert res.stats.sims_vectorized > 0
        assert res.stats.vector_sweeps > 0
