"""Multi-device simulation: N=1 bit-identity, contention windows, planning.

Five layers of guarantees:

* **N=1 pass-through.**  A single device routed *through* the link arbiter
  (not around it) must reproduce the plain engine bit-for-bit, zoo-wide and
  under seeded duration noise — the multi-device machinery may not perturb
  any existing single-device result.
* **Contention windows.**  Hand-built two-device timelines pin down the
  arbiter's semantics: overlapping same-direction windows serialize,
  opposite directions never cross-block (full duplex), a sufficient stagger
  removes all queueing, and a private (non-shared) link never contends.
* **Planning.**  ``plan_staggered`` always scores the naive all-zeros
  stagger, so its choice can only tie or beat synchronized replicas; the
  aggregate host bound rejects plans whose N-replica swap footprint
  exceeds CPU DRAM, naming the overflowing bytes.
* **Reference oracle.**  ``simulate_multi_device`` (bisected slip lookups,
  one vectorized pass for the phase ends, lazy grants) equals a literal
  reference implementation (linear slip scan, per-record end loop, eager
  grants) bit for bit, zoo-wide, for the naive and every candidate stagger.
* **One ground-truth run.**  A multi-device ``optimize`` runs the chosen
  plan through the engine once, and ``execute()`` / ``execute_multi()``
  reuse that run when called with the stage's machine and cost model.
"""

from __future__ import annotations

import functools
import heapq
import math
import os
import random

import pytest

from repro.common.errors import OutOfMemoryError, SimulationError
from repro.common.units import GB, MiB
from repro.faults import FaultInjector, FaultSpec, FaultyDurations
from repro.gpusim import (
    Engine,
    LinkArbiter,
    RunResult,
    StreamName,
    TaskKind,
    TaskRecord,
    TransferGrant,
    ring_allreduce_time,
    simulate_multi_device,
)
from repro.gpusim.multidevice import check_host_fit
from repro.hw import (
    POWER9_V100,
    X86_V100,
    CostModel,
    multi_gpu,
    scaled_machine,
)
from repro.models import poster_example
from repro.models.zoo import MODEL_ZOO
from repro.pooch import (
    PoocH,
    PoochConfig,
    pipeline,
    plan_staggered,
    stagger_candidates,
)
from repro.runtime import executor
from repro.runtime.durations import CostModelDurations
from repro.runtime.plan import Classification
from repro.runtime.schedule import ScheduleBuilder, ScheduleOptions, build_schedule
from tests.conftest import tiny_machine

#: CI pins a seed matrix through this env var; locally it defaults to 0
FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


def _rec(tid, stream, start, end, kind=TaskKind.SWAP_OUT, layer=0):
    return TaskRecord(tid=tid, kind=kind, stream=stream, layer=layer,
                      start=start, end=end)


def _run(records, makespan=None, host_peak=0):
    """A minimal RunResult around hand-built records."""
    return RunResult(
        makespan=makespan if makespan is not None
        else max((r.end for r in records), default=0.0),
        records=list(records),
        device_peak=0,
        host_peak=host_peak,
        device_trace=[],
    )


class TestLinkArbiter:
    def test_overlapping_same_direction_serializes(self):
        # both devices want H2D [0, 1): device 0 wins the tie, device 1
        # waits the full window and carries that slip forward
        win = [_rec("t", StreamName.H2D, 0.0, 1.0, kind=TaskKind.SWAP_IN)]
        arb = LinkArbiter()
        bp = arb.arbitrate([win, win], stagger=(0.0, 0.0))
        assert bp[0] == []
        assert bp[1] == [(0.0, 1.0)]
        d1 = next(g for g in arb.grants if g.device == 1)
        assert d1.granted == 1.0 and d1.delay == 1.0

    def test_opposite_directions_full_duplex(self):
        # H2D on device 0 vs D2H on device 1 at the same instant: the link
        # is full duplex, so neither waits
        w0 = [_rec("out", StreamName.D2H, 0.0, 1.0)]
        w1 = [_rec("in", StreamName.H2D, 0.0, 1.0, kind=TaskKind.SWAP_IN)]
        arb = LinkArbiter()
        bp = arb.arbitrate([w0, w1], stagger=(0.0, 0.0))
        assert bp == [[], []]
        assert all(g.delay == 0.0 for g in arb.grants)

    def test_sufficient_stagger_removes_queueing(self):
        win = [_rec("t", StreamName.D2H, 0.0, 1.0)]
        arb = LinkArbiter()
        bp = arb.arbitrate([win, win], stagger=(0.0, 1.0))
        assert bp == [[], []]

    def test_slip_cascades_within_a_device(self):
        # device 1's first window waits behind device 0; its second window
        # (after a base-timeline gap larger than the slip) is re-requested
        # at start+slip and must wait again for device 0's second window
        w = [
            _rec("a", StreamName.D2H, 0.0, 1.0),
            _rec("b", StreamName.D2H, 2.0, 3.0),
        ]
        arb = LinkArbiter()
        bp = arb.arbitrate([w, w], stagger=(0.0, 0.0))
        assert bp[0] == []
        # first collision: slip 1.  Re-timed "b" requests at 3.0, but the
        # link is busy with device 0's [2,3) then device 1 got it at 3.. wait
        # device0 b runs [2,3), device1 b requests at 2+1=3 -> link free at 3
        # for D2H? device1 a ran [1,2), device0 b ran [2,3): granted 3, no
        # extra slip
        assert bp[1] == [(0.0, 1.0)]

    def test_private_link_never_contends(self):
        win = [_rec("t", StreamName.H2D, 0.0, 1.0, kind=TaskKind.SWAP_IN)]
        arb = LinkArbiter(link_shared=False)
        bp = arb.arbitrate([win, win, win], stagger=(0.0, 0.0, 0.0))
        assert bp == [[], [], []]
        assert all(g.delay == 0.0 for g in arb.grants)

    def test_negative_stagger_rejected(self):
        arb = LinkArbiter()
        with pytest.raises(SimulationError, match="stagger"):
            arb.arbitrate([[], []], stagger=(0.0, -0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_stagger_rejected(self, bad):
        # NaN used to loop forever (a NaN request never equals its
        # re-derived value, so the entry was re-pushed on every pop) and
        # inf returned an infinite makespan silently
        win = [_rec("t", StreamName.D2H, 0.0, 1.0)]
        with pytest.raises(SimulationError, match=r"device 1") as e:
            LinkArbiter().arbitrate([win, win], stagger=(0.0, bad))
        assert repr(bad) in str(e.value)
        base = _run([_rec("c", StreamName.COMPUTE, 0.0, 0.5,
                          kind=TaskKind.FWD), *win])
        with pytest.raises(SimulationError, match=r"device 1"):
            simulate_multi_device(base, multi_gpu(tiny_machine(), 2),
                                  stagger=(0.0, bad))


class TestTwoDeviceWindows:
    MACHINE2 = multi_gpu(tiny_machine(mem_mib=224), 2)

    def test_contention_extends_makespan(self):
        # two replicas, one overlapping D2H window each: the loser's whole
        # timeline slips by the window length
        base = _run([
            _rec("c", StreamName.COMPUTE, 0.0, 0.5, kind=TaskKind.FWD),
            _rec("o", StreamName.D2H, 0.5, 1.5),
        ])
        res = simulate_multi_device(base, self.MACHINE2)
        assert res.makespan == base.makespan + 1.0
        assert res.per_device[0].contention_delay == 0.0
        assert res.per_device[1].contention_delay == 1.0
        assert res.contention_delay_total == 1.0

    def test_stagger_hides_contention(self):
        base = _run([
            _rec("c", StreamName.COMPUTE, 0.0, 0.5, kind=TaskKind.FWD),
            _rec("o", StreamName.D2H, 0.5, 1.5),
        ])
        res = simulate_multi_device(base, self.MACHINE2, stagger=(0.0, 1.0))
        assert res.contention_delay_total == 0.0
        # device 1 pays only its deliberate offset, not a queueing delay
        assert res.makespan == base.makespan + 1.0
        assert res.per_device[1].done == base.makespan + 1.0

    def test_compute_never_touches_the_link(self):
        base = _run([
            _rec("c", StreamName.COMPUTE, 0.0, 2.0, kind=TaskKind.FWD),
        ])
        res = simulate_multi_device(base, self.MACHINE2)
        assert res.makespan == base.makespan
        assert res.grants == []

    def test_device_records_are_shifted(self):
        base = _run([
            _rec("c", StreamName.COMPUTE, 0.0, 0.5, kind=TaskKind.FWD),
            _rec("o", StreamName.D2H, 0.5, 1.5),
        ])
        res = simulate_multi_device(base, self.MACHINE2)
        d0 = {r.tid: r for r in res.device_records(0)}
        d1 = {r.tid: r for r in res.device_records(1)}
        assert d0["o"].start == 0.5 and d0["o"].end == 1.5
        assert d1["o"].start == 1.5 and d1["o"].end == 2.5
        # the compute task predates the slip breakpoint and stays put
        assert d1["c"].start == 0.0

    def test_allreduce_extends_past_backward(self):
        base = _run([
            _rec("f", StreamName.COMPUTE, 0.0, 1.0, kind=TaskKind.FWD),
            _rec("b", StreamName.COMPUTE, 1.0, 2.0, kind=TaskKind.BWD),
        ])
        grad = 1 * MiB
        res = simulate_multi_device(base, self.MACHINE2, grad_bytes=grad)
        ar = ring_allreduce_time(grad, self.MACHINE2)
        assert ar > 0
        assert res.makespan == pytest.approx(2.0 + ar)
        assert res.per_device[0].backward_end == 2.0

    def test_ring_allreduce_vanishes_at_one_device(self):
        assert ring_allreduce_time(64 * MiB, tiny_machine()) == 0.0
        assert ring_allreduce_time(0, self.MACHINE2) == 0.0


class TestHostBound:
    def test_aggregate_overflow_is_diagnosed(self):
        machine = multi_gpu(tiny_machine(mem_mib=224), 4)
        base = _run([_rec("o", StreamName.D2H, 0.0, 1.0)],
                    host_peak=20 * GB)
        with pytest.raises(OutOfMemoryError) as e:
            check_host_fit(base, machine)
        msg = str(e.value)
        assert "4 devices" in msg and "over by" in msg
        assert e.value.context == "multi-device host swap"

    def test_fit_returns_total(self):
        machine = multi_gpu(tiny_machine(mem_mib=224), 2)
        base = _run([_rec("o", StreamName.D2H, 0.0, 1.0)], host_peak=1 * GB)
        assert check_host_fit(base, machine) == 2 * GB

    def test_simulate_enforces_the_bound(self):
        machine = multi_gpu(tiny_machine(mem_mib=224), 4)
        base = _run([_rec("o", StreamName.D2H, 0.0, 1.0)],
                    host_peak=20 * GB)
        with pytest.raises(OutOfMemoryError, match="host swap space"):
            simulate_multi_device(base, machine)

    def test_planning_share_prevents_overflow(self):
        # the per-device planning share guarantees N x share <= capacity
        machine = multi_gpu(tiny_machine(mem_mib=224), 3)
        assert machine.devices * machine.host_swap_capacity \
            <= machine.cpu_mem_capacity


def _execute(graph, cls, machine, durations=None):
    if durations is None:
        durations = CostModelDurations(graph, CostModel(machine))
    options = ScheduleOptions()
    return Engine(
        build_schedule(graph, cls, durations, options),
        device_capacity=machine.usable_gpu_memory,
        host_capacity=machine.host_swap_capacity,
        validate=False,
    ).run()


class TestSingleDevicePassThrough:
    """N=1 through the arbiter == the plain engine, bit for bit."""

    MACHINE = scaled_machine(X86_V100, mem_scale=0.25, name="x86_quarter")

    def test_poster_identity(self):
        g = poster_example()
        machine = tiny_machine(mem_mib=224)
        base = _execute(g, Classification.all_swap(g), machine)
        res = simulate_multi_device(base, machine, grad_bytes=123 * MiB)
        assert res.makespan == base.makespan  # exact, not approx
        assert res.contention_delay_total == 0.0
        assert res.allreduce_time == 0.0
        assert res.device_records(0) == base.records

    @pytest.mark.parametrize("batch", [2, 8])
    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_zoo_identity_under_noise(self, name, batch):
        """Every zoo model, seeded duration noise: the N=1 multi-device
        makespan equals both the full engine's and its draft replay's."""
        graph = MODEL_ZOO[name](batch=batch)
        injector = FaultInjector(FaultSpec(duration_noise=0.1),
                                 seed=FAULT_SEED + batch)
        durations = FaultyDurations(
            CostModelDurations(graph, CostModel(self.MACHINE)), injector
        )
        cls = Classification.all_swap(graph)
        options = ScheduleOptions()
        try:
            base = Engine(
                build_schedule(graph, cls, durations, options),
                device_capacity=self.MACHINE.usable_gpu_memory,
                host_capacity=self.MACHINE.host_swap_capacity,
                validate=False,
            ).run()
        except OutOfMemoryError:
            pytest.skip("all-swap infeasible on the quarter machine")
        res = simulate_multi_device(base, self.MACHINE)
        assert res.makespan == base.makespan  # exact, not approx
        assert res.contention_delay_total == 0.0
        tasks, queues, buffers = ScheduleBuilder(
            graph, cls, durations, options, validate=False
        ).build_raw()
        draft_makespan, _, _ = Engine.replay_draft(
            tasks, queues, buffers,
            device_capacity=self.MACHINE.usable_gpu_memory,
            host_capacity=self.MACHINE.host_swap_capacity,
        )
        assert res.makespan == draft_makespan


class TestPlanStaggered:
    MACHINE2 = multi_gpu(tiny_machine(mem_mib=224), 2)

    def _base(self):
        g = poster_example()
        return _execute(g, Classification.all_swap(g),
                        tiny_machine(mem_mib=224))

    def test_chosen_never_worse_than_naive(self):
        plan = plan_staggered(self._base(), self.MACHINE2)
        assert plan.chosen.makespan <= plan.naive.makespan
        assert plan.candidates_evaluated >= 1
        assert len(plan.stagger) == 2 and plan.stagger[0] == 0.0

    def test_deterministic(self):
        base = self._base()
        a = plan_staggered(base, self.MACHINE2)
        b = plan_staggered(base, self.MACHINE2)
        assert a.stagger == b.stagger
        assert a.chosen.makespan == b.chosen.makespan

    def test_single_device_plan_is_identity(self):
        base = self._base()
        plan = plan_staggered(base, tiny_machine(mem_mib=224))
        assert plan.devices == 1
        assert plan.stagger == (0.0,)
        assert plan.chosen.makespan == base.makespan

    def test_candidates_come_from_transfer_windows(self):
        base = self._base()
        deltas = stagger_candidates(base, 2)
        assert deltas and all(d > 0 for d in deltas)
        assert deltas == sorted(deltas)
        longest = max(r.duration for r in base.records
                      if r.stream is not StreamName.COMPUTE)
        assert any(d == pytest.approx(2 * longest) for d in deltas)

    def test_no_transfers_yields_no_candidates(self):
        base = _run([_rec("c", StreamName.COMPUTE, 0.0, 1.0,
                          kind=TaskKind.FWD)])
        assert stagger_candidates(base, 2) == [0.0]
        plan = plan_staggered(base, self.MACHINE2)
        assert plan.chosen.makespan == plan.naive.makespan == base.makespan


# -- differential: the replica simulation against a reference oracle --------


class OracleArbiter:
    """The reference link arbiter: one heap entry per device, reading every
    window's start, duration and stream off its record and recording each
    grant eagerly as a :class:`TransferGrant`."""

    def __init__(self, link_shared: bool = True) -> None:
        self.link_shared = link_shared
        self.grants: list[TransferGrant] = []
        self._free_at: dict = {}

    def arbitrate(self, windows, stagger):
        n = len(windows)
        slip = [0.0] * n
        breakpoints: list[list[tuple[float, float]]] = [[] for _ in range(n)]
        cursors = [0] * n
        heap: list[tuple[float, int, int]] = []

        def push(d):
            i = cursors[d]
            if i < len(windows[d]):
                rec = windows[d][i]
                heapq.heappush(heap, (rec.start + stagger[d] + slip[d], d, i))

        for d in range(n):
            push(d)
        while heap:
            requested, d, i = heapq.heappop(heap)
            rec = windows[d][i]
            fresh = rec.start + stagger[d] + slip[d]
            if fresh != requested:
                heapq.heappush(heap, (fresh, d, i))
                continue
            key = rec.stream if self.link_shared else (rec.stream, d)
            granted = max(requested, self._free_at.get(key, 0.0))
            self._free_at[key] = granted + rec.duration
            if granted > requested:
                slip[d] = granted - rec.start - stagger[d]
                breakpoints[d].append((rec.start, slip[d]))
            self.grants.append(TransferGrant(
                device=d, tid=rec.tid, direction=rec.stream,
                requested=requested, granted=granted,
                end=granted + rec.duration))
            cursors[d] = i + 1
            push(d)
        return breakpoints


def oracle_slip_at(breakpoints, base_start: float) -> float:
    """The slip of an event at ``base_start``, by a linear scan."""
    s = 0.0
    for t, value in breakpoints:
        if t > base_start:
            break
        s = value
    return s


def oracle_simulate(base, machine, stagger, grad_bytes=0) -> dict:
    """Reference replica simulation: the per-record end loop over the
    linear slip lookup.  Returns every output the differential compares."""
    n = machine.devices
    transfers = sorted(
        (r for r in base.records
         if r.stream in (StreamName.H2D, StreamName.D2H)),
        key=lambda r: (r.start, r.tid))
    arbiter = OracleArbiter(link_shared=machine.link_shared)
    breakpoints = arbiter.arbitrate([transfers] * n, stagger)
    ar_time = ring_allreduce_time(grad_bytes, machine)
    devices = []
    for d in range(n):
        timeline_end = backward_end = stagger[d]
        records = []
        for rec in base.records:
            shift = stagger[d] + oracle_slip_at(breakpoints[d], rec.start)
            end = rec.end + shift
            if end > timeline_end:
                timeline_end = end
            if rec.kind is TaskKind.BWD and end > backward_end:
                backward_end = end
            records.append(TaskRecord(
                tid=rec.tid, kind=rec.kind, stream=rec.stream,
                layer=rec.layer, start=rec.start + shift, end=end))
        backward_end = (backward_end if backward_end > stagger[d]
                        else timeline_end)
        devices.append({
            "slip_breakpoints": breakpoints[d],
            "contention_delay": (breakpoints[d][-1][1] if breakpoints[d]
                                 else 0.0),
            "timeline_end": timeline_end,
            "backward_end": backward_end,
            "done": max(timeline_end, backward_end + ar_time),
            "records": records,
        })
    return {
        "grants": arbiter.grants,
        "devices": devices,
        "contention_delay_total": sum(d["contention_delay"]
                                      for d in devices),
        "makespan": max(d["done"] for d in devices),
    }


def _assert_matches_oracle(res, want) -> None:
    """Bit-for-bit equality (``==`` on floats, never approx)."""
    assert res.grants == want["grants"]
    assert res.makespan == want["makespan"]
    assert res.contention_delay_total == want["contention_delay_total"]
    for d, dev in enumerate(res.per_device):
        w = want["devices"][d]
        assert dev.slip_breakpoints == w["slip_breakpoints"]
        assert dev.contention_delay == w["contention_delay"]
        assert dev.timeline_end == w["timeline_end"]
        assert dev.backward_end == w["backward_end"]
        assert dev.done == w["done"]
        assert res.device_records(d) == w["records"]


_BASE_MACHINES = {"x86": X86_V100, "power9": POWER9_V100}


@functools.lru_cache(maxsize=None)
def _noisy_base(name: str, machine: str):
    """All-swap base timeline of a zoo model under seeded duration noise."""
    graph = MODEL_ZOO[name](batch=2)
    spec = _BASE_MACHINES[machine]
    injector = FaultInjector(FaultSpec(duration_noise=0.1), seed=FAULT_SEED)
    durations = FaultyDurations(
        CostModelDurations(graph, CostModel(spec)), injector)
    base = _execute(graph, Classification.all_swap(graph), spec, durations)
    return base, sum(layer.op.param_bytes for layer in graph)


class TestReplicaSimulationOracle:
    """``simulate_multi_device`` == the reference oracle, bit for bit, for
    the naive stagger and every candidate stagger."""

    def _check(self, name, machine, devices, link_shared=None):
        base, grad = _noisy_base(name, machine)
        m = multi_gpu(_BASE_MACHINES[machine], devices,
                      link_shared=link_shared)
        staggers = [(0.0,) * devices] + [
            tuple(d * delta for d in range(devices))
            for delta in stagger_candidates(base, devices) if delta > 0]
        worst = 0.0
        for stagger in staggers:
            res = simulate_multi_device(base, m, stagger=stagger,
                                        grad_bytes=grad)
            _assert_matches_oracle(
                res, oracle_simulate(base, m, stagger, grad))
            worst = max(worst, res.contention_delay_total)
        return worst

    @pytest.mark.parametrize("devices", [2, 4, 8])
    @pytest.mark.parametrize("machine", sorted(_BASE_MACHINES))
    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_zoo(self, name, machine, devices):
        self._check(name, machine, devices)

    def test_the_zoo_contends(self):
        # the differential is only as strong as the contention it sees
        assert self._check("resnet18", "x86", 4) > 1e-6

    @pytest.mark.parametrize("machine", sorted(_BASE_MACHINES))
    @pytest.mark.parametrize("name", ["poster_example", "resnet18"])
    def test_private_link(self, name, machine):
        # no queueing behind other devices; a shifted window may still wait
        # an ulp for its own predecessor, since (start + stagger) +
        # duration can round past the next start + stagger
        assert self._check(name, machine, 4, link_shared=False) < 1e-12

    @pytest.mark.parametrize("link_shared", [True, False])
    def test_arbiter_on_distinct_windows(self, link_shared):
        # per-device window lists of their own (simulate_multi_device
        # always passes one shared list), on a seeded random draw
        rng = random.Random(FAULT_SEED)
        windows = []
        for d in range(3):
            t, recs = 0.0, []
            for i in range(40):
                t += rng.uniform(0.0, 1.0)
                stream = rng.choice([StreamName.H2D, StreamName.D2H])
                recs.append(_rec(f"w{d}.{i}", stream, t,
                                 t + rng.uniform(0.1, 2.0)))
            windows.append(recs)
        stagger = (0.0, rng.uniform(0.0, 1.0), rng.uniform(0.0, 3.0))
        arb, oracle = LinkArbiter(link_shared), OracleArbiter(link_shared)
        assert arb.arbitrate(windows, stagger) == \
            oracle.arbitrate(windows, stagger)
        assert arb.grants == oracle.grants

    def test_plan_staggered_matches(self):
        base, grad = _noisy_base("resnet50", "power9")
        m = multi_gpu(POWER9_V100, 4)
        plan = plan_staggered(base, m, grad_bytes=grad)
        _assert_matches_oracle(
            plan.naive, oracle_simulate(base, m, (0.0,) * 4, grad))
        _assert_matches_oracle(
            plan.chosen, oracle_simulate(base, m, plan.stagger, grad))


class TestGroundTruthReuse:
    """A multi-device ``optimize`` runs the chosen plan through the engine
    once; the caller's ``execute()`` and ``execute_multi()`` reuse that
    run."""

    MACHINE4 = multi_gpu(tiny_machine(mem_mib=224), 4)

    @pytest.fixture
    def engine_runs(self, monkeypatch):
        calls: list[tuple] = []

        def counting(graph, cls, machine, **kwargs):
            calls.append((machine, kwargs.get("cost_model")))
            return executor.execute(graph, cls, machine, **kwargs)

        monkeypatch.setattr(pipeline, "execute", counting)
        return calls

    def _fresh_run(self, result, machine, cost_model=None):
        return executor.execute(
            result.graph, result.classification, machine,
            cost_model=cost_model,
            options=ScheduleOptions(
                policy=result.config.policy,
                forward_refetch_gap=result.config.forward_refetch_gap))

    def _check_one_run(self, result, engine_runs):
        assert len(engine_runs) == 1
        run = result.execute()
        assert run is result.multi.naive.base
        multi = result.execute_multi()
        assert len(engine_runs) == 1
        chosen = result.multi.chosen
        assert multi.makespan == chosen.makespan
        assert multi.per_device == chosen.per_device
        assert multi.grants == chosen.grants
        # the reused run is the one a fresh engine run produces
        fresh = self._fresh_run(result, self.MACHINE4)
        assert run.makespan == fresh.makespan
        assert run.records == fresh.records

    def test_fresh_search(self, engine_runs):
        result = PoocH(self.MACHINE4, PoochConfig(step1_sim_budget=50)
                       ).optimize(poster_example())
        assert not result.stats.plan_cache_hit
        self._check_one_run(result, engine_runs)

    def test_plan_cache_hit(self, engine_runs, tmp_path):
        config = PoochConfig(step1_sim_budget=50)
        PoocH(self.MACHINE4, config, plan_cache=tmp_path).optimize(
            poster_example())
        engine_runs.clear()
        result = PoocH(self.MACHINE4, config, plan_cache=tmp_path
                       ).optimize(poster_example())
        assert result.stats.plan_cache_hit
        self._check_one_run(result, engine_runs)

    def test_other_arguments_run_the_engine(self, engine_runs):
        result = PoocH(self.MACHINE4, PoochConfig(step1_sim_budget=50)
                       ).optimize(poster_example())
        other = multi_gpu(tiny_machine(mem_mib=320), 4)
        run = result.execute(machine=other)
        assert len(engine_runs) == 2 and engine_runs[-1][0] == other
        assert run.records == self._fresh_run(result, other).records
        jitter = CostModel(self.MACHINE4, jitter=0.05, seed=FAULT_SEED)
        run = result.execute(cost_model=jitter)
        assert len(engine_runs) == 3 and engine_runs[-1][1] is jitter
        want = self._fresh_run(
            result, self.MACHINE4,
            CostModel(self.MACHINE4, jitter=0.05, seed=FAULT_SEED))
        assert run.records == want.records
        assert run is not result.multi.naive.base

    def test_stage_cost_model_is_matched_by_identity(self, engine_runs):
        model = CostModel(self.MACHINE4)
        result = PoocH(self.MACHINE4, PoochConfig(step1_sim_budget=50),
                       cost_model=model).optimize(poster_example())
        assert len(engine_runs) == 1
        assert result.execute(cost_model=model) is result.multi.naive.base
        assert len(engine_runs) == 1
        # the default model is a different object: the engine runs
        result.execute()
        assert len(engine_runs) == 2

    def test_single_device_is_unchanged(self, engine_runs):
        machine = tiny_machine(mem_mib=224)
        result = PoocH(machine, PoochConfig(step1_sim_budget=50)
                       ).optimize(poster_example())
        assert result.multi is None and result.ground_truth is None
        assert engine_runs == []
        first, second = result.execute(), result.execute()
        assert len(engine_runs) == 2 and first is not second
        assert first.records == self._fresh_run(result, machine).records
