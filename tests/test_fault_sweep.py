"""Monte-Carlo fault sweeps: vectorized rows == serial injector runs, bit-for-bit.

The seed sweep (``repro.faults.sweep``) rests on two facts this harness
checks directly:

* **duration-table parity**: :func:`seed_duration_matrix` row k must equal,
  float-for-float, the durations a schedule rebuilt under
  ``FaultyDurations(base, FaultInjector(spec, seed=k))`` carries — the
  keyed-RNG draws are computable up front;
* **row bit-identity**: a lockstep row replayed with its per-row duration
  table must match a serial ``FaultInjector`` + event-engine run with the
  same seed — makespan, per-task start/end times, pool high-water marks,
  and the OOM diagnosis when the seed's noise breaks the plan — zoo-wide.

Plus the fallback matrix: event-order-dependent specs (stalls, spurious
OOMs, host faults) and inexpressible drafts (NAIVE triggers) must take the
serial resilient path, never silently diverge — and the sweep's vectorized
and forced-serial arms must agree end to end.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pytest

from repro.common.errors import FaultError, OutOfMemoryError
from repro.faults import (
    FaultInjector,
    FaultSpec,
    FaultyDurations,
    fault_seed_sweep,
    seed_duration_matrix,
    vectorizable,
)
from repro.faults import injector as injector_module
from repro.faults.injector import _DRAW_CHUNK, DurationTable, _keyed_normals
from repro.gpusim import Engine
from repro.gpusim.vecengine import VectorEngine, VectorTables
from repro.hw import CostModel, X86_V100, scaled_machine
from repro.models import build_model, small_cnn
from repro.models.zoo import MODEL_ZOO
from repro.obs import MetricsRegistry, metrics
from repro.runtime.durations import CostModelDurations
from repro.runtime.plan import Classification, SwapInPolicy
from repro.runtime.schedule import ScheduleBuilder, ScheduleOptions, build_schedule
from tests.conftest import tiny_machine

#: CI pins a seed matrix through this env var; locally it defaults to 0
FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

_EAGER = ScheduleOptions(policy=SwapInPolicy.EAGER)

#: seed bases around the uint32 entropy-word boundaries (base 0 is
#: ``TestSeedMatrixParity.test_noise_and_bandwidth``)
SEED_BASES = (2**32 - 1, 2**32, 2**64, 2**96 + 3)


def _vector_rows(graph, cls, machine, spec, seeds):
    """Compile the clean draft once, replay all seeds in one lockstep batch."""
    base = CostModelDurations(graph, CostModel(machine))
    tasks, queues, buffers = ScheduleBuilder(
        graph, cls, base, _EAGER, validate=False
    ).build_raw()
    host_cap = int(machine.cpu_mem_capacity * spec.host_capacity_factor)
    tables = VectorTables(tasks, queues, buffers, machine.usable_gpu_memory,
                          host_cap)
    matrix = seed_duration_matrix(tasks, tables.tids, spec, seeds)
    return VectorEngine(tables).run_batch(durations=matrix, record_times=True)


def _serial_run(graph, cls, machine, spec, seed):
    """The ground truth: rebuild the schedule under this seed's injector and
    replay it on the full event engine."""
    injector = FaultInjector(spec, seed=seed)
    durations = FaultyDurations(
        CostModelDurations(graph, CostModel(machine)), injector)
    schedule = build_schedule(graph, cls, durations, _EAGER)
    return Engine(
        schedule,
        device_capacity=machine.usable_gpu_memory,
        host_capacity=injector.host_capacity(machine.cpu_mem_capacity),
    ).run()


def assert_rows_match_serial(graph, cls, machine, spec, seeds):
    """Every vectorized row bit-identical to its serial counterpart —
    feasible-for-feasible (times included) and OOM-blame-for-OOM-blame."""
    rows = _vector_rows(graph, cls, machine, spec, seeds)
    for seed, row in zip(seeds, rows):
        try:
            want = _serial_run(graph, cls, machine, spec, seed)
        except OutOfMemoryError as e:
            assert isinstance(row.error, OutOfMemoryError), row.error
            assert row.error.context == e.context
            continue
        assert row.ok, row.error
        # exact equality throughout — never approx
        assert row.makespan == want.makespan
        assert row.device_peak == want.device_peak
        assert row.host_peak == want.host_peak
        assert len(row.starts) == len(want.records)
        for rec in want.records:
            assert row.starts[rec.tid] == rec.start
            assert row.ends[rec.tid] == rec.end


class TestSeedMatrixParity:
    """Matrix row k == the durations a per-seed FaultyDurations rebuild
    would stamp into the draft — per task, bit-exact."""

    SPEC = FaultSpec(duration_noise=0.08, bandwidth_factor=0.85)

    def _compare(self, spec, seeds=tuple(range(4))):
        graph = small_cnn()
        machine = tiny_machine(mem_mib=160)
        cls = Classification.all_swap(graph)
        base = CostModelDurations(graph, CostModel(machine))
        tasks, _, _ = ScheduleBuilder(
            graph, cls, base, _EAGER, validate=False).build_raw()
        tids = list(tasks)
        matrix = seed_duration_matrix(tasks, tids, spec, seeds)
        for r, seed in enumerate(seeds):
            injector = FaultInjector(spec, seed=seed)
            faulted = FaultyDurations(base, injector)
            want, _, _ = ScheduleBuilder(
                graph, cls, faulted, _EAGER, validate=False).build_raw()
            for i, tid in enumerate(tids):
                assert matrix[r, i] == want[tid].duration, (seed, tid)

    def test_noise_and_bandwidth(self):
        self._compare(self.SPEC)

    @pytest.mark.parametrize("base", SEED_BASES)
    def test_noise_and_bandwidth_at_seed_base(self, base):
        # seeds past 2**32 give SeedSequence three or more entropy words
        self._compare(self.SPEC, seeds=tuple(range(base, base + 4)))

    def test_inert_spec_is_identity(self):
        graph = small_cnn()
        machine = tiny_machine(mem_mib=160)
        base = CostModelDurations(graph, CostModel(machine))
        tasks, _, _ = ScheduleBuilder(
            graph, Classification.all_swap(graph), base, _EAGER,
            validate=False).build_raw()
        tids = list(tasks)
        matrix = seed_duration_matrix(tasks, tids, FaultSpec(), [0, 1])
        for i, tid in enumerate(tids):
            assert matrix[0, i] == tasks[tid].duration
            assert matrix[1, i] == tasks[tid].duration

    def test_recompute_shares_forward_draw(self):
        # R tasks must reuse the ("dur", "fwd", layer) key, like the provider
        graph = small_cnn()
        machine = tiny_machine(mem_mib=160)
        base = CostModelDurations(graph, CostModel(machine))
        cls = Classification.all_recompute(graph)
        tasks, _, _ = ScheduleBuilder(
            graph, cls, base, _EAGER, validate=False).build_raw()
        tids = list(tasks)
        matrix = seed_duration_matrix(tasks, tids, self.SPEC, [FAULT_SEED])
        index = {tid: i for i, tid in enumerate(tids)}
        injector = FaultInjector(self.SPEC, seed=FAULT_SEED)
        for tid in tids:
            if tid.startswith("R"):
                layer = tasks[tid].layer
                factor = injector.duration_factor("fwd", layer)
                assert (matrix[0, index[tid]]
                        == tasks[tid].duration * factor)


class TestKeyedNormals:
    """The vectorized draw == ``default_rng((seed, digest))``, bit for bit,
    for every entropy word count ``SeedSequence`` can see."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 7_901_234_496, 2**64 - 1, 2**64,
             2**96 + 3, 2**127 + 11, 2**128, 2**160 + 7, 2**200]
    DIGESTS = [0, 2**32 - 1, 1, 0x9E3779B9]

    @staticmethod
    def _reference(seeds, digests):
        return np.array([[np.random.default_rng((s, d)).standard_normal()
                          for d in digests] for s in seeds])

    def test_matches_default_rng_across_word_counts(self):
        got = _keyed_normals(self.SEEDS, self.DIGESTS)
        assert got is not None
        assert np.array_equal(got, self._reference(self.SEEDS, self.DIGESTS))

    def test_rows_keep_seed_order_across_groups(self):
        # interleaved word counts: each group's rows land where they came from
        seeds = [2**200, 5, 2**40, 2**64 + 1, 6, 2**40 + 1]
        digests = list(range(3))
        got = _keyed_normals(seeds, digests)
        assert np.array_equal(got, self._reference(seeds, digests))

    def test_draws_span_chunks(self):
        seeds = [2**64 + k for k in range(3)]
        digests = list(range(_DRAW_CHUNK // 2 + 1))  # 1.5 chunks per group
        got = _keyed_normals(seeds, digests)
        want = self._reference(seeds, digests[:2] + digests[-2:])
        assert np.array_equal(got[:, [0, 1, -2, -1]], want)

    def test_empty(self):
        assert _keyed_normals([], [1, 2]).shape == (0, 2)
        assert _keyed_normals([3], []).shape == (1, 0)

    @staticmethod
    def _assert_bits_equal(got, want):
        assert got is not None
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_ki_table_is_numpys(self):
        # re-derive ki from the installed numpy by crafted states: ki[idx] is
        # the smallest rabs whose draw advances the generator more than one
        # step; wi is read from numpy at run time (a first output with rabs
        # = 1 returns wi[idx]), and the vector path must use exactly that
        bg = np.random.PCG64(0)
        normal = np.random.Generator(bg).standard_normal

        def draw(rabs, idx):
            first = rabs << 9 | idx
            bg.state = injector_module._crafted_state(first)
            value = float(normal())
            return value, bg.state["state"]["state"] != first

        wi, ki = [], []
        for idx in range(256):
            wi.append(draw(1, idx)[0])
            lo, hi = 0, 1 << 52
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if draw(mid, idx)[1] else (mid + 1, hi)
            ki.append(lo)
        assert ki == injector_module._ZIG_KI.tolist()
        assert ki[1] == 0 and all(0 < k < 1 << 52 for k in ki[2:] + ki[:1])
        assert injector_module._numpy_wi().tolist() == wi

    @staticmethod
    def _branch(seed, digest):
        """Which ziggurat branch ``default_rng((seed, digest))``'s draw
        takes, read from numpy alone: the first output's layer, and whether
        the draw used more than that one output."""
        bg = np.random.default_rng((seed, digest)).bit_generator
        start = bg.state
        idx = int(bg.random_raw()) & 0xFF
        one_step = bg.state["state"]["state"]
        bg.state = start
        np.random.Generator(bg).standard_normal()
        rejected = bg.state["state"]["state"] != one_step
        if idx == 0:
            return "layer 0 tail" if rejected else "layer 0"
        if idx == 1:
            return "layer 1 (ki 0)" if rejected else "layer 1 accepted"
        return "wedge" if rejected else "accepted"

    def test_key_scan_covers_every_branch(self):
        want = {"layer 0", "layer 0 tail", "layer 1 (ki 0)", "wedge",
                "accepted"}
        found: dict[str, tuple[int, int]] = {}
        for digest in range(20_000):
            seed = 3 if digest % 2 else 2**40 + 3
            found.setdefault(self._branch(seed, digest), (seed, digest))
            if want <= set(found):
                break
        assert set(found) == want  # layer 1 never accepts: its ki is 0
        seeds = sorted({s for s, _ in found.values()})
        digests = sorted({d for _, d in found.values()})
        got = _keyed_normals(seeds, digests)
        assert got is not None
        for seed, digest in found.values():
            ref = np.random.default_rng((seed, digest)).standard_normal()
            cell = got[seeds.index(seed), digests.index(digest)]
            assert np.float64(cell).tobytes() == np.float64(ref).tobytes()

    def test_random_differential(self):
        rng = np.random.default_rng(FAULT_SEED)
        seeds = ([int(s) for s in rng.integers(0, 2**32, 10)]
                 + [int(s) for s in rng.integers(2**32, 2**63, 5)]
                 + [int(s) << 40 for s in rng.integers(1, 2**40, 5)])
        digests = [int(d) for d in rng.integers(0, 2**32, 1000)]
        self._assert_bits_equal(_keyed_normals(seeds, digests),
                                self._reference(seeds, digests))

    @pytest.mark.parametrize("n_seeds, n_digests", [(1, 300), (300, 1)])
    def test_single_row_and_column(self, n_seeds, n_digests):
        seeds = [2**32 - 150 + k for k in range(n_seeds)]
        digests = [(FAULT_SEED * 7919 + k) & 0xFFFFFFFF
                   for k in range(n_digests)]
        self._assert_bits_equal(_keyed_normals(seeds, digests),
                                self._reference(seeds, digests))


class TestZooSweepBitIdentity:
    """Satellite: every vectorized fault row bit-identical to a serial
    ``FaultInjector`` run with the same seed, across the whole zoo."""

    MACHINE = scaled_machine(X86_V100, mem_scale=0.25, name="x86_quarter")
    SPEC = FaultSpec(duration_noise=0.1, bandwidth_factor=0.9)

    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_zoo_row_identity(self, name):
        graph = MODEL_ZOO[name](batch=2)
        cls = Classification.all_swap(graph)
        assert_rows_match_serial(graph, cls, self.MACHINE, self.SPEC,
                                 [FAULT_SEED, FAULT_SEED + 1, FAULT_SEED + 2])

    def test_recompute_plan_identity(self):
        graph = small_cnn()
        cls = Classification.all_recompute(graph)
        assert_rows_match_serial(graph, cls, tiny_machine(mem_mib=160),
                                 self.SPEC, list(range(FAULT_SEED,
                                                       FAULT_SEED + 6)))

    def test_oom_rows_blame_the_same_task(self):
        # near-capacity + strong noise: some seeds re-time issues enough to
        # overflow the pool — the lockstep row must blame the same task the
        # serial engine does, seed for seed
        graph = small_cnn()
        cls = Classification.all_keep(graph)
        assert_rows_match_serial(
            graph, cls, tiny_machine(mem_mib=96),
            FaultSpec(duration_noise=0.3),
            list(range(FAULT_SEED, FAULT_SEED + 8)))

    def test_host_capacity_factor_is_static(self):
        graph = small_cnn()
        cls = Classification.all_swap(graph)
        assert_rows_match_serial(
            graph, cls, tiny_machine(mem_mib=160),
            FaultSpec(duration_noise=0.05, host_capacity_factor=0.5),
            [FAULT_SEED, FAULT_SEED + 1])


class TestSweepFallbackMatrix:
    """Event-order-dependent specs and inexpressible drafts must take the
    serial path; the sweep's two arms must agree wherever both run."""

    def _outcomes_agree(self, a, b):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.seed == y.seed
            assert x.makespan == y.makespan
            assert x.plan_used == y.plan_used or x.plan_used == "chosen-plan"
            assert x.failed == y.failed

    def test_stall_and_oom_specs_are_not_vectorizable(self):
        assert vectorizable(FaultSpec(duration_noise=0.2,
                                      bandwidth_factor=0.5,
                                      host_capacity_factor=0.5,
                                      profile_noise=0.3))
        assert not vectorizable(FaultSpec(stall_prob=0.01))
        assert not vectorizable(FaultSpec(oom_prob=0.01))
        assert not vectorizable(FaultSpec(host_oom_prob=0.01))

    def test_stall_spec_rows_go_serial(self):
        graph = small_cnn()
        machine = tiny_machine(mem_mib=160)
        cls = Classification.all_swap(graph)
        outs = fault_seed_sweep(graph, cls, machine,
                                FaultSpec(stall_prob=0.2), range(3))
        assert all(not o.vectorized for o in outs)

    def test_naive_draft_falls_back_serially(self):
        # the clean draft itself is outside the lockstep family: every seed
        # must still produce an outcome via the serial path
        graph = small_cnn()
        machine = tiny_machine(mem_mib=160)
        cls = Classification.all_swap(graph)
        outs = fault_seed_sweep(
            graph, cls, machine, FaultSpec(duration_noise=0.05), range(3),
            options=ScheduleOptions(policy=SwapInPolicy.NAIVE))
        assert all(not o.vectorized for o in outs)
        assert all(o.ok for o in outs)

    def test_vectorized_arm_matches_serial_arm(self):
        graph = small_cnn()
        machine = tiny_machine(mem_mib=160)
        cls = Classification.all_swap(graph)
        spec = FaultSpec(duration_noise=0.1, bandwidth_factor=0.9)
        seeds = range(FAULT_SEED, FAULT_SEED + 8)
        vec = fault_seed_sweep(graph, cls, machine, spec, seeds)
        ser = fault_seed_sweep(graph, cls, machine, spec, seeds,
                               vectorize=False)
        assert any(o.vectorized for o in vec)
        assert all(not o.vectorized for o in ser)
        self._outcomes_agree(vec, ser)

    def test_large_seeds_match_serial_arm(self):
        graph = small_cnn()
        machine = tiny_machine(mem_mib=160)
        cls = Classification.all_swap(graph)
        spec = FaultSpec(duration_noise=0.1, bandwidth_factor=0.9)
        seeds = [2**32 + FAULT_SEED + k for k in range(4)] + [2**96 + 3]
        vec = fault_seed_sweep(graph, cls, machine, spec, seeds)
        ser = fault_seed_sweep(graph, cls, machine, spec, seeds,
                               vectorize=False)
        assert all(o.vectorized for o in vec)
        self._outcomes_agree(vec, ser)

    def test_oom_rows_replay_the_fallback_chain(self):
        # a vectorizable spec whose shrunken host pool breaks the chosen
        # plan: every lockstep row errors, falls back serially, and degrades
        # through the chain instead of failing — with the machine-readable
        # reason recorded
        graph = small_cnn()
        machine = tiny_machine(mem_mib=96)
        cls = Classification.all_swap(graph)
        clean = _serial_run(graph, cls, machine, FaultSpec(), 0)
        factor = clean.host_peak * 0.5 / machine.cpu_mem_capacity
        spec = FaultSpec(duration_noise=0.1, host_capacity_factor=factor)
        assert vectorizable(spec)
        outs = fault_seed_sweep(graph, cls, machine, spec,
                                range(FAULT_SEED, FAULT_SEED + 4))
        assert all(not o.vectorized for o in outs)
        for o in outs:
            assert o.ok and o.degraded and o.fallbacks >= 1
            assert o.oom
            assert o.plan_used == "recompute-all"


class TestSweepMetrics:
    def test_row_split_counters(self):
        graph = small_cnn()
        machine = tiny_machine(mem_mib=160)
        cls = Classification.all_swap(graph)
        registry = MetricsRegistry()
        previous = metrics.set_active(registry)
        try:
            fault_seed_sweep(graph, cls, machine,
                             FaultSpec(duration_noise=0.05), range(4))
            fault_seed_sweep(graph, cls, machine,
                             FaultSpec(stall_prob=0.2), range(2))
        finally:
            metrics.set_active(previous)
        faults = registry.snapshot()["sections"]["faults"]
        assert faults["sweeps"] == 2
        assert faults["rows_vectorized"] == 4
        assert faults["rows_fallback"] == 2

    @staticmethod
    def _draws(seeds):
        graph = small_cnn()
        machine = tiny_machine(mem_mib=160)
        base = CostModelDurations(graph, CostModel(machine))
        tasks, _, _ = ScheduleBuilder(
            graph, Classification.all_swap(graph), base, _EAGER,
            validate=False).build_raw()
        table = DurationTable(tasks, list(tasks))
        registry = MetricsRegistry()
        with metrics.use_registry(registry):
            rows = table.rows(FaultSpec(duration_noise=0.1), seeds)
        return rows, len(table.keys), registry.snapshot()["sections"]

    def test_large_seed_draws_stay_vectorized(self):
        seeds = [2**32 + k for k in range(4)]
        rows, n_keys, sections = self._draws(seeds)
        faults = sections["faults"]
        assert faults["draws_vectorized"] == len(seeds) * n_keys
        assert faults.get("draws_fallback", 0) == 0

    def test_sweep_from_2_32_has_no_fallback_draws(self):
        graph = small_cnn()
        machine = tiny_machine(mem_mib=160)
        registry = MetricsRegistry()
        with metrics.use_registry(registry):
            fault_seed_sweep(graph, Classification.all_swap(graph), machine,
                             FaultSpec(duration_noise=0.05,
                                       stall_prob=0.1),
                             range(2**32, 2**32 + 3))
        faults = registry.snapshot()["sections"]["faults"]
        assert faults["draws_vectorized"] > 0
        assert faults.get("draws_fallback", 0) == 0

    def test_wide_table_from_2_32_replays_few_draws(self):
        # a (64, 466) draw stays on the array path: a slide back to one
        # generator per draw would show as replayed or fallback draws
        graph = build_model("resnet50", batch=2)
        base = CostModelDurations(graph, CostModel(X86_V100))
        tasks, _, _ = ScheduleBuilder(
            graph, Classification.all_swap(graph), base, _EAGER,
            validate=False).build_raw()
        table = DurationTable(tasks, list(tasks))
        registry = MetricsRegistry()
        with metrics.use_registry(registry):
            table.rows(FaultSpec(duration_noise=0.1),
                       range(2**32, 2**32 + 64))
        faults = registry.snapshot()["sections"]["faults"]
        draws = 64 * len(table.keys)
        assert faults["draws_vectorized"] == draws
        assert faults.get("draws_fallback", 0) == 0
        assert 0 < faults["draws_replayed"] <= 0.03 * draws

    def test_wrong_table_entry_falls_back(self, monkeypatch):
        seeds = [FAULT_SEED, 2**64 + 1]
        want, n_keys, _ = self._draws(seeds)
        wrong = injector_module._ZIG_KI.copy()
        wrong[5] += np.uint64(1)
        monkeypatch.setattr(injector_module, "_ZIG_KI", wrong)
        monkeypatch.setattr(injector_module, "_zig_wi", None)
        got, _, sections = self._draws(seeds)
        faults = sections["faults"]
        assert injector_module._zig_wi is False
        assert faults["draws_fallback"] == len(seeds) * n_keys
        assert faults.get("draws_vectorized", 0) == 0
        assert np.array_equal(got, want)

    def test_failing_cross_check_counts_every_draw_as_fallback(
            self, monkeypatch):
        seeds = [FAULT_SEED, 2**64 + 1]
        want, n_keys, _ = self._draws(seeds)
        real = injector_module._seedseq_words
        monkeypatch.setattr(injector_module, "_seedseq_words",
                            lambda entropy: real(entropy) ^ np.uint64(1))
        got, _, sections = self._draws(seeds)
        faults = sections["faults"]
        assert faults["draws_fallback"] == len(seeds) * n_keys
        assert faults.get("draws_vectorized", 0) == 0
        assert np.array_equal(got, want)


class TestSeedBoundary:
    """Fault seeds are non-negative integers; anything else is named."""

    @pytest.mark.parametrize("bad", [-3, True, False, 2.7, 3.0, "3", None])
    def test_injector_rejects(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            FaultInjector("duration_noise=0.1", seed=bad)

    @pytest.mark.parametrize("bad", [-1, True, 2.7])
    def test_sweep_rejects(self, bad):
        graph = small_cnn()
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            fault_seed_sweep(graph, Classification.all_swap(graph),
                             tiny_machine(mem_mib=160),
                             FaultSpec(duration_noise=0.1), [0, bad])

    def test_numpy_ints_accepted(self):
        injector = FaultInjector("duration_noise=0.1", seed=np.int64(5))
        assert injector.seed == 5 and type(injector.seed) is int
        big = FaultInjector(seed=np.uint64(2**64 - 1))
        assert big.seed == 2**64 - 1


class TestRobustnessSeedDistribution:
    def test_report_carries_percentiles_and_rates(self):
        from repro.analysis import robustness_report

        machine = tiny_machine(mem_mib=224)
        report = robustness_report(
            small_cnn(batch=64), machine,
            specs=[FaultSpec(duration_noise=0.1)],
            seed=FAULT_SEED, fault_seeds=8)
        assert report.fault_seeds == 8
        (row,) = report.rows
        assert row.fault_seeds == 8
        assert row.rows_vectorized + row.rows_fallback == 8
        assert row.rows_vectorized > 0
        assert row.p50 <= row.p95 <= row.p99
        assert row.makespan == row.p50
        assert row.throughput == pytest.approx(report.batch / row.p50)
        for rate in (row.oom_rate, row.fallback_rate, row.retry_rate):
            assert 0.0 <= rate <= 1.0
        text = report.render()
        assert "p95" in text and "8 fault seeds" in text

    def test_single_seed_degenerates_to_point_estimate(self):
        from repro.analysis import robustness_report

        machine = tiny_machine(mem_mib=224)
        report = robustness_report(
            small_cnn(batch=64), machine,
            specs=[FaultSpec(duration_noise=0.1)],
            seed=FAULT_SEED, fault_seeds=1)
        (row,) = report.rows
        assert row.p50 == row.p95 == row.p99 == row.makespan

    def test_rejects_bad_seed_count(self):
        from repro.analysis import robustness_report

        with pytest.raises(ValueError):
            robustness_report(small_cnn(), tiny_machine(), fault_seeds=0)


class TestParseDuplicateKeys:
    def test_duplicate_key_rejected(self):
        with pytest.raises(FaultError, match="duplicate.*duration_noise"):
            FaultSpec.parse("duration_noise=0.1,duration_noise=0.2")

    def test_duplicate_rejected_even_with_equal_values(self):
        with pytest.raises(FaultError, match="duplicate"):
            FaultSpec.parse("stall_prob=0.1,stall_prob=0.1")
