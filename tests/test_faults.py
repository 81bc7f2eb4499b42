"""Unit tests for the fault-injection & graceful-degradation subsystem."""

import os

import numpy as np
import pytest

from repro.common.errors import (
    FaultError,
    OutOfMemoryError,
    SpuriousOOMError,
    TransferFaultError,
)
from repro.common.units import MiB
from repro.faults import (
    FaultInjector,
    FaultSpec,
    FaultyDurations,
    FaultyMemoryPool,
    RetryPolicy,
    apply_transfer_faults,
    execute_resilient,
    fallback_chain,
)
from repro.faults.injector import _MIN_FACTOR, DurationTable
from repro.hw import CostModel, X86_V100, degraded_machine
from repro.models import poster_example, small_cnn
from repro.pooch import PoocH
from repro.runtime import Classification, MapClass, execute
from repro.runtime.durations import CostModelDurations
from repro.runtime.schedule import ScheduleOptions, build_schedule
from tests.conftest import tiny_machine

#: CI pins a seed matrix through this env var; locally it defaults to 0
FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


class ScriptedInjector(FaultInjector):
    """Deterministic test double: faults fire exactly where scripted."""

    def __init__(self, fail_transfers=None, fail_allocs=None,
                 spec=None) -> None:
        super().__init__(spec or FaultSpec(), seed=0)
        self.fail_transfers = fail_transfers or {}  # (epoch, tid) -> failures
        self.fail_allocs = fail_allocs or set()     # (attempt, pool, buffer)

    def transfer_failures(self, tid, cap, epoch=0):
        return self.fail_transfers.get((epoch, tid), 0)

    def spurious_oom(self, pool, buffer, attempt):
        return (attempt, pool, buffer) in self.fail_allocs


class TestFaultSpec:
    def test_defaults_are_inert(self):
        assert not FaultSpec().active
        assert FaultSpec.parse("").describe() == "none"
        assert not FaultSpec.parse("none").active

    def test_parse_roundtrip(self):
        spec = FaultSpec.parse("duration_noise=0.1,stall_prob=0.05")
        assert spec.duration_noise == 0.1
        assert spec.stall_prob == 0.05
        assert spec.active
        assert FaultSpec.parse(spec.describe()) == spec

    @pytest.mark.parametrize("text", [
        "bogus=1", "duration_noise", "duration_noise=abc",
        "duration_noise=1.5", "bandwidth_factor=0", "stall_prob=-0.1",
        "duration_noise=0.1,duration_noise=0.2",
    ])
    def test_bad_specs_rejected(self, text):
        with pytest.raises(FaultError):
            FaultSpec.parse(text)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_stall_time_rejected(self, value):
        # a nan/inf stall time used to pass and turn every robustness
        # percentile into nan
        with pytest.raises(FaultError, match=f"stall_time.*got {value!r}"):
            FaultSpec(stall_time=value)
        with pytest.raises(FaultError, match=f"stall_time.*got {value!r}"):
            FaultSpec.parse(f"stall_time={value!r},stall_prob=0.5")

    def test_duplicate_key_names_the_key(self):
        # a silent last-wins would make "duration_noise=0.1,duration_noise=0"
        # quietly disable the fault the user thought they enabled
        with pytest.raises(FaultError, match="duplicate.*'stall_prob'"):
            FaultSpec.parse("stall_prob=0.1,oom_prob=0.01,stall_prob=0.2")


class TestInjectorDeterminism:
    def test_keyed_draws_are_pure(self):
        inj = FaultInjector("duration_noise=0.2", seed=9)
        assert inj.duration_factor("fwd", 3) == inj.duration_factor("fwd", 3)
        assert inj.duration_factor("fwd", 3) != inj.duration_factor("fwd", 4)
        assert inj.duration_factor("fwd", 3) != inj.duration_factor("bwd", 3)

    def test_seed_changes_draws(self):
        a = FaultInjector("duration_noise=0.2", seed=1)
        b = FaultInjector("duration_noise=0.2", seed=2)
        assert a.duration_factor("fwd", 3) != b.duration_factor("fwd", 3)

    def test_epoch_rekeys_transfer_draws(self):
        inj = FaultInjector("stall_prob=0.5", seed=4)
        draws = {inj.transfer_failures("T1", 10, epoch=e) for e in range(20)}
        assert len(draws) > 1  # transient conditions vary per epoch

    def test_inert_spec_is_identity(self):
        inj = FaultInjector(None, seed=123)
        assert inj.duration_factor("fwd", 0) == 1.0
        assert inj.transfer_slowdown() == 1.0
        assert inj.transfer_failures("T", 3) == 0
        assert not inj.spurious_oom("gpu", "b", 0)
        assert inj.host_capacity(1000) == 1000

    def test_noise_factor_never_below_the_clamp(self):
        # at 100% noise about one draw in six would go below 5% unclamped
        spec = FaultSpec(duration_noise=1.0)
        inj = FaultInjector(spec, seed=FAULT_SEED)
        factors = [inj.duration_factor("fwd", layer) for layer in range(200)]
        assert min(factors) == _MIN_FACTOR
        g = small_cnn()
        tasks = build_schedule(g, Classification.all_swap(g),
                               CostModelDurations(g, CostModel(X86_V100)),
                               ScheduleOptions()).tasks
        table = DurationTable(tasks, list(tasks))
        rows = table.rows(spec, range(FAULT_SEED, FAULT_SEED + 16))
        assert np.all(rows >= table.clean * _MIN_FACTOR)
        assert np.any(rows == table.clean * _MIN_FACTOR)


class TestFaultyDurations:
    def test_noise_applied_and_pure(self):
        g = small_cnn()
        base = CostModelDurations(g, CostModel(X86_V100))
        noisy = FaultyDurations(base, FaultInjector("duration_noise=0.3", 7))
        assert noisy.fwd(1) == noisy.fwd(1)  # pure: schedule rebuilds agree
        factors = {noisy.fwd(l.index) / base.fwd(l.index) for l in g
                   if base.fwd(l.index) > 0}
        assert len(factors) > 1  # per-layer, not global

    def test_bandwidth_factor_slows_transfers_only(self):
        g = small_cnn()
        base = CostModelDurations(g, CostModel(X86_V100))
        slow = FaultyDurations(base, FaultInjector("bandwidth_factor=0.5", 0))
        m = next(iter(Classification.all_swap(g).classes))
        assert slow.swap_out(m) == pytest.approx(2 * base.swap_out(m))
        assert slow.swap_in(m) == pytest.approx(2 * base.swap_in(m))
        assert slow.fwd(1) == base.fwd(1)


class TestFaultyMemoryPool:
    def test_spurious_only_when_it_would_fit(self):
        inj = ScriptedInjector(fail_allocs={(0, "gpu", "a"), (0, "gpu", "big")})
        pool = FaultyMemoryPool(1 * MiB, "gpu", inj, attempt=0)
        with pytest.raises(SpuriousOOMError):
            pool.malloc("a", 1024, 0.0)
        # a genuine shortfall is NOT reported as spurious
        with pytest.raises(OutOfMemoryError) as e:
            pool.malloc("big", 2 * MiB, 0.0)
        assert not isinstance(e.value, SpuriousOOMError)

    def test_unscripted_allocations_succeed(self):
        pool = FaultyMemoryPool(1 * MiB, "gpu", ScriptedInjector(), attempt=0)
        pool.malloc("a", 1024, 0.0)
        assert pool.in_use > 0


class TestTransferFaults:
    def _schedule(self, graph, machine):
        return build_schedule(
            graph, Classification.all_swap(graph),
            CostModelDurations(graph, CostModel(machine)), ScheduleOptions())

    def test_retries_charge_stall_and_backoff(self):
        g = small_cnn()
        sched = self._schedule(g, X86_V100)
        tid = next(t.tid for t in sched.tasks.values()
                   if t.stream.value != "compute")
        before = sched.tasks[tid].duration
        inj = ScriptedInjector(fail_transfers={(1, tid): 2},
                               spec=FaultSpec(stall_prob=0.5, stall_time=1e-3))
        retry = RetryPolicy(max_transfer_retries=3)
        retries = apply_transfer_faults(sched, inj, retry, epoch=1)
        assert retries == 2
        expected = before + 2 * 1e-3 + retry.backoff(0) + retry.backoff(1)
        assert sched.tasks[tid].duration == pytest.approx(expected)

    def test_budget_exhausted_raises(self):
        g = small_cnn()
        sched = self._schedule(g, X86_V100)
        tid = next(t.tid for t in sched.tasks.values()
                   if t.stream.value != "compute")
        inj = ScriptedInjector(fail_transfers={(1, tid): 4})
        with pytest.raises(TransferFaultError) as e:
            apply_transfer_faults(sched, inj,
                                  RetryPolicy(max_transfer_retries=3), epoch=1)
        assert e.value.tid == tid
        assert e.value.attempts == 4


class TestRetryPolicyValidation:
    @pytest.mark.parametrize("field, value", [
        # zero attempts used to die on a bare assert in execute_resilient
        ("max_plan_attempts", 0),
        ("max_plan_attempts", 1.5),
        # a negative budget silently disabled every stall
        ("max_transfer_retries", -2),
        # a negative backoff made stalls *save* time (negative makespans)
        ("backoff_base", -1.0),
        ("backoff_base", float("inf")),
        ("backoff_cap", float("nan")),
        ("backoff_cap", -1e-3),
        # bool is an Integral: True used to pass as a budget of one
        ("max_transfer_retries", True),
        ("max_plan_attempts", True),
        ("backoff_base", True),
        # non-numbers used to raise a bare TypeError from math.isfinite
        ("backoff_base", "x"),
        ("backoff_cap", None),
    ])
    def test_bad_field_names_field_and_value(self, field, value):
        with pytest.raises(FaultError, match=f"{field}.*got {value!r}"):
            RetryPolicy(**{field: value})

    def test_boundaries_accepted(self):
        policy = RetryPolicy(max_transfer_retries=0, backoff_base=0.0,
                             backoff_cap=0.0, max_plan_attempts=1)
        assert policy.backoff(5) == 0.0

    def test_negative_backoff_can_no_longer_shorten_a_run(self):
        g = poster_example()
        with pytest.raises(FaultError, match="backoff_base"):
            execute_resilient(
                g, Classification.all_swap(g), tiny_machine(mem_mib=224),
                faults=FaultInjector(FaultSpec(stall_prob=0.5), seed=0),
                retry=RetryPolicy(backoff_base=-1.0))


class TestFallbackChain:
    def test_declared_order(self):
        g = poster_example()
        cls = Classification.all_keep(g)
        chain = fallback_chain(g, cls)
        assert [name for name, _ in chain] == [
            "chosen-plan", "swap-all", "recompute-all"]

    def test_deduplicates_identical_plans(self):
        g = poster_example()
        chain = fallback_chain(g, Classification.all_swap(g))
        assert [name for name, _ in chain] == ["chosen-plan", "recompute-all"]


class TestExecuteResilient:
    def test_clean_path_bit_identical_to_execute(self):
        g = poster_example()
        machine = tiny_machine(mem_mib=224)
        cls = Classification.all_swap(g)
        plain = execute(g, cls, machine)
        robust = execute_resilient(g, cls, machine)
        assert robust.makespan == plain.makespan
        assert robust.plan_used == "chosen-plan"
        assert not robust.degraded

    def test_spurious_oom_retried_then_succeeds(self):
        g = poster_example()
        machine = tiny_machine(mem_mib=224)
        # epoch 1's very first allocation transiently fails; epoch 2 is clean
        inj = ScriptedInjector(fail_allocs={(1, "gpu", "params")})
        robust = execute_resilient(g, Classification.all_swap(g), machine,
                                   faults=inj)
        assert robust.plan_used == "chosen-plan"
        assert robust.attempts == 2
        assert not robust.degraded

    def test_transfer_budget_exhausted_engages_fallback(self):
        from repro.gpusim import TaskKind

        g = poster_example()
        # big enough that the recompute-all fallback is actually feasible
        machine = tiny_machine(mem_mib=512)
        cls = Classification.all_swap(g).with_class(1, MapClass.KEEP)
        sched = build_schedule(g, cls,
                               CostModelDurations(g, CostModel(machine)),
                               ScheduleOptions())
        # permanently kill the swap-out of a *recomputable* map: the chosen
        # plan and swap-all both need it, recompute-all does not
        tid = next(t.tid for t in sched.tasks.values()
                   if t.kind is TaskKind.SWAP_OUT
                   and g[t.layer].op.recomputable)
        inj = ScriptedInjector(fail_transfers={(e, tid): 99
                                               for e in range(1, 10)})
        robust = execute_resilient(g, cls, machine, faults=inj)
        assert robust.degraded
        assert robust.fallbacks[0].from_plan == "chosen-plan"
        assert robust.plan_used == "recompute-all"
        assert "failed" in robust.fallbacks[0].reason

    def test_real_oom_degrades_to_swap_all(self):
        g = poster_example()
        machine = tiny_machine(mem_mib=224)
        robust = execute_resilient(g, Classification.all_keep(g), machine)
        assert robust.degraded
        assert robust.plan_used == "swap-all"
        assert robust.fallbacks[0].from_plan == "chosen-plan"

    def test_chain_exhaustion_propagates(self):
        g = poster_example()
        # 16 MiB fits nothing: every chain entry genuinely OOMs
        machine = tiny_machine(mem_mib=16)
        with pytest.raises(OutOfMemoryError):
            execute_resilient(g, Classification.all_keep(g), machine)

    def test_host_capacity_pressure_respected(self):
        g = poster_example()
        machine = tiny_machine(mem_mib=224)
        inj = FaultInjector(FaultSpec(host_capacity_factor=0.5), seed=0)
        robust = execute_resilient(g, Classification.all_swap(g), machine,
                                   faults=inj)
        assert robust.result.host_peak <= inj.host_capacity(
            machine.cpu_mem_capacity)

    def test_describe_mentions_fallbacks(self):
        g = poster_example()
        machine = tiny_machine(mem_mib=224)
        robust = execute_resilient(g, Classification.all_keep(g), machine)
        text = robust.describe()
        assert "swap-all" in text and "fallback" in text


class TestDegradedMachine:
    def test_scales_link_and_host(self):
        m = degraded_machine(X86_V100, bandwidth_factor=0.5,
                             host_capacity_factor=0.25)
        assert m.h2d_bandwidth == X86_V100.h2d_bandwidth * 0.5
        assert m.d2h_bandwidth == X86_V100.d2h_bandwidth * 0.5
        assert m.cpu_mem_capacity == X86_V100.cpu_mem_capacity // 4
        assert m.gpu_mem_capacity == X86_V100.gpu_mem_capacity

    @pytest.mark.parametrize("kw", [
        {"bandwidth_factor": 0.0}, {"bandwidth_factor": 1.5},
        {"host_capacity_factor": -1.0},
    ])
    def test_rejects_bad_factors(self, kw):
        with pytest.raises(ValueError):
            degraded_machine(X86_V100, **kw)


class TestRobustnessReport:
    def test_report_records_degradation_and_renders(self):
        from repro.analysis import robustness_report

        machine = tiny_machine(mem_mib=224)
        report = robustness_report(small_cnn(batch=64), machine,
                                   noise_levels=(0.05, 0.10), seed=1)
        assert len(report.rows) == 2
        assert report.clean_makespan > 0
        for row in report.rows:
            assert row.makespan > 0
            assert row.throughput == pytest.approx(
                report.batch / row.makespan)
        text = report.render()
        assert "robustness" in text
        assert "degradation" in text


class TestPipelineFaults:
    def test_profile_noise_changes_profile_not_truth(self):
        machine = tiny_machine(mem_mib=224)
        g = poster_example()
        clean = PoocH(machine).optimize(g)
        noisy = PoocH(machine, faults=FaultInjector("profile_noise=0.2",
                                                    seed=3)).optimize(g)
        assert noisy.profile.fwd != clean.profile.fwd  # classifier misled...
        # ...but ground truth is unchanged: both plans run on the same machine
        assert clean.execute().makespan > 0
        assert noisy.execute_resilient().makespan > 0

    def test_spec_without_injector_rejected(self):
        # the seed lives on the injector: a bare spec has none to carry
        with pytest.raises(TypeError, match="FaultInjector"):
            PoocH(X86_V100, faults="profile_noise=0.2")

    def test_inert_faults_do_not_change_the_plan(self):
        machine = tiny_machine(mem_mib=224)
        g = poster_example()
        a = PoocH(machine).optimize(g)
        b = PoocH(machine, faults=FaultInjector(None, seed=5)).optimize(g)
        assert a.classification.key() == b.classification.key()
