"""The resilient executor against its from-scratch oracle, field for field.

:func:`execute_resilient` runs every attempt off a :class:`PlanChain`: each
chain entry is drafted and validated once, and each attempt re-prices that
template with the injector's duration faults.  The oracle below is the
straightforward implementation it replaced — rebuild the schedule under
``FaultyDurations`` for every attempt and run a validating ``Engine`` — so
any drift in pricing, retry accounting or fallback order shows up as an
inequality of whole :class:`RobustResult` objects (records, peaks, alloc
traces, ``plan_used``, attempts, retries, fallback steps and reasons).
"""

from __future__ import annotations

import os

import pytest

from repro.common.errors import (
    OutOfMemoryError,
    ReproError,
    SpuriousOOMError,
    TransferFaultError,
)
from repro.faults import (
    FallbackStep,
    FaultInjector,
    FaultSpec,
    FaultyDurations,
    FaultyMemoryPool,
    RetryPolicy,
    RobustResult,
    apply_transfer_faults,
    execute_resilient,
    fallback_chain,
    fault_seed_sweep,
)
from repro.faults import sweep as sweep_mod
from repro.faults.resilient import PlanChain, _failure_kind
from repro.gpusim import Engine
from repro.hw import CostModel
from repro.models import poster_example, small_cnn
from repro.models.zoo import MODEL_ZOO
from repro.runtime.durations import CostModelDurations
from repro.runtime.plan import Classification
from repro.runtime.schedule import ScheduleOptions, build_schedule
from tests.conftest import tiny_machine

#: CI pins a seed matrix through this env var; locally it defaults to 0
FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

#: the two shrunken machines of ``tests/conftest.py``: slow and fast link
MACHINES = {
    "tiny-slow": tiny_machine(mem_mib=160, link_gbps=2.0, name="tiny-slow"),
    "tiny-fast": tiny_machine(mem_mib=160, link_gbps=32.0, name="tiny-fast"),
}

SPECS = {
    "stalls": FaultSpec(duration_noise=0.05, stall_prob=0.5),
    "oom": FaultSpec(oom_prob=0.03),
    "host-oom": FaultSpec(host_oom_prob=0.1),
    "host-capacity": FaultSpec(duration_noise=0.1,
                               host_capacity_factor=0.0004),
    "bandwidth": FaultSpec(duration_noise=0.1, bandwidth_factor=0.5),
    "mixed": FaultSpec(duration_noise=0.1, bandwidth_factor=0.7,
                       stall_prob=0.3, oom_prob=0.02, host_oom_prob=0.05,
                       host_capacity_factor=0.0006),
}


def oracle_resilient(graph, classification, machine, *, faults=None,
                     retry=None, options=None, cost_model=None,
                     durations=None) -> RobustResult:
    """The per-attempt rebuild: ``build_schedule`` under ``FaultyDurations``
    for every attempt, then a validated ``Engine``."""
    retry = retry or RetryPolicy()
    opts = options or ScheduleOptions()
    base = durations
    if base is None:
        base = CostModelDurations(graph, cost_model or CostModel(machine))
    if faults is not None:
        base = FaultyDurations(base, faults)
    host_capacity = machine.host_swap_capacity
    if faults is not None:
        host_capacity = faults.host_capacity(host_capacity)
    chain = fallback_chain(graph, classification)
    fallbacks: list[FallbackStep] = []
    total_retries = 0
    epoch = 0
    last_error = None
    for pos, (name, cls) in enumerate(chain):
        plan_failed = None
        for _ in range(retry.max_plan_attempts):
            epoch += 1
            schedule = build_schedule(graph, cls, base, opts)
            try:
                pools = {}
                if faults is not None:
                    total_retries += apply_transfer_faults(
                        schedule, faults, retry, epoch=epoch)
                    pools = dict(
                        device_pool=FaultyMemoryPool(
                            machine.usable_gpu_memory, "gpu", faults,
                            attempt=epoch),
                        host_pool=FaultyMemoryPool(
                            host_capacity, "host", faults, attempt=epoch))
                result = Engine(schedule,
                                device_capacity=machine.usable_gpu_memory,
                                host_capacity=host_capacity, **pools).run()
                return RobustResult(result=result, plan_used=name,
                                    classification=cls,
                                    transfer_retries=total_retries,
                                    attempts=epoch, fallbacks=fallbacks)
            except SpuriousOOMError as e:
                plan_failed = e
            except (TransferFaultError, OutOfMemoryError) as e:
                plan_failed = e
                break
        last_error = plan_failed
        if pos + 1 < len(chain):
            fallbacks.append(FallbackStep(
                from_plan=name, to_plan=chain[pos + 1][0],
                reason=str(plan_failed),
                reason_kind=_failure_kind(plan_failed)))
    raise last_error


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and text of what it raised."""
    try:
        return fn(*args, **kwargs)
    except ReproError as e:
        return type(e), str(e)


def assert_matches_oracle(graph, cls, machine, spec, seeds, **kwargs):
    """Every seed's RobustResult (or raised error) equals the oracle's;
    one chain serves all seeds, as in a sweep.  Returns the outcomes."""
    chain = PlanChain(graph, cls, machine, options=kwargs.get("options"),
                      cost_model=kwargs.get("cost_model"),
                      durations=kwargs.get("durations"))
    got_all = []
    for seed in seeds:
        want = outcome(oracle_resilient, graph, cls, machine,
                       faults=FaultInjector(spec, seed=seed), **kwargs)
        got = outcome(execute_resilient, graph, cls, machine,
                      faults=FaultInjector(spec, seed=seed), chain=chain,
                      **kwargs)
        assert got == want, (seed, spec.describe())
        got_all.append(got)
    return got_all


ZOO = ("poster_example", "small_cnn", "linear_chain", "mlp")


def zoo_graph(model):
    # batch 32 puts poster_example's keep and swap plans near capacity on
    # both tiny machines; the toys need a smaller batch to fit at all
    return MODEL_ZOO[model](batch=32 if model == "poster_example" else 8)


def run_matrix(graph, machine, spec):
    """Oracle identity for the all-keep and all-swap plans of ``graph``."""
    outs = []
    for cls in (Classification.all_keep(graph),
                Classification.all_swap(graph)):
        outs += assert_matches_oracle(graph, cls, machine, spec,
                                      range(FAULT_SEED, FAULT_SEED + 3))
    return outs


class TestOracleIdentity:
    @pytest.mark.parametrize("machine", sorted(MACHINES))
    @pytest.mark.parametrize("spec", sorted(SPECS))
    @pytest.mark.parametrize("model", ZOO)
    def test_zoo_matches_oracle(self, model, spec, machine):
        run_matrix(zoo_graph(model), MACHINES[machine], SPECS[spec])

    def test_specs_exercise_every_path(self):
        # the matrix above is only as strong as the paths it reaches:
        # transfer retries, spurious re-runs, each failure kind, every
        # chain entry, and chain exhaustion
        kinds, plans, retries, reruns, exhausted = set(), set(), 0, 0, 0
        for model in ("poster_example", "linear_chain"):
            for spec in SPECS.values():
                for got in run_matrix(zoo_graph(model), MACHINES["tiny-slow"],
                                      spec):
                    if isinstance(got, tuple):
                        exhausted += 1
                        continue
                    plans.add(got.plan_used)
                    kinds |= {s.reason_kind for s in got.fallbacks}
                    retries += got.transfer_retries
                    reruns += got.attempts > len(got.fallbacks) + 1
        assert retries and reruns and exhausted
        assert kinds == {"oom", "transfer", "spurious"}
        assert plans == {"chosen-plan", "swap-all", "recompute-all"}

    def test_chain_exhaustion_raises_the_same_error(self):
        graph = poster_example()
        machine = tiny_machine(mem_mib=16)  # nothing fits
        cls = Classification.all_keep(graph)
        for spec in (FaultSpec(), SPECS["mixed"]):
            (got,) = assert_matches_oracle(graph, cls, machine, spec,
                                           [FAULT_SEED])
            assert got[0] is OutOfMemoryError

    def test_spurious_exhaustion_raises_the_same_error(self):
        graph = small_cnn()
        (got,) = assert_matches_oracle(
            graph, Classification.all_swap(graph), tiny_machine(),
            FaultSpec(oom_prob=0.9), [FAULT_SEED],
            retry=RetryPolicy(max_plan_attempts=1))
        assert got[0] is SpuriousOOMError

    def test_unfaulted_run_matches_oracle(self):
        graph = small_cnn()
        machine = tiny_machine(mem_mib=96)
        for cls in (Classification.all_keep(graph),
                    Classification.all_recompute(graph)):
            assert (outcome(execute_resilient, graph, cls, machine)
                    == outcome(oracle_resilient, graph, cls, machine))

    def test_jittered_cost_model_redraws_like_a_rebuild(self):
        # a jittered cost model draws fresh durations per call: each attempt
        # of the chain must consume the RNG stream exactly as a rebuild does
        graph = poster_example()
        machine = tiny_machine(mem_mib=224)
        cls = Classification.all_keep(graph)
        mine = CostModel(machine, jitter=0.05, seed=FAULT_SEED)
        theirs = CostModel(machine, jitter=0.05, seed=FAULT_SEED)
        chain = PlanChain(graph, cls, machine, cost_model=mine)
        for seed in range(FAULT_SEED, FAULT_SEED + 3):
            spec = FaultSpec(oom_prob=0.03, duration_noise=0.05)
            got = outcome(execute_resilient, graph, cls, machine,
                          faults=FaultInjector(spec, seed=seed),
                          cost_model=mine, chain=chain)
            want = outcome(oracle_resilient, graph, cls, machine,
                           faults=FaultInjector(spec, seed=seed),
                           cost_model=theirs)
            assert got == want


class TestSweepAgainstOracle:
    def test_serial_rows_equal_the_per_seed_oracle(self):
        graph = poster_example()
        machine = tiny_machine(mem_mib=224)
        cls = Classification.all_keep(graph)
        spec = SPECS["mixed"]
        seeds = range(FAULT_SEED, FAULT_SEED + 6)
        rows = fault_seed_sweep(graph, cls, machine, spec, seeds,
                                vectorize=False)
        for row, seed in zip(rows, seeds):
            want = outcome(oracle_resilient, graph, cls, machine,
                           faults=FaultInjector(spec, seed=seed))
            if isinstance(want, tuple):
                assert row.failed and row.fallback_path == "chain exhausted"
                assert row.oom == (want[0] is OutOfMemoryError)
                continue
            assert (row.makespan, row.plan_used, row.attempts,
                    row.transfer_retries, row.device_peak, row.host_peak,
                    row.fallbacks, row.fallback_path) == (
                want.makespan, want.plan_used, want.attempts,
                want.transfer_retries, want.result.device_peak,
                want.result.host_peak, len(want.fallbacks),
                " -> ".join(s.to_plan for s in want.fallbacks))
            assert row.oom == any(s.reason_kind == "oom"
                                  for s in want.fallbacks)

    def test_template_durations_survive_transfer_retries(self, monkeypatch):
        graph = small_cnn()
        machine = tiny_machine()
        cls = Classification.all_swap(graph)
        chains = []

        class Recording(PlanChain):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                chains.append(self)

        monkeypatch.setattr(sweep_mod, "PlanChain", Recording)
        rows = fault_seed_sweep(graph, cls, machine,
                                FaultSpec(stall_prob=0.3),
                                range(FAULT_SEED, FAULT_SEED + 4))
        assert sum(r.transfer_retries for r in rows) > 0
        (chain,) = chains
        clean = build_schedule(
            graph, cls, CostModelDurations(graph, CostModel(machine)))
        template = chain.entry(0).template()
        assert ({tid: t.duration for tid, t in template.tasks.items()}
                == {tid: t.duration for tid, t in clean.tasks.items()})


class TestChainArguments:
    def test_chain_from_other_arguments_raises(self):
        graph = small_cnn()
        machine = tiny_machine()
        chain = PlanChain(graph, Classification.all_swap(graph), machine)
        with pytest.raises(ValueError, match="classification"):
            execute_resilient(graph, Classification.all_keep(graph), machine,
                              chain=chain)
        with pytest.raises(ValueError, match="machine"):
            execute_resilient(graph, Classification.all_swap(graph),
                              tiny_machine(mem_mib=224), chain=chain)
        with pytest.raises(ValueError, match="options"):
            execute_resilient(graph, Classification.all_swap(graph), machine,
                              options=ScheduleOptions(include_update=False),
                              chain=chain)

    def test_default_options_match_an_explicit_default(self):
        graph = small_cnn()
        machine = tiny_machine()
        cls = Classification.all_swap(graph)
        chain = PlanChain(graph, cls, machine)
        assert (execute_resilient(graph, cls, machine,
                                  options=ScheduleOptions(), chain=chain)
                == execute_resilient(graph, cls, machine))
