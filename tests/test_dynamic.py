"""DynamicPoocH — the paper's future-work extension (varying problem sizes)."""

import pytest

from repro.common.errors import ScheduleError
from repro.faults import FaultInjector
from repro.models import linear_chain
from repro.pooch import PoochConfig
from repro.pooch.dynamic import DynamicPoocH
from tests.conftest import tiny_machine

CFG = PoochConfig(max_exact_li=3, step1_sim_budget=120)


def build(batch):
    return linear_chain(6, batch=batch, channels=32, image=64)


@pytest.fixture
def machine():
    return tiny_machine(mem_mib=224, link_gbps=2.0)


class TestExactStrategy:
    def test_one_optimization_per_distinct_size(self, machine):
        d = DynamicPoocH(machine, build, CFG, strategy="exact")
        stats = d.run_stream([16, 32, 16, 16, 32, 64])
        assert stats.iterations == 6
        assert stats.optimizations == 3  # sizes 16, 32, 64
        assert stats.plan_reuses == 3

    def test_plans_cached_per_size(self, machine):
        d = DynamicPoocH(machine, build, CFG)
        a = d.plan_for(16)
        b = d.plan_for(16)
        assert a is b

    def test_iteration_times_recorded(self, machine):
        d = DynamicPoocH(machine, build, CFG)
        stats = d.run_stream([16, 32])
        assert len(stats.iteration_times) == 2
        assert stats.total_time > 0

    def test_larger_sizes_take_longer(self, machine):
        d = DynamicPoocH(machine, build, CFG)
        d.run_stream([16, 64])
        t16, t64 = d.stats.iteration_times
        assert t64 > t16


class TestNearestStrategy:
    def test_reuses_larger_plan(self, machine):
        d = DynamicPoocH(machine, build, CFG, strategy="nearest")
        d.run_iteration(64)  # optimize the big size first
        d.run_iteration(32)  # should transfer 64's plan
        assert d.stats.optimizations == 1
        assert d.stats.transfers == 1

    def test_falls_back_to_optimize_upward(self, machine):
        # going from small to large cannot reuse (memory-unsafe direction)
        d = DynamicPoocH(machine, build, CFG, strategy="nearest")
        d.run_iteration(16)
        d.run_iteration(64)
        assert d.stats.optimizations == 2
        assert d.stats.transfers == 0

    def test_nearest_cheaper_but_not_faster(self, machine):
        exact = DynamicPoocH(machine, build, CFG, strategy="exact")
        nearest = DynamicPoocH(machine, build, CFG, strategy="nearest")
        stream = [64, 48, 32, 48, 32, 64]
        exact.run_stream(stream)
        nearest.run_stream(list(stream))
        assert nearest.stats.optimizations <= exact.stats.optimizations
        # transferred plans can be mildly slower, never invalid
        assert nearest.stats.total_time <= exact.stats.total_time * 1.5


class TestProfilingReuse:
    def test_one_profiling_per_distinct_size(self, machine):
        d = DynamicPoocH(machine, build, CFG, strategy="exact")
        d.run_stream([16, 32, 16, 16, 32, 64])
        assert d.stats.profilings == 3  # sizes 16, 32, 64 — never re-profiled

    def test_nearest_transfer_does_not_reprofile(self, machine):
        # regression: transfer verification used to run its own profiling
        # (and a predictor without the search's capacity margin / gap)
        d = DynamicPoocH(machine, build, CFG, strategy="nearest")
        d.run_iteration(64)
        d.run_iteration(32)
        assert d.stats.transfers == 1
        assert d.stats.profilings == 2  # one for 64, one for 32

    def test_profile_and_predictor_cached_per_size(self, machine):
        d = DynamicPoocH(machine, build, CFG)
        assert d._profile(16) is d._profile(16)
        assert d._predictor(16) is d._predictor(16)
        assert d.stats.profilings == 1


class TestRegressionFixes:
    def test_verification_predictor_gets_full_config(self, machine):
        # regression: _transferable_plan verified donors through a predictor
        # built without capacity_margin / forward_refetch_gap, so a plan
        # could pass verification under laxer conditions than execution
        from repro.common.units import MiB

        cfg = PoochConfig(max_exact_li=3, step1_sim_budget=120,
                          capacity_margin=4 * MiB, forward_refetch_gap=3)
        d = DynamicPoocH(machine, build, cfg, strategy="nearest")
        p = d._predictor(16)
        assert p.config == cfg
        assert p.config.capacity_margin == cfg.capacity_margin
        assert p.options.forward_refetch_gap == cfg.forward_refetch_gap
        assert p.options.policy == cfg.policy
        assert p.capacity == machine.usable_gpu_memory - cfg.capacity_margin

    def test_execute_gets_schedule_options(self, machine, monkeypatch):
        # regression: run_iteration called execute() without options,
        # silently dropping the configured forward_refetch_gap
        import repro.pooch.dynamic as dyn

        captured = {}
        real_execute = dyn.execute

        def spy(graph, plan, machine_, **kw):
            captured.update(kw)
            return real_execute(graph, plan, machine_, **kw)

        monkeypatch.setattr(dyn, "execute", spy)
        cfg = PoochConfig(max_exact_li=3, step1_sim_budget=120,
                          forward_refetch_gap=2)
        d = DynamicPoocH(machine, build, cfg)
        d.run_iteration(16)
        opts = captured["options"]
        assert opts is not None
        assert opts.forward_refetch_gap == 2
        assert opts.policy == cfg.policy
        # verification and execution run the config's one schedule
        assert opts == cfg.options
        assert opts == d._predictor(16).options


class TestPlanCache:
    def test_cache_hit_counts_in_search_metrics(self, machine, tmp_path):
        from repro.obs import MetricsRegistry, use_registry

        DynamicPoocH(machine, build, CFG, plan_cache=tmp_path).plan_for(16)
        warm = DynamicPoocH(machine, build, CFG, plan_cache=tmp_path)
        registry = MetricsRegistry()
        with use_registry(registry):
            warm.plan_for(16)
        assert warm.stats.optimizations == 1
        assert registry.counters.get("search.plan_cache_hits") == 1
        assert "search.plan_cache_rejections" not in registry.counters

    def test_drift_replan_bypasses_the_cache(self, machine, tmp_path):
        d = DynamicPoocH(machine, build, CFG, plan_cache=tmp_path,
                         faults=FaultInjector("bandwidth_factor=0.33",
                                              seed=5),
                         replan_tolerance=0.1)
        cache = d.plan_cache
        calls = []
        for name in ("load_plan", "store_plan"):
            real = getattr(cache, name)

            def spy(*args, _name=name, _real=real, **kw):
                calls.append(_name)
                return _real(*args, **kw)

            setattr(cache, name, spy)
        d.run_iteration(16)
        assert d.stats.replans == 1
        # the re-plan neither reads the cache (it would hand back the plan
        # that drifted) nor overwrites the clean-profile plan stored there
        assert calls == ["load_plan", "store_plan"]


class TestValidation:
    def test_unknown_strategy(self, machine):
        with pytest.raises(ScheduleError):
            DynamicPoocH(machine, build, CFG, strategy="magic")

    def test_structure_mismatch_rejected(self, machine):
        def bad_build(size):
            return linear_chain(int(size), batch=8, channels=8, image=16)

        d = DynamicPoocH(machine, bad_build, CFG)
        d.run_iteration(4)
        with pytest.raises(ScheduleError, match="structure"):
            d.run_iteration(6)


class TestFaultsAndReplan:
    """Resilient execution + drift-triggered re-planning (ISSUE 2)."""

    def _scripted(self, fail_transfers):
        from repro.faults import FaultSpec

        class Scripted(FaultInjector):
            def transfer_failures(self, tid, cap, epoch=0):
                return fail_transfers.get((epoch, tid), 0)

        return Scripted(FaultSpec(stall_time=1e-3), seed=0)

    def _first_transfer_tid(self, machine, batch):
        from repro.hw import CostModel
        from repro.runtime import Classification
        from repro.runtime.durations import CostModelDurations
        from repro.runtime.schedule import ScheduleOptions, build_schedule

        g = build(batch)
        sched = build_schedule(
            g, Classification.all_swap(g),
            CostModelDurations(g, CostModel(machine)), ScheduleOptions())
        return next(t.tid for t in sched.tasks.values()
                    if t.stream.value != "compute")

    def test_faulted_transfer_retried_then_succeeds(self, machine):
        tid = self._first_transfer_tid(machine, 16)
        inj = self._scripted({(1, tid): 2})  # two transient stalls, then ok
        d = DynamicPoocH(machine, build, CFG, faults=inj,
                         replan_tolerance=None)
        clean = DynamicPoocH(machine, build, CFG)
        r = d.run_iteration(16)
        r_clean = clean.run_iteration(16)
        assert d.stats.transfer_retries == 2
        assert d.stats.fallbacks == 0
        # the retries honestly cost time on the timeline
        assert r.makespan > r_clean.makespan

    def test_retry_budget_exhausted_engages_fallback(self, machine):
        from repro.faults import RetryPolicy

        tid = self._first_transfer_tid(machine, 16)
        # the transfer is dead during the first (chosen-plan) epoch only —
        # the fallback entry draws under a later epoch and succeeds
        inj = self._scripted({(1, tid): 99})
        d = DynamicPoocH(machine, build, CFG, faults=inj,
                         retry=RetryPolicy(max_transfer_retries=3),
                         replan_tolerance=None)
        r = d.run_iteration(16)
        assert r.makespan > 0
        assert d.stats.fallbacks >= 1

    def test_drift_replans_exactly_once(self, machine):
        # the link delivers a third of the bandwidth the profile assumed:
        # every iteration measures far above prediction
        d = DynamicPoocH(machine, build, CFG,
                         faults=FaultInjector("bandwidth_factor=0.33",
                                              seed=5),
                         replan_tolerance=0.1)
        d.run_stream([16, 16, 16])
        assert d.stats.replans == 1  # once, not once per iteration
        assert d.stats.profilings == 2  # initial + drift re-profile
        d.run_iteration(16)
        assert d.stats.replans == 1

    def test_no_replan_within_tolerance(self, machine):
        d = DynamicPoocH(machine, build, CFG, replan_tolerance=0.25)
        d.run_stream([16, 16])
        assert d.stats.replans == 0
        assert d.stats.transfer_retries == 0
        assert d.stats.fallbacks == 0

    def test_replan_tolerance_validated(self, machine):
        with pytest.raises(ScheduleError):
            DynamicPoocH(machine, build, CFG, replan_tolerance=0.0)

    def test_faulted_stream_is_reproducible(self, machine):
        spec = "duration_noise=0.1,stall_prob=0.1"

        def once():
            d = DynamicPoocH(machine, build, CFG,
                             faults=FaultInjector(spec, seed=9))
            d.run_stream([16, 32, 16])
            return (tuple(d.stats.iteration_times), d.stats.transfer_retries,
                    d.stats.replans, d.stats.fallbacks)

        assert once() == once()
