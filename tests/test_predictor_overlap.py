"""Timeline predictor (profile-driven replay) and L_O/L_I extraction."""

import os

import pytest

from repro.common.errors import OutOfMemoryError
from repro.faults import FaultInjector, FaultSpec
from repro.models import linear_chain, poster_example
from repro.pooch import TimelinePredictor, analyze_overlap
from repro.runtime import Classification, MapClass, execute, run_profiling
from tests.conftest import tiny_machine

#: CI pins a seed matrix through this env var; locally it defaults to 0
FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


@pytest.fixture
def machine():
    return tiny_machine(mem_mib=224, link_gbps=4.0)


@pytest.fixture
def setup(machine):
    g = poster_example()
    prof = run_profiling(g, machine)
    return g, prof, TimelinePredictor(g, prof, machine)


class TestPredictor:
    def test_prediction_matches_ground_truth_exactly(self, setup, machine):
        g, prof, pred = setup
        for cls in (
            Classification.all_swap(g),
            Classification.all_recompute(g),  # infeasible here: chains pile up
        ):
            outcome = pred.predict(cls)
            try:
                gt = execute(g, cls, machine)
            except OutOfMemoryError:
                # predictor and ground truth must agree on infeasibility
                assert not outcome.feasible
                continue
            assert outcome.feasible
            assert outcome.time == pytest.approx(gt.makespan, rel=1e-12)
            assert outcome.peak_memory == gt.device_peak

    def test_infeasible_detected(self, setup, machine):
        g, prof, pred = setup
        outcome = pred.predict(Classification.all_keep(g))
        assert not outcome.feasible
        assert outcome.time == float("inf")
        assert outcome.oom_context  # the task the replay blamed
        with pytest.raises(OutOfMemoryError):
            execute(g, Classification.all_keep(g), machine)

    def test_memoization(self, setup):
        g, prof, pred = setup
        cls = Classification.all_swap(g)
        pred.predict(cls)
        n = pred.simulations
        pred.predict(cls)
        assert pred.simulations == n

    def test_noisy_profile_still_close(self, machine):
        g = poster_example()
        injector = FaultInjector(FaultSpec(profile_noise=0.05), seed=FAULT_SEED)
        prof = injector.perturb_profile(run_profiling(g, machine), g, machine)
        pred = TimelinePredictor(g, prof, machine)
        cls = Classification.all_swap(g)
        predicted = pred.predict(cls).time
        actual = execute(g, cls, machine).makespan
        assert predicted == pytest.approx(actual, rel=0.2)


class TestOverlapAnalysis:
    def test_slow_link_has_unhidden_swaps(self):
        m = tiny_machine(mem_mib=224, link_gbps=1.0)
        g = poster_example()
        prof = run_profiling(g, m)
        ov = analyze_overlap(prof.baseline)
        assert ov.L_O or ov.L_I
        assert all(v > 0 for v in ov.overhead.values())

    def test_fast_link_hides_more(self):
        g = poster_example()
        slow = analyze_overlap(
            run_profiling(g, tiny_machine(mem_mib=224, link_gbps=1.0)).baseline
        )
        fast = analyze_overlap(
            run_profiling(g, tiny_machine(mem_mib=224, link_gbps=500.0)).baseline
        )
        assert len(fast.candidates) <= len(slow.candidates)
        assert sum(fast.overhead.values()) < sum(slow.overhead.values())

    def test_candidates_union(self, setup):
        g, prof, pred = setup
        ov = analyze_overlap(prof.baseline)
        assert ov.candidates == ov.L_O | ov.L_I

    def test_describe(self, setup):
        g, prof, _ = setup
        text = analyze_overlap(prof.baseline).describe()
        assert "L_O=" in text and "L_I=" in text

    def test_tolerances_filter_noise(self, setup):
        g, prof, _ = setup
        strict = analyze_overlap(prof.baseline, rel_tolerance=0.0,
                                 abs_tolerance=0.0)
        loose = analyze_overlap(prof.baseline, rel_tolerance=0.9)
        assert loose.candidates <= strict.candidates


class TestCapacityMargin:
    def test_margin_tightens_feasibility(self, setup, machine):
        """With a margin close to the full capacity, nothing is feasible;
        with zero margin the all-swap plan is."""
        from repro.pooch import PoochConfig, TimelinePredictor
        g, prof, _ = setup
        cls = Classification.all_swap(g)
        loose = TimelinePredictor(g, prof, machine,
                                  PoochConfig(capacity_margin=0))
        tight = TimelinePredictor(g, prof, machine, PoochConfig(
            capacity_margin=machine.usable_gpu_memory // 2))
        assert loose.predict(cls).feasible
        assert not tight.predict(cls).feasible

    def test_margin_plan_survives_reduced_capacity(self, setup, machine):
        """The margin's contract: the chosen plan stays feasible on a machine
        with ``margin`` fewer bytes (free-running execution on the full
        machine may still use the slack — eager prefetch takes what exists)."""
        from dataclasses import replace
        from repro.pooch import PoochClassifier, PoochConfig
        from repro.common.units import MiB
        g, prof, _ = setup
        margin = 32 * MiB
        clf = PoochClassifier(
            g, prof, machine,
            PoochConfig(max_exact_li=3, step1_sim_budget=100,
                        capacity_margin=margin),
        )
        cls, _ = clf.classify()
        reduced = replace(machine,
                          gpu_mem_capacity=machine.gpu_mem_capacity - margin)
        gt = execute(g, cls, reduced)  # must not raise
        assert gt.device_peak <= reduced.usable_gpu_memory
