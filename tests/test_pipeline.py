"""The PoocH facade: profile → classify → execute, plan portability."""

import pytest

from repro.models import poster_example
from repro.pooch import PoocH, PoochConfig
from repro.runtime import MapClass, images_per_second
from tests.conftest import tiny_machine


@pytest.fixture(scope="module")
def machine():
    return tiny_machine(mem_mib=224, link_gbps=2.0)


@pytest.fixture(scope="module")
def result(machine):
    return PoocH(machine, PoochConfig(max_exact_li=4, step1_sim_budget=300)).optimize(
        poster_example()
    )


class TestOptimize:
    def test_prediction_equals_ground_truth(self, result):
        gt = result.execute()
        assert gt.makespan == pytest.approx(result.predicted.time, rel=1e-9)

    def test_beats_all_swap_baseline(self, result):
        assert result.predicted.time < result.stats.time_all_swap

    def test_classification_covers_graph(self, result):
        assert sum(result.classification.counts().values()) == len(
            result.graph.classifiable_maps()
        )

    def test_summary_text(self, result):
        s = result.summary()
        assert "PoocH plan" in s and "predicted iteration time" in s

    def test_profile_reused_when_given(self, machine):
        g = poster_example()
        p = PoocH(machine, PoochConfig(max_exact_li=3, step1_sim_budget=100))
        first = p.optimize(g)
        second = p.optimize(g, profile=first.profile)
        assert second.profile is first.profile


class TestPlanPortability:
    def test_foreign_plan_runs_but_differs(self, machine):
        """A plan optimized for a fast link, executed on the slow machine —
        the paper's Fig. 17 cross-machine line."""
        fast = tiny_machine(mem_mib=224, link_gbps=200.0, name="tiny-fast")
        g = poster_example()
        cfg = PoochConfig(max_exact_li=4, step1_sim_budget=300)
        native = PoocH(machine, cfg).optimize(g)
        foreign = PoocH(fast, cfg).optimize(g)
        native_time = native.execute(machine).makespan
        foreign_time = foreign.execute(machine).makespan
        # the native plan is at least as good on its own machine
        assert native_time <= foreign_time + 1e-12


class TestExplain:
    def test_explain_table(self, result):
        text = result.explain()
        assert "plan rationale" in text
        assert "r(X)" in text
        # one row per classifiable map (+3 header lines)
        n_maps = len(result.graph.classifiable_maps())
        assert len(text.splitlines()) == n_maps + 3

    def test_explain_top_limits_rows(self, result):
        text = result.explain(top=3)
        assert len(text.splitlines()) == 3 + 3

    def test_r_values_recorded_for_step2_pool(self, result):
        from repro.runtime import MapClass
        # every map flipped to recompute was evaluated in round 1
        for m in result.stats.flips_to_recompute[:1]:
            assert m in result.stats.r_values
