"""The two-step classification search (§4.4)."""

import re

import pytest

from repro.common.errors import OutOfMemoryError
from repro.common.units import MiB
from repro.models import linear_chain, poster_example
from repro.pooch import PoochClassifier, PoochConfig, TimelinePredictor
from repro.runtime import (
    Classification,
    MapClass,
    SwapInPolicy,
    execute,
    run_profiling,
)
from tests.conftest import tiny_machine


def classify(graph, machine, steps=2, config=None):
    profile = run_profiling(graph, machine)
    clf = PoochClassifier(graph, profile, machine,
                          config or PoochConfig(max_exact_li=4,
                                                step1_sim_budget=300))
    return clf.classify(steps=steps)


@pytest.fixture(scope="module")
def slow():
    return tiny_machine(mem_mib=224, link_gbps=2.0, name="tiny-slow")


@pytest.fixture(scope="module")
def fast():
    return tiny_machine(mem_mib=224, link_gbps=200.0, name="tiny-fast")


class TestStep1:
    def test_never_slower_than_all_swap(self, slow):
        g = poster_example()
        cls, stats = classify(g, slow, steps=1)
        assert stats.time_after_step1 <= stats.time_all_swap

    def test_result_is_feasible(self, slow):
        g = poster_example()
        cls, _ = classify(g, slow, steps=1)
        execute(g, cls, slow)  # must not raise

    def test_keeps_reduce_time_under_slow_link(self, slow):
        g = poster_example()
        cls, stats = classify(g, slow, steps=1)
        assert cls.counts()[MapClass.KEEP] > 0
        assert stats.time_after_step1 < stats.time_all_swap

    def test_no_recompute_after_step1(self, slow):
        g = poster_example()
        cls, _ = classify(g, slow, steps=1)
        assert cls.counts()[MapClass.RECOMPUTE] == 0

    def test_stats_populated(self, slow):
        g = poster_example()
        _, stats = classify(g, slow, steps=1)
        assert stats.overlap is not None
        assert stats.sims_step1 > 0

    def test_budget_respected(self, slow):
        g = poster_example()
        cfg = PoochConfig(max_exact_li=6, step1_sim_budget=10)
        _, stats = classify(g, slow, steps=1, config=cfg)
        # small slack: the budget is checked between simulations
        assert stats.sims_step1 <= 10 + 3

    def test_impossible_network_raises(self):
        # machine too small for even the all-swap working set: the failure
        # surfaces during the profiling iterations, before any search runs
        m = tiny_machine(mem_mib=64)
        g = poster_example()
        with pytest.raises(OutOfMemoryError):
            classify(g, m, steps=1)


class TestStep2:
    def test_full_not_slower_than_step1(self, slow):
        g = poster_example()
        _, stats1 = classify(g, slow, steps=1)
        _, stats2 = classify(g, slow, steps=2)
        assert stats2.time_after_step2 <= stats1.time_after_step1 + 1e-12

    def test_flips_recorded(self, slow):
        g = linear_chain(8, batch=32, channels=32, image=32)
        cls, stats = classify(g, slow)
        assert len(stats.flips_to_recompute) == cls.counts()[MapClass.RECOMPUTE]

    def test_result_feasible_and_matches_prediction(self, slow):
        g = poster_example()
        profile = run_profiling(g, slow)
        pred = TimelinePredictor(g, profile, slow)
        clf = PoochClassifier(g, profile, slow,
                              PoochConfig(max_exact_li=4, step1_sim_budget=300),
                              predictor=pred)
        cls, stats = clf.classify()
        gt = execute(g, cls, slow)
        assert gt.makespan == pytest.approx(stats.time_after_step2, rel=1e-9)

    def test_input_and_dropout_never_recompute(self, slow):
        g = poster_example()
        cls, _ = classify(g, slow)
        for i, c in cls.classes.items():
            if not g[i].op.recomputable:
                assert c is not MapClass.RECOMPUTE


class TestMachineSensitivity:
    def test_slow_link_prefers_recompute(self, slow, fast):
        """The paper's Table 3 effect: the slower the interconnect, the more
        maps flip from swap to recompute."""
        g = linear_chain(10, batch=32, channels=32, image=32)
        cls_slow, _ = classify(g, slow)
        cls_fast, _ = classify(g, fast)
        n_slow = cls_slow.counts()[MapClass.RECOMPUTE]
        n_fast = cls_fast.counts()[MapClass.RECOMPUTE]
        assert n_slow >= n_fast

    def test_fast_link_time_closer_to_ideal(self, slow, fast):
        g = poster_example()
        _, stats_slow = classify(g, slow)
        _, stats_fast = classify(g, fast)
        # overhead that classification must remove is smaller on fast links
        slow_gain = stats_slow.time_all_swap / stats_slow.time_after_step2
        fast_gain = stats_fast.time_all_swap / stats_fast.time_after_step2
        assert slow_gain >= fast_gain * 0.9


class TestConfig:
    def test_signature_reflects_search_knobs(self):
        assert (PoochConfig(step1_sim_budget=100).signature()
                != PoochConfig(step1_sim_budget=200).signature())
        assert (PoochConfig(capacity_margin=1).signature()
                != PoochConfig().signature())

    @pytest.mark.parametrize("field,value,error", [
        ("step1_sim_budget", 0, ValueError),
        ("step1_sim_budget", "x", TypeError),
        ("step1_sim_budget", True, TypeError),
        ("step1_sim_budget", 2.5, TypeError),
        ("max_exact_li", -1, ValueError),
        ("max_exact_li", False, TypeError),
        ("capacity_margin", -5, ValueError),
        ("capacity_margin", "1", TypeError),
        # a string policy used to fail later, in signature() or options
        ("policy", "eager", TypeError),
        # True planned like 1 under another cache signature; -3 like 0
        ("forward_refetch_gap", True, TypeError),
        ("forward_refetch_gap", 1.5, TypeError),
        ("forward_refetch_gap", -3, ValueError),
    ])
    def test_bad_values_rejected_by_name(self, field, value, error):
        with pytest.raises(error, match=f"{field}.*got {re.escape(repr(value))}"):
            PoochConfig(**{field: value})

    def test_zero_margin_and_exact_width_accepted(self):
        cfg = PoochConfig(max_exact_li=0, capacity_margin=0,
                          forward_refetch_gap=0)
        assert cfg.max_exact_li == 0
        assert cfg.options.forward_refetch_gap == 0


class TestConfigPredictorAgreement:
    """A classifier prunes by its config and simulates by its predictor's:
    the two must agree on every simulation setting."""

    @pytest.mark.parametrize("field,value", [
        ("policy", SwapInPolicy.NAIVE),
        ("capacity_margin", 4 * MiB),
        ("forward_refetch_gap", 3),
    ])
    def test_disagreeing_predictor_rejected(self, slow, field, value):
        g = poster_example()
        profile = run_profiling(g, slow)
        pred = TimelinePredictor(g, profile, slow)
        default = getattr(PoochConfig(), field)
        with pytest.raises(ValueError) as err:
            PoochClassifier(g, profile, slow, PoochConfig(**{field: value}),
                            predictor=pred)
        # names the field and both values
        assert f"{field}={value!r}" in str(err.value)
        assert f"{field}={default!r}" in str(err.value)

    def test_predictor_from_the_config_accepted(self, slow):
        g = poster_example()
        profile = run_profiling(g, slow)
        config = PoochConfig(capacity_margin=4 * MiB, max_exact_li=4,
                             step1_sim_budget=300)
        pred = TimelinePredictor(g, profile, slow, config)
        # the search-only knobs (max_exact_li, budget) may differ
        clf = PoochClassifier(g, profile, slow,
                              PoochConfig(capacity_margin=4 * MiB),
                              predictor=pred)
        assert clf.predictor.capacity == (slow.usable_gpu_memory - 4 * MiB)
