"""Experiment drivers: memory curves, sweeps, ablations, caching."""

import pytest

from repro.experiments import (
    ablation_rows,
    classification_table,
    clear_cache,
    memory_curve,
    optimize_cached,
    performance_sweep,
    profile_cached,
    resnet50_memory_curve,
    resnext3d_memory_curve,
)
from repro.baselines import plan_swap_opt
from repro.models import poster_example, resnet18
from repro.pooch import PoocH, PoochConfig
from repro.runtime.profiler import run_profiling
from tests.conftest import tiny_machine

CFG = PoochConfig(max_exact_li=3, step1_sim_budget=120)


@pytest.fixture(autouse=True)
def isolated_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture(scope="module")
def machine():
    return tiny_machine(mem_mib=224, link_gbps=2.0)


class TestMemoryCurves:
    def test_resnet50_curve_estimates_only(self):
        rows = resnet50_memory_curve(batches=(32, 64, 640), measure=False)
        assert [r.label for r in rows] == ["batch=32", "batch=64", "batch=640"]
        assert rows[0].estimate_bytes < rows[1].estimate_bytes
        assert rows[2].estimate_gib > 45
        assert rows[0].fits_16gb and not rows[2].fits_16gb

    def test_resnext3d_curve(self):
        rows = resnext3d_memory_curve(
            sizes=((16, 112, 112), (96, 512, 512)), measure=False
        )
        assert rows[0].fits_16gb and not rows[1].fits_16gb

    def test_measured_peak_when_it_fits(self, machine):
        rows = memory_curve([("p", poster_example)], machine=machine)
        # poster_example needs ~320 MiB, machine has 216 usable -> OOM
        assert rows[0].measured_peak is None

    def test_measured_peak_close_to_estimate(self):
        from repro.hw import X86_V100
        rows = memory_curve([("p", poster_example)], machine=X86_V100)
        assert rows[0].measured_peak is not None
        assert rows[0].measured_peak == pytest.approx(
            rows[0].estimate_bytes, rel=0.35
        )


class TestSweep:
    def test_methods_and_failures(self, machine):
        sizes = [("b64", 64, poster_example)]
        rows = performance_sweep("poster", sizes, machine,
                                 methods=("in-core", "superneurons", "pooch"),
                                 config=CFG)
        by_method = {r.method: r for r in rows}
        assert not by_method["in-core"].ok  # too big for the tiny machine
        assert by_method["in-core"].failure
        assert by_method["pooch"].ok
        assert by_method["pooch"].images_per_second > 0

    def test_cross_machine_line(self, machine):
        other = tiny_machine(mem_mib=224, link_gbps=200.0, name="other")
        rows = performance_sweep("poster", [("b64", 64, poster_example)],
                                 machine, methods=("pooch",), config=CFG,
                                 cross_machine=other)
        methods = {r.method for r in rows}
        assert "pooch[other-plan]" in methods

    def test_unknown_method(self, machine):
        with pytest.raises(ValueError):
            performance_sweep("poster", [("b", 1, poster_example)], machine,
                              methods=("magic",))


class TestAblation:
    def test_four_rows_ordered(self, machine):
        rows = ablation_rows("poster", poster_example, 64, machine, CFG)
        assert [r.method for r in rows] == [
            "swap-all(w/o scheduling)", "swap-all", "swap-opt", "pooch",
        ]
        base = rows[0]
        assert base.speedup == pytest.approx(1.0)
        # cumulative optimizations never hurt (allow tiny scheduling noise)
        ok_rows = [r for r in rows if r.images_per_second is not None]
        assert ok_rows[-1].images_per_second >= ok_rows[0].images_per_second


class TestTable3Driver:
    def test_rows_per_method_and_machine(self, machine):
        other = tiny_machine(mem_mib=224, link_gbps=200.0, name="other")
        rows = classification_table("poster", poster_example,
                                    (machine, other), CFG)
        assert len(rows) == 4
        sn = [r for r in rows if r.method == "superneurons"]
        assert sn[0].keep == sn[1].keep
        assert sn[0].swap == sn[1].swap


class TestCache:
    def test_optimize_cached_reuses(self, machine):
        a = optimize_cached("poster", poster_example, machine, CFG)
        b = optimize_cached("poster", poster_example, machine, CFG)
        assert a is b

    def test_different_machine_not_shared(self, machine):
        other = tiny_machine(mem_mib=224, link_gbps=200.0, name="other")
        a = optimize_cached("poster", poster_example, machine, CFG)
        b = optimize_cached("poster", poster_example, other, CFG)
        assert a is not b

    def test_configs_differing_only_in_margin_not_shared(self, machine):
        # the capacity margin can change the plan, so it is part of the key
        margin = PoochConfig(max_exact_li=3, step1_sim_budget=120,
                             capacity_margin=1 << 20)
        a = optimize_cached("poster", poster_example, machine, CFG)
        b = optimize_cached("poster", poster_example, machine, margin)
        assert a is not b
        assert b.config.capacity_margin == 1 << 20

    def test_profiles_under_the_config_schedule(self, machine):
        # a forward re-fetch gap changes the profiled schedule, so the
        # cached search must plan from the profile PoocH itself would take
        cfg = PoochConfig(forward_refetch_gap=2, step1_sim_budget=200)
        graph = resnet18(batch=4)
        got = optimize_cached("resnet18-b4", lambda: resnet18(batch=4),
                              machine, cfg)
        want = PoocH(machine, cfg).optimize(graph)
        assert got.classification == want.classification
        assert got.predicted == want.predicted
        _, profile = profile_cached("resnet18-b4", lambda: resnet18(batch=4),
                                    machine)
        assert profile is not got.profile  # the EAGER profile, keyed apart

    def test_swap_opt_profiles_under_the_config_schedule(self, machine):
        cfg = PoochConfig(forward_refetch_gap=2, step1_sim_budget=200)
        graph = resnet18(batch=4)
        profile = run_profiling(graph, machine, options=cfg.options)
        want = plan_swap_opt(graph, machine, profile=profile, config=cfg)
        got = plan_swap_opt(graph, machine, config=cfg)
        assert got.classification == want.classification

    def test_clear(self, machine):
        a = optimize_cached("poster", poster_example, machine, CFG)
        clear_cache()
        b = optimize_cached("poster", poster_example, machine, CFG)
        assert a is not b


class TestAblationRowOk:
    def test_ok_property(self):
        from repro.experiments.ablation import AblationRow
        assert AblationRow("m", "x", 1.0, 1.0).ok
        assert not AblationRow("m", "x", None, None, "boom").ok
