"""Baseline planners: classification shapes and execution behaviour."""

import pytest

from repro.baselines import (
    plan_incore,
    plan_recompute_all,
    plan_superneurons,
    plan_swap_all,
    plan_swap_all_unscheduled,
    plan_swap_opt,
    plan_vdnn,
)
from repro.common.errors import OutOfMemoryError
from repro.graph.ops import OpKind
from repro.hw import POWER9_V100, X86_V100
from repro.models import densenet121, poster_example, small_cnn
from repro.pooch.config import PoochConfig
from repro.runtime import MapClass, SwapInPolicy, execute
from tests.conftest import tiny_machine


@pytest.fixture
def g():
    return small_cnn(with_residual=True)


class TestSimplePlans:
    def test_incore_all_keep(self, g):
        plan = plan_incore(g)
        assert all(c is MapClass.KEEP for c in plan.classification.classes.values())

    def test_swap_all_policies(self, g):
        assert plan_swap_all(g).options.policy is SwapInPolicy.EAGER
        assert plan_swap_all_unscheduled(g).options.policy is SwapInPolicy.NAIVE

    def test_recompute_all_swaps_ineligible(self, g):
        plan = plan_recompute_all(g)
        assert plan.classification.of(0) is MapClass.SWAP  # INPUT

    def test_vdnn_swaps_conv_inputs(self, g):
        plan = plan_vdnn(g)
        cls = plan.classification
        for i in g.classifiable_maps():
            feeds_conv = any(g[k].op.kind is OpKind.CONV for k in g.consumers[i])
            expected = MapClass.SWAP if feeds_conv else MapClass.KEEP
            assert cls.of(i) is expected


class TestSuperNeurons:
    def test_machine_independent(self):
        """Table 3: superneurons produces the same classification on both
        machines (its decision ignores measured times)."""
        from repro.models import resnet50
        g = resnet50(256)
        a = plan_superneurons(g, X86_V100).classification
        b = plan_superneurons(g, POWER9_V100).classification
        assert a.key() == b.key()

    def test_keeps_from_output_layer(self, g):
        m = tiny_machine(mem_mib=224)
        cls = plan_superneurons(g, m).classification
        keeps = cls.maps_of(MapClass.KEEP)
        if keeps:
            # kept maps are a suffix of the classifiable maps by index,
            # modulo size-fitting skips: the largest kept index is the last
            # classifiable map
            assert max(keeps) == max(g.classifiable_maps())

    def test_non_kept_split_by_type(self):
        from repro.models import resnet50
        g = resnet50(384)
        cls = plan_superneurons(g, X86_V100).classification
        cheap = {OpKind.BATCHNORM, OpKind.RELU, OpKind.POOL_MAX,
                 OpKind.POOL_AVG, OpKind.GLOBAL_AVG_POOL, OpKind.LRN}
        for i, c in cls.classes.items():
            if c is MapClass.RECOMPUTE:
                assert g[i].op.kind in cheap
            elif c is MapClass.SWAP:
                assert g[i].op.kind not in cheap or not g[i].op.recomputable

    def test_policy_is_superneurons(self, g):
        assert plan_superneurons(g, X86_V100).options.policy is SwapInPolicy.SUPERNEURONS

    def test_everything_kept_when_memory_ample(self, g):
        cls = plan_superneurons(g, X86_V100).classification
        assert cls.counts()[MapClass.KEEP] == len(g.classifiable_maps())


class TestSwapOpt:
    def test_no_recompute(self):
        m = tiny_machine(mem_mib=224, link_gbps=2.0)
        g = poster_example()
        plan = plan_swap_opt(g, m)
        assert plan.classification.counts()[MapClass.RECOMPUTE] == 0

    def test_runs_and_beats_swap_all(self):
        m = tiny_machine(mem_mib=224, link_gbps=2.0)
        g = poster_example()
        opt = plan_swap_opt(g, m).execute(g, m)
        base = plan_swap_all(g).execute(g, m)
        assert opt.makespan <= base.makespan

    def test_executes_under_the_config_schedule(self):
        # the plan was chosen under the re-fetch gap, so it must run with it
        m = tiny_machine(mem_mib=224, link_gbps=2.0)
        g = densenet121(batch=2)
        cfg = PoochConfig(forward_refetch_gap=2, step1_sim_budget=100)
        plan = plan_swap_opt(g, m, config=cfg)
        want = execute(g, plan.classification, m, options=cfg.options)
        assert plan.execute(g, m).makespan == want.makespan
        assert plan.options == cfg.options


class TestExecution:
    def test_incore_fails_oom_on_small_machine(self):
        g = poster_example()
        m = tiny_machine(mem_mib=224)
        with pytest.raises(OutOfMemoryError):
            plan_incore(g).execute(g, m)

    def test_swap_all_succeeds_on_small_machine(self):
        g = poster_example()
        m = tiny_machine(mem_mib=224)
        r = plan_swap_all(g).execute(g, m)
        assert r.makespan > 0


class TestCheckpointing:
    def test_sqrt_n_keep_count(self):
        from repro.baselines import plan_checkpoint
        from repro.models import resnet50
        import math
        g = resnet50(64)
        cls = plan_checkpoint(g, X86_V100).classification
        n = len(g.classifiable_maps())
        keeps = cls.counts()[MapClass.KEEP]
        # keeps ~ n/sqrt(n) + joins; far below n
        assert keeps < n / 2
        assert keeps >= n // (math.isqrt(n) + 1)

    def test_joins_are_checkpoints(self):
        from repro.baselines import plan_checkpoint
        from repro.graph.ops import OpKind
        from repro.models import resnet50
        g = resnet50(64)
        cls = plan_checkpoint(g, X86_V100).classification
        for i in g.classifiable_maps():
            if g[i].op.kind is OpKind.ADD:
                assert cls.of(i) is MapClass.KEEP

    def test_no_swaps(self):
        from repro.baselines import plan_checkpoint
        g = poster_example()
        cls = plan_checkpoint(g).classification
        assert cls.counts()[MapClass.SWAP] == 0

    def test_uses_less_memory_than_incore(self):
        from repro.baselines import plan_checkpoint, plan_incore
        from repro.models import resnet18
        g = resnet18(8)
        ck = plan_checkpoint(g, X86_V100).execute(g, X86_V100)
        ic = plan_incore(g).execute(g, X86_V100)
        assert ck.device_peak < ic.device_peak
        assert ck.makespan > ic.makespan  # pays recompute time

    def test_explicit_segment_length(self):
        from repro.baselines import plan_checkpoint
        g = poster_example()
        short = plan_checkpoint(g, segment_length=2).classification
        long = plan_checkpoint(g, segment_length=6).classification
        assert short.counts()[MapClass.KEEP] > long.counts()[MapClass.KEEP]
