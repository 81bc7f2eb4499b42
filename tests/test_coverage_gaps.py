"""Edge cases not covered elsewhere: engine prealloc gating, builder
interactions, zoo completeness, misc error paths."""

import pytest

from repro.common.errors import GraphError, OutOfMemoryError
from repro.gpusim import (
    BufferSpec,
    Engine,
    Schedule,
    StreamName,
    Task,
)
from repro.hw import CostModel, X86_V100
from repro.models import build_model, linear_chain
from repro.runtime import (
    Classification,
    CostModelDurations,
    MapClass,
    ScheduleOptions,
    SwapInPolicy,
    build_schedule,
)
from tests.test_engine import make_schedule, task


class TestEnginePreallocGated:
    def test_gated_prealloc_waits_for_room(self):
        """A *gated* alloc-on-ready task defers its reservation when memory
        is tight and reserves once frees happen."""
        bufs = [
            # occupied from before t=0, released when a completes
            BufferSpec("x", 768, alloc_by=None, free_after=frozenset({"a"})),
            BufferSpec("y", 768, alloc_by="b", free_after=frozenset({"b"})),
        ]
        sched = make_schedule(
            [task("a", StreamName.COMPUTE, 2.0),
             task("blocker", StreamName.H2D, 3.0),
             task("b", StreamName.H2D, 1.0, alloc_on_ready=True)],
            bufs,
        )
        eng = Engine(sched, 1024)
        eng.run()  # must not raise: reservation waits for a's free
        mallocs = [e for e in eng.device.trace if e.buffer == "y"]
        assert mallocs[0].time == pytest.approx(2.0)

    def test_prealloc_skipped_if_task_already_started(self):
        # alloc_on_ready with no start_deps: issue path allocates normally
        bufs = [BufferSpec("y", 256, alloc_by="b", free_after=frozenset({"b"}))]
        sched = make_schedule([task("b", StreamName.H2D, 1.0,
                                    alloc_on_ready=True)], bufs)
        r = Engine(sched, 1024).run()
        assert r.makespan == 1.0


class TestBuilderInteractions:
    def test_naive_policy_with_refetch(self):
        """Forward re-fetch swap-ins get naive triggers too, without
        deadlock."""
        from tests.test_forward_refetch import skip_net
        g = skip_net(batch=4, channels=8, image=16, middle=5)
        dur = CostModelDurations(g, CostModel(X86_V100))
        sched = build_schedule(
            g, Classification.all_swap(g), dur,
            ScheduleOptions(policy=SwapInPolicy.NAIVE, forward_refetch_gap=2),
        )
        refetches = [t for t in sched.tasks.values()
                     if "~f" in t.tid]
        assert refetches and all(t.start_deps for t in refetches)
        Engine(sched, X86_V100.usable_gpu_memory).run()

    def test_refetch_multiple_segments(self):
        """A map with three widely separated forward consumers gets two
        re-fetches."""
        from repro.graph import GraphBuilder
        b = GraphBuilder("multi_skip")
        x = b.input((4, 8, 16, 16))
        stem = b.conv(x, 8, ksize=3, pad=1, name="stem")
        h = stem
        for i in range(4):
            h = b.conv(h, 8, ksize=3, pad=1, name=f"m1_{i}")
        h = b.add([stem, h], name="join1")
        for i in range(4):
            h = b.conv(h, 8, ksize=3, pad=1, name=f"m2_{i}")
        h = b.concat([stem, h], name="join2")
        b.loss(b.linear(b.global_avg_pool(h), 3))
        g = b.build()
        dur = CostModelDurations(g, CostModel(X86_V100))
        sched = build_schedule(g, Classification.all_swap(g), dur,
                               ScheduleOptions(forward_refetch_gap=2))
        stem_idx = g.by_name("stem").index
        assert f"SI{stem_idx}~f1" in sched.tasks
        assert f"SI{stem_idx}~f2" in sched.tasks
        Engine(sched, X86_V100.usable_gpu_memory).run()


class TestZooCompleteness:
    @pytest.mark.parametrize("name", ["unet", "densenet121"])
    def test_new_models_in_zoo(self, name):
        g = build_model(name, batch=1)
        g.validate()

    def test_all_zoo_models_schedule_in_core(self):
        from repro.models import MODEL_ZOO
        for name in MODEL_ZOO:
            g = build_model(name, batch=1)
            # building an in-core schedule exercises liveness for every op mix
            dur = CostModelDurations(g, CostModel(X86_V100))
            sched = build_schedule(g, Classification.all_keep(g), dur)
            sched.validate()


class TestDynamicStats:
    def test_totals(self):
        from repro.pooch.dynamic import DynamicStats
        s = DynamicStats(iteration_times=[1.0, 2.0])
        assert s.total_time == 3.0


class TestCalibrationIntegration:
    def test_calibrated_pooch_run(self):
        """End-to-end: calibrate to the paper's 316 img/s anchor, then run a
        PoocH optimization with the calibrated model."""
        from repro.hw.calibration import calibrate
        from repro.models import resnet50
        from repro.pooch import PoocH, PoochConfig
        from repro.runtime import images_per_second
        res = calibrate(resnet50(64), X86_V100, 64, target_ips=316.0,
                        tolerance=0.02)
        g = resnet50(256)
        result = PoocH(X86_V100, PoochConfig(max_exact_li=3,
                                             step1_sim_budget=120),
                       cost_model=res.cost_model).optimize(g)
        gt = result.execute(cost_model=res.cost_model)
        ips = images_per_second(gt, 256)
        # out-of-core throughput bounded by the calibrated in-core anchor
        assert 0.4 * 316 < ips <= 316 * 1.35


class TestMissingKeyDiagnostics:
    def test_nearest_keys_numeric_distance(self):
        from repro.common.errors import nearest_keys

        near = nearest_keys(7, {1: "a", 6: "b", 8: "c", 100: "d"}, limit=2)
        assert set(near) == {6, 8}

    def test_nearest_keys_string_similarity(self):
        from repro.common.errors import nearest_keys

        near = nearest_keys("fwd_3", ["fwd_1", "bwd_9", "update"])
        assert "fwd_1" in near

    def test_nearest_keys_empty_table(self):
        from repro.common.errors import nearest_keys

        assert nearest_keys(5, {}) == ()

    def test_missing_key_error_message_not_requoted(self):
        from repro.common.errors import MissingKeyError

        err = MissingKeyError("table has no key 3", key=3, table="t",
                              nearest=(2, 4))
        assert str(err) == "table has no key 3"
        assert isinstance(err, KeyError)
