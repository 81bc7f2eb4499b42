"""FastEngine on a raw draft == Engine on its finalized Schedule.

Both are entry points of the one event loop; what this file holds is the
draft path into it.  ``ScheduleBuilder.build_raw``'s drafts (set-valued
dependencies, ``writers | readers`` free lists, no validation) fed straight
to ``FastEngine`` must replay exactly like the ``Task``/``BufferSpec``
schedule ``finalize`` makes of them on ``Engine`` — same makespan, same
peaks, and the same error type and text for infeasible plans — on
hand-picked toy plans and for every zoo model under seeded duration noise
(``FAULT_SEED`` shifts the interleavings), across the swap-in policies,
forward re-fetch and random mixed plans.  The predictor's lone predictions
and every test that holds a prediction to ground truth rest on this.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.common.errors import ReproError
from repro.common.units import MiB
from repro.faults import FaultInjector, FaultSpec, FaultyDurations
from repro.gpusim import Engine
from repro.gpusim.fastengine import FastEngine
from repro.hw import CostModel, X86_V100, scaled_machine
from repro.models import linear_chain, poster_example, small_cnn
from repro.models.zoo import MODEL_ZOO
from repro.runtime.durations import CostModelDurations
from repro.runtime.plan import Classification, MapClass, SwapInPolicy
from repro.runtime.profiler import run_profiling
from repro.runtime.schedule import ScheduleBuilder, ScheduleOptions
from tests.conftest import tiny_machine

#: CI pins a seed matrix through this env var; locally it defaults to 0
FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


def _outcome(run):
    """(makespan, device peak, host peak), or the error's type and text."""
    try:
        return run()
    except ReproError as e:
        return type(e), str(e)


def assert_draft_matches_schedule(graph, cls, machine, durations, options,
                                  margin=0):
    builder = ScheduleBuilder(graph, cls, durations, options, validate=False)
    tasks, queues, buffers = builder.build_raw()
    capacity = machine.usable_gpu_memory - margin
    host_cap = machine.cpu_mem_capacity
    fast = FastEngine(tasks, queues, buffers, device_capacity=capacity,
                      host_capacity=host_cap)
    full = Engine(builder.finalize(), device_capacity=capacity,
                  host_capacity=host_cap, validate=False)

    def run_full():
        result = full.run()
        return result.makespan, result.device_peak, result.host_peak

    # exact equality — never approx
    assert _outcome(fast.run) == _outcome(run_full)


def _random_classification(graph, rng):
    classes = {}
    for m in graph.classifiable_maps():
        options = [MapClass.SWAP, MapClass.KEEP]
        if graph[m].op.recomputable:
            options.append(MapClass.RECOMPUTE)
        classes[m] = rng.choice(options)
    return Classification(classes)


def assert_equivalent(graph, cls, machine, *, policy=SwapInPolicy.EAGER,
                      gap=None, margin=0):
    """The contract on profiled durations, as the predictor replays them."""
    durations = run_profiling(graph, machine, policy=policy,
                              forward_refetch_gap=gap).durations()
    assert_draft_matches_schedule(
        graph, cls, machine, durations,
        ScheduleOptions(policy=policy, forward_refetch_gap=gap), margin)


class TestEquivalence:
    """Hand-picked plans on the toys: each swap-in policy's triggers and
    reservations, in-core, infeasible (same blame), a capacity margin,
    forward re-fetch, and random mixed plans with and without room."""

    @pytest.mark.parametrize("policy", list(SwapInPolicy))
    def test_poster_all_swap(self, policy):
        g = poster_example()
        assert_equivalent(g, Classification.all_swap(g),
                          tiny_machine(mem_mib=224), policy=policy)

    def test_poster_all_recompute(self):
        g = poster_example()
        assert_equivalent(g, Classification.all_recompute(g),
                          tiny_machine(mem_mib=224))

    def test_in_core_plan(self):
        g = poster_example()
        assert_equivalent(g, Classification.all_keep(g), X86_V100)

    def test_all_keep_oom_matches(self):
        g = poster_example()
        assert_equivalent(g, Classification.all_keep(g),
                          tiny_machine(mem_mib=224))

    def test_capacity_margin(self):
        g = poster_example()
        assert_equivalent(g, Classification.all_swap(g),
                          tiny_machine(mem_mib=224), margin=16 * MiB)

    def test_forward_refetch_gap(self):
        g = linear_chain(6, batch=16, channels=32, image=64)
        assert_equivalent(g, Classification.all_swap(g),
                          tiny_machine(mem_mib=224), gap=2)

    def test_random_mixed_plans(self):
        g = small_cnn()
        machine = tiny_machine(mem_mib=160)
        rng = random.Random(7)
        for _ in range(12):
            assert_equivalent(g, _random_classification(g, rng), machine)

    def test_random_mixed_plans_near_capacity(self):
        g = small_cnn()
        machine = tiny_machine(mem_mib=96)
        rng = random.Random(11)
        for _ in range(12):
            assert_equivalent(g, _random_classification(g, rng), machine)


class TestZooEquivalenceUnderNoise:
    """Every zoo model, at two batch sizes, with seeded duration noise on
    every task: all-swap under each swap-in policy and with forward
    re-fetch, all-recompute, all-keep and a random mixed plan.  On a
    1 GiB V100 about a third of them fail — memory deadlocks and failed
    allocations — so error texts are compared as well as timelines."""

    MACHINE = scaled_machine(X86_V100, mem_scale=1 / 16, name="x86_sixteenth")

    @pytest.mark.parametrize("batch", [2, 8])
    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_zoo_model_equivalence(self, name, batch):
        graph = MODEL_ZOO[name](batch=batch)
        injector = FaultInjector(FaultSpec(duration_noise=0.1),
                                 seed=FAULT_SEED + batch)
        durations = FaultyDurations(
            CostModelDurations(graph, CostModel(self.MACHINE)), injector
        )
        all_swap = Classification.all_swap(graph)
        rng = random.Random(FAULT_SEED * 31 + batch)
        cases = [(all_swap, ScheduleOptions(policy=policy))
                 for policy in SwapInPolicy]
        cases.append((all_swap, ScheduleOptions(forward_refetch_gap=2)))
        cases += [(cls, ScheduleOptions()) for cls in (
            Classification.all_recompute(graph),
            Classification.all_keep(graph),
            _random_classification(graph, rng))]
        for cls, options in cases:
            assert_draft_matches_schedule(graph, cls, self.MACHINE,
                                          durations, options)
