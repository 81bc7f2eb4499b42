"""Randomized branchy-graph fuzzing through the whole pipeline.

Generates small random DAGs (conv/BN/pool chains with residual adds between
equal-shape points and optional concat joins), random classifications and
policies, then checks the invariants that hold for *any* graph:

* the schedule builder output validates and executes,
* the predictor agrees exactly with ground truth,
* the numeric backend produces bit-identical gradients to in-core,
* the lockstep vector engine replays the draft bit-identically to both
  event engines (makespan, per-task times, high-water marks, OOM blame),
* step 2's one- and two-flip patches of a plan's own draft equal fresh
  builds and leave that draft untouched.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import OutOfMemoryError
from repro.graph import GraphBuilder
from repro.hw import X86_V100
from repro.pooch import PoochConfig, TimelinePredictor
from repro.runtime import (
    Classification,
    MapClass,
    SwapInPolicy,
    execute,
    run_profiling,
)
from repro.runtime.numeric import verify_against_incore
from tests.conftest import tiny_machine


def build_random_graph(layer_picks: list[int], branch_picks: list[int]):
    """A deterministic function of the draw: chain of ops with optional
    residual adds back to earlier equal-shape layers."""
    b = GraphBuilder("fuzz")
    x = b.input((2, 4, 8, 8))
    h = b.conv(x, 4, ksize=3, pad=1, bias=False)  # normalise channel count
    same_shape: list[int] = [h]  # handles with shape (2,4,8,8)
    for n, pick in enumerate(layer_picks):
        kind = pick % 5
        if kind == 0:
            h = b.conv(h, 4, ksize=3, pad=1, bias=False, name=f"c{n}")
        elif kind == 1:
            h = b.batchnorm(h, activation="relu", name=f"b{n}")
        elif kind == 2:
            h = b.relu(h, name=f"r{n}")
        elif kind == 3:
            h = b.conv(h, 4, ksize=1, activation="relu", name=f"k{n}")
        else:
            # residual add back to a random earlier same-shape point
            if same_shape:
                partner = same_shape[branch_picks[n % len(branch_picks)]
                                     % len(same_shape)]
                if partner != h:
                    h = b.add([h, partner], name=f"a{n}")
        if b.spec(h).shape == (2, 4, 8, 8):
            same_shape.append(h)
    h = b.global_avg_pool(h)
    b.loss(b.linear(h, 3))
    return b.build()


def random_classification(graph, class_picks: list[int]) -> Classification:
    maps = sorted(Classification.all_swap(graph).classes)
    classes = {}
    for m, pick in zip(maps, class_picks * (len(maps) // len(class_picks) + 1)):
        options = [MapClass.SWAP, MapClass.KEEP]
        if graph[m].op.recomputable:
            options.append(MapClass.RECOMPUTE)
        classes[m] = options[pick % len(options)]
    return Classification(classes)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.integers(0, 4), min_size=4, max_size=12),
    st.lists(st.integers(0, 7), min_size=4, max_size=4),
    st.lists(st.integers(0, 2), min_size=6, max_size=6),
    st.sampled_from(list(SwapInPolicy)),
)
def test_random_graph_executes_and_predicts(layer_picks, branch_picks,
                                            class_picks, policy):
    graph = build_random_graph(layer_picks, branch_picks)
    cls = random_classification(graph, class_picks)
    machine = tiny_machine(mem_mib=64, link_gbps=4.0)
    config = PoochConfig(policy=policy)
    try:
        gt = execute(graph, cls, machine, options=config.options)
    except OutOfMemoryError:
        gt = None
    profile = run_profiling(graph, machine, options=config.options)
    predictor = TimelinePredictor(graph, profile, machine, config)
    outcome = predictor.predict(cls)
    if gt is None:
        assert not outcome.feasible
    else:
        assert outcome.feasible
        assert outcome.time == pytest.approx(gt.makespan, rel=1e-12)
        assert outcome.peak_memory == gt.device_peak


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.integers(0, 4), min_size=4, max_size=8),
    st.lists(st.integers(0, 7), min_size=4, max_size=4),
    st.lists(st.integers(0, 2), min_size=6, max_size=6),
)
def test_random_graph_gradients_bit_identical(layer_picks, branch_picks,
                                              class_picks):
    graph = build_random_graph(layer_picks, branch_picks)
    cls = random_classification(graph, class_picks)
    verify_against_incore(graph, cls, X86_V100)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.integers(0, 4), min_size=4, max_size=12),
    st.lists(st.integers(0, 7), min_size=4, max_size=4),
    st.lists(st.integers(0, 2), min_size=6, max_size=6),
    st.integers(0, 2),
)
def test_random_graph_vector_engine_bit_identical(layer_picks, branch_picks,
                                                  class_picks, mem_pick):
    """Engine differential on random DAGs: the lockstep replay must match
    Engine exactly, including the OOM branch (``mem_pick`` shrinks the
    pool to push some draws out of core)."""
    from tests.test_vecengine import assert_matches_engine

    graph = build_random_graph(layer_picks, branch_picks)
    cls = random_classification(graph, class_picks)
    machine = tiny_machine(mem_mib=(64, 24, 12)[mem_pick], link_gbps=4.0)
    assert_matches_engine(graph, cls, machine)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.integers(0, 4), min_size=4, max_size=12),
    st.lists(st.integers(0, 7), min_size=4, max_size=4),
    st.lists(st.integers(0, 2), min_size=6, max_size=6),
    st.integers(0, 2**16),
)
def test_random_graph_plan_patches_equal_fresh_builds(layer_picks,
                                                      branch_picks,
                                                      class_picks, seed):
    """Step 2's draft patches on random DAGs, whose residual adds give
    recompute chains unclassified inputs to regenerate: every sampled one-
    and two-flip patch of the plan's own draft equals the fresh build."""
    from tests.test_step2_incremental import check_plan_patches

    graph = build_random_graph(layer_picks, branch_picks)
    cls = random_classification(graph, class_picks)
    if not cls.maps_of(MapClass.SWAP):
        return
    durations = run_profiling(
        graph, tiny_machine(mem_mib=64, link_gbps=4.0)).durations()
    check_plan_patches(graph, durations, cls, random.Random(seed))
