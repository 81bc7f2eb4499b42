"""Property-based tests over the core invariants.

The headline property mirrors the paper's architecture: for *any*
classification, PoocH's profile-driven timeline prediction must agree exactly
with ground-truth execution (same feasibility; identical makespan and peak
when feasible) as long as profiling is noise-free.  The whole classification
search is only sound because of this invariant.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import OutOfMemoryError
from repro.gpusim import StreamName, TaskKind
from repro.models import linear_chain, poster_example
from repro.pooch import TimelinePredictor
from repro.runtime import (
    Classification,
    MapClass,
    SwapInPolicy,
    execute,
    run_profiling,
)
from repro.runtime.schedule import ScheduleOptions
from tests.conftest import tiny_machine

# module-level fixtures computed once (hypothesis re-runs the test body)
_MACHINE = tiny_machine(mem_mib=224, link_gbps=3.0)
_GRAPH = poster_example()
_PROFILE = run_profiling(_GRAPH, _MACHINE)
_PREDICTOR = TimelinePredictor(_GRAPH, _PROFILE, _MACHINE)
_MAPS = sorted(Classification.all_swap(_GRAPH).classes)


def _classification(draw_classes: list[int]) -> Classification:
    classes = {}
    for m, pick in zip(_MAPS, draw_classes):
        options = [MapClass.SWAP, MapClass.KEEP]
        if _GRAPH[m].op.recomputable:
            options.append(MapClass.RECOMPUTE)
        classes[m] = options[pick % len(options)]
    return Classification(classes)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(min_value=0, max_value=2),
                min_size=len(_MAPS), max_size=len(_MAPS)))
def test_predictor_agrees_with_ground_truth(picks):
    cls = _classification(picks)
    outcome = _PREDICTOR.predict(cls)
    try:
        gt = execute(_GRAPH, cls, _MACHINE)
    except OutOfMemoryError:
        assert not outcome.feasible
        return
    assert outcome.feasible
    assert outcome.time == pytest.approx(gt.makespan, rel=1e-12)
    assert outcome.peak_memory == gt.device_peak


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.integers(min_value=0, max_value=2),
             min_size=len(_MAPS), max_size=len(_MAPS)),
    st.sampled_from(list(SwapInPolicy)),
)
def test_execution_invariants_for_any_plan(picks, policy):
    """Feasible runs respect capacity, keep streams serial, and execute every
    task exactly once."""
    cls = _classification(picks)
    try:
        r = execute(_GRAPH, cls, _MACHINE,
                    options=ScheduleOptions(policy=policy))
    except OutOfMemoryError:
        return
    assert r.device_peak <= _MACHINE.usable_gpu_memory
    # every forward and backward task ran exactly once
    fwd_layers = [x.layer for x in r.records_by_kind(TaskKind.FWD)]
    assert sorted(fwd_layers) == list(range(len(_GRAPH)))
    bwd_layers = [x.layer for x in r.records_by_kind(TaskKind.BWD)]
    assert len(bwd_layers) == len(set(bwd_layers))
    # streams are serial: records on one stream never overlap
    for stream in StreamName:
        recs = sorted(
            (x for x in r.records if x.stream is stream),
            key=lambda x: x.start,
        )
        for a, b in zip(recs, recs[1:]):
            assert a.end <= b.start + 1e-15
    # makespan is the last completion
    assert r.makespan == pytest.approx(max(x.end for x in r.records))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=2), min_size=20, max_size=20),
)
def test_random_chains_schedule_and_run(n_layers, batch, picks):
    """Arbitrary chain graphs with arbitrary classifications build valid
    schedules and run on a machine big enough for their working set."""
    g = linear_chain(n_layers, batch=batch * 2, channels=8, image=16)
    maps = sorted(Classification.all_swap(g).classes)
    classes = {}
    for m, pick in zip(maps, picks):
        options = [MapClass.SWAP, MapClass.KEEP]
        if g[m].op.recomputable:
            options.append(MapClass.RECOMPUTE)
        classes[m] = options[pick % len(options)]
    cls = Classification(classes)
    from repro.hw import X86_V100
    r = execute(g, cls, X86_V100)
    assert r.makespan > 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2),
                min_size=len(_MAPS), max_size=len(_MAPS)))
def test_memory_trace_balances(picks):
    """In any feasible run, the malloc/free trace never exceeds capacity and
    each buffer is freed at most once."""
    cls = _classification(picks)
    try:
        r = execute(_GRAPH, cls, _MACHINE)
    except OutOfMemoryError:
        return
    freed = set()
    for ev in r.device_trace:
        assert 0 <= ev.in_use_after <= _MACHINE.usable_gpu_memory
        if ev.kind == "free":
            assert ev.buffer not in freed
            freed.add(ev.buffer)
