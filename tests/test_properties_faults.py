"""Property tests for the fault-injection layer.

Random graphs × random fault seeds, four invariants:

1. any schedule that executes does so without use-after-free — the numeric
   backend's free-hook oracle turns one into a hard ``NumericError``;
2. a PoocH run under a noisy profile still classifies every feature map
   exactly once;
3. step 2 of the search only flips maps whose r(X) < 1;
4. injected duration noise changes *time*, never *data*: out-of-core weight
   gradients stay bit-identical to the in-core run.

Plus the headline acceptance property: with a fixed ``--fault-seed`` a
faulted pipeline run is bit-reproducible.

``FAULT_SEED`` in the environment shifts every derived seed; CI runs this
module over a pinned seed matrix.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults import FaultInjector, FaultSpec, FaultyDurations
from repro.hw import CostModel, X86_V100
from repro.models import poster_example, small_cnn
from repro.pooch import PoocH
from repro.runtime import Classification, MapClass
from repro.runtime.durations import CostModelDurations
from repro.runtime.numeric import verify_against_incore
from tests.conftest import tiny_machine
from tests.test_random_graphs import build_random_graph

#: CI pins a seed matrix through this env var; locally it defaults to 0
FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

_MACHINE = tiny_machine(mem_mib=224, link_gbps=3.0)


def _random_classification(graph, picks):
    classes = {}
    maps = sorted(Classification.all_swap(graph).classes)
    for m, pick in zip(maps, picks):
        options = [MapClass.SWAP, MapClass.KEEP]
        if graph[m].op.recomputable:
            options.append(MapClass.RECOMPUTE)
        classes[m] = options[pick % len(options)]
    return Classification(classes)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=10),
    st.lists(st.integers(min_value=0, max_value=7), min_size=4, max_size=4),
    st.lists(st.integers(min_value=0, max_value=2), min_size=24, max_size=24),
    st.integers(min_value=0, max_value=999),
)
def test_noise_never_changes_data(layer_picks, branch_picks, class_picks,
                                  seed_offset):
    """Invariants 1 + 4: random branchy graph, random plan, random fault
    seed.  The out-of-core run executes under 10% duration noise through the
    numeric backend (free-hook armed), and its gradients must still be
    bit-identical to the clean in-core run — noise moves tasks in time, never
    data.  ``verify_against_incore`` raises ``NumericError`` on either a
    use-after-free or a single differing bit."""
    graph = build_random_graph(layer_picks, branch_picks)
    cls = _random_classification(graph, class_picks)
    injector = FaultInjector(FaultSpec(duration_noise=0.1),
                             seed=FAULT_SEED * 1000 + seed_offset)
    faulty = FaultyDurations(
        CostModelDurations(graph, CostModel(X86_V100)), injector
    )
    verify_against_incore(graph, cls, X86_V100, durations=faulty)


@pytest.mark.parametrize("seed", [FAULT_SEED, FAULT_SEED + 1, FAULT_SEED + 2])
@pytest.mark.parametrize("noise", [0.05, 0.10])
def test_noisy_profile_classification_invariants(seed, noise):
    """Invariants 2 + 3 under a perturbed profile: the classifier must still
    cover every classifiable feature map exactly once, and step 2 may only
    flip maps whose (first-round) r(X) ratio is below 1."""
    graph = poster_example()
    result = PoocH(
        _MACHINE, faults=FaultInjector(FaultSpec(profile_noise=noise),
                                       seed=seed)
    ).optimize(graph)
    expected = set(Classification.all_swap(graph).classes)
    assert set(result.classification.classes) == expected
    for m in result.stats.flips_to_recompute:
        assert result.stats.r_values[m] < 1.0
    # the plan must execute on the real (noise-free) machine or visibly
    # degrade — never crash (acceptance criterion)
    robust = result.execute_resilient()
    assert robust.makespan > 0


@pytest.mark.parametrize("seed", [FAULT_SEED, FAULT_SEED + 17])
def test_faulted_run_bit_reproducible(seed):
    """Acceptance: same spec, same seed => bit-identical plan, makespan,
    retry count and fallback path across independent pipeline runs."""
    spec = "duration_noise=0.1,profile_noise=0.05,stall_prob=0.1"

    def once():
        result = PoocH(_MACHINE, faults=FaultInjector(spec, seed=seed)
                       ).optimize(small_cnn(batch=64))
        robust = result.execute_resilient()
        return (
            result.classification.key(),
            robust.makespan,
            robust.plan_used,
            robust.transfer_retries,
            robust.attempts,
            tuple((s.from_plan, s.to_plan) for s in robust.fallbacks),
        )

    assert once() == once()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=999),
       st.sampled_from([0.02, 0.05, 0.10]))
def test_pipeline_survives_noise(seed_offset, noise):
    """Acceptance: under <=10% seeded noise (profile + duration + stalls)
    the pipeline either executes its plan or degrades along the declared
    fallback chain — never an unhandled exception."""
    spec = FaultSpec(duration_noise=noise, profile_noise=noise,
                     stall_prob=noise / 2)
    injector = FaultInjector(spec, seed=FAULT_SEED * 1000 + seed_offset)
    result = PoocH(_MACHINE, faults=injector).optimize(small_cnn(batch=64))
    robust = result.execute_resilient()
    assert robust.plan_used in ("chosen-plan", "swap-all", "recompute-all")
    assert robust.makespan > 0
    if robust.degraded:
        # every degradation step is a declared chain link, in order
        names = [s.to_plan for s in robust.fallbacks]
        assert names == ["swap-all", "recompute-all"][: len(names)]
