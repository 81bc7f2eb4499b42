"""The search against its oracle.

The search runs one configuration: the exhaustive step-1 walk over the
exact tree's leaves, delta drafts with liveness-floor elision of step-2
keep probes, and lockstep sweeps (speculative ones included).  Each of
those may only change how much work the search does, never what it
decides.  The reference arm runs the same classifier on
``OraclePredictor`` (``tests/conftest.py``), which replays every
candidate's freshly built draft on ``Engine.replay_draft`` (held to
``Engine.run`` by the draft contract in ``tests/test_engine.py``), with
no lockstep, no delta drafts and no elision.

Across the zoo slice, both tiny machines, exact and noisy profiles
(``FAULT_SEED`` picks the noise), the search returns the oracle's
classification, step-1/step-2 times, r(X) table, recompute flips and
step-1 simulation count, and its chosen plan predicts the oracle's peak
memory.  So it does when the step-1 budget runs out at 1, on a leaf
boundary or mid-scan, when the predictor held an outcome before the
search, and when nothing can be swept (NAIVE swap-ins), so every
candidate takes the walk's serial path.
"""

from __future__ import annotations

import os

import pytest

from repro.faults import FaultInjector, FaultSpec
from repro.pooch import PoochClassifier, PoochConfig
from repro.runtime.plan import MapClass, SwapInPolicy
from repro.runtime.profiler import run_profiling
from tests.conftest import (
    OraclePredictor,
    classifier_on,
    search_fingerprint,
    tiny_machine,
)
from tests.test_search_pruning import _ZOO, _graph

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

_MACHINES = [
    tiny_machine(mem_mib=224, link_gbps=3.0),
    # tighter memory + slower link: step 1 swaps more, step 2 flips more
    tiny_machine(mem_mib=160, link_gbps=2.0, name="tiny-slow"),
]


def _profile(graph, machine, noise: float):
    profile = run_profiling(graph, machine)
    if noise:
        profile = FaultInjector(FaultSpec(profile_noise=noise),
                                seed=FAULT_SEED).perturb_profile(
            profile, graph, machine)
    return profile


@pytest.mark.parametrize("noise", [0.0, 0.05], ids=["exact", "noisy"])
@pytest.mark.parametrize("machine", _MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("name,batch", _ZOO)
def test_search_matches_oracle(name, batch, machine, noise):
    g = _graph(name, batch)
    profile = _profile(g, machine, noise)
    results = {}
    for label, clf in (
        ("oracle", classifier_on(OraclePredictor, g, profile, machine)),
        ("search", PoochClassifier(g, profile, machine, PoochConfig())),
    ):
        cls, stats = clf.classify()
        results[label] = (search_fingerprint(cls, stats),
                          clf.predictor.predict(cls).peak_memory)
    assert results["search"] == results["oracle"]


# -- step 1's walk under truncation, a warm cache and the serial path --------------

_TRUNC_GRAPH = ("resnet18", 4)
_TRUNC_MACHINE = _MACHINES[1]


@pytest.fixture(scope="module")
def leaf_starts():
    """The truncation case's exact profile, and the step-1 simulation count
    at which each leaf's base is simulated (a reference oracle walk), so
    budgets can land at 1, exactly on a leaf boundary or mid-scan."""
    g = _graph(*_TRUNC_GRAPH)
    profile = _profile(g, _TRUNC_MACHINE, 0.0)
    clf = classifier_on(OraclePredictor, g, profile, _TRUNC_MACHINE,
                        PoochConfig(step1_sim_budget=200))
    _cls, stats = clf.classify(steps=1)
    exact = set(stats.exact_li)
    # simulated[0] is the all-swap base, simulated before step 1 counts
    starts = [i for i, (cls, _out) in enumerate(clf.predictor.simulated[1:])
              if set(cls.maps_of(MapClass.KEEP)) <= exact]
    assert len(starts) >= 4 and starts[3] - starts[2] > 2
    return g, profile, starts, clf.predictor.simulated


def _both_arms(g, profile, machine, config, precache=None):
    """(fingerprint, leaves_total, leaves_evaluated, budget_exhausted) of
    the oracle and of the search, each predictor first asked about
    ``precache`` when given."""
    results = {}
    for label, clf in (
        ("oracle", classifier_on(OraclePredictor, g, profile, machine,
                                 config)),
        ("search", PoochClassifier(g, profile, machine, config)),
    ):
        if precache is not None:
            clf.predictor.predict(precache)
        cls, stats = clf.classify()
        results[label] = (search_fingerprint(cls, stats), stats.leaves_total,
                          stats.leaves_evaluated, stats.budget_exhausted)
    assert results["search"] == results["oracle"]
    return results["search"]


@pytest.mark.parametrize("where", ["one", "leaf-boundary", "after-boundary",
                                   "mid-scan"])
def test_truncated_walk_matches_oracle(leaf_starts, where):
    g, profile, starts, _simulated = leaf_starts
    budget = {"one": 1, "leaf-boundary": starts[2],
              "after-boundary": starts[2] + 1,
              "mid-scan": (starts[2] + starts[3]) // 2}[where]
    (*_, sims_step1), total, evaluated, exhausted = _both_arms(
        g, profile, _TRUNC_MACHINE, PoochConfig(step1_sim_budget=budget))
    assert (sims_step1, exhausted) == (budget, True)
    # the all-swap base is cached before the walk: one free leaf
    assert total == budget + 1
    # a budget spent exactly at a leaf's end stops the walk before the next
    # leaf starts; one more simulation starts it
    assert evaluated == {"one": 1, "leaf-boundary": 2, "after-boundary": 3,
                         "mid-scan": 3}[where]


def test_outcome_cached_before_search_matches_oracle(leaf_starts):
    # a plan checked on the predictor before the search (a failed plan-cache
    # re-verification, a donor plan) is one more leaf the walk passes free
    g, profile, starts, simulated = leaf_starts
    budget = starts[2]
    leaf1_base = simulated[1 + starts[1]][0]
    (*_, sims_step1), total, evaluated, _ = _both_arms(
        g, profile, _TRUNC_MACHINE, PoochConfig(step1_sim_budget=budget),
        precache=leaf1_base)
    assert sims_step1 == budget
    assert total == budget + 2
    assert evaluated == 3  # leaf 1's base was free, so leaf 2 starts


def test_serial_walk_matches_oracle():
    # NAIVE swap-ins have no lockstep tables: every candidate goes through
    # the walk's serial predict
    g = _graph(*_TRUNC_GRAPH)
    config = PoochConfig(policy=SwapInPolicy.NAIVE, step1_sim_budget=100)
    profile = run_profiling(g, _TRUNC_MACHINE, options=config.options)
    clf = PoochClassifier(g, profile, _TRUNC_MACHINE, config)
    assert clf.predictor.vector_flip_index() is None
    (*_, sims_step1), _total, evaluated, exhausted = _both_arms(
        g, profile, _TRUNC_MACHINE, config)
    assert (sims_step1, exhausted) == (100, True)
    assert evaluated > 1
