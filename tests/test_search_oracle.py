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
memory.
"""

from __future__ import annotations

import os

import pytest

from repro.faults import FaultInjector, FaultSpec
from repro.pooch import PoochClassifier, PoochConfig
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
