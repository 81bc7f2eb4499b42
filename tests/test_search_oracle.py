"""The search against its oracle.

The search runs one configuration: branch-and-bound pruning of the step-1
tree, delta drafts with liveness-floor elision of step-2 keep probes, and
lockstep sweeps (speculative ones included).  Each of those may only
change how much work the search does, never what it decides.  The
reference arm runs the same classifier on ``OraclePredictor``
(``tests/conftest.py``), which simulates every candidate from a fresh
``build_schedule`` on the reference ``Engine``, with no lockstep, no delta
drafts and no elision.

* Across the zoo slice, both tiny machines, exact and noisy profiles
  (``FAULT_SEED`` picks the noise), the search returns the oracle's
  classification, step-1/step-2 times, r(X) table, recompute flips and
  step-1 simulation count.
* Pruning is admissible: ``_StepOneBounds.lower_bound`` never exceeds the
  oracle makespan of a feasible candidate under the committed swaps, for
  every exact-tree leaf base and every step-1 candidate the oracle search
  simulates.  The bound is monotone in the committed set, so leaf-level
  admissibility covers every prefix the cursor prunes.
"""

from __future__ import annotations

import itertools
import os

import pytest

from repro.faults import FaultInjector, FaultSpec
from repro.gpusim.allocator import round_size
from repro.pooch import PoochClassifier, PoochConfig
from repro.pooch.classifier import _StepOneBounds
from repro.runtime.plan import Classification, MapClass
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
    want = search_fingerprint(
        *classifier_on(OraclePredictor, g, profile, machine).classify())
    got = search_fingerprint(
        *PoochClassifier(g, profile, machine, PoochConfig()).classify())
    assert got == want


@pytest.mark.parametrize("machine", _MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("name,batch", _ZOO)
def test_step1_bounds_are_admissible(name, batch, machine):
    g = _graph(name, batch)
    profile = run_profiling(g, machine)
    clf = classifier_on(OraclePredictor, g, profile, machine)
    _cls, stats = clf.classify(steps=1)
    oracle = clf.predictor
    exact = stats.exact_li
    all_swap = Classification.all_swap(g)
    bounds = _StepOneBounds(oracle, all_swap,
                            set(exact) | set(stats.scan_order))
    # every leaf base of the exact tree, pruned or not: the keep subsets
    # within the classifier's byte budget
    keep_budget = (machine.usable_gpu_memory
                   - 2 * round_size(g.total_param_bytes))
    for r in range(len(exact) + 1):
        for keeps in itertools.combinations(exact, r):
            if (sum(round_size(g[m].out_spec.nbytes) for m in keeps)
                    <= keep_budget):
                oracle.predict(all_swap.with_classes(
                    {m: MapClass.KEEP for m in keeps}))
    checked = 0
    for cls, out in oracle.simulated:
        if not out.feasible:
            continue
        committed = frozenset(
            m for m in exact if cls.classes[m] is MapClass.SWAP)
        assert bounds.lower_bound(committed) <= out.time, (cls.key(), out)
        checked += 1
    assert checked > len(exact), "too few feasible candidates to check"
