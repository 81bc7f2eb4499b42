"""Search-cost machinery: delta drafts, lockstep accounting, the leaf walk.

The contract under test is *exact equivalence*: delta drafts and lockstep
sweeps may only change how much work the search does, never what it
returns.

* keep-only delta drafts (``apply_recompute_delta`` of the all-swap base
  with no recomputes) must be task-for-task identical to a fresh
  ``ScheduleBuilder`` build for the same classification;
* swept outcomes count against the simulation budget exactly like the
  oracle's from-scratch simulations, so budget truncation is unchanged;
* the step-1 walk lists only the exact-tree leaves the simulation budget
  can reach, however wide ``max_exact_li`` makes the tree, and still
  returns the oracle's plan.

The search-wide equivalence against the oracle search (plan, times, peak
memory, r(X) table) lives in ``tests/test_search_oracle.py``.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.gpusim.engine import _STREAM_ORDER
from repro.models import build_model
from repro.hw import X86_V100
from repro.pooch.classifier import PoochClassifier, PoochConfig
from repro.pooch.predictor import (
    TimelinePredictor,
    _buffers_equal,
    _tasks_equal,
)
from repro.runtime.plan import Classification, MapClass
from repro.runtime.profiler import run_profiling
from repro.runtime.schedule import ScheduleBuilder, apply_recompute_delta
from tests.conftest import (
    OraclePredictor,
    SerialPredictor,
    classifier_on,
    search_fingerprint,
    tiny_machine,
)

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

_MACHINE = tiny_machine(mem_mib=224, link_gbps=3.0)

#: small zoo slice: the shapes that exercise branches (skip connections,
#: dense fan-in, plain chains) without slow profiling
_ZOO = [
    ("small_cnn", 8),
    ("poster_example", 2),
    ("resnet18", 4),
    ("mobilenet_v1", 2),
]


def _graph(name: str, batch: int):
    return build_model(name, batch=batch)


def _alloc_lists(buffers):
    out: dict[str, list] = {}
    for b in buffers.values():
        if b.alloc_by is not None:
            out.setdefault(b.alloc_by, []).append(b)
    return out


def _assert_drafts_equal(a, b):
    """Engine-visible equality of two (tasks, queues, buffers) drafts."""
    ta, qa, ba = a
    tb, qb, bb = b
    for s in _STREAM_ORDER:
        assert qa.get(s, []) == qb.get(s, []), f"queue order differs on {s}"
    assert set(ta) == set(tb)
    la, lb = _alloc_lists(ba), _alloc_lists(bb)
    for tid in ta:
        assert _tasks_equal(ta[tid], tb[tid],
                            la.get(tid, []), lb.get(tid, [])), (
            f"task {tid} differs between delta and fresh draft"
        )
    assert set(ba) == set(bb)
    for bid in ba:
        assert _buffers_equal(ba[bid], bb[bid]), f"buffer {bid} differs"


@pytest.mark.parametrize("name,batch", _ZOO)
def test_delta_draft_equals_fresh_build(name, batch):
    """apply_recompute_delta(all_swap base, keeps, no recomputes) ==
    ScheduleBuilder for the same keep-set, for random keep-sets across the
    zoo."""
    g = _graph(name, batch)
    prof = run_profiling(g, _MACHINE)
    durs = prof.durations()
    pred = TimelinePredictor(g, prof, _MACHINE)
    base = ScheduleBuilder(g, Classification.all_swap(g), durs,
                           pred.options, validate=False).build_raw()
    maps = g.classifiable_maps()
    rng = random.Random(FAULT_SEED * 1021 + len(maps))
    keep_sets = [set(), set(maps)]
    keep_sets += [set(rng.sample(maps, rng.randint(1, len(maps))))
                  for _ in range(6)]
    for keeps in keep_sets:
        cls = Classification.all_swap(g).with_classes(
            {m: MapClass.KEEP for m in keeps}
        )
        fresh = ScheduleBuilder(g, cls, durs, pred.options,
                                validate=False).build_raw()
        delta = apply_recompute_delta(*base, g, durs, pred.options,
                                      keeps, ()).draft
        _assert_drafts_equal(delta, fresh)


def test_delta_draft_leaves_base_unmodified():
    g = _graph("small_cnn", 8)
    prof = run_profiling(g, _MACHINE)
    pred = TimelinePredictor(g, prof, _MACHINE)
    durs = prof.durations()
    base = ScheduleBuilder(g, Classification.all_swap(g), durs,
                           pred.options, validate=False).build_raw()
    ref = ScheduleBuilder(g, Classification.all_swap(g), durs,
                          pred.options, validate=False).build_raw()
    maps = g.classifiable_maps()
    apply_recompute_delta(*base, g, durs, pred.options, set(maps[::2]), ())
    _assert_drafts_equal(base, ref)


def test_search_stats_populated():
    g = _graph("resnet18", 4)
    prof = run_profiling(g, _MACHINE)
    # no lockstep sweeps: every simulation runs on the event engine
    clf = classifier_on(SerialPredictor, g, prof, _MACHINE)
    _cls, stats = clf.classify()
    assert stats.wall_time_s > 0.0
    assert stats.leaves_total >= stats.leaves_evaluated > 0
    assert stats.sims_vectorized == stats.vector_sweeps == 0
    assert stats.sims_fallback == stats.sims_step1 + stats.sims_step2 > 0


def test_vectorized_stats_account_for_all_simulations():
    """Under the default (vectorized) search every simulation is either a
    lockstep-swept outcome or an event-engine fallback, and on an EAGER
    search there are no fallbacks."""
    g = _graph("resnet18", 4)
    prof = run_profiling(g, _MACHINE)
    clf = PoochClassifier(g, prof, _MACHINE, config=PoochConfig())
    _cls, stats = clf.classify()
    assert stats.sims_vectorized > 0
    assert stats.vector_sweeps > 0
    assert stats.vector_candidates >= stats.sims_vectorized
    assert (stats.sims_vectorized + stats.sims_fallback
            == stats.sims_step1 + stats.sims_step2)
    # EAGER drafts are all expressible: both steps run entirely in lockstep,
    # and only the all-swap baseline (outside the step windows) replays on
    # the event engine
    assert stats.sims_fallback == 0
    assert stats.sims_vectorized + 1 == clf.predictor.simulations


def test_incremental_counters_do_not_change_budget():
    """`simulations` (the budget meter) counts swept outcomes exactly like
    the oracle's from-scratch simulations, so budget truncation is
    independent of how each simulation ran."""
    g = _graph("small_cnn", 8)
    prof = run_profiling(g, _MACHINE)
    cfg = PoochConfig(step1_sim_budget=40)
    counts = {}
    for label, clf in (
        ("oracle", classifier_on(OraclePredictor, g, prof, _MACHINE, cfg)),
        ("search", PoochClassifier(g, prof, _MACHINE, config=cfg)),
    ):
        cls, stats = clf.classify()
        counts[label] = (clf.predictor.simulations,
                         search_fingerprint(cls, stats))
    assert counts["search"] == counts["oracle"]


def test_budget_truncated_mid_leaf_matches_oracle():
    """A search whose step-1 budget runs out inside a leaf stops at the
    same candidate, with the same plan, as the oracle search."""
    g = _graph("resnet18", 4)
    prof = run_profiling(g, _MACHINE)
    cfg = PoochConfig(step1_sim_budget=20)  # runs out inside leaf 1
    results = {}
    for label, clf in (
        ("oracle", classifier_on(OraclePredictor, g, prof, _MACHINE, cfg)),
        ("search", PoochClassifier(g, prof, _MACHINE, config=cfg)),
    ):
        cls, stats = clf.classify()
        assert stats.budget_exhausted
        results[label] = (clf.predictor.simulations,
                          search_fingerprint(cls, stats))
    assert results["search"] == results["oracle"]


def test_wide_exact_tree_lists_only_leaves_within_budget():
    """ResNet-50/256 on x86 has 73 L_I maps, so ``max_exact_li=20`` spans a
    tree of about a million byte-feasible leaves.  Every leaf but the
    all-swap one costs a simulation, so the walk lists at most
    ``step1_sim_budget + 1`` of them, and decides as the oracle does."""
    g = build_model("resnet50", batch=256)
    prof = run_profiling(g, X86_V100)
    cfg = PoochConfig(max_exact_li=20, step1_sim_budget=12)
    results = {}
    for label, clf in (
        ("oracle", classifier_on(OraclePredictor, g, prof, X86_V100, cfg)),
        ("search", PoochClassifier(g, prof, X86_V100, config=cfg)),
    ):
        cls, stats = clf.classify(steps=1)
        assert len(stats.exact_li) == 20
        assert stats.leaves_total <= cfg.step1_sim_budget + 1
        assert stats.budget_exhausted
        results[label] = search_fingerprint(cls, stats)
    assert results["search"] == results["oracle"]
