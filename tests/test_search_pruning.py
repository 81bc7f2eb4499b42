"""Search-cost machinery: delta drafts, checkpoint/resume, branch-and-bound.

The contract under test is *exact equivalence*: pruning and incremental
replay may only change how much work the search does, never what it returns.

* delta drafts (``apply_keep_delta``) must be task-for-task identical to a
  fresh ``ScheduleBuilder`` build for the same classification;
* a ``FastEngine`` replay resumed from any of its own checkpoints must
  reproduce the full run bit-for-bit;
* the pruned + incremental search must return the identical plan,
  predicted time and peak memory as the exhaustive from-scratch scan (the
  oracle predictor with pruning off), across the model zoo;
* resumed replays count against the simulation budget exactly like the
  oracle's from-scratch ones, so budget truncation is unchanged;
* the leaf cursor skips exactly the subtrees its bounds rule out.

The search-wide equivalence against the (pruning) oracle search, and the
admissibility of the pruning bounds, live in ``tests/test_search_oracle.py``.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.gpusim.fastengine import _STREAM_ORDER, FastEngine
from repro.models import build_model
from repro.pooch import classifier as classifier_mod
from repro.pooch.classifier import (
    PoochClassifier,
    PoochConfig,
    SearchStats,
    _LeafCursor,
)
from repro.pooch.predictor import (
    TimelinePredictor,
    _buffers_equal,
    _tasks_equal,
)
from repro.runtime.plan import Classification, MapClass
from repro.runtime.profiler import run_profiling
from repro.runtime.schedule import ScheduleBuilder, apply_keep_delta
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
    """apply_keep_delta(all_swap base, keeps) == ScheduleBuilder for the
    same keep-set, for random keep-sets across the zoo."""
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
        delta = apply_keep_delta(base[0], base[1], base[2], keeps)
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
    apply_keep_delta(base[0], base[1], base[2], set(maps[::2]))
    _assert_drafts_equal(base, ref)


@pytest.mark.parametrize("name,batch", _ZOO)
def test_engine_resume_is_bit_identical(name, batch):
    """Resuming a replay from any of its own checkpoints reproduces the
    full run's makespan and peaks exactly."""
    g = _graph(name, batch)
    prof = run_profiling(g, _MACHINE)
    pred = TimelinePredictor(g, prof, _MACHINE)
    maps = g.classifiable_maps()
    cls = Classification.all_swap(g).with_classes(
        {m: MapClass.KEEP for m in maps[: len(maps) // 2]}
    )
    tasks, queues, buffers = pred.draft(cls)
    cap = _MACHINE.usable_gpu_memory
    host = _MACHINE.cpu_mem_capacity
    eng = FastEngine(tasks, queues, buffers, device_capacity=cap,
                     host_capacity=host)
    assert eng.checkpointable
    full = eng.run(checkpoint_every=8)
    assert eng.checkpoints, "expected checkpoints to be recorded"
    for cp in eng.checkpoints:
        again = FastEngine(tasks, queues, buffers, device_capacity=cap,
                           host_capacity=host)
        assert again.run(resume_from=cp) == full


def _checkpoint_fixture(name="resnet18", batch=4, keep_stride=2):
    """An engine mid-way through a mixed keep/swap replay, with a spy on
    ``_checkpoint`` that also snapshots the recording pools at capture."""
    g = _graph(name, batch)
    prof = run_profiling(g, _MACHINE)
    pred = TimelinePredictor(g, prof, _MACHINE)
    maps = g.classifiable_maps()
    cls = Classification.all_swap(g).with_classes(
        {m: MapClass.KEEP for m in maps[::keep_stride]}
    )
    draft = pred.draft(cls)
    caps = dict(device_capacity=_MACHINE.usable_gpu_memory,
                host_capacity=_MACHINE.cpu_mem_capacity)
    eng = FastEngine(*draft, **caps)
    snaps = []
    orig = eng._checkpoint

    def spy():
        cp = orig()
        snaps.append((cp, eng.device.snapshot_state(),
                      eng.host.snapshot_state()))
        return cp

    eng._checkpoint = spy
    eng.run(checkpoint_every=6)
    assert snaps, "expected checkpoints to be recorded"
    return draft, caps, snaps


def test_restore_reconstructs_pool_contents_exactly():
    """``_restore`` never copies pool contents — it rebuilds residency from
    the resuming engine's own alloc lists and free countdowns.  On the same
    schedule that reconstruction must reproduce the recording pools
    *buffer-for-buffer* (sizes dicts, not just the in-use/peak scalars the
    checkpoint carries), including in-flight scratch workspaces and
    swapped-out host instances."""
    draft, caps, snaps = _checkpoint_fixture()
    for cp, dev_snap, host_snap in snaps:
        fresh = FastEngine(*draft, **caps)
        fresh._restore(cp)
        assert fresh.device.snapshot_state() == dev_snap
        assert fresh.host.snapshot_state() == host_snap


def test_restore_residency_sums_to_recorded_watermark():
    """The reconstructed sizes dict and the recorded ``in_use`` scalar are
    produced by independent mechanisms; they must agree or the resumed run
    would drift from the from-scratch replay on the first allocation."""
    draft, caps, snaps = _checkpoint_fixture()
    for cp, _dev, _host in snaps:
        fresh = FastEngine(*draft, **caps)
        fresh._restore(cp)
        dev_sizes, dev_in_use, dev_peak = fresh.device.snapshot_state()
        host_sizes, host_in_use, _ = fresh.host.snapshot_state()
        assert sum(dev_sizes.values()) == dev_in_use == cp.dev_in_use
        assert sum(host_sizes.values()) == host_in_use == cp.host_in_use
        assert dev_peak == cp.dev_peak >= dev_in_use


def test_checkpoint_completed_and_started_sets():
    """`completed()` is a prefix copy of the shared completion-order list,
    and the lazily built sets stay consistent with it and the in-flight
    tuple even as the recording engine keeps appending."""
    draft, caps, snaps = _checkpoint_fixture()
    n_tasks = len(draft[0])
    prev = -1
    for cp, _dev, _host in snaps:
        done = cp.completed()
        assert len(done) == cp.progress
        assert len(done) > prev, "checkpoints must advance"
        prev = len(done)
        assert cp.completed_set() == frozenset(done)
        assert cp.started_set() == frozenset(done) | {
            tid for _, _, tid in cp.inflight
        }
        # the shared source list outgrew the prefix: later completions must
        # not leak into an earlier checkpoint's view
        assert len(cp.completed_src) >= len(done)
    assert len(cp.completed_src) <= n_tasks


def test_alloc_on_ready_drafts_refuse_checkpointing():
    """SUPERNEURONS swap-ins are ungated and reserve memory the moment
    their trigger fires — engine state then depends on non-head queue
    positions, which the checkpoint validity argument does not cover, so
    the engine must declare itself non-checkpointable and record nothing."""
    from repro.runtime.plan import SwapInPolicy
    from repro.runtime.schedule import ScheduleOptions

    g = _graph("small_cnn", 8)
    prof = run_profiling(g, _MACHINE)
    draft = ScheduleBuilder(
        g, Classification.all_swap(g), prof.durations(),
        ScheduleOptions(policy=SwapInPolicy.SUPERNEURONS), validate=False,
    ).build_raw()
    eng = FastEngine(*draft, device_capacity=_MACHINE.usable_gpu_memory,
                     host_capacity=_MACHINE.cpu_mem_capacity)
    assert not eng.checkpointable
    eng.run(checkpoint_every=4)
    assert eng.checkpoints == []


class _NoBounds:
    """Bounds that never prune: the cursor walks every enumerated leaf."""

    def __init__(self, *args) -> None:
        pass

    def lower_bound(self, committed) -> float:
        return float("-inf")


@pytest.mark.parametrize("name,batch", _ZOO)
def test_search_equivalence_across_zoo(name, batch, monkeypatch):
    """Pruned + incremental search chooses the identical plan (key,
    predicted time, peak memory) as the exhaustive from-scratch scan: the
    oracle predictor walking every leaf, with pruning turned off."""
    g = _graph(name, batch)
    prof = run_profiling(g, _MACHINE)
    results = {}
    for label in ("optimized", "exhaustive"):
        if label == "exhaustive":
            monkeypatch.setattr(classifier_mod, "_StepOneBounds", _NoBounds)
            clf = classifier_on(OraclePredictor, g, prof, _MACHINE)
        else:
            clf = PoochClassifier(g, prof, _MACHINE, config=PoochConfig())
        cls, stats = clf.classify()
        out = clf.predictor.predict(cls)
        results[label] = (cls.key(), out.time, out.peak_memory,
                          stats.subtrees_pruned)
    ex, opt = results["exhaustive"], results["optimized"]
    assert ex[3] == 0
    assert opt[:3] == ex[:3], f"plans differ: {ex} vs {opt}"


def test_incremental_resumes_and_stats_populated():
    g = _graph("resnet18", 4)
    prof = run_profiling(g, _MACHINE)
    # no lockstep sweeps: this test is about the *event-engine* replay
    # modes (full vs prefix-resumed); with sweeps most step-1 sims never
    # touch the event engines at all
    clf = classifier_on(SerialPredictor, g, prof, _MACHINE)
    _cls, stats = clf.classify()
    assert stats.wall_time_s > 0.0
    assert stats.leaves_total >= stats.leaves_evaluated > 0
    assert stats.sims_full + stats.sims_resumed == clf.predictor.simulations
    # prefix sharing must actually fire: sibling candidates differ in a
    # handful of maps, so most replays resume
    assert stats.sims_resumed > stats.sims_full


def test_vectorized_stats_account_for_all_simulations():
    """Under the default (vectorized) search every simulation is either a
    lockstep-swept outcome or an event-engine fallback, and the fallbacks
    are exactly the full/resumed replays."""
    g = _graph("resnet18", 4)
    prof = run_profiling(g, _MACHINE)
    clf = PoochClassifier(g, prof, _MACHINE, config=PoochConfig())
    _cls, stats = clf.classify()
    assert stats.sims_vectorized > 0
    assert stats.vector_sweeps > 0
    assert stats.vector_candidates >= stats.sims_vectorized
    assert (stats.sims_vectorized + stats.sims_fallback
            == stats.sims_step1 + stats.sims_step2)
    # every simulation is a swept outcome or an event-engine replay (the
    # all-swap baseline runs outside the step windows, hence ``full``)
    assert (stats.sims_vectorized + stats.sims_full + stats.sims_resumed
            == clf.predictor.simulations)


def test_incremental_counters_do_not_change_budget():
    """`simulations` (the budget meter) counts resumed replays and swept
    outcomes exactly like the oracle's from-scratch simulations, so budget
    truncation is independent of how each simulation ran."""
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


class _FakeBounds:
    """Synthetic bounds: subtrees committing map 0 to SWAP are unbeatable."""

    def __init__(self, poison: int, incumbent: float) -> None:
        self.poison = poison
        self.incumbent = incumbent

    def lower_bound(self, committed) -> float:
        return self.incumbent + 1.0 if self.poison in committed else 0.0


def test_leaf_cursor_prunes_poisoned_subtree():
    exact = [0, 1, 2]
    # keep-first DFS enumeration over {0,1,2}
    leaves = []
    for d0 in (True, False):
        for d1 in (True, False):
            for d2 in (True, False):
                leaves.append(tuple(
                    m for m, dec in zip(exact, (d0, d1, d2)) if dec
                ))
    stats = SearchStats()
    cursor = _LeafCursor(leaves, exact, _FakeBounds(0, 1.0), stats)
    seen = []
    while True:
        nxt = cursor.next(best_time=1.0)
        if nxt is None:
            break
        seen.append(nxt[1])
    # every surviving leaf keeps map 0; the swap-0 half of the tree is one
    # pruned subtree of four leaves
    assert all(0 in leaf for leaf in seen)
    assert len(seen) == 4
    assert stats.subtrees_pruned == 1
    assert stats.leaves_pruned == 4
