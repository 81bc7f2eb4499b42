"""Incremental step-2 search: recompute-delta drafts, resumable r(X) probes,
keep-probe elision.

Same contract as ``tests/test_search_pruning.py``, extended to step 2: the
incremental machinery may only change how much work the swap-vs-recompute
loop does, never what it returns.

* recompute-delta drafts (``apply_recompute_delta``) must be task-for-task
  identical to a fresh ``ScheduleBuilder`` build for the same classification,
  for every swap-in policy and random keep/recompute partitions across the
  model zoo;
* step 2 run from the same step-1 plan returns the identical plan,
  predicted time, peak memory and r(X) table with its machinery on (the
  search) and off (the oracle's from-scratch step 2), on both machines;
* the resume machinery must actually cut work: on a step-2-heavy
  configuration the search runs at least 3x fewer full step-2 simulations
  than the oracle's from-scratch step 2 simulates, for the same plan
  (zoo-wide plan identity against the oracle lives in
  ``tests/test_search_oracle.py``);
* keep-probe elision is sound by construction: ``liveness_floor`` is an
  admissible bound (never above a feasible run's simulated peak), so a
  floor above capacity proves the simulation could only answer
  "infeasible" — elided probes change no r-value;
* the keep-probe floor step 2 derives from the current plan's liveness
  profile (``LivenessProfile.keep_floor``) equals ``liveness_floor`` of the
  freshly built "X kept" draft exactly, across the zoo, both machines, all
  swap-in policies, forward re-fetch on/off and perturbed profiles — and
  answering probes that way drafts the step-1 keep set once per step 2,
  not once per probe;
* the predictor's resume index is built on first use, and building it
  eagerly instead changes neither the plan nor any step-2 counter.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.common.errors import ScheduleError
from repro.faults import FaultInjector, FaultSpec
from repro.pooch import predictor as predictor_mod
from repro.pooch.classifier import (
    PoochClassifier,
    PoochConfig,
    R_ROUNDS_LIMIT,
)
from repro.runtime.plan import Classification, MapClass, SwapInPolicy
from repro.runtime.profiler import run_profiling
from repro.runtime.schedule import (
    LivenessProfile,
    ScheduleBuilder,
    ScheduleOptions,
    apply_keep_delta,
    apply_recompute_delta,
    liveness_floor,
)
from tests.conftest import (
    OraclePredictor,
    classifier_on,
    search_fingerprint,
    tiny_machine,
)
from tests.test_search_pruning import _ZOO, _assert_drafts_equal, _graph

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

_MACHINE = tiny_machine(mem_mib=224, link_gbps=3.0)
#: tighter memory + slower link → step 1 swaps more, step 2 flips more
_SLOW = tiny_machine(mem_mib=160, link_gbps=2.0, name="tiny-slow")

_POLICIES = [SwapInPolicy.NAIVE, SwapInPolicy.EAGER,
             SwapInPolicy.SUPERNEURONS]


def _partitions(g, rng, n=6):
    """Random (keeps, recomputes) splits, always including the
    everything-recomputable extreme."""
    maps = g.classifiable_maps()
    recable = [m for m in maps if g[m].op.recomputable]
    parts = [(set(), set(recable))]
    for _ in range(n):
        keeps = set(rng.sample(maps, rng.randint(0, len(maps) // 2)))
        pool = [m for m in recable if m not in keeps]
        if pool:
            parts.append((keeps, set(rng.sample(pool,
                                                rng.randint(1, len(pool))))))
    return parts


@pytest.mark.parametrize("policy", _POLICIES, ids=lambda p: p.name.lower())
@pytest.mark.parametrize("name,batch", _ZOO)
def test_recompute_delta_equals_fresh_build(name, batch, policy):
    """apply_recompute_delta(keep-delta base, ...) == ScheduleBuilder for the
    same keep/recompute sets, for random partitions across the zoo."""
    g = _graph(name, batch)
    prof = run_profiling(g, _MACHINE)
    durs = prof.durations()
    opts = ScheduleOptions(policy=policy)
    base = ScheduleBuilder(g, Classification.all_swap(g), durs, opts,
                           validate=False).build_raw()
    rng = random.Random(FAULT_SEED * 2027 + len(g.classifiable_maps()))
    for keeps, recs in _partitions(g, rng):
        cls = Classification.all_swap(g).with_classes(
            {m: MapClass.KEEP for m in keeps}
            | {m: MapClass.RECOMPUTE for m in recs}
        )
        fresh = ScheduleBuilder(g, cls, durs, opts,
                                validate=False).build_raw()
        kd = apply_keep_delta(base[0], base[1], base[2], keeps)
        delta = apply_recompute_delta(kd[0], kd[1], kd[2], g, durs, opts,
                                      keeps, recs)
        _assert_drafts_equal(delta, fresh)


def test_recompute_delta_leaves_base_unmodified():
    g = _graph("small_cnn", 8)
    prof = run_profiling(g, _MACHINE)
    durs = prof.durations()
    opts = ScheduleOptions()
    base = ScheduleBuilder(g, Classification.all_swap(g), durs, opts,
                           validate=False).build_raw()
    keeps = set(g.classifiable_maps()[::3])
    kd = apply_keep_delta(base[0], base[1], base[2], keeps)
    ref = apply_keep_delta(base[0], base[1], base[2], keeps)
    recs = {m for m in g.classifiable_maps()
            if g[m].op.recomputable and m not in keeps}
    apply_recompute_delta(kd[0], kd[1], kd[2], g, durs, opts, keeps, recs)
    _assert_drafts_equal(kd, ref)


@pytest.mark.parametrize("policy",
                         [SwapInPolicy.NAIVE, SwapInPolicy.SUPERNEURONS],
                         ids=lambda p: p.name.lower())
def test_recompute_delta_repairs_swap_in_triggers(policy):
    """Spliced R tasks shift backward compute positions, so every surviving
    swap-in's start trigger — "the compute task right before my first
    reader" (NAIVE) / "the nearest preceding conv backward" (SUPERNEURONS)
    — must be recomputed against the *new* compute order.  This pins the
    repair directly (not only via whole-draft equality): the repair must
    actually fire, must match the fresh build, and every trigger must
    reference a live task that precedes the swap-in's first reader."""
    from repro.gpusim.engine import StreamName
    from repro.runtime.schedule import TaskKind

    g = _graph("resnet18", 4)
    prof = run_profiling(g, _MACHINE)
    durs = prof.durations()
    opts = ScheduleOptions(policy=policy)
    base = ScheduleBuilder(g, Classification.all_swap(g), durs, opts,
                           validate=False).build_raw()
    # recompute the earliest recomputable maps: their R tasks splice at the
    # *end* of the backward pass, shifting positions for the most swap-ins
    recable = sorted(m for m in g.classifiable_maps()
                     if g[m].op.recomputable)
    recs = set(recable[: len(recable) // 2])
    cls = Classification.all_swap(g).with_classes(
        {m: MapClass.RECOMPUTE for m in recs})
    fresh = ScheduleBuilder(g, cls, durs, opts, validate=False).build_raw()
    delta = apply_recompute_delta(base[0], base[1], base[2], g, durs, opts,
                                  set(), recs)
    tasks, queues, _ = delta
    sis = [t for t in tasks.values() if t.kind is TaskKind.SWAP_IN]
    assert sis, "expected surviving swap-ins"
    changed = [t.tid for t in sis
               if t.start_deps != base[0][t.tid].start_deps]
    assert changed, "R splicing shifted no trigger: test lost its bite"
    compute_pos = {tid: n for n, tid in
                   enumerate(queues[StreamName.COMPUTE])}
    for t in sis:
        assert t.start_deps == fresh[0][t.tid].start_deps
        readers = [compute_pos[tid] for tid in compute_pos
                   if t.tid in tasks[tid].deps]
        for trig in t.start_deps:
            assert trig in compute_pos, f"{t.tid} triggers on dead {trig}"
            if readers:
                assert compute_pos[trig] < min(readers)
        if policy is SwapInPolicy.SUPERNEURONS and t.start_deps:
            (trig,) = t.start_deps
            tt = tasks[trig]
            assert (tt.kind is TaskKind.BWD
                    or compute_pos[trig] == min(readers) - 1)


def test_recompute_delta_repairs_eager_headroom():
    """EAGER auto-headroom covers the largest backward-phase allocation;
    spliced recompute tasks allocate, so when one out-allocates every task
    of the base draft the surviving swap-ins must be re-patched with the
    larger floor (== the fresh builder's)."""
    from repro.runtime.schedule import TaskKind

    g = _graph("resnet18", 4)
    prof = run_profiling(g, _MACHINE)
    durs = prof.durations()
    opts = ScheduleOptions()  # EAGER
    base = ScheduleBuilder(g, Classification.all_swap(g), durs, opts,
                           validate=False).build_raw()
    rng = random.Random(FAULT_SEED * 31 + 7)
    recable = [m for m in g.classifiable_maps() if g[m].op.recomputable]
    checked = 0
    for _ in range(8):
        recs = set(rng.sample(recable, rng.randint(1, len(recable))))
        cls = Classification.all_swap(g).with_classes(
            {m: MapClass.RECOMPUTE for m in recs})
        fresh = ScheduleBuilder(g, cls, durs, opts,
                                validate=False).build_raw()
        delta = apply_recompute_delta(base[0], base[1], base[2], g, durs,
                                      opts, set(), recs)
        want = {t.tid: t.headroom for t in fresh[0].values()
                if t.kind is TaskKind.SWAP_IN}
        got = {t.tid: t.headroom for t in delta[0].values()
              if t.kind is TaskKind.SWAP_IN}
        assert got == want
        checked += bool(want)
    assert checked, "no partition left any swap-in to check"


def test_recompute_delta_rejects_bad_inputs():
    g = _graph("small_cnn", 8)
    prof = run_profiling(g, _MACHINE)
    durs = prof.durations()
    base = ScheduleBuilder(g, Classification.all_swap(g), durs,
                           ScheduleOptions(), validate=False).build_raw()
    recable = [m for m in g.classifiable_maps() if g[m].op.recomputable]
    with pytest.raises(ScheduleError, match="kept and recomputed"):
        apply_recompute_delta(base[0], base[1], base[2], g, durs,
                              ScheduleOptions(), {recable[0]}, {recable[0]})
    with pytest.raises(ScheduleError, match="forward_refetch_gap"):
        apply_recompute_delta(base[0], base[1], base[2], g, durs,
                              ScheduleOptions(forward_refetch_gap=2),
                              set(), {recable[0]})


def test_step2_resume_and_round_stats_populated():
    g = _graph("resnet18", 4)
    prof = run_profiling(g, _SLOW)
    clf = PoochClassifier(g, prof, _SLOW, config=PoochConfig())
    _cls, stats = clf.classify()
    assert stats.sims_step2_full + stats.sims_step2_resumed == stats.sims_step2
    assert stats.step2_rounds >= 1
    # one r-value history entry per round (bounded), first == r_values
    assert len(stats.r_rounds) == min(stats.step2_rounds, R_ROUNDS_LIMIT)
    assert stats.r_rounds[0] == stats.r_values
    assert stats.r_recomputed == sum(len(r) for r in stats.r_rounds)
    # EAGER is the resumable policy: most r(X) probes resume mid-replay
    assert stats.sims_step2_resumed > stats.sims_step2_full
    # every r(X) published per round covers exactly the surviving pool
    for earlier, later in zip(stats.r_rounds, stats.r_rounds[1:]):
        assert set(later) <= set(earlier)


def _search_and_oracle_step2(g, prof, machine):
    """The search, and the oracle's step 2 run from the search's step-1
    plan.  The oracle's step 1 is the slow half; the oracle harness
    (``tests/test_search_oracle.py``) compares it."""
    step1, _ = PoochClassifier(g, prof, machine).classify(steps=1)
    got = PoochClassifier(g, prof, machine).classify()
    oracle = classifier_on(OraclePredictor, g, prof, machine)
    oracle.predictor.predict(step1)  # cached after step 1, as in a search
    return got, (oracle._step2_swap_vs_recompute(step1), oracle.stats)


@pytest.mark.parametrize("machine", [_MACHINE, _SLOW],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("name,batch", _ZOO)
def test_step2_plans_bit_identical_on_off(name, batch, machine):
    """Step 2 with its machinery on (the search: delta drafts, resumed
    r(X) probes, keep-probe elision) and off (the oracle's from-scratch
    step 2 from the same step-1 plan) returns the identical plan,
    predicted outcome and r(X) table."""
    g = _graph(name, batch)
    prof = run_profiling(g, machine)
    on, off = _search_and_oracle_step2(g, prof, machine)
    predictor = PoochClassifier(g, prof, machine).predictor
    results = {}
    for label, (cls, stats) in (("on", on), ("off", off)):
        out = predictor.predict(cls)
        results[label] = (cls.key(), out.time, out.peak_memory,
                          stats.r_values, stats.flips_to_recompute)
    assert results["on"] == results["off"]


def test_step2_full_sims_cut_at_least_3x():
    """The acceptance criterion at test scale: on a step-2-heavy config the
    search does >= 3x fewer full step-2 simulations than the oracle, which
    simulates every step-2 candidate from scratch, for the bit-identical
    plan."""
    g = _graph("resnet18", 4)
    prof = run_profiling(g, _SLOW)
    (cls, stats), (ref_cls, ref) = _search_and_oracle_step2(g, prof, _SLOW)
    assert cls.key() == ref_cls.key()
    assert ref.sims_step2 >= 3 * max(stats.sims_step2_full, 1), (
        f"expected >=3x fewer full step-2 sims, got "
        f"{ref.sims_step2} -> {stats.sims_step2_full}"
    )


def _swapped_sample(cls, rng, k):
    swapped = cls.maps_of(MapClass.SWAP)
    return rng.sample(swapped, min(k, len(swapped)))


@pytest.mark.parametrize("name,batch", _ZOO)
def test_liveness_floor_is_admissible_and_sound(name, batch):
    """``liveness_floor`` must never exceed the simulated peak of a feasible
    run (admissibility), and ``provably_infeasible(current, x)`` must imply
    the simulation of "current with x kept" agrees (soundness) — across
    random keep/recompute splits."""
    g = _graph(name, batch)
    prof = run_profiling(g, _SLOW)
    pred = PoochClassifier(g, prof, _SLOW, config=PoochConfig()).predictor
    rng = random.Random(FAULT_SEED * 31 + batch)
    probed = 0
    for keeps, recs in _partitions(g, rng, n=3):
        current = Classification.all_swap(g).with_classes(
            {m: MapClass.KEEP for m in keeps}
            | {m: MapClass.RECOMPUTE for m in recs}
        )
        for x in _swapped_sample(current, rng, 4):
            probed += 1
            kept = current.with_class(x, MapClass.KEEP)
            proven = pred.provably_infeasible(current, x)
            out = pred.predict(kept)
            if proven:
                assert not out.feasible
            if out.feasible:
                tasks, queues, buffers, _k, _r = pred._sim_draft(kept)
                assert liveness_floor(tasks, queues, buffers) <= out.peak_memory
    assert probed, "no partition left a swapped map to probe"


@pytest.mark.parametrize("gap", [None, 2], ids=["no-refetch", "refetch2"])
@pytest.mark.parametrize("policy", _POLICIES, ids=lambda p: p.name.lower())
@pytest.mark.parametrize("machine", [_MACHINE, _SLOW], ids=lambda m: m.name)
@pytest.mark.parametrize("name,batch", _ZOO)
def test_keep_floor_equals_fresh_draft_floor(name, batch, machine, policy,
                                             gap):
    """The floor step 2 derives for "current with swapped X kept" from
    current's liveness profile must equal ``liveness_floor`` of that
    candidate's freshly built draft — exactly, not as a bound — and the
    predictor's elision verdict must be that floor against capacity."""
    g = _graph(name, batch)
    prof = FaultInjector(FaultSpec(profile_noise=0.05),
                         seed=FAULT_SEED).perturb_profile(
        run_profiling(g, machine))
    durs = prof.durations()
    opts = ScheduleOptions(policy=policy, forward_refetch_gap=gap)
    pred = predictor_mod.TimelinePredictor(g, prof, machine, policy=policy,
                                           forward_refetch_gap=gap)
    capacity = machine.usable_gpu_memory

    def fresh(cls):
        return ScheduleBuilder(g, cls, durs, opts, validate=False).build_raw()

    rng = random.Random(FAULT_SEED * 7919 + batch * 13
                        + len(g.classifiable_maps()))
    # step 2's first round probes every map of the step-1 plan, so the
    # all-swap extreme is probed in full; random splits are sampled
    currents = [(Classification.all_swap(g), len(g.classifiable_maps()))]
    for keeps, recs in _partitions(g, rng, n=3):
        currents.append((Classification.all_swap(g).with_classes(
            {m: MapClass.KEEP for m in keeps}
            | {m: MapClass.RECOMPUTE for m in recs}
        ), 5))
    probed = 0
    for current, k in currents:
        profile = LivenessProfile(*fresh(current))
        assert profile.floor == liveness_floor(*fresh(current))
        for x in _swapped_sample(current, rng, k):
            probed += 1
            want = liveness_floor(*fresh(current.with_class(x, MapClass.KEEP)))
            assert profile.keep_floor(x) == want, (current.key(), x)
            assert pred.provably_infeasible(current, x) == (want > capacity)
    assert probed, "no partition left a swapped map to probe"


def test_keep_floor_rejects_unswapped_maps():
    g = _graph("small_cnn", 8)
    prof = run_profiling(g, _MACHINE)
    kept = Classification.all_keep(g)
    profile = LivenessProfile(*ScheduleBuilder(
        g, kept, prof.durations(), validate=False).build_raw())
    with pytest.raises(ScheduleError, match="not swapped"):
        profile.keep_floor(g.classifiable_maps()[0])


def test_step2_drafts_the_keep_set_once(monkeypatch):
    """Every step-2 probe shares the step-1 keep set, so answering keep
    probes from current's liveness profile and patching recompute probes
    onto the memoized keep draft must call ``apply_keep_delta`` a small
    constant number of times per step 2 — not once per probe — while the
    search itself stays exactly what per-probe fresh drafts produce."""
    g = _graph("resnet18", 4)
    prof = run_profiling(g, _SLOW)

    def fresh_draft_verdict(self, current, x):
        kept = current.with_class(x, MapClass.KEEP)
        floor = liveness_floor(*ScheduleBuilder(
            self.graph, kept, self._durations, self.options,
            validate=False).build_raw())
        return floor > self.machine.usable_gpu_memory - self.capacity_margin

    def search(count_drafts: bool):
        clf = PoochClassifier(g, prof, _SLOW, config=PoochConfig())
        calls = [0]
        if count_drafts:
            real_delta = predictor_mod.apply_keep_delta
            real_step2 = clf._step2_swap_vs_recompute

            def counting_delta(*args, **kwargs):
                calls[0] += 1
                return real_delta(*args, **kwargs)

            def step2(*args, **kwargs):
                calls[0] = 0  # count step 2's drafts only
                return real_step2(*args, **kwargs)

            monkeypatch.setattr(predictor_mod, "apply_keep_delta",
                                counting_delta)
            monkeypatch.setattr(clf, "_step2_swap_vs_recompute", step2)
        cls, stats = clf.classify()
        monkeypatch.undo()
        return calls[0], (cls.key(), stats.keep_probes_elided,
                          stats.sims_step2, stats.r_rounds,
                          stats.flips_to_recompute)

    drafts, derived = search(count_drafts=True)
    monkeypatch.setattr(predictor_mod.TimelinePredictor,
                        "provably_infeasible", fresh_draft_verdict)
    _, oracle = search(count_drafts=False)
    assert derived == oracle
    _key, elided, sims_step2, _rounds, flips = derived
    # the memory-tight setup's search: every keep probe elided, six flips
    assert (elided, sims_step2, flips) == (21, 21, [3, 4, 6, 9, 14, 15])
    assert elided + sims_step2 >= 10 * max(drafts, 1)
    assert drafts <= 2, f"{drafts} keep drafts for one step 2"


def test_lazy_resume_index_leaves_the_search_unchanged(monkeypatch):
    """The predictor builds its resume index (divergence fronts, recompute
    windows) on first use instead of with the base draft.  Building it
    eagerly must give the same search on the memory-tight setup: plan,
    step-2 simulations, how many of them resumed, and every r-round."""
    g = _graph("resnet18", 4)
    prof = run_profiling(g, _SLOW)

    def search():
        clf = PoochClassifier(g, prof, _SLOW, config=PoochConfig())
        cls, stats = clf.classify()
        return (cls.key(), stats.sims_step2, stats.sims_step2_resumed,
                stats.r_rounds)

    lazy = search()
    real_base = predictor_mod.TimelinePredictor._ensure_base

    def eager_base(self):
        if self._base is None:
            real_base(self)
            self._ensure_fronts()

    monkeypatch.setattr(predictor_mod.TimelinePredictor, "_ensure_base",
                        eager_base)
    assert search() == lazy
    # as measured with the eager index
    _key, sims_step2, resumed, rounds = lazy
    assert (sims_step2, resumed, len(rounds)) == (21, 15, 6)


def test_keep_probe_elision_cuts_sims():
    """On a memory-tight machine every keep probe is provably infeasible:
    the search answers them from the liveness floor and halves the probe
    simulations against the oracle (which elides nothing), without
    touching any r-value."""
    g = _graph("resnet18", 4)
    prof = run_profiling(g, _SLOW)
    (on_cls, on), (off_cls, off) = _search_and_oracle_step2(g, prof, _SLOW)
    assert (on_cls.key(), on.r_rounds) == (off_cls.key(), off.r_rounds)
    assert off.keep_probes_elided == 0
    assert on.keep_probes_elided > 0
    # an elided probe is one keep simulation the oracle had to run
    assert on.keep_probes_elided <= on.r_recomputed
    assert on.sims_step2 < off.sims_step2


def test_non_eager_policies_fall_back_to_full_builds():
    """NAIVE/SUPERNEURONS swap-in triggers are not recompute-resumable; the
    gate must quietly fall back to full builds and choose the oracle's
    plan."""
    g = _graph("poster_example", 2)
    prof = run_profiling(g, _MACHINE)
    for policy in (SwapInPolicy.NAIVE, SwapInPolicy.SUPERNEURONS):
        cfg = PoochConfig(policy=policy)
        got = PoochClassifier(g, prof, _MACHINE, config=cfg).classify()
        want = classifier_on(OraclePredictor, g, prof, _MACHINE,
                             cfg).classify()
        assert search_fingerprint(*got) == search_fingerprint(*want)
