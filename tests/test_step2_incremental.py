"""Incremental step-2 search: recompute-delta drafts, lockstep r(X) rounds,
keep-probe elision.

Same contract as ``tests/test_search_pruning.py``, extended to step 2: the
incremental machinery may only change how much work the swap-vs-recompute
loop does, never what it returns.

* recompute-delta drafts (``apply_recompute_delta``) must be task-for-task
  identical to a fresh ``ScheduleBuilder`` build for the same classification,
  for random keep/recompute partitions across the model zoo under the
  EAGER swap-in policy (recompute flips under any other policy raise) —
  patched from a keep-only patch of the all-swap base, and as step 2
  drafts its probes: one- and two-flip patches of a current plan's own
  draft, which must leave that draft untouched;
* step 2 run from the same step-1 plan returns the identical plan,
  predicted time, peak memory and r(X) table with its machinery on (the
  search) and off (the oracle's from-scratch step 2), on both machines;
* every step-2 probe runs in a lockstep sweep, its round's or an earlier
  round's speculation: on a step-2-heavy configuration no probe falls back
  to the event engine, a nine-round chain sweeps three times, and the
  plan is the oracle's (zoo-wide plan identity against the oracle lives
  in ``tests/test_search_oracle.py``);
* speculating later rounds changes no decision: with the speculation
  tree on, off, or ranking the pool backwards, plans, r-values, flips,
  simulation counts, elided keep probes and the cached outcomes are
  identical under ``FAULT_SEED`` noise;
* keep-probe elision is sound by construction: ``liveness_floor`` is an
  admissible bound (never above a feasible run's simulated peak), so a
  floor above capacity proves the simulation could only answer
  "infeasible" — elided probes change no r-value;
* the keep-probe floor step 2 derives from the current plan's liveness
  profile (``LivenessProfile.keep_floor``) equals ``liveness_floor`` of the
  freshly built "X kept" draft exactly, across the zoo, both machines, all
  swap-in policies, forward re-fetch on/off and perturbed profiles — and
  answering probes that way patches the step-1 keep set onto the all-swap
  base once per step 2, not once per probe.
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
    _FlipTree,
)
from repro.gpusim.engine import StreamName, TaskKind
from repro.runtime.plan import Classification, MapClass, SwapInPolicy
from repro.runtime.profiler import run_profiling
from repro.runtime.schedule import (
    LivenessProfile,
    ScheduleBuilder,
    ScheduleOptions,
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


# recompute flips exist under EAGER only (see
# test_recompute_delta_refuses_non_eager_policies)
@pytest.mark.parametrize("policy", [SwapInPolicy.EAGER],
                         ids=lambda p: p.name.lower())
@pytest.mark.parametrize("name,batch", _ZOO)
def test_recompute_delta_equals_fresh_build(name, batch, policy):
    """apply_recompute_delta(keep-only patch of the all-swap base, ...) ==
    ScheduleBuilder for the same keep/recompute sets, for random partitions
    across the zoo."""
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
        kd = apply_recompute_delta(*base, g, durs, opts, keeps, ()).draft
        delta = apply_recompute_delta(kd[0], kd[1], kd[2], g, durs, opts,
                                      keeps, recs).draft
        _assert_drafts_equal(delta, fresh)


def _draft_signature(draft):
    """Everything a draft says, engine-visible or not (kind, stream and
    each swap-in/recompute task's root included; ``io`` aside), in
    comparable form."""
    tasks, queues, buffers = draft
    return (
        {tid: (t.kind, t.stream, t.layer, t.duration, t.scratch_bytes,
               t.memory_gated, t.headroom, t.alloc_on_ready, t.root,
               frozenset(t.deps), frozenset(t.start_deps),
               frozenset(t.reads))
         for tid, t in tasks.items()},
        {s: list(queues.get(s, [])) for s in
         (StreamName.COMPUTE, StreamName.H2D, StreamName.D2H)},
        {bid: (b.nbytes, b.host, b.alloc_by, frozenset(b.writers),
               frozenset(b.readers))
         for bid, b in buffers.items()},
    )


def _split(cls):
    return (set(cls.maps_of(MapClass.KEEP)),
            set(cls.maps_of(MapClass.RECOMPUTE)))


def check_plan_patches(g, durs, current, rng, n_one=6, n_two=4):
    """Every sampled one-flip (swap→recompute, swap→keep) and two-flip
    (recompute+recompute, keep+recompute) patch of ``current``'s own EAGER
    draft equals the fresh build of its classification, and the base
    draft is left untouched.  Returns which local effects the patches
    exercised."""
    opts = ScheduleOptions(policy=SwapInPolicy.EAGER)

    def builder(cls):
        return ScheduleBuilder(g, cls, durs, opts, validate=False)

    base = builder(current).build_raw()
    before = _draft_signature(base)
    swapped = current.maps_of(MapClass.SWAP)
    recable = [m for m in swapped if g[m].op.recomputable]
    # the earliest map's chain splices at the very end of the backward
    # pass and tends to out-allocate every backward task
    ones = rng.sample(recable, min(n_one, len(recable)))
    ones += [m for m in recable[:1] if m not in ones]
    trials = [current.with_class(x, MapClass.RECOMPUTE) for x in ones]
    trials += [current.with_class(x, MapClass.KEEP)
               for x in rng.sample(swapped, min(n_one // 2, len(swapped)))]
    for _ in range(n_two if len(recable) > 1 else 0):
        x, y = rng.sample(recable, 2)
        trials.append(current.with_classes({
            x: rng.choice([MapClass.RECOMPUTE, MapClass.KEEP]),
            y: MapClass.RECOMPUTE}))
    seen = dict.fromkeys(("headroom", "h2d_resort", "read_in_chain",
                          "moved_chain"), False)
    base_h = max((t.headroom for t in base[0].values()
                  if t.kind is TaskKind.SWAP_IN), default=0)
    for trial in trials:
        patch = apply_recompute_delta(*base, g, durs, opts, *_split(trial))
        fresh = builder(trial)
        want = fresh.build_raw()
        assert _draft_signature(patch.draft) == _draft_signature(want), (
            current.key(), trial.key())
        tasks, queues, _ = patch.draft
        flips = [m for m in trial.maps_of(MapClass.RECOMPUTE)
                 if current.classes[m] is MapClass.SWAP]
        seen["headroom"] |= any(t.headroom > base_h for t in tasks.values()
                                if t.kind is TaskKind.SWAP_IN)
        # a flipped map's root first reads its swap-ins in another order
        # than it created them, so the patch must re-sort that H2D group
        roots = {base[0][f"SI{x}"].root for x in flips}
        created = [t for t in fresh._si_first_reader
                   if tasks[t].root in roots]
        seen["h2d_resort"] |= created != [
            t for t in queues[StreamName.H2D]
            if tasks[t].kind is TaskKind.SWAP_IN and tasks[t].root in roots]
        seen["read_in_chain"] |= any(
            rid.startswith("R") for x in flips
            for rid in base[2][f"fm{x}@b"].readers)
        seen["moved_chain"] |= any(
            tid.startswith("R") and tid in base[0]
            and t.root != base[0][tid].root
            for tid, t in patch.tasks.items())
    assert _draft_signature(base) == before, "patching mutated the base"
    return seen


def test_plan_patches_equal_fresh_builds():
    """Step 2 patches its probes from the current plan's own draft: one-
    and two-flip patches of random keep/swap/recompute plans, across the
    zoo, both tiny machines and ``FAULT_SEED`` profile noise, must equal
    fresh builds task for task (deps, reads, durations, headroom, roots),
    queue for queue and buffer for buffer — and the fixtures must reach
    every local effect a recompute flip has: a raised EAGER headroom, a
    re-sorted H2D group, the flipped map read inside another recompute
    chain, and a chain input moving from a later root into the flip's."""
    seen: dict[str, bool] = {}
    # densenet's concatenations give recompute chains several swapped
    # inputs, resolved in graph order but first read in chain order
    cases = [(zoo, machine) for zoo in _ZOO for machine in (_MACHINE, _SLOW)]
    cases.append((("densenet121", 2), _MACHINE))
    for (name, batch), machine in cases:
        g = _graph(name, batch)
        durs = FaultInjector(FaultSpec(profile_noise=0.05),
                             seed=FAULT_SEED).perturb_profile(
            run_profiling(g, machine)).durations()
        rng = random.Random(FAULT_SEED * 613 + batch
                            + len(g.classifiable_maps()))
        for keeps, recs in [(set(), set())] + _partitions(g, rng, n=2):
            current = Classification.all_swap(g).with_classes(
                {m: MapClass.KEEP for m in keeps}
                | {m: MapClass.RECOMPUTE for m in recs})
            if not current.maps_of(MapClass.SWAP):
                continue
            for k, v in check_plan_patches(g, durs, current,
                                           rng).items():
                seen[k] = seen.get(k, False) or v
    assert all(seen.values()), f"fixtures lost their bite: {seen}"


def test_recompute_delta_leaves_base_unmodified():
    g = _graph("small_cnn", 8)
    prof = run_profiling(g, _MACHINE)
    durs = prof.durations()
    opts = ScheduleOptions()
    base = ScheduleBuilder(g, Classification.all_swap(g), durs, opts,
                           validate=False).build_raw()
    keeps = set(g.classifiable_maps()[::3])
    kd = apply_recompute_delta(*base, g, durs, opts, keeps, ()).draft
    ref = apply_recompute_delta(*base, g, durs, opts, keeps, ()).draft
    recs = {m for m in g.classifiable_maps()
            if g[m].op.recomputable and m not in keeps}
    apply_recompute_delta(kd[0], kd[1], kd[2], g, durs, opts, keeps, recs)
    _assert_drafts_equal(kd, ref)


@pytest.mark.parametrize("policy",
                         [SwapInPolicy.NAIVE, SwapInPolicy.SUPERNEURONS],
                         ids=lambda p: p.name.lower())
def test_recompute_delta_refuses_non_eager_policies(policy):
    """NAIVE/SUPERNEURONS start triggers reference compute positions that a
    spliced recompute chain shifts all over the draft: a recompute flip
    under them raises, naming the policy, and leaves the base untouched."""
    g = _graph("resnet18", 4)
    durs = run_profiling(g, _MACHINE).durations()
    opts = ScheduleOptions(policy=policy)
    base = ScheduleBuilder(g, Classification.all_swap(g), durs, opts,
                           validate=False).build_raw()
    before = _draft_signature(base)
    recs = {min(m for m in g.classifiable_maps() if g[m].op.recomputable)}
    with pytest.raises(ScheduleError, match=policy.name):
        apply_recompute_delta(base[0], base[1], base[2], g, durs, opts,
                              set(), recs)
    assert _draft_signature(base) == before


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
                                      opts, set(), recs).draft
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


def test_step2_round_stats_populated():
    g = _graph("resnet18", 4)
    prof = run_profiling(g, _SLOW)
    clf = PoochClassifier(g, prof, _SLOW, config=PoochConfig())
    _cls, stats = clf.classify()
    assert stats.step2_rounds >= 1
    # one r-value history entry per round (bounded), first == r_values
    assert len(stats.r_rounds) == min(stats.step2_rounds, R_ROUNDS_LIMIT)
    assert stats.r_rounds[0] == stats.r_values
    assert stats.r_recomputed == sum(len(r) for r in stats.r_rounds)
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
    """Step 2 with its machinery on (the search: delta drafts, lockstep
    r(X) rounds, keep-probe elision) and off (the oracle's from-scratch
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


def test_step2_probes_run_in_one_sweep_per_round(monkeypatch):
    """On a step-2-heavy config every step-2 probe is answered by a
    lockstep sweep — its round's, or an earlier round's speculation — so
    no probe falls back to the event engine, and the search still returns
    the oracle's plan (which simulates every step-2 candidate from
    scratch).  A sweep speculates several rounds ahead, so a nine-round
    chain sweeps three times: the first round (no r-values to rank by
    yet), the second (with no hit tally yet, speculation pays for one
    level) and once more for the rest."""
    g = _graph("mobilenet_v1", 4)
    prof = run_profiling(g, _SLOW)
    sweeps = []
    real = predictor_mod.TimelinePredictor.predict_variant_batch

    def counting(self, classifications, paths=None):
        outs = real(self, classifications, paths)
        if outs is not None:  # the oracle's predictor never sweeps
            sweeps.append(len(classifications))
        return outs

    monkeypatch.setattr(predictor_mod.TimelinePredictor,
                        "predict_variant_batch", counting)
    (cls, stats), (ref_cls, ref) = _search_and_oracle_step2(g, prof, _SLOW)
    assert cls.key() == ref_cls.key()
    assert stats.flips_to_recompute == ref.flips_to_recompute
    assert stats.sims_fallback == 0
    assert stats.step2_rounds == 9
    assert len(sweeps) == stats.step2_sweeps == 3
    assert sum(sweeps) == stats.step2_rows
    assert stats.step2_staged_hits <= stats.step2_staged_rows
    assert sum(sweeps) >= stats.sims_step2 > 0


def _search(g, prof, machine, monkeypatch, tree=None, rank=None):
    """A search whose speculation tree grows by ``tree`` and ranks by
    ``rank`` (the search's own when None); returns the classifier (its
    step-1 plan in ``step1``), the plan and the stats."""
    with monkeypatch.context() as patch:
        if tree is not None:
            patch.setattr(_FlipTree, "grow", tree)
        if rank is not None:
            patch.setattr(PoochClassifier, "_rank", staticmethod(rank))
        clf = PoochClassifier(g, prof, machine)
        step2 = clf._step2_swap_vs_recompute

        def from_step1(step1):
            clf.step1 = step1
            return step2(step1)

        clf._step2_swap_vs_recompute = from_step1
        cls, stats = clf.classify()
    return clf, cls, stats


def _decisions(clf, cls, stats) -> tuple:
    """What step 2 decided and simulated, and the outcomes it cached."""
    return (cls.key(), stats.r_rounds, stats.flips_to_recompute,
            stats.sims_step1, stats.sims_step2, stats.sims_vectorized,
            stats.sims_fallback, stats.keep_probes_elided,
            stats.time_after_step2, set(clf.predictor._cache))


@pytest.mark.parametrize("machine", [_MACHINE, _SLOW],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("name,batch", _ZOO + [("mobilenet_v1", 4)])
def test_speculation_changes_no_decision(name, batch, machine, monkeypatch):
    """Speculating later rounds may change how much work step 2 does,
    never what it decides.  Against the same search with a tree that
    stages nothing, the plan, every round's r-values, the flips, the
    simulation split and the elided keep probes are identical, and the
    predictor caches hold the same outcomes: staged ones never enter
    unread.  That holds for the tree's own ranking and for the pool
    ranked backwards, so that its branches predict the flips least likely
    to be taken — and the plan, r-values and flips are those of the
    oracle's from-scratch step 2 run from the same step-1 plan."""
    g = _graph(name, batch)
    prof = FaultInjector(FaultSpec(profile_noise=0.1),
                         seed=FAULT_SEED).perturb_profile(
        run_profiling(g, machine), g, machine)
    flat = _decisions(*_search(g, prof, machine, monkeypatch,
                               tree=lambda self, *args: ([], [])))
    clf, cls, stats = _search(g, prof, machine, monkeypatch)
    assert _decisions(clf, cls, stats) == flat
    back = _search(g, prof, machine, monkeypatch,
                   rank=lambda pool, r: sorted(pool, key=r.__getitem__)[::-1])
    assert _decisions(*back) == flat
    if (name, batch, machine) == ("mobilenet_v1", 4, _SLOW):
        # a nine-round chain: the backward tree misses where the search's
        # own ranking hits
        assert back[2].step2_staged_hits < back[2].step2_staged_rows
        assert back[2].step2_staged_hits < stats.step2_staged_hits
    oracle = classifier_on(OraclePredictor, g, prof, machine)
    oracle.predictor.predict(clf.step1)  # cached after step 1, as in a search
    ref_cls = oracle._step2_swap_vs_recompute(clf.step1)
    assert (cls.key(), stats.r_rounds, stats.flips_to_recompute) == (
        ref_cls.key(), oracle.stats.r_rounds,
        oracle.stats.flips_to_recompute)


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
                assert (liveness_floor(*pred._sim_draft(kept))
                        <= out.peak_memory)
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
    onto the memoized plan draft must call ``apply_recompute_delta`` on
    the all-swap base (drafting the keep set, with no recomputes) a small
    constant number of times per step 2 — not once per probe — and every
    other call must
    patch at most two flips onto its base (a probe of current, a
    speculative probe of the next plan, or the next plan itself), never
    replay the plan's recompute chains from the keep draft — while the
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
            pred = clf.predictor
            real_patch = predictor_mod.apply_recompute_delta
            real_step2 = clf._step2_swap_vs_recompute

            def counting_patch(tasks, queues, buffers, graph, durations,
                               options, keeps, recomputes):
                if pred._base is not None and tasks is pred._base[0]:
                    calls[0] += 1  # the keep set drafted from all-swap
                    base_recomputes.append(len(recomputes))
                else:
                    patched.append(sum(f"SO{m}" in tasks for m
                                       in set(keeps) | set(recomputes)))
                return real_patch(tasks, queues, buffers, graph, durations,
                                  options, keeps, recomputes)

            def step2(*args, **kwargs):
                calls[0] = 0  # count step 2's drafts only
                patched.clear()
                base_recomputes.clear()
                return real_step2(*args, **kwargs)

            monkeypatch.setattr(predictor_mod, "apply_recompute_delta",
                                counting_patch)
            monkeypatch.setattr(clf, "_step2_swap_vs_recompute", step2)
        cls, stats = clf.classify()
        monkeypatch.undo()
        return calls[0], (cls.key(), stats.keep_probes_elided,
                          stats.sims_step2, stats.r_rounds,
                          stats.flips_to_recompute)

    patched: list[int] = []  # flips per patch of a non-base draft
    base_recomputes: list[int] = []  # recomputes per patch of the base
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
    assert not any(base_recomputes), base_recomputes  # keep-only drafts
    assert patched and max(patched) <= 2, patched


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
    """NAIVE/SUPERNEURONS swap-in triggers are neither delta-draftable
    with recomputes nor expressible in lockstep; the gates must quietly
    fall back to full builds on the event engine and choose the oracle's
    plan."""
    g = _graph("poster_example", 2)
    prof = run_profiling(g, _MACHINE)
    for policy in (SwapInPolicy.NAIVE, SwapInPolicy.SUPERNEURONS):
        cfg = PoochConfig(policy=policy)
        got = PoochClassifier(g, prof, _MACHINE, config=cfg).classify()
        want = classifier_on(OraclePredictor, g, prof, _MACHINE,
                             cfg).classify()
        assert search_fingerprint(*got) == search_fingerprint(*want)
