"""Batched step-2 probes: vectorized r(X) rounds == serial, composing with
keep-probe elision.

Each step-2 round answers its uncached probes — "X recomputed" for the
whole pool, and "X kept" where the liveness floor does not elide it — with
one lockstep sweep over their delta drafts.  Absorbed outcomes must be
*exactly* what the serial predictor would have computed, consumed in the
serial order, so r-values, caches, simulation counts and the chosen plan
are those of a serial search (zoo-wide plan identity against the oracle
lives in ``tests/test_search_oracle.py``).
"""

from __future__ import annotations

from repro.pooch.classifier import PoochClassifier, PoochConfig, _FlipTree
from repro.runtime.plan import Classification, MapClass
from repro.runtime.profiler import run_profiling
from repro.models import build_model
from tests.conftest import SerialPredictor, classifier_on, tiny_machine

#: memory-tight machine: step 1 keeps little, leaving step 2 a real pool of
#: swap-vs-recompute decisions (and infeasible keep probes to elide)
_MACHINE = tiny_machine(mem_mib=160, link_gbps=2.0)


def _probes(g, current):
    pool = [m for m in current.maps_of(MapClass.SWAP)
            if g[m].op.recomputable]
    return pool, [current.with_class(x, c) for x in pool
                  for c in (MapClass.RECOMPUTE, MapClass.KEEP)]


class TestAbsorbedOutcomesExact:
    def test_swept_keep_probes_equal_fresh_serial_prediction(self):
        """White-box: every outcome a round's sweep absorbs — recompute and
        keep probes alike, from a current plan that already recomputes —
        must equal a fresh, never-vectorized predictor's serial prediction
        exactly."""
        g = build_model("resnet18", 4)
        prof = run_profiling(g, _MACHINE)
        clf = PoochClassifier(g, prof, _MACHINE, config=PoochConfig())
        recable = [m for m in g.classifiable_maps() if g[m].op.recomputable]
        serial = classifier_on(SerialPredictor, g, prof, _MACHINE).predictor
        hits = 0
        for current in (Classification.all_swap(g),
                        Classification.all_swap(g).with_classes(
                            {m: MapClass.RECOMPUTE for m in recable[::3]}
                            | {m: MapClass.KEEP for m in recable[1::5]})):
            pool, probed = _probes(g, current)
            assert all(clf.predictor.cached(c) is None for c in probed)
            clf._sweep_round(current, pool, _FlipTree())
            for cls in probed:
                got = clf.predictor.cached(cls)
                if got is None:
                    continue  # elided or engine-error probes stay serial
                hits += 1
                want = serial.predict(cls)
                assert got.feasible == want.feasible
                assert got.time == want.time  # exact, not approx
                assert got.peak_memory == want.peak_memory
                assert got.oom_context == want.oom_context
        assert hits > 0
        assert clf.stats.sims_vectorized == hits

    def test_elided_probes_are_not_swept(self):
        """Probes the liveness floor proves infeasible are skipped by
        `_r_value` — sweeping them would inflate the sim counters."""
        g = build_model("resnet18", 4)
        prof = run_profiling(g, _MACHINE)
        clf = PoochClassifier(g, prof, _MACHINE, config=PoochConfig())
        current = Classification.all_swap(g)
        pool, _probed = _probes(g, current)
        elided = [x for x in pool
                  if clf.predictor.provably_infeasible(current, x)]
        before = clf.predictor.simulations
        clf._sweep_round(current, pool, _FlipTree())
        absorbed = clf.predictor.simulations - before
        assert absorbed <= 2 * len(pool) - len(elided)
        for x in elided:
            assert clf.predictor.cached(
                current.with_class(x, MapClass.KEEP)) is None


class TestNoStaleReuseAcrossVectorizeFlip:
    def test_mid_run_vectorization_loss_stays_serial_exact(self):
        """If the sweep path refuses mid-search (`_vec_failed`), the rest of
        the search runs serially and still returns the identical plan."""
        g = build_model("small_cnn", 16)
        prof = run_profiling(g, _MACHINE)
        ref_cls, ref_stats = classifier_on(SerialPredictor, g, prof,
                                           _MACHINE).classify()
        clf = PoochClassifier(g, prof, _MACHINE, config=PoochConfig())
        clf.predictor._vec_failed = True  # simulate a mid-run refusal
        cls, stats = clf.classify()
        assert stats.sims_vectorized == 0
        assert cls.key() == ref_cls.key()
        assert stats.time_after_step2 == ref_stats.time_after_step2
        assert tuple(sorted(stats.r_values.items())) == tuple(
            sorted(ref_stats.r_values.items()))
