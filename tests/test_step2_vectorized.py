"""Batched step-2 probes: vectorized r(X) rounds == serial, composing with
the r-memo machinery and the plan cache.

The step-2 loop's keep probes ("X kept, everything else as in ``current``")
are batched into one lockstep sweep while ``current`` is pure keep/swap.
The contract mirrors the process-pool fan-out: absorbed outcomes must be
*exactly* what the serial predictor would have computed, consumed in the
serial order, so r-values, caches, simulation counts and the chosen plan
are bit-identical with ``vectorize`` on and off — in every combination with
``incremental_step2`` (probe elision + cross-round reuse).
"""

from __future__ import annotations

import os

import pytest

from repro.pooch.classifier import PoochClassifier, PoochConfig
from repro.pooch.predictor import TimelinePredictor
from repro.runtime.plan import Classification, MapClass
from repro.runtime.plan_io import PlanCache
from repro.runtime.profiler import run_profiling
from repro.models import build_model
from tests.conftest import tiny_machine

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

#: memory-tight machine: step 1 keeps little, leaving step 2 a real pool of
#: swap-vs-recompute decisions (and infeasible keep probes to elide)
_MACHINE = tiny_machine(mem_mib=160, link_gbps=2.0)


def _search(graph, **cfg_kw):
    prof = run_profiling(graph, _MACHINE)
    cfg = PoochConfig(**cfg_kw)
    clf = PoochClassifier(graph, prof, _MACHINE, config=cfg)
    cls, stats = clf.classify()
    return clf, cls, stats


def _fingerprint(cls, stats):
    return (
        cls.key(), stats.time_after_step1, stats.time_after_step2,
        stats.sims_step1, stats.sims_step2, stats.step2_rounds,
        stats.keep_probes_elided, stats.r_recomputed, stats.r_reused,
        tuple(sorted(stats.r_values.items())),
        tuple(tuple(sorted(r.items())) for r in stats.r_rounds),
        tuple(stats.flips_to_recompute),
    )


class TestVectorizedProbesMatchSerial:
    @pytest.mark.parametrize("name,batch",
                             [("resnet18", 4), ("mobilenet_v1", 4),
                              ("small_cnn", 16)])
    def test_r_table_and_plan_identical(self, name, batch):
        g = build_model(name, batch=batch)
        results = {}
        for vec in (True, False):
            _clf, cls, stats = _search(g, vectorize=vec)
            results[vec] = _fingerprint(cls, stats)
        assert results[True] == results[False]

    @pytest.mark.parametrize("memo", [True, False])
    def test_composes_with_r_memo(self, memo):
        """The memo's probe elision and cross-round reuse see the same
        caches whether probes were swept or simulated serially."""
        g = build_model("resnet18", 4)
        results = {}
        for vec in (True, False):
            _clf, cls, stats = _search(g, vectorize=vec,
                                       incremental_step2=memo)
            results[vec] = _fingerprint(cls, stats)
        assert results[True] == results[False]


class TestAbsorbedOutcomesExact:
    def test_swept_keep_probes_equal_fresh_serial_prediction(self):
        """White-box: every outcome `_vector_keep_probes` absorbs must equal
        a fresh, never-vectorized predictor's serial prediction exactly."""
        g = build_model("resnet18", 4)
        prof = run_profiling(g, _MACHINE)
        clf = PoochClassifier(g, prof, _MACHINE,
                              config=PoochConfig(vectorize=True))
        current = Classification.all_swap(g)
        pool = [m for m in current.classes if g[m].op.recomputable]
        probed = [current.with_class(x, MapClass.KEEP) for x in pool]
        assert all(clf.predictor.cached(c) is None for c in probed)
        clf._vector_keep_probes(current, pool, memo=False)
        serial = TimelinePredictor(g, prof, _MACHINE)
        hits = 0
        for keep_c in probed:
            got = clf.predictor.cached(keep_c)
            if got is None:
                continue  # engine-error probes stay serial by design
            hits += 1
            want = serial.predict(keep_c)
            assert got.feasible == want.feasible
            assert got.time == want.time  # exact, not approx
            assert got.peak_memory == want.peak_memory
            assert got.oom_context == want.oom_context
        assert hits > 0

    def test_elided_probes_are_not_swept(self):
        """Probes the liveness floor proves infeasible are skipped by
        `_r_value` — sweeping them would inflate the sim counters."""
        g = build_model("resnet18", 4)
        prof = run_profiling(g, _MACHINE)
        clf = PoochClassifier(g, prof, _MACHINE,
                              config=PoochConfig(vectorize=True,
                                                 incremental_step2=True))
        current = Classification.all_swap(g)
        pool = [m for m in current.classes if g[m].op.recomputable]
        elided = [x for x in pool
                  if clf.predictor.provably_infeasible(current, x)]
        before = clf.predictor.simulations
        clf._vector_keep_probes(current, pool, memo=True)
        absorbed = clf.predictor.simulations - before
        assert absorbed <= len(pool) - len(elided)
        for x in elided:
            assert clf.predictor.cached(
                current.with_class(x, MapClass.KEEP)) is None


class TestNoStaleReuseAcrossVectorizeFlip:
    def test_vectorize_is_in_the_plan_cache_signature(self):
        on = PoochConfig(vectorize=True).signature()
        off = PoochConfig(vectorize=False).signature()
        assert on != off

    def test_plan_cached_under_one_setting_misses_the_other(self, tmp_path):
        g = build_model("small_cnn", 8)
        cache = PlanCache(tmp_path)
        on, off = PoochConfig(vectorize=True), PoochConfig(vectorize=False)
        cache.store_plan(g, _MACHINE, on.signature(),
                         Classification.all_swap(g), predicted_time=1.0)
        assert cache.load_plan(g, _MACHINE, on.signature()) is not None
        assert cache.load_plan(g, _MACHINE, off.signature()) is None

    def test_mid_run_vectorization_loss_stays_serial_exact(self):
        """If the sweep path refuses mid-search (`_vec_failed`), the rest of
        the search runs serially and still returns the identical plan."""
        g = build_model("small_cnn", 16)
        prof = run_profiling(g, _MACHINE)
        ref_clf = PoochClassifier(g, prof, _MACHINE,
                                  config=PoochConfig(vectorize=False))
        ref_cls, ref_stats = ref_clf.classify()
        clf = PoochClassifier(g, prof, _MACHINE,
                              config=PoochConfig(vectorize=True))
        clf.predictor._vec_failed = True  # simulate a mid-run refusal
        cls, stats = clf.classify()
        assert stats.sims_vectorized == 0
        assert cls.key() == ref_cls.key()
        assert stats.time_after_step2 == ref_stats.time_after_step2
        assert tuple(sorted(stats.r_values.items())) == tuple(
            sorted(ref_stats.r_values.items()))
