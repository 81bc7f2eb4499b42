"""PlanCache: persistent plans and simulation outcomes across runs.

Covers the signature keying, the JSON round trip (including ±inf outcome
times), PoocH's warm start, DynamicPoocH's cross-instance reuse, and the
``classifiable_maps`` provenance check that used to be stored but never
validated on load.
"""

from __future__ import annotations

import json
import re
import threading

import pytest

from repro.common.errors import ScheduleError
from repro.models import linear_chain, mlp, poster_example
from repro.pooch import PoocH, PoochConfig
from repro.pooch.dynamic import DynamicPoocH
from repro.runtime.plan import Classification, MapClass
from repro.runtime.plan_io import (
    PlanCache,
    graph_signature,
    key_from_str,
    key_to_str,
    machine_signature,
    plan_from_dict,
    plan_to_dict,
)
from tests.conftest import tiny_machine

CFG = PoochConfig(max_exact_li=4, step1_sim_budget=100)


@pytest.fixture
def machine():
    return tiny_machine(mem_mib=224)


class TestSignatures:
    def test_graph_signature_is_structural(self):
        assert graph_signature(poster_example()) == graph_signature(
            poster_example()
        )
        assert graph_signature(poster_example(batch=64)) != graph_signature(
            poster_example(batch=128)
        )
        assert graph_signature(poster_example()) != graph_signature(mlp())

    def test_machine_signature_reflects_capacity(self):
        assert machine_signature(tiny_machine(mem_mib=160)) != machine_signature(
            tiny_machine(mem_mib=224)
        )

    def test_key_str_roundtrip(self):
        key = ((0, "swap"), (3, "keep"), (7, "recompute"))
        assert key_from_str(key_to_str(key)) == key
        assert key_from_str(key_to_str(())) == ()


class TestPlanStore:
    def test_roundtrip(self, tmp_path, machine):
        g = poster_example()
        cls = Classification.all_swap(g).with_class(
            g.classifiable_maps()[2], MapClass.KEEP
        )
        cache = PlanCache(tmp_path)
        cache.store_plan(g, machine, CFG.signature(), cls, predicted_time=0.5)
        hit = cache.load_plan(g, machine, CFG.signature())
        assert hit is not None
        loaded, meta = hit
        assert loaded.key() == cls.key()
        assert meta["predicted_time_s"] == 0.5

    def test_miss_on_different_config(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        cache.store_plan(g, machine, "cfg-a", Classification.all_swap(g))
        assert cache.load_plan(g, machine, "cfg-b") is None

    def test_miss_on_different_machine(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        cache.store_plan(g, machine, "cfg", Classification.all_swap(g))
        assert cache.load_plan(g, tiny_machine(mem_mib=320), "cfg") is None

    def test_uncreatable_root_fails_loudly(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ScheduleError, match="plan cache"):
            PlanCache(blocker / "cache")

    def test_corrupt_file_is_a_miss(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        path = cache.store_plan(g, machine, "cfg", Classification.all_swap(g))
        path.write_text("{not json")
        assert cache.load_plan(g, machine, "cfg") is None


class TestOutcomeStore:
    def test_merge_and_load(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        entries = {
            ((0, "swap"), (1, "keep")): {
                "feasible": True, "time": 0.25, "peak_memory": 123,
                "oom_context": "",
            },
            ((0, "keep"), (1, "keep")): {
                "feasible": False, "time": float("inf"), "peak_memory": 0,
                "oom_context": "F1",
            },
        }
        assert cache.merge_outcomes(g, machine, "sig", entries) == 2
        loaded = cache.load_outcomes(g, machine, "sig")
        assert loaded == entries  # floats (incl. inf) survive JSON exactly

    def test_merge_is_a_union(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        one = {((0, "swap"),): {"feasible": True, "time": 1.0,
                                "peak_memory": 1, "oom_context": ""}}
        two = {((0, "keep"),): {"feasible": True, "time": 2.0,
                                "peak_memory": 2, "oom_context": ""}}
        cache.merge_outcomes(g, machine, "sig", one)
        assert cache.merge_outcomes(g, machine, "sig", two) == 2
        assert len(cache.load_outcomes(g, machine, "sig")) == 2

    def test_signature_scoping(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        entry = {((0, "swap"),): {"feasible": True, "time": 1.0,
                                  "peak_memory": 1, "oom_context": ""}}
        cache.merge_outcomes(g, machine, "profile-a", entry)
        assert cache.load_outcomes(g, machine, "profile-b") == {}


class TestPoochWarmStart:
    def test_second_optimize_hits_the_plan_cache(self, tmp_path, machine):
        g = poster_example()
        cold = PoocH(machine, CFG, plan_cache=tmp_path).optimize(g)
        assert not cold.stats.plan_cache_hit
        warm = PoocH(machine, CFG, plan_cache=tmp_path).optimize(g)
        assert warm.stats.plan_cache_hit
        assert warm.classification.key() == cold.classification.key()
        assert warm.predicted.time == cold.predicted.time
        assert warm.stats.sims_step1 == 0 and warm.stats.sims_step2 == 0
        assert "(from plan cache)" in warm.summary()

    def test_cache_hit_verifies_with_one_serial_simulation(
        self, tmp_path, machine, monkeypatch
    ):
        # a plan-only cache makes the hit re-verify by one simulation; that
        # lone replay runs on the event engine, so the predictor must build
        # its base draft but never compile the lockstep tables a search uses
        from repro.pooch.predictor import TimelinePredictor

        g = poster_example()
        cold = PoocH(machine, CFG).optimize(g)
        PlanCache(tmp_path).store_plan(g, machine, CFG.signature(),
                                       cold.classification,
                                       predicted_time=cold.predicted.time)
        seen = []
        real_predict = TimelinePredictor.predict

        def spy(self, classification):
            seen.append(self)
            return real_predict(self, classification)

        monkeypatch.setattr(TimelinePredictor, "predict", spy)
        warm = PoocH(machine, CFG, plan_cache=tmp_path).optimize(g)
        assert warm.stats.plan_cache_hit
        assert warm.predicted == cold.predicted
        predictor = seen[0]
        assert all(p is predictor for p in seen)
        assert predictor.simulations == 1
        assert predictor._base is not None
        assert predictor._vec_engine is None

    def test_cache_hit_never_parses_the_outcome_store(
        self, tmp_path, machine, monkeypatch
    ):
        # the outcome store holds every simulation of the cold search; a hit
        # re-verifies one plan, so it must not read the store — only a
        # search that follows a miss or a rejected hit does
        from repro.pooch.predictor import TimelinePredictor

        g = poster_example()
        cold = PoocH(machine, CFG, plan_cache=tmp_path).optimize(g)
        sig = TimelinePredictor(g, cold.profile, machine).sim_signature()
        assert PlanCache(tmp_path).load_outcomes(g, machine, sig)
        reads = []
        real = PlanCache.load_outcomes

        def spy(self, *args):
            reads.append(args)
            return real(self, *args)

        monkeypatch.setattr(PlanCache, "load_outcomes", spy)
        warm = PoocH(machine, CFG, plan_cache=tmp_path).optimize(g)
        assert warm.stats.plan_cache_hit
        assert reads == []
        assert warm.classification.key() == cold.classification.key()
        assert warm.predicted == cold.predicted
        # DynamicPoocH's per-size planning takes the same path
        dyn = DynamicPoocH(machine, lambda batch: poster_example(batch=batch),
                           CFG, plan_cache=tmp_path)
        assert dyn._optimize(64).key() == cold.classification.key()
        assert reads == []

    def test_outcomes_warm_start_skips_all_simulations(self, tmp_path, machine):
        # drop the plan but keep the outcomes: the re-search replays
        # entirely from the cache and lands on the same plan for free
        g = poster_example()
        cache = PlanCache(tmp_path)
        cold = PoocH(machine, CFG, plan_cache=cache).optimize(g)
        cache.plan_path(g, machine, CFG.signature()).unlink()
        redo = PoocH(machine, CFG, plan_cache=cache).optimize(g)
        assert not redo.stats.plan_cache_hit
        assert redo.classification.key() == cold.classification.key()
        assert redo.stats.sims_step1 == 0 and redo.stats.sims_step2 == 0

    def test_different_config_searches_but_shares_outcomes(
        self, tmp_path, machine
    ):
        from dataclasses import replace

        g = poster_example()
        PoocH(machine, CFG, plan_cache=tmp_path).optimize(g)
        other = replace(CFG, step1_sim_budget=150)
        redo = PoocH(machine, other, plan_cache=tmp_path).optimize(g)
        assert not redo.stats.plan_cache_hit  # plan keyed by config
        # but the shared outcome store still serves the overlapping sims
        assert redo.stats.sims_step1 == 0

    def test_preloaded_leaves_are_walked_past_the_budget(
        self, tmp_path, machine
    ):
        # leaves whose outcomes the plan cache preloaded cost no simulation,
        # so a tiny-budget re-search still walks every leaf the exhaustive
        # search did and lands on its plan
        from dataclasses import replace

        g = poster_example(batch=64)
        cold = PoocH(machine, replace(CFG, step1_sim_budget=100_000),
                     plan_cache=tmp_path).optimize(g)
        warm = PoocH(machine, replace(CFG, step1_sim_budget=2),
                     plan_cache=tmp_path).optimize(g)
        assert warm.stats.sims_step1 == 0
        assert warm.stats.leaves_evaluated == cold.stats.leaves_evaluated > 3
        assert warm.classification.key() == cold.classification.key()

    def test_path_and_plancache_arguments_equivalent(self, tmp_path, machine):
        p = PoocH(machine, CFG, plan_cache=str(tmp_path))
        assert isinstance(p.plan_cache, PlanCache)


class TestDynamicPoochCache:
    def test_plans_persist_across_instances(self, tmp_path, machine):
        import repro.pooch.dynamic as dyn

        def build(batch):
            return linear_chain(6, batch=batch, channels=32, image=64)

        cfg = PoochConfig(max_exact_li=3, step1_sim_budget=120)
        first = DynamicPoocH(machine, build, cfg, plan_cache=tmp_path)
        first.run_stream([16, 32])
        plans = {s: first._plans[s].key() for s in (16, 32)}

        # a fresh instance (fresh process, conceptually) must reuse the
        # cached plans without ever invoking the classifier
        second = DynamicPoocH(machine, build, cfg, plan_cache=tmp_path)

        class Boom:
            def __init__(self, *a, **kw):
                raise AssertionError("search ran despite a cached plan")

        real = dyn.PoochClassifier
        dyn.PoochClassifier = Boom
        try:
            second.run_stream([16, 32])
        finally:
            dyn.PoochClassifier = real
        assert {s: second._plans[s].key() for s in (16, 32)} == plans


class TestSignatureMemoization:
    def test_graph_signature_memoized_on_instance(self):
        g = poster_example()
        assert "_graph_signature" not in g.__dict__
        sig = graph_signature(g)
        assert g.__dict__["_graph_signature"] == sig
        assert graph_signature(g) == sig  # served from the memo

    def test_validate_drops_the_memo(self):
        g = poster_example()
        sig = graph_signature(g)
        g.validate()  # the sanctioned re-check after mutation
        assert "_graph_signature" not in g.__dict__
        assert graph_signature(g) == sig  # recomputed, structurally equal

    def test_memo_does_not_leak_across_instances(self):
        assert graph_signature(poster_example(batch=64)) != graph_signature(
            poster_example(batch=128)
        )

    def test_machine_signature_cached_per_spec(self):
        machine_signature.cache_clear()
        m = tiny_machine(mem_mib=192)
        before = machine_signature.cache_info().hits
        machine_signature(m)
        machine_signature(m)
        assert machine_signature.cache_info().hits == before + 1


class TestAtomicWrites:
    def test_no_temp_files_left_behind(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        cache.store_plan(g, machine, "cfg", Classification.all_swap(g))
        cache.merge_outcomes(g, machine, "sig", {
            ((0, "swap"),): {"feasible": True, "time": 1.0,
                             "peak_memory": 1, "oom_context": ""},
        })
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []

    def test_concurrent_store_load_never_sees_a_torn_plan(
        self, tmp_path, machine
    ):
        # regression: store_plan used a plain write_text, so a reader (a
        # second optimize process, or another serve worker sharing the
        # directory) could observe a JSON prefix mid-write and fail — or
        # worse, a corrupt-but-parseable document
        g = poster_example()
        cache = PlanCache(tmp_path)
        plans = [
            Classification.all_swap(g),
            Classification.all_swap(g).with_class(
                g.classifiable_maps()[0], MapClass.KEEP
            ),
        ]
        valid_keys = {c.key() for c in plans}
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer() -> None:
            i = 0
            try:
                while not stop.is_set():
                    cache.store_plan(g, machine, "cfg", plans[i % 2])
                    i += 1
            except BaseException as e:  # noqa: BLE001 - surfaced below
                errors.append(e)

        def reader() -> None:
            # a fresh PlanCache per reader: no shared LRU, every load is a
            # real file read racing the writer
            mine = PlanCache(tmp_path)
            try:
                for _ in range(300):
                    hit = mine.load_plan(g, machine, "cfg")
                    if hit is not None:
                        assert hit[0].key() in valid_keys
            except BaseException as e:  # noqa: BLE001 - surfaced below
                errors.append(e)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        w = threading.Thread(target=writer)
        w.start()
        for t in readers:
            t.start()
        for t in readers:
            t.join()
        stop.set()
        w.join()
        assert errors == []
        assert not [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]


class TestInMemoryLru:
    def test_plan_hits_skip_the_disk_after_first_load(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path, lru_capacity=8)
        cache.store_plan(g, machine, "cfg", Classification.all_swap(g))
        # store writes through, so the very first load is already memoized
        first = cache.load_plan(g, machine, "cfg")
        assert first is not None
        assert cache.lru_hits == 1 and cache.disk_hits == 0
        # and the memoized Classification is shared by reference
        second = cache.load_plan(g, machine, "cfg")
        assert second[0] is first[0]
        assert cache.lru_hits == 2

    def test_cold_load_counts_a_disk_hit_then_memoizes(self, tmp_path, machine):
        g = poster_example()
        PlanCache(tmp_path).store_plan(g, machine, "cfg",
                                       Classification.all_swap(g))
        cache = PlanCache(tmp_path, lru_capacity=8)  # empty memo
        cache.load_plan(g, machine, "cfg")
        assert cache.disk_hits == 1 and cache.lru_hits == 0
        cache.load_plan(g, machine, "cfg")
        assert cache.disk_hits == 1 and cache.lru_hits == 1

    def test_miss_counted(self, tmp_path, machine):
        cache = PlanCache(tmp_path, lru_capacity=8)
        assert cache.load_plan(poster_example(), machine, "cfg") is None
        assert cache.misses == 1

    def test_zero_capacity_disables_the_memo(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)  # default: no LRU
        cache.store_plan(g, machine, "cfg", Classification.all_swap(g))
        cache.load_plan(g, machine, "cfg")
        cache.load_plan(g, machine, "cfg")
        assert cache.lru_hits == 0 and cache.disk_hits == 2

    def test_memoized_outcomes_survive_caller_mutation(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path, lru_capacity=8)
        entry = {((0, "swap"),): {"feasible": True, "time": 1.0,
                                  "peak_memory": 1, "oom_context": ""}}
        cache.merge_outcomes(g, machine, "sig", entry)
        loaded = cache.load_outcomes(g, machine, "sig")
        loaded[((9, "keep"),)] = {"feasible": True, "time": 9.0,
                                  "peak_memory": 9, "oom_context": ""}
        # the caller's edit must not poison the memo (merge_outcomes mutates
        # the returned dict on every PoocH run)
        assert len(cache.load_outcomes(g, machine, "sig")) == 1

    def test_lru_eviction_is_bounded(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path, lru_capacity=2)
        for i in range(4):
            cache.store_plan(g, machine, f"cfg-{i}",
                             Classification.all_swap(g))
        assert len(cache._lru) == 2
        # evicted entries fall back to disk, not to a miss
        hit = cache.load_plan(g, machine, "cfg-0")
        assert hit is not None
        assert cache.disk_hits == 1


class TestClassifiableMapsValidation:
    def test_mismatch_rejected(self):
        # regression: the count was stored in every plan file but never
        # checked on load
        g = poster_example()
        data = plan_to_dict(Classification.all_swap(g), g)
        data["classifiable_maps"] += 3
        with pytest.raises(ScheduleError, match="classifiable maps"):
            plan_from_dict(data, g)

    def test_legacy_plan_without_count_still_loads(self):
        g = poster_example()
        data = plan_to_dict(Classification.all_swap(g), g)
        del data["classifiable_maps"]
        loaded = plan_from_dict(data, g)
        assert loaded.key() == Classification.all_swap(g).key()


class TestMalformedPlanDocuments:
    """Plan documents arrive from cache files and HTTP bodies: one that is
    not shaped like a plan fails with a ``ScheduleError`` naming the
    offending value, never an ``AttributeError``."""

    @pytest.mark.parametrize("doc", [[], "plan", 3, None],
                             ids=["list", "str", "int", "null"])
    def test_document_not_an_object(self, doc):
        with pytest.raises(ScheduleError, match="JSON object"):
            plan_from_dict(doc, poster_example())

    @pytest.mark.parametrize("classes", [None, [], "keep"],
                             ids=["null", "list", "str"])
    def test_classes_not_a_mapping(self, classes):
        g = poster_example()
        data = plan_to_dict(Classification.all_swap(g), g)
        data["classes"] = classes
        with pytest.raises(ScheduleError,
                           match="'classes' must be a mapping.*"
                           + re.escape(repr(classes))):
            plan_from_dict(data, g)

    def test_missing_classes(self):
        g = poster_example()
        data = plan_to_dict(Classification.all_swap(g), g)
        del data["classes"]
        with pytest.raises(ScheduleError, match="no 'classes'"):
            plan_from_dict(data, g)

    def test_corrupted_cache_entry(self, tmp_path, machine):
        g = poster_example()
        PlanCache(tmp_path).store_plan(g, machine, "cfg",
                                       Classification.all_swap(g))
        (path,) = (tmp_path / "plans").glob("*.json")
        data = json.loads(path.read_text())
        data["classes"] = None
        path.write_text(json.dumps(data))
        with pytest.raises(ScheduleError, match="'classes' must be"):
            PlanCache(tmp_path).load_plan(g, machine, "cfg")

    def test_cache_entry_not_an_object_is_a_miss(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        cache.store_plan(g, machine, "cfg", Classification.all_swap(g))
        (path,) = (tmp_path / "plans").glob("*.json")
        path.write_text("[1, 2]")
        fresh = PlanCache(tmp_path)
        assert fresh.load_plan(g, machine, "cfg") is None
        assert fresh.misses == 1
