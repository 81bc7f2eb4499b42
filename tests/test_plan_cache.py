"""PlanCache: persistent chosen plans across runs.

Covers the signature keying, the JSON round trip, PoocH's plan reuse (and
that an attached cache never changes what a search returns),
DynamicPoocH's cross-instance reuse, and the ``classifiable_maps``
provenance check that used to be stored but never validated on load.
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

    def test_different_config_searches(self, tmp_path, machine):
        from dataclasses import replace

        g = poster_example()
        PoocH(machine, CFG, plan_cache=tmp_path).optimize(g)
        other = replace(CFG, step1_sim_budget=150)
        redo = PoocH(machine, other, plan_cache=tmp_path).optimize(g)
        assert not redo.stats.plan_cache_hit  # plan keyed by config
        assert redo.stats.sims_step1 > 0

    @pytest.mark.parametrize("budget", [2, 5, 10])
    def test_attached_cache_changes_no_search(self, tmp_path, machine,
                                              budget):
        # a plan depends only on its graph, machine, config and profile:
        # after an exhaustive search filled the cache, a small-budget search
        # (a plan-cache miss: the config differs) must walk exactly as far
        # as the same search without a cache, and land on the same plan
        from dataclasses import replace

        g = poster_example()
        PoocH(machine, replace(CFG, step1_sim_budget=100_000),
              plan_cache=tmp_path).optimize(g)
        cfg = replace(CFG, step1_sim_budget=budget)
        cached = PoocH(machine, cfg, plan_cache=tmp_path).optimize(g)
        direct = PoocH(machine, cfg).optimize(g)
        assert not cached.stats.plan_cache_hit
        assert cached.classification.key() == direct.classification.key()
        assert cached.predicted == direct.predicted
        for field in ("sims_step1", "sims_step2", "leaves_evaluated"):
            assert (getattr(cached.stats, field)
                    == getattr(direct.stats, field)), field

    def test_path_and_plancache_arguments_equivalent(self, tmp_path, machine):
        p = PoocH(machine, CFG, plan_cache=str(tmp_path))
        assert isinstance(p.plan_cache, PlanCache)


class TestDynamicPoochCache:
    def test_plans_persist_across_instances(self, tmp_path, machine,
                                            monkeypatch):
        import repro.pooch.pipeline as pipeline

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

        # DynamicPoocH plans through PoocH's planning stage
        monkeypatch.setattr(pipeline, "PoochClassifier", Boom)
        second.run_stream([16, 32])
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
            # a fresh PlanCache per reader, each load a real file read
            # racing the writer
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


class TestTierCounters:
    def test_disk_hits_counted(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        cache.store_plan(g, machine, "cfg", Classification.all_swap(g))
        first = cache.load_plan(g, machine, "cfg")
        second = cache.load_plan(g, machine, "cfg")
        assert first is not None and second is not None
        assert second[0].key() == first[0].key()
        assert cache.disk_hits == 2 and cache.misses == 0

    def test_miss_counted(self, tmp_path, machine):
        cache = PlanCache(tmp_path)
        assert cache.load_plan(poster_example(), machine, "cfg") is None
        assert cache.misses == 1 and cache.disk_hits == 0


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
