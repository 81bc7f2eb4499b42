"""Observability subsystem: registry semantics, RunMetrics schema, and the
plan-preservation guarantee (telemetry on == telemetry off, bit for bit).

Run the determinism matrix with e.g. ``FAULT_SEED=3 pytest tests/test_obs.py``.
"""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro.obs import (
    ACCEPTED_SCHEMAS,
    MetricsRegistry,
    RUN_METRICS_SCHEMA,
    SECTIONS,
    configure_logging,
    get_logger,
    metrics,
    use_registry,
    validate_run_metrics,
)

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


class TestRegistry:
    def test_counter_accumulates(self):
        r = MetricsRegistry()
        r.count("a.hits")
        r.count("a.hits", 4)
        assert r.counters["a.hits"] == 5

    def test_gauge_last_write_wins(self):
        r = MetricsRegistry()
        r.gauge("a.level", 3.0)
        r.gauge("a.level", 1.0)
        assert r.gauges["a.level"] == 1.0

    def test_gauge_max_is_high_water(self):
        r = MetricsRegistry()
        r.gauge_max("a.peak", 3.0)
        r.gauge_max("a.peak", 1.0)
        r.gauge_max("a.peak", 7.0)
        assert r.gauges["a.peak"] == 7.0

    def test_timer_accumulates_count_and_total(self):
        r = MetricsRegistry()
        with r.timer("a.work"):
            pass
        with r.timer("a.work"):
            pass
        count, total = r.timers["a.work"]
        assert count == 2
        assert total >= 0.0

    def test_span_nesting_depths(self):
        r = MetricsRegistry()
        with r.span("outer"):
            with r.span("inner"):
                pass
        # spans close innermost-first; depth 0 is the outermost
        assert [(s.name, s.depth) for s in r.spans] == [
            ("inner", 1), ("outer", 0)]
        assert all(s.end_s >= s.start_s for s in r.spans)
        # each span also lands in the timers table
        assert r.timers["outer"][0] == 1
        assert r.timers["inner"][0] == 1

    def test_span_depth_is_per_thread(self):
        # two threads interleave their spans on one registry, as two
        # planning-server workers do: each nests as if it ran alone
        import threading

        r = MetricsRegistry()
        barrier = threading.Barrier(2, timeout=10)

        def work():
            with r.span("outer"):
                barrier.wait()  # both outers open
                with r.span("inner"):
                    barrier.wait()  # both inners open
                    r.count("t.hits")
                barrier.wait()

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted((s.name, s.depth) for s in r.spans) == [
            ("inner", 1), ("inner", 1), ("outer", 0), ("outer", 0)]
        assert r.counters["t.hits"] == 2
        assert r.timers["outer"][0] == r.timers["inner"][0] == 2

    def test_span_meta_carried(self):
        r = MetricsRegistry()
        with r.span("phase", category="search", graph="g"):
            pass
        assert r.spans[0].category == "search"
        assert r.spans[0].meta == {"graph": "g"}

    def test_sections_always_present(self):
        assert set(SECTIONS) <= set(MetricsRegistry().sections())

    def test_sections_group_by_prefix(self):
        r = MetricsRegistry()
        r.count("search.sims", 9)
        r.gauge("engine.makespan", 0.5)
        sections = r.sections()
        assert sections["search"]["sims"] == 9
        assert sections["engine"]["makespan"] == 0.5

    def test_record_last_write_wins(self):
        r = MetricsRegistry()
        r.record("search.step2_rounds", [{"3": 0.5}])
        r.record("search.step2_rounds", [{"3": 0.5}, {"5": 1.2}])
        assert r.records["search.step2_rounds"] == [{"3": 0.5}, {"5": 1.2}]

    def test_records_land_in_sections(self):
        r = MetricsRegistry()
        r.record("search.step2_rounds", [{"3": 0.5}])
        assert r.sections()["search"]["step2_rounds"] == [{"3": 0.5}]

    def test_snapshot_includes_json_safe_records(self):
        r = MetricsRegistry()
        r.record("search.step2_rounds", [{3: float("inf")}])
        doc = r.snapshot()
        # int keys become strings, non-finite floats become null
        assert doc["records"]["search.step2_rounds"] == [{"3": None}]
        json.dumps(doc)

    def test_snapshot_validates(self):
        r = MetricsRegistry()
        r.count("search.sims")
        with r.span("s", category="search"):
            pass
        doc = r.snapshot(meta={"command": "test"})
        assert doc["schema"] == RUN_METRICS_SCHEMA
        assert validate_run_metrics(doc) == []
        # and survives a JSON round trip unchanged
        assert json.loads(json.dumps(doc)) == doc

    def test_snapshot_maps_nonfinite_to_null(self):
        r = MetricsRegistry()
        r.gauge("a.bad", float("inf"))
        doc = r.snapshot()
        assert doc["gauges"]["a.bad"] is None
        json.dumps(doc)  # must stay valid JSON

    def test_validate_flags_broken_documents(self):
        assert validate_run_metrics([]) != []
        assert validate_run_metrics({"schema": "nope"}) != []
        doc = MetricsRegistry().snapshot()
        del doc["sections"]["search"]
        assert any("sections.search" in p for p in validate_run_metrics(doc))

    def test_validate_accepts_v1_documents(self):
        # a pre-records v1 writer must keep validating (forward compat)
        doc = MetricsRegistry().snapshot()
        doc["schema"] = "repro.obs/run-metrics/v1"
        del doc["records"]
        assert "repro.obs/run-metrics/v1" in ACCEPTED_SCHEMAS
        assert validate_run_metrics(doc) == []

    def test_validate_accepts_v1_2_documents(self):
        # a pre-devices v1.2 writer must keep validating without the
        # "devices" section — only the current schema requires it
        doc = MetricsRegistry().snapshot()
        doc["schema"] = "repro.obs/run-metrics/v1.2"
        del doc["sections"]["devices"]
        assert "repro.obs/run-metrics/v1.2" in ACCEPTED_SCHEMAS
        assert validate_run_metrics(doc) == []
        current = MetricsRegistry().snapshot()
        del current["sections"]["devices"]
        assert any("devices" in p for p in validate_run_metrics(current))

    def test_validate_flags_non_dict_records(self):
        doc = MetricsRegistry().snapshot()
        doc["records"] = ["not", "a", "dict"]
        assert any("records" in p for p in validate_run_metrics(doc))


class TestActiveRegistry:
    def test_module_helpers_noop_when_inactive(self):
        assert metrics.active() is None
        metrics.count("x.y")  # must not raise, must not create state
        metrics.gauge("x.y", 1.0)
        with metrics.span("x"):
            pass
        assert metrics.active() is None

    def test_use_registry_scopes_and_restores(self):
        r = MetricsRegistry()
        with use_registry(r):
            assert metrics.active() is r
            metrics.count("x.hits")
        assert metrics.active() is None
        assert r.counters["x.hits"] == 1


class TestLogging:
    def test_silent_by_default(self):
        logger = logging.getLogger("repro")
        assert logger.propagate is False

    def test_get_logger_namespaced(self):
        assert get_logger("pkg.mod").name == "repro.pkg.mod"
        assert get_logger("repro.pkg").name == "repro.pkg"

    def test_json_formatter_emits_json(self):
        import io

        root = logging.getLogger("repro")
        saved = root.handlers[:], root.level
        stream = io.StringIO()
        configure_logging(level="debug", json_output=True, stream=stream)
        try:
            get_logger("test").info("hello %s", "world")
        finally:
            root.handlers[:] = saved[0]
            root.setLevel(saved[1])
        record = json.loads(stream.getvalue().strip())
        assert record["msg"] == "hello world"
        assert record["level"] == "INFO"
        assert record["logger"] == "repro.test"


class TestPlanPreservation:
    """The acceptance criterion: telemetry must not perturb planning."""

    def _optimize(self, graph, machine, config, faults=None):
        from repro.faults import FaultInjector
        from repro.pooch import PoocH

        if faults is not None:
            faults = FaultInjector(faults, seed=FAULT_SEED)
        return PoocH(machine, config, faults=faults).optimize(graph)

    def test_plans_bit_identical_with_telemetry(self, cnn,
                                                slow_link_machine,
                                                fast_config):
        baseline = self._optimize(cnn, slow_link_machine, fast_config)
        with use_registry(MetricsRegistry()):
            observed = self._optimize(cnn, slow_link_machine, fast_config)
        assert observed.classification.key() == baseline.classification.key()
        assert observed.predicted.time == baseline.predicted.time
        assert observed.stats.sims_step1 == baseline.stats.sims_step1

    def test_plans_bit_identical_under_faults(self, cnn, slow_link_machine,
                                              fast_config):
        spec = "profile_noise=0.05,stall_prob=0.1,oom_prob=0.02"
        baseline = self._optimize(cnn, slow_link_machine, fast_config,
                                  faults=spec)
        with use_registry(MetricsRegistry()):
            observed = self._optimize(cnn, slow_link_machine, fast_config,
                                      faults=spec)
        assert observed.classification.key() == baseline.classification.key()
        assert observed.predicted.time == baseline.predicted.time

    def test_search_metrics_mirror_search_stats(self, cnn, slow_link_machine,
                                                fast_config):
        reg = MetricsRegistry()
        with use_registry(reg):
            result = self._optimize(cnn, slow_link_machine, fast_config)
        s = reg.sections()["search"]
        assert s["sims_step1"] == result.stats.sims_step1
        assert s["sims_step2"] == result.stats.sims_step2
        assert s["leaves_total"] == result.stats.leaves_total
        assert s["time_all_swap"] == result.stats.time_all_swap
        assert s["sims_vectorized"] == result.stats.sims_vectorized
        assert s["sims_fallback"] == result.stats.sims_fallback
        assert s["step2_rounds_run"] == result.stats.step2_rounds
        assert s["r_recomputed"] == result.stats.r_recomputed
        assert s["keep_probes_elided"] == result.stats.keep_probes_elided
        if result.stats.r_rounds:
            import math

            rounds = s["step2_rounds"]
            assert len(rounds) == len(result.stats.r_rounds)
            # sections are JSON-safe: non-finite r-values render as None
            assert rounds[0] == {
                str(m): (r if math.isfinite(r) else None)
                for m, r in result.stats.r_rounds[0].items()}

    def test_engine_and_allocator_sections_populated(self, cnn,
                                                     slow_link_machine,
                                                     fast_config):
        reg = MetricsRegistry()
        with use_registry(reg):
            self._optimize(cnn, slow_link_machine, fast_config).execute()
        sections = reg.sections()
        assert sections["engine"]["runs"] >= 1
        assert sections["engine"]["tasks"] > 0
        # the search's lockstep sweeps report their event rounds
        assert sections["engine"]["vector_rounds"] > 0
        assert sections["allocator"]["device_peak_bytes"] > 0
        assert sections["allocator"]["device_capacity_bytes"] > 0


class TestDeterminism:
    """Same seed, same faults → identical non-wall telemetry."""

    def _faulted_counters(self, graph, machine, config):
        import contextlib

        from repro.common.errors import ReproError
        from repro.faults import FaultInjector
        from repro.pooch import PoocH

        reg = MetricsRegistry()
        with use_registry(reg):
            result = PoocH(
                machine, config,
                faults=FaultInjector(
                    "profile_noise=0.05,stall_prob=0.2,oom_prob=0.05",
                    seed=FAULT_SEED),
            ).optimize(graph)
            # a fault ladder this steep may exhaust the fallback chain; the
            # telemetry must be identical either way
            with contextlib.suppress(ReproError):
                result.execute_resilient()
        gauges = {k: v for k, v in reg.gauges.items() if "wall" not in k}
        return reg.counters, gauges

    def test_telemetry_deterministic_for_fixed_seed(self, cnn,
                                                    slow_link_machine,
                                                    fast_config):
        first = self._faulted_counters(cnn, slow_link_machine, fast_config)
        second = self._faulted_counters(cnn, slow_link_machine, fast_config)
        assert first == second


class TestCliIntegration:
    def test_metrics_flag_writes_valid_document(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "m.json"
        assert main(["optimize", "mlp", "--batch", "8", "--budget", "20",
                     "--metrics", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_run_metrics(doc) == []
        assert doc["meta"]["command"] == "optimize"
        assert doc["sections"]["search"]["sims_step1"] >= 1
        assert doc["sections"]["engine"]["runs"] >= 1
        assert doc["sections"]["resilience"]["fallbacks"] == 0
        assert any(s["name"] == "optimize" for s in doc["spans"])

    def test_trace_flag_unifies_spans_and_run(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.json"
        assert main(["optimize", "mlp", "--batch", "8", "--budget", "20",
                     "--trace", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        cats = {e.get("cat") for e in events if e["ph"] == "X"}
        # search phases AND simulated tasks coexist in one trace
        assert "search" in cats
        assert "fwd" in cats
        tids = [e["tid"] for e in events
                if e["ph"] == "M" and e["name"] == "thread_name"]
        assert len(tids) == len(set(tids))  # monotonic, no collisions

    def test_metrics_flag_available_on_every_subcommand(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        out = tmp_path / "m.json"
        assert main(["summary", "mlp", "--batch", "8",
                     "--metrics", str(out)]) == 0
        assert validate_run_metrics(json.loads(out.read_text())) == []

    def test_run_subcommand_trace_and_metrics(self, tmp_path, capsys):
        from repro.cli import main

        m, t = tmp_path / "m.json", tmp_path / "t.json"
        assert main(["run", "mlp", "--batch", "8", "--method", "swap-all",
                     "--metrics", str(m), "--trace", str(t)]) == 0
        doc = json.loads(m.read_text())
        assert validate_run_metrics(doc) == []
        assert doc["sections"]["engine"]["runs"] >= 1
        assert t.exists()

    def test_disabled_by_default_leaves_no_registry(self, capsys):
        from repro.cli import main

        assert main(["summary", "mlp", "--batch", "8"]) == 0
        assert metrics.active() is None


class TestMultiRunTrace:
    def test_builder_allocates_fresh_tids_per_run(self, tiny_mlp, x86):
        from repro.analysis import ChromeTraceBuilder
        from repro.runtime import Classification, execute

        first = execute(tiny_mlp, Classification.all_swap(tiny_mlp), x86)
        second = execute(tiny_mlp, Classification.all_keep(tiny_mlp), x86)
        b = ChromeTraceBuilder("multi")
        b.add_run(first, name="swap")
        b.add_run(second, name="keep")
        events = b.build()["traceEvents"]
        names = {e["tid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert len(names) == 6  # three streams per run, no tid reuse
        slice_tids = {e["tid"] for e in events if e["ph"] == "X"}
        assert slice_tids <= set(names)
        # counter tracks are namespaced per run
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert counters == {"swap/gpu memory", "keep/gpu memory"}

    def test_legacy_single_run_layout_stable(self, tiny_mlp, x86):
        from repro.analysis import to_chrome_trace
        from repro.runtime import Classification, execute

        result = execute(tiny_mlp, Classification.all_swap(tiny_mlp), x86)
        events = to_chrome_trace(result)["traceEvents"]
        names = {e["tid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == {0: "compute", 1: "d2h", 2: "h2d"}
