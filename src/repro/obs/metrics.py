"""Process-local metrics: counters, gauges, timers, and nested spans.

One :class:`MetricsRegistry` collects everything a pipeline run reports;
:meth:`MetricsRegistry.snapshot` renders it as a single ``RunMetrics`` JSON
document.  Instrumentation sites never hold a registry — they read the
module-level *active* registry (:func:`active`) and do nothing when none is
installed, so disabled-mode overhead is one global read per site.

Naming convention: metric names are dot-namespaced, ``<section>.<metric>``.
The snapshot groups the first path component into ``sections`` so consumers
can read ``doc["sections"]["search"]["sims_step1"]`` without knowing every
metric in advance.  Wall-clock-derived values (non-deterministic across
runs) carry ``wall`` in their name; everything else — simulated times,
event counts, byte watermarks — is deterministic for a fixed seed, which
``tests/test_obs.py`` asserts under the FAULT_SEED matrix.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: schema identifier stamped into every RunMetrics document.  v1.1 added
#: the structured *records* instrument (e.g. ``search.step2_rounds``);
#: v1.2 added the ``faults`` section (seed-sweep row accounting); v1.3
#: added the ``devices`` section (multi-device stagger planning); v1.4
#: added the ``serve`` section (planning-server request/coalesce/cache-tier
#: accounting).  Documents remain readable by v1 consumers, and older
#: documents remain acceptable to :func:`validate_run_metrics`.
RUN_METRICS_SCHEMA = "repro.obs/run-metrics/v1.4"

#: every schema revision a document may legitimately carry
ACCEPTED_SCHEMAS = ("repro.obs/run-metrics/v1", "repro.obs/run-metrics/v1.1",
                    "repro.obs/run-metrics/v1.2", "repro.obs/run-metrics/v1.3",
                    RUN_METRICS_SCHEMA)

#: sections pre-v1.2 documents carry — validation requires only these for
#: documents that declare an older schema
SECTIONS_V1 = ("search", "engine", "allocator", "resilience")

#: sections a v1.2 document carries (pre-``devices``)
SECTIONS_V1_2 = SECTIONS_V1 + ("faults",)

#: sections a v1.3 document carries (pre-``serve``)
SECTIONS_V1_3 = SECTIONS_V1_2 + ("devices",)

#: sections every RunMetrics document carries, populated or not — consumers
#: (the CI smoke test, the bench artifact reader) rely on their presence
SECTIONS = SECTIONS_V1_3 + ("serve",)

#: required sections per declared schema revision
_REQUIRED_SECTIONS = {
    "repro.obs/run-metrics/v1": SECTIONS_V1,
    "repro.obs/run-metrics/v1.1": SECTIONS_V1,
    "repro.obs/run-metrics/v1.2": SECTIONS_V1_2,
    "repro.obs/run-metrics/v1.3": SECTIONS_V1_3,
    RUN_METRICS_SCHEMA: SECTIONS,
}


@dataclass
class Span:
    """One closed wall-clock interval, relative to the registry's epoch.

    ``depth`` is the nesting level at which the span ran (0 = outermost);
    the Chrome-trace exporter lays spans out one row per depth.
    """

    name: str
    category: str
    start_s: float
    end_s: float
    depth: int
    meta: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def _json_safe(value):
    """JSON cannot carry inf/nan; map them to None rather than emitting
    invalid output or crashing a run that produced a degenerate metric.
    Containers (structured records) are sanitized recursively."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


class MetricsRegistry:
    """Counters, gauges, timers and spans for one run.

    Everything runs in one process, but the planning server's worker
    threads may report into one registry at once: every mutation and
    every export holds one lock, and span depth is kept per thread, so two
    concurrent searches nest their spans exactly as one search alone
    would.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: name -> [count, total_seconds]
        self.timers: dict[str, list] = {}
        #: structured (JSON-shaped) values; last write wins, like gauges
        self.records: dict[str, object] = {}
        self.spans: list[Span] = []
        self._lock = threading.RLock()
        self._local = threading.local()

    # -- clock -------------------------------------------------------------------

    def now(self) -> float:
        """Seconds since this registry was created."""
        return time.perf_counter() - self.epoch

    # -- scalar instruments ------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creates it at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (last write wins)."""
        with self._lock:
            self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if higher (high-water marks)."""
        with self._lock:
            current = self.gauges.get(name)
            if current is None or value > current:
                self.gauges[name] = value

    def record(self, name: str, value) -> None:
        """Store a structured (JSON-shaped: dicts/lists/scalars) value under
        ``name`` — e.g. the per-round r(X) history of a search.  Rendered
        into the same ``sections`` tree as counters and gauges (schema
        v1.1); last write wins."""
        with self._lock:
            self.records[name] = value

    # -- time instruments -------------------------------------------------------

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate wall time under ``name`` (count + total seconds)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def add_time(self, name: str, seconds: float) -> None:
        """Add one interval measured elsewhere to timer ``name`` — for loops
        that time themselves so that telemetry cannot influence them."""
        with self._lock:
            bucket = self.timers.setdefault(name, [0, 0.0])
            bucket[0] += 1
            bucket[1] += seconds

    @contextmanager
    def span(self, name: str, category: str = "phase", **meta) -> Iterator["MetricsRegistry"]:
        """Record a nested span (and a timer entry of the same name); its
        depth counts the spans open on the calling thread."""
        depth = getattr(self._local, "depth", 0)
        start = self.now()
        self._local.depth = depth + 1
        try:
            yield self
        finally:
            self._local.depth = depth
            end = self.now()
            with self._lock:
                self.spans.append(Span(name, category, start, end, depth, meta))
                self.add_time(name, end - start)

    # -- export -------------------------------------------------------------------

    def sections(self) -> dict[str, dict]:
        """Counters and gauges grouped by their first name component; the
        canonical :data:`SECTIONS` are always present."""
        grouped: dict[str, dict] = {name: {} for name in SECTIONS}
        with self._lock:
            for source in (self.counters, self.gauges, self.records):
                for name, value in source.items():
                    head, _, rest = name.partition(".")
                    if rest:
                        grouped.setdefault(head, {})[rest] = _json_safe(value)
        return grouped

    def snapshot(self, meta: dict | None = None) -> dict:
        """The RunMetrics document (JSON-ready, deterministically ordered)."""
        with self._lock:
            return {
                "schema": RUN_METRICS_SCHEMA,
                "meta": dict(meta or {}),
                "counters": {k: _json_safe(v) for k, v in sorted(self.counters.items())},
                "gauges": {k: _json_safe(v) for k, v in sorted(self.gauges.items())},
                "timers": {
                    k: {"count": c, "total_wall_s": t}
                    for k, (c, t) in sorted(self.timers.items())
                },
                "records": {k: _json_safe(v) for k, v in sorted(self.records.items())},
                "spans": [
                    {
                        "name": sp.name,
                        "category": sp.category,
                        "start_s": sp.start_s,
                        "duration_s": sp.duration_s,
                        "depth": sp.depth,
                        "meta": dict(sp.meta),
                    }
                    for sp in self.spans
                ],
                "sections": self.sections(),
            }


def validate_run_metrics(doc: dict) -> list[str]:
    """Structural validation of a RunMetrics document.

    Returns a list of human-readable problems; an empty list means the
    document conforms.  The CI smoke test and ``tests/test_obs.py`` both
    call this, so the documented schema and the emitted one cannot drift
    apart silently.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    if doc.get("schema") not in ACCEPTED_SCHEMAS:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected one of "
            f"{ACCEPTED_SCHEMAS!r}")
    for key, kind in (("meta", dict), ("counters", dict), ("gauges", dict),
                      ("timers", dict), ("spans", list), ("sections", dict)):
        if not isinstance(doc.get(key), kind):
            problems.append(f"{key!r} missing or not a {kind.__name__}")
    # v1 documents predate structured records; when present (v1.1) the
    # block must at least be an object
    if "records" in doc and not isinstance(doc["records"], dict):
        problems.append("'records' present but not an object")
    if isinstance(doc.get("sections"), dict):
        # older documents predate the "faults" (v1.2) and "devices" (v1.3)
        # sections; require only what the declared revision promises
        required = _REQUIRED_SECTIONS.get(doc.get("schema"), SECTIONS_V1)
        for name in required:
            if not isinstance(doc["sections"].get(name), dict):
                problems.append(f"sections.{name} missing or not an object")
    if isinstance(doc.get("counters"), dict):
        for name, value in doc["counters"].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"counter {name!r} is not a number")
    if isinstance(doc.get("timers"), dict):
        for name, entry in doc["timers"].items():
            if (not isinstance(entry, dict) or "count" not in entry
                    or "total_wall_s" not in entry):
                problems.append(f"timer {name!r} lacks count/total_wall_s")
    if isinstance(doc.get("spans"), list):
        for i, sp in enumerate(doc["spans"]):
            if not isinstance(sp, dict) or not {
                "name", "category", "start_s", "duration_s", "depth"
            } <= set(sp):
                problems.append(f"span #{i} lacks required fields")
    return problems


# -- active-registry plumbing -------------------------------------------------------
#
# Instrumentation sites call the module-level helpers below; each reduces to
# one global read plus a None check when telemetry is off.  The CLI installs
# a registry for the duration of a command; tests use `use_registry`.

_ACTIVE: MetricsRegistry | None = None


def active() -> MetricsRegistry | None:
    """The currently installed registry, or None when telemetry is off."""
    return _ACTIVE


def set_active(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install ``registry`` as the process-local active one; returns the
    previous registry so callers can restore it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scoped :func:`set_active` (restores the previous registry on exit)."""
    previous = set_active(registry)
    try:
        yield registry
    finally:
        set_active(previous)


def count(name: str, value: float = 1) -> None:
    registry = _ACTIVE
    if registry is not None:
        registry.count(name, value)


def gauge(name: str, value: float) -> None:
    registry = _ACTIVE
    if registry is not None:
        registry.gauge(name, value)


def record(name: str, value) -> None:
    registry = _ACTIVE
    if registry is not None:
        registry.record(name, value)


@contextmanager
def span(name: str, category: str = "phase", **meta) -> Iterator[MetricsRegistry | None]:
    """Span on the active registry; a cheap no-op when telemetry is off."""
    registry = _ACTIVE
    if registry is None:
        yield None
        return
    with registry.span(name, category, **meta):
        yield registry
