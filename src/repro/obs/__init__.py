"""Observability: structured logging, metrics, and spans for the pipeline.

PoocH's whole premise is that measured timelines drive planning — this
package turns the same discipline on the reproduction itself.  It has two
halves, both **off by default** and both strictly read-only with respect to
planning decisions (chosen plans are bit-identical with telemetry on or
off; ``tests/test_obs.py`` enforces it):

* :mod:`repro.obs.logs` — levelled ``stdlib logging`` under the ``repro``
  namespace with an optional JSON formatter.  The library installs a
  ``NullHandler`` so importing it never writes anywhere; call
  :func:`configure_logging` (or pass ``--log-level`` to any CLI
  subcommand) to turn it on.
* :mod:`repro.obs.metrics` — a process-local :class:`MetricsRegistry` of
  counters, gauges, timers and nested wall-clock spans.  Instrumentation
  sites throughout the pipeline report into the *active* registry when one
  is installed (:func:`set_active` / :func:`use_registry`) and reduce to a
  single ``None`` check when none is — the hot paths stay hot.

:meth:`MetricsRegistry.snapshot` renders one ``RunMetrics`` JSON document
(schema :data:`RUN_METRICS_SCHEMA`, validated by
:func:`validate_run_metrics`) with ``search`` / ``engine`` / ``allocator``
/ ``resilience`` sections; the CLI writes it via ``--metrics OUT.json``.
Spans additionally unify with the Chrome-trace exporter
(:class:`repro.analysis.chrometrace.ChromeTraceBuilder`) so ``--trace``
yields a Perfetto-openable picture of the search itself, not just the
simulated timeline.
"""

from repro.obs.logs import LEVELS, JsonFormatter, configure_logging, get_logger
from repro.obs.metrics import (
    ACCEPTED_SCHEMAS,
    RUN_METRICS_SCHEMA,
    SECTIONS,
    MetricsRegistry,
    Span,
    active,
    count,
    gauge,
    record,
    set_active,
    span,
    use_registry,
    validate_run_metrics,
)

__all__ = [
    "LEVELS",
    "JsonFormatter",
    "configure_logging",
    "get_logger",
    "ACCEPTED_SCHEMAS",
    "RUN_METRICS_SCHEMA",
    "SECTIONS",
    "MetricsRegistry",
    "Span",
    "active",
    "count",
    "gauge",
    "record",
    "set_active",
    "span",
    "use_registry",
    "validate_run_metrics",
]
