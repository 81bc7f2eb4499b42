"""PoocH — Profiling-based out-of-core Hybrid method (the paper's §4).

The pipeline mirrors the paper's three phases:

1. :func:`repro.runtime.run_profiling` — measure per-layer compute and swap
   times plus the malloc/free trace under the all-swap plan.
2. :class:`~repro.pooch.classifier.PoochClassifier` — choose keep / swap /
   recompute per feature map, scoring every candidate with the
   :class:`~repro.pooch.predictor.TimelinePredictor` (a replay of the task
   schedule from profiled durations).
3. Execution — run the remaining iterations under the chosen plan with the
   eager ("when there is room") swap-in schedule of §4.3.

:class:`PoocH` wraps all three; see ``examples/quickstart.py``.
"""

from repro.pooch.classifier import PoochClassifier, SearchStats
from repro.pooch.config import PoochConfig
from repro.pooch.dynamic import DynamicPoocH, DynamicStats
from repro.pooch.multidevice import (
    MultiDevicePlan,
    plan_staggered,
    stagger_candidates,
)
from repro.pooch.overlap import OverlapAnalysis, analyze_overlap
from repro.pooch.pipeline import PoocH, PoochResult
from repro.pooch.predictor import PredictedOutcome, TimelinePredictor

__all__ = [
    "PoocH",
    "PoochResult",
    "PoochConfig",
    "PoochClassifier",
    "SearchStats",
    "MultiDevicePlan",
    "plan_staggered",
    "stagger_candidates",
    "TimelinePredictor",
    "PredictedOutcome",
    "OverlapAnalysis",
    "analyze_overlap",
    "DynamicPoocH",
    "DynamicStats",
]
