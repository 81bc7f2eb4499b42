"""Per-process memoization of profiling runs and PoocH optimizations.

Keys are (model key, machine name, ``PoochConfig.signature()``) — graphs
themselves are rebuilt cheaply, but a PoocH search over ResNet-50 costs tens
of seconds, and several benchmarks share the same search (Fig. 15 / Fig. 17 /
Table 3).
"""

from __future__ import annotations

from typing import Callable

from repro.graph import NNGraph
from repro.hw import MachineSpec
from repro.pooch import PoocH, PoochConfig, PoochResult
from repro.runtime.profiler import Profile, run_profiling

_profiles: dict[tuple, Profile] = {}
_results: dict[tuple, PoochResult] = {}


def profile_cached(
    model_key: str, build: Callable[[], NNGraph], machine: MachineSpec
) -> tuple[NNGraph, Profile]:
    """Build (or re-build) the graph and return its cached profile."""
    key = (model_key, machine.name)
    graph = build()
    if key not in _profiles:
        _profiles[key] = run_profiling(graph, machine)
    return graph, _profiles[key]


def optimize_cached(
    model_key: str,
    build: Callable[[], NNGraph],
    machine: MachineSpec,
    config: PoochConfig | None = None,
) -> PoochResult:
    """PoocH-optimize a model on a machine, reusing any cached search."""
    key = (model_key, machine.name, (config or PoochConfig()).signature())
    if key not in _results:
        graph, profile = profile_cached(model_key, build, machine)
        _results[key] = PoocH(machine, config).optimize(graph, profile=profile)
    return _results[key]


def clear_cache() -> None:
    """Drop all memoized results (tests use this for isolation)."""
    _profiles.clear()
    _results.clear()
