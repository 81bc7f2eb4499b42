"""Robustness reporting: how gracefully does PoocH degrade under faults?

``robustness_report`` sweeps a list of fault specifications (by default a
noise ladder) over one (graph, machine) pair.  For each spec it runs the
planning pipeline once — profile (perturbed), classify — and then executes
the chosen plan under ``fault_seeds`` independent fault seeds via
:func:`repro.faults.fault_seed_sweep`, so each row reports a makespan
*distribution* (P50/P95/P99) plus OOM/fallback/retry **rates** instead of a
single-draw point estimate.  Specs whose execution-side draws are
precomputable (duration noise, degraded bandwidth, shrunken host capacity)
run all seeds in one lockstep :class:`~repro.gpusim.vecengine.VectorEngine`
batch; event-order-dependent specs (stalls, spurious OOMs) take the serial
resilient path per seed.  The resulting table is the repo's analogue of the
paper's "execution fails" columns: where SuperNeurons' rows would read
*fail*, PoocH's rows read *degraded via swap-all* with a rate attached.

Everything is seed-driven and bit-reproducible; the pooch import happens
lazily because :mod:`repro.pooch.overlap` itself imports this package.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.report import Table
from repro.faults import FaultInjector, FaultSpec, RetryPolicy, fault_seed_sweep
from repro.graph import NNGraph
from repro.hw import MachineSpec

#: default sweep ladder up to 10% noise.  Each level L becomes
#: duration_noise=L, profile_noise=L *and* stall_prob=L/2 (see
#: :func:`robustness_report`); stalls are not vectorizable, so every rung
#: runs on the serial ``execute_resilient`` path.  A lockstep sweep needs
#: an explicit spec such as ``--faults duration_noise=0.1``.
DEFAULT_NOISE_LEVELS = (0.02, 0.05, 0.10)


@dataclass
class RobustnessRow:
    """Outcome of one fault scenario: a seed distribution, not one draw.

    ``makespan`` is the P50 across seeds (so ``throughput`` and
    ``degradation`` keep their single-run meaning when ``fault_seeds=1``);
    the tails live in ``p95``/``p99``.  Rates are fractions of seeds in
    [0, 1].
    """

    label: str
    spec: FaultSpec
    makespan: float
    #: relative P50 makespan increase vs the clean run (0.07 = 7% slower)
    degradation: float
    throughput: float
    plan_used: str
    fault_seeds: int = 1
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    #: fraction of seeds that hit a genuine OOM along their fallback chain
    oom_rate: float = 0.0
    #: fraction of seeds that abandoned the chosen plan
    fallback_rate: float = 0.0
    #: fraction of seeds that needed at least one transfer retry
    retry_rate: float = 0.0
    #: seeds whose whole fallback chain was exhausted (makespan = inf)
    failed: int = 0
    transfer_retries: int = 0
    attempts: int = 1
    fallbacks: int = 0
    fallback_path: str = ""
    #: lockstep vs serial split of the sweep's seeds
    rows_vectorized: int = 0
    rows_fallback: int = 0
    #: search cost of this row's (re-)optimization: simulations executed
    #: (lockstep and serial alike), plus wall time
    search_sims: int = 0
    search_wall_s: float = 0.0


@dataclass
class RobustnessReport:
    """Degradation profile of one (graph, machine) pair under a fault sweep."""

    graph_name: str
    machine_name: str
    batch: int
    seed: int
    fault_seeds: int
    clean_makespan: float
    clean_throughput: float
    #: data-parallel replica count (1 = single-device sweep); with more
    #: than one device the clean plan's staggered multi-device makespan is
    #: reported too (per-seed rows remain per-device timelines)
    devices: int = 1
    multi_clean_makespan: float = 0.0
    rows: list[RobustnessRow] = field(default_factory=list)

    def render(self) -> str:
        def ms(v: float) -> str:
            return "inf" if math.isinf(v) else f"{v * 1e3:.3f}"

        multi = ""
        if self.devices > 1:
            multi = (f", {self.devices} devices: "
                     f"{self.multi_clean_makespan * 1e3:.3f} ms staggered")
        t = Table(
            f"robustness of {self.graph_name!r} on {self.machine_name} "
            f"(clean: {self.clean_makespan * 1e3:.3f} ms, "
            f"{self.clean_throughput:.1f} img/s{multi}, "
            f"{self.fault_seeds} fault seed"
            f"{'s' if self.fault_seeds != 1 else ''} from {self.seed})",
            ["faults", "plan used", "p50 (ms)", "p95 (ms)", "p99 (ms)",
             "degradation", "img/s", "oom", "fallbacks", "retries",
             "vec/serial", "search s"],
        )
        for r in self.rows:
            t.add(
                r.label,
                r.plan_used + (f" ({r.fallback_path})" if r.fallback_path else ""),
                ms(r.p50),
                ms(r.p95),
                ms(r.p99),
                f"{r.degradation * 100:+.1f}%",
                f"{r.throughput:.1f}",
                f"{r.oom_rate * 100:.0f}%",
                f"{r.fallback_rate * 100:.0f}%",
                f"{r.retry_rate * 100:.0f}%",
                f"{r.rows_vectorized}/{r.rows_fallback}",
                f"{r.search_wall_s:.2f}",
            )
        return t.render()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def _batch_of(graph: NNGraph) -> int:
    return next(iter(graph)).out_spec.batch


def _plan_summary(outcomes) -> tuple[str, str]:
    """(dominant plan label, dominant degradation path) across seeds."""
    plans = Counter(o.plan_used or "failed" for o in outcomes)
    plan, count = plans.most_common(1)[0]
    if len(plans) > 1:
        plan = f"{plan} ({count}/{len(outcomes)})"
    paths = Counter(o.fallback_path for o in outcomes if o.fallback_path)
    path = paths.most_common(1)[0][0] if paths else ""
    return plan, path


def robustness_report(
    graph: NNGraph,
    machine: MachineSpec,
    *,
    specs: list[FaultSpec] | None = None,
    noise_levels: tuple[float, ...] = DEFAULT_NOISE_LEVELS,
    seed: int = 0,
    fault_seeds: int = 1,
    config=None,
    retry: RetryPolicy | None = None,
    workers: int = 1,
) -> RobustnessReport:
    """Run the fault sweep and return the filled report.

    ``specs`` overrides the sweep entirely; otherwise each entry of
    ``noise_levels`` becomes a spec with that much duration *and* profile
    noise plus a stall probability of half the level — the "everything
    is a bit sick" scenario.  The stalls keep every such rung off the
    lockstep path; pass ``specs`` (CLI ``--faults``) for a vectorizable
    sweep.  Each spec plans **once**
    (under fault seed ``seed``, exactly as a single-run report would) and
    then executes the chosen plan under seeds ``seed .. seed +
    fault_seeds - 1``; ``workers`` fans the serial-path seeds across a
    process pool.
    """
    from repro.pooch import PoocH  # lazy: pooch.overlap imports this package

    if fault_seeds < 1:
        raise ValueError(f"fault_seeds must be >= 1, got {fault_seeds}")
    if specs is None:
        specs = [
            FaultSpec(duration_noise=lvl, profile_noise=lvl,
                      stall_prob=min(lvl / 2, 1.0))
            for lvl in noise_levels
        ]
    batch = _batch_of(graph)
    seeds = range(seed, seed + fault_seeds)

    clean = PoocH(machine, config=config).optimize(graph)
    clean_result = clean.execute()
    clean_makespan = clean_result.makespan
    report = RobustnessReport(
        graph_name=graph.name,
        machine_name=machine.name,
        batch=batch,
        seed=seed,
        fault_seeds=fault_seeds,
        clean_makespan=clean_makespan,
        clean_throughput=batch / clean_makespan,
        devices=machine.devices,
        multi_clean_makespan=(clean.multi.chosen.makespan
                              if clean.multi is not None else 0.0),
    )

    for spec in specs:
        # plan once per scenario — the sweep is evaluation-side only
        injector = FaultInjector(spec, seed=seed)
        result = PoocH(machine, config=config, faults=injector).optimize(graph)
        outcomes = fault_seed_sweep(
            graph, result.classification, machine, spec, seeds,
            retry=retry, options=result.config.options, workers=workers,
        )
        makespans = np.array([o.makespan for o in outcomes])
        p50, p95, p99 = (float(np.percentile(makespans, q))
                         for q in (50, 95, 99))
        n = len(outcomes)
        plan, path = _plan_summary(outcomes)
        report.rows.append(RobustnessRow(
            label=spec.describe(),
            spec=spec,
            makespan=p50,
            degradation=p50 / clean_makespan - 1.0,
            throughput=batch / p50 if math.isfinite(p50) else 0.0,
            plan_used=plan,
            fault_seeds=n,
            p50=p50,
            p95=p95,
            p99=p99,
            oom_rate=sum(o.oom for o in outcomes) / n,
            fallback_rate=sum(o.degraded for o in outcomes) / n,
            retry_rate=sum(o.transfer_retries > 0 for o in outcomes) / n,
            failed=sum(o.failed for o in outcomes),
            transfer_retries=sum(o.transfer_retries for o in outcomes),
            attempts=max(o.attempts for o in outcomes),
            fallbacks=sum(o.fallbacks for o in outcomes),
            fallback_path=path,
            rows_vectorized=sum(o.vectorized for o in outcomes),
            rows_fallback=sum(not o.vectorized for o in outcomes),
            search_sims=result.stats.sims_step1 + result.stats.sims_step2,
            search_wall_s=result.stats.wall_time_s,
        ))
    return report
