"""KARMA-style multi-device planning: stagger the replicas' swap windows.

KARMA's observation (arXiv 2008.11421) is that out-of-core data-parallel
replicas lose their overlap not to *aggregate* link bandwidth but to
*synchronized* demand: N identical plans request the same swap window at
the same instant, so everyone queues behind device 0 and the carefully
hidden transfers become exposed.  Deliberately offsetting each replica's
start *interleaves* the windows — the link serves the same total traffic,
but each device's transfers land in the gaps of its neighbours'.

The planner here keeps PoocH's per-device classification untouched (every
replica runs the same plan over its batch shard) and searches the one
remaining knob: the per-device start offset.  Candidates are derived from
the plan's own transfer-window statistics (mean/max window length and the
link-busy quantum) and scored by the deterministic multi-device simulation
(:func:`repro.gpusim.simulate_multi_device`); all-zeros — the naive
contention plan — is always a candidate, so the chosen plan can only tie
or beat it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.engine import RunResult, StreamName
from repro.gpusim.multidevice import MultiDeviceResult, simulate_multi_device
from repro.obs import get_logger, metrics

log = get_logger(__name__)

#: makespan improvements below this are noise; prefer the smaller stagger
_TIE_EPSILON = 1e-12


@dataclass
class MultiDevicePlan:
    """Chosen stagger plus the naive baseline it was scored against."""

    devices: int
    stagger: tuple[float, ...]
    #: all replicas start together — the synchronized contention scenario
    naive: MultiDeviceResult
    #: the chosen (possibly zero) stagger's simulation
    chosen: MultiDeviceResult
    candidates_evaluated: int = 0

    @property
    def makespan(self) -> float:
        return self.chosen.makespan

    def summary(self) -> str:
        naive, chosen = self.naive.makespan, self.chosen.makespan
        gain = (naive / chosen - 1.0) if chosen > 0 else 0.0
        lines = [
            f"multi-device plan for {self.devices} devices:",
            f"  naive (synchronized) iteration: {naive * 1e3:.2f} ms, "
            f"contention {self.naive.contention_delay_total * 1e3:.2f} ms",
            f"  staggered iteration: {chosen * 1e3:.2f} ms "
            f"({gain:+.1%} vs naive), contention "
            f"{self.chosen.contention_delay_total * 1e3:.2f} ms",
            "  stagger offsets: "
            + " ".join(f"{s * 1e3:.2f}ms" for s in self.stagger),
            f"  gradient exchange: {self.chosen.allreduce_time * 1e3:.2f} ms "
            f"(overlapped)",
        ]
        return "\n".join(lines)


def stagger_candidates(base: RunResult, devices: int) -> list[float]:
    """Candidate per-device offset deltas, from transfer-window statistics.

    Device ``d`` starts at ``d * delta``; good deltas are comparable to one
    transfer window (each replica slips into the previous one's gap) — far
    smaller offsets leave the windows overlapping, far larger ones pay pure
    latency.  Deterministic and cheap: a handful of values around the mean
    and max window, plus the link-busy quantum ``busy / (windows * N)``.
    """
    windows = [r for r in base.records
               if r.stream in (StreamName.H2D, StreamName.D2H)
               and r.duration > 0]
    if not windows:
        return [0.0]
    durations = [r.duration for r in windows]
    mean = sum(durations) / len(durations)
    longest = max(durations)
    quantum = sum(durations) / (len(durations) * max(devices - 1, 1))
    raw = [
        0.5 * mean, mean, 2.0 * mean,
        longest, 2.0 * longest,
        quantum,
    ]
    # dedupe while keeping deterministic ascending order
    out: list[float] = []
    for v in sorted(raw):
        if v > 0 and (not out or v > out[-1] * (1 + 1e-9)):
            out.append(v)
    return out


def plan_staggered(
    base: RunResult,
    machine,
    *,
    grad_bytes: int = 0,
    deltas: list[float] | None = None,
) -> MultiDevicePlan:
    """Choose per-device start offsets for ``machine.devices`` replicas.

    Scores the naive all-zeros stagger and one candidate per delta
    (device ``d`` offset by ``d * delta``), all via the deterministic
    multi-device simulation, and keeps the earliest-finishing candidate
    (ties resolve toward the smaller total offset, naive first).
    """
    n = machine.devices
    naive = simulate_multi_device(base, machine, grad_bytes=grad_bytes)
    best = naive
    best_stagger = (0.0,) * n
    evaluated = 1
    if n > 1:
        if deltas is None:
            deltas = stagger_candidates(base, n)
        for delta in deltas:
            if delta <= 0:
                continue
            stagger = tuple(d * delta for d in range(n))
            candidate = simulate_multi_device(
                base, machine, stagger=stagger, grad_bytes=grad_bytes)
            evaluated += 1
            if candidate.makespan < best.makespan - _TIE_EPSILON:
                best = candidate
                best_stagger = stagger
    plan = MultiDevicePlan(
        devices=n,
        stagger=best_stagger,
        naive=naive,
        chosen=best,
        candidates_evaluated=evaluated,
    )
    log.info(
        "multi-device stagger for %d devices: naive %.3f ms -> chosen "
        "%.3f ms (%d candidates)", n, naive.makespan * 1e3,
        best.makespan * 1e3, evaluated,
    )
    metrics.gauge("devices.count", n)
    metrics.gauge("devices.makespan_naive_s", naive.makespan)
    metrics.gauge("devices.makespan_staggered_s", best.makespan)
    metrics.gauge("devices.contention_naive_s",
                  naive.contention_delay_total)
    metrics.gauge("devices.contention_staggered_s",
                  best.contention_delay_total)
    metrics.gauge("devices.allreduce_s", best.allreduce_time)
    metrics.count("devices.stagger_candidates", evaluated)
    metrics.record("devices.stagger_s", list(best_stagger))
    return plan
