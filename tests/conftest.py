"""Shared fixtures: small graphs, shrunken machines, fast search configs.

Real machine specs make every toy model fit in-core, which would leave the
out-of-core machinery untested; ``tiny_machine`` scales a V100-like spec down
so the toys genuinely exceed GPU memory.
"""

from __future__ import annotations

import pytest

from repro.common.errors import OutOfMemoryError
from repro.common.units import GB, MiB
from repro.gpusim import Engine
from repro.hw import CostModel, MachineSpec, POWER9_V100, X86_V100
from repro.models import linear_chain, mlp, poster_example, small_cnn
from repro.pooch import PoochClassifier, PoochConfig
from repro.pooch.predictor import PredictedOutcome, TimelinePredictor
from repro.runtime.schedule import ScheduleBuilder


def tiny_machine(
    mem_mib: int = 160,
    link_gbps: float = 16.0,
    name: str = "tiny",
    reserved_mib: int = 8,
) -> MachineSpec:
    """A V100-like machine with only ``mem_mib`` MiB of GPU memory, so toy
    graphs (tens-to-hundreds of MiB of feature maps) run out-of-core."""
    return MachineSpec(
        name=name,
        cpu="test-host",
        gpu_mem_capacity=mem_mib * MiB,
        gpu_mem_reserved=reserved_mib * MiB,
        cpu_mem_capacity=64 * GB,
        h2d_bandwidth=link_gbps * GB,
        d2h_bandwidth=link_gbps * GB,
        interconnect=f"test-link {link_gbps:g} GB/s",
    )


@pytest.fixture
def x86() -> MachineSpec:
    return X86_V100


@pytest.fixture
def power9() -> MachineSpec:
    return POWER9_V100


@pytest.fixture
def slow_link_machine() -> MachineSpec:
    """Small memory, slow interconnect: recompute should look attractive."""
    return tiny_machine(mem_mib=160, link_gbps=2.0, name="tiny-slow")


@pytest.fixture
def fast_link_machine() -> MachineSpec:
    """Small memory, fast interconnect: swapping should look attractive."""
    return tiny_machine(mem_mib=160, link_gbps=200.0, name="tiny-fast")


@pytest.fixture
def poster():
    return poster_example()


@pytest.fixture
def chain():
    return linear_chain(n_layers=6, batch=16, channels=32, image=32)


@pytest.fixture
def tiny_mlp():
    return mlp(batch=4, in_features=16, hidden=(16,), num_classes=4)


@pytest.fixture
def cnn():
    return small_cnn()


@pytest.fixture
def cnn_residual():
    return small_cnn(with_residual=True)


@pytest.fixture
def fast_config() -> PoochConfig:
    """Search config small enough for unit tests."""
    return PoochConfig(max_exact_li=4, step1_sim_budget=200)


class SerialPredictor(TimelinePredictor):
    """The production predictor without lockstep sweeps: every candidate
    runs through the event-engine path (delta drafts and liveness-floor
    elision still on)."""

    def _ensure_vec(self):
        return None


class OraclePredictor(SerialPredictor):
    """The search's reference predictor: every candidate is simulated from
    a fresh ``ScheduleBuilder`` draft replayed by ``Engine.replay_draft`` —
    no lockstep sweeps, no delta drafts and no keep-probe elision.  (That
    a raw draft replays exactly like its finalized schedule on ``Engine``
    is ``tests/test_engine.py``'s draft contract.)  Records every
    candidate it simulated, in order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.simulated: list[tuple] = []

    def provably_infeasible(self, current, x) -> bool:
        return False

    def _simulate(self, classification) -> PredictedOutcome:
        draft = ScheduleBuilder(self.graph, classification, self._durations,
                                self.options, validate=False).build_raw()
        try:
            makespan, device_peak, _host_peak = Engine.replay_draft(
                *draft,
                device_capacity=(self.machine.usable_gpu_memory
                                 - self.capacity_margin),
                host_capacity=self.machine.host_swap_capacity,
            )
            outcome = PredictedOutcome(feasible=True, time=makespan,
                                       peak_memory=device_peak)
        except OutOfMemoryError as e:
            outcome = PredictedOutcome(feasible=False, time=float("inf"),
                                       peak_memory=0, oom_context=e.context)
        self.simulated.append((classification, outcome))
        return outcome


def classifier_on(predictor_cls, graph, profile, machine,
                  config: PoochConfig | None = None) -> PoochClassifier:
    """A classifier whose predictor is ``predictor_cls``, built with the
    config's simulation settings."""
    config = config or PoochConfig()
    predictor = predictor_cls(
        graph, profile, machine, policy=config.policy,
        capacity_margin=config.capacity_margin,
        forward_refetch_gap=config.forward_refetch_gap,
    )
    return PoochClassifier(graph, profile, machine, config,
                           predictor=predictor)


def search_fingerprint(cls, stats) -> tuple:
    """What the search decided, independent of how much work it did."""
    return (cls.key(), stats.time_after_step1, stats.time_after_step2,
            stats.r_values, stats.flips_to_recompute, stats.sims_step1)
