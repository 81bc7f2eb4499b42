"""Analytic operator cost model — the stand-in for cuDNN kernel timings.

For each op the model takes a *roofline*: the larger of FLOP time (at an
op-kind-specific fraction of peak) and DRAM-traffic time (at a fraction of
peak HBM bandwidth), plus a per-kernel launch/framework overhead.  Swap
transfers are latency + bytes / (efficiency · link bandwidth).

The efficiencies below were calibrated once so that in-core ResNet-50 lands
near the paper's 316 img/s on the x86 machine spec (see
``benchmarks/test_bench_fig17_resnet50_x86.py`` and EXPERIMENTS.md); they are
ordinary constructor arguments, so studies can re-calibrate freely.

The model is deterministic: the same op always costs the same time.
Run-to-run variance of real hardware is the fault layer's job
(``FaultSpec.duration_noise`` and ``profile_noise``), keyed per task so
every noisy run is reproducible under a seed.
"""

from __future__ import annotations

from repro.graph.ops import Op, OpKind
from repro.hw.machine import MachineSpec

#: fraction of peak FLOPs each compute-bound kind achieves (cuDNN-calibre
#: kernels do not reach peak; grouped/strided convs are worse than GEMMs).
_DEFAULT_FLOP_EFFICIENCY: dict[OpKind, float] = {
    OpKind.CONV: 0.55,
    OpKind.LINEAR: 0.70,
    OpKind.MATMUL: 0.65,
}

#: number of kernel launches per forward task (backward uses its own table —
#: conv backward runs separate dgrad and wgrad kernels).
_FWD_KERNELS: dict[OpKind, int] = {
    OpKind.INPUT: 0,
    OpKind.BATCHNORM: 2,
    OpKind.SOFTMAX_XENT: 3,
}
_BWD_KERNELS: dict[OpKind, int] = {
    OpKind.INPUT: 0,
    OpKind.CONV: 2,
    OpKind.LINEAR: 2,
    OpKind.BATCHNORM: 2,
}


class CostModel:
    """Maps graph ops and transfer sizes to simulated durations.

    Args:
        machine: the environment being modelled.
        mem_efficiency: achieved fraction of peak HBM bandwidth.
        link_efficiency: achieved fraction of peak interconnect bandwidth
            (protocol + pinned-buffer overheads).
        launch_overhead: per-kernel launch + framework dispatch time.
        flop_efficiency: overrides for per-kind FLOP efficiencies.
    """

    def __init__(
        self,
        machine: MachineSpec,
        *,
        mem_efficiency: float = 0.80,
        link_efficiency: float = 0.82,
        launch_overhead: float = 8e-6,
        flop_efficiency: dict[OpKind, float] | None = None,
    ) -> None:
        self.machine = machine
        self.mem_efficiency = mem_efficiency
        self.link_efficiency = link_efficiency
        self.launch_overhead = launch_overhead
        self.flop_efficiency = dict(_DEFAULT_FLOP_EFFICIENCY)
        if flop_efficiency:
            self.flop_efficiency.update(flop_efficiency)

    # -- internals -----------------------------------------------------------

    def _roofline(self, flops: float, bytes_: float, kind: OpKind,
                  kernels: int) -> float:
        eff = self.flop_efficiency.get(kind, 0.5)
        flop_time = flops / (self.machine.gpu_peak_flops * eff)
        byte_time = bytes_ / (self.machine.gpu_mem_bandwidth * self.mem_efficiency)
        return max(flop_time, byte_time) + kernels * self.launch_overhead

    # -- public API ------------------------------------------------------------

    def fwd_time(self, op: Op) -> float:
        """Duration of one forward execution of ``op`` (also the cost of
        recomputing its output)."""
        kernels = _FWD_KERNELS.get(op.kind, 1)
        if op.fused_activation:
            kernels += 1
        return self._roofline(op.fwd_flops, op.fwd_bytes, op.kind, kernels)

    def bwd_time(self, op: Op) -> float:
        """Duration of one backward execution of ``op``."""
        if not op.has_backward:
            return 0.0
        kernels = _BWD_KERNELS.get(op.kind, 1)
        if op.fused_activation:
            kernels += 1
        return self._roofline(op.bwd_flops, op.bwd_bytes, op.kind, kernels)

    def swap_out_time(self, nbytes: int) -> float:
        """Device→host transfer duration for ``nbytes``."""
        bw = self.machine.d2h_bandwidth * self.link_efficiency
        return self.machine.copy_latency + nbytes / bw

    def swap_in_time(self, nbytes: int) -> float:
        """Host→device transfer duration for ``nbytes``."""
        bw = self.machine.h2d_bandwidth * self.link_efficiency
        return self.machine.copy_latency + nbytes / bw

    def update_time(self, param_bytes: int) -> float:
        """Optimizer update step: a bandwidth-bound sweep over parameters and
        gradients (read both, write params → 3 passes)."""
        if param_bytes == 0:
            return 0.0
        bw = self.machine.gpu_mem_bandwidth * self.mem_efficiency
        return 3.0 * param_bytes / bw + self.launch_overhead
