"""Analytic cost model: roofline behaviour, transfer times, determinism."""

import pytest

from repro.common.units import GB, MiB
from repro.graph import TensorSpec
from repro.graph import ops
from repro.hw import CostModel, POWER9_V100, X86_V100


@pytest.fixture
def cm():
    return CostModel(X86_V100)


class TestComputeTimes:
    def test_conv_is_flop_bound(self, cm):
        op, _ = ops.conv(TensorSpec((64, 64, 56, 56)), 64, ksize=3, pad=1)
        t = cm.fwd_time(op)
        flop_time = op.fwd_flops / (X86_V100.gpu_peak_flops * 0.55)
        assert t == pytest.approx(flop_time, rel=0.2)

    def test_bn_is_bandwidth_bound(self, cm):
        op, _ = ops.batchnorm(TensorSpec((64, 64, 56, 56)))
        t = cm.fwd_time(op)
        byte_time = op.fwd_bytes / (X86_V100.gpu_mem_bandwidth * 0.8)
        assert t == pytest.approx(byte_time, rel=0.2)

    def test_backward_slower_than_forward_for_conv(self, cm):
        op, _ = ops.conv(TensorSpec((64, 64, 56, 56)), 64, ksize=3, pad=1)
        assert cm.bwd_time(op) > 1.5 * cm.fwd_time(op)

    def test_input_op_free(self, cm):
        op, _ = ops.input_op(TensorSpec((4, 4)))
        assert cm.bwd_time(op) == 0.0

    def test_launch_overhead_floors_tiny_ops(self, cm):
        op, _ = ops.relu(TensorSpec((2, 2)))
        assert cm.fwd_time(op) >= cm.launch_overhead

    def test_fused_activation_adds_time(self):
        cm = CostModel(X86_V100)
        plain, _ = ops.conv(TensorSpec((8, 8, 32, 32)), 8, ksize=3, pad=1)
        fused, _ = ops.conv(TensorSpec((8, 8, 32, 32)), 8, ksize=3, pad=1,
                            activation="relu")
        assert cm.fwd_time(fused) > cm.fwd_time(plain)


class TestTransferTimes:
    def test_swap_scales_with_bytes(self, cm):
        assert cm.swap_out_time(100 * MiB) > 9 * cm.swap_out_time(10 * MiB) * 0.9

    def test_latency_floor(self, cm):
        assert cm.swap_in_time(1) >= X86_V100.copy_latency

    def test_nvlink_faster(self):
        x86, p9 = CostModel(X86_V100), CostModel(POWER9_V100)
        assert p9.swap_out_time(256 * MiB) < x86.swap_out_time(256 * MiB) / 3

    def test_effective_bandwidth_below_peak(self, cm):
        t = cm.swap_out_time(1 * GB)
        assert t > 1 * GB / X86_V100.d2h_bandwidth  # slower than raw peak

    def test_update_time_zero_for_no_params(self, cm):
        assert cm.update_time(0) == 0.0

    def test_update_time_positive(self, cm):
        assert cm.update_time(100 * MiB) > 0


class TestDeterminism:
    def test_same_op_same_time(self):
        cm = CostModel(X86_V100)
        op, _ = ops.conv(TensorSpec((8, 8, 32, 32)), 8, ksize=3)
        assert cm.fwd_time(op) == cm.fwd_time(op)

    def test_noise_knobs_are_gone(self):
        # run-to-run variance lives in the fault layer's keyed noise
        with pytest.raises(TypeError):
            CostModel(X86_V100, jitter=0.1)
        with pytest.raises(TypeError):
            CostModel(X86_V100, seed=1)


class TestEfficiencyOverrides:
    def test_flop_efficiency_override(self):
        from repro.graph.ops import OpKind
        fast = CostModel(X86_V100, flop_efficiency={OpKind.CONV: 1.0})
        slow = CostModel(X86_V100, flop_efficiency={OpKind.CONV: 0.25})
        op, _ = ops.conv(TensorSpec((64, 64, 56, 56)), 64, ksize=3, pad=1)
        assert fast.fwd_time(op) < slow.fwd_time(op)
