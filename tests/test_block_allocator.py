"""Best-fit block allocator: placement, coalescing, fragmentation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import OutOfMemoryError
from repro.common.units import KiB
from repro.gpusim import BlockMemoryPool
from repro.gpusim.allocator import round_size
from repro.hw import X86_V100
from repro.models import poster_example, small_cnn
from repro.runtime import Classification, execute


class TestPlacement:
    def test_simple_cycle(self):
        p = BlockMemoryPool(64 * KiB)
        p.malloc("a", 10 * KiB, 0.0)
        p.malloc("b", 10 * KiB, 0.0)
        assert p.in_use == 20 * KiB
        p.free("a", 1.0)
        p.free("b", 1.0)
        assert p.in_use == 0
        assert p.largest_free_block() == 64 * KiB  # fully coalesced

    def test_best_fit_prefers_smallest_block(self):
        p = BlockMemoryPool(100 * KiB)
        p.malloc("a", 10 * KiB, 0.0)
        p.malloc("b", 30 * KiB, 0.0)
        p.malloc("c", 10 * KiB, 0.0)
        p.free("a", 1.0)  # 10 KiB hole at offset 0
        # a 5 KiB request should land in the 10 KiB hole, not the tail
        p.malloc("d", 5 * KiB, 2.0)
        assert p._offsets["d"][0] == 0

    def test_fragmentation_failure(self):
        p = BlockMemoryPool(100 * KiB)
        p.malloc("a", 40 * KiB, 0.0)
        p.malloc("b", 20 * KiB, 0.0)
        p.malloc("c", 40 * KiB, 0.0)
        p.free("a", 1.0)
        p.free("c", 1.0)
        # 80 KiB free, but in two 40 KiB fragments
        assert p.free_bytes == 80 * KiB
        assert not p.can_fit(60 * KiB)
        with pytest.raises(OutOfMemoryError, match="FRAGMENTED"):
            p.malloc("big", 60 * KiB, 2.0)
        assert p.fragmentation() == pytest.approx(0.5)

    def test_coalesce_middle(self):
        p = BlockMemoryPool(90 * KiB)
        for i, name in enumerate("abc"):
            p.malloc(name, 30 * KiB, 0.0)
        p.free("a", 1.0)
        p.free("c", 1.0)
        p.free("b", 2.0)  # merges with both neighbours
        assert p.largest_free_block() == 90 * KiB
        assert len(p._free_blocks) == 1

    def test_best_fit_tie_breaks_to_lowest_offset(self):
        p = BlockMemoryPool(100 * KiB)
        for i, name in enumerate("abcde"):
            p.malloc(name, 20 * KiB, 0.0)
        p.free("b", 1.0)  # 20 KiB hole at 20 KiB
        p.free("d", 1.0)  # 20 KiB hole at 60 KiB — same size, higher offset
        p.malloc("x", 20 * KiB, 2.0)
        assert p._offsets["x"][0] == 20 * KiB

    def test_block_stats_reported(self):
        p = BlockMemoryPool(100 * KiB)
        p.malloc("a", 20 * KiB, 0.0)
        p.malloc("b", 20 * KiB, 0.0)
        p.malloc("c", 20 * KiB, 0.0)
        p.free("a", 1.0)
        p.free("c", 1.0)  # two free blocks: 20 KiB hole + 20+40 KiB tail
        s = p.stats()
        assert s["free_blocks"] == 2
        assert s["largest_free_block_bytes"] == 60 * KiB
        p.free("b", 2.0)
        s = p.stats()
        assert s["free_blocks"] == 1
        assert s["largest_free_block_bytes"] == 100 * KiB

    def test_zero_size_request_holds_no_block(self):
        p = BlockMemoryPool(100 * KiB)
        p.malloc("a", 10 * KiB, 0.0)
        p.malloc("z", 0, 0.0)
        assert p.in_use == 10 * KiB
        before = list(p._free_blocks)
        p.free("z", 1.0)
        # the free list (and its invariants) are untouched by 0-byte buffers
        assert p._free_blocks == before
        p.malloc("b", 90 * KiB, 2.0)  # remaining space fully usable
        assert not p.can_fit(1)

    def test_can_fit_all_respects_blocks(self):
        p = BlockMemoryPool(100 * KiB)
        p.malloc("a", 40 * KiB, 0.0)
        p.malloc("b", 20 * KiB, 0.0)
        p.malloc("c", 40 * KiB, 0.0)
        p.free("a", 1.0)
        p.free("c", 1.0)
        assert p.can_fit_all([40 * KiB, 40 * KiB])
        assert p.can_fit_all([40 * KiB, 30 * KiB, 10 * KiB])  # 30+10 share one
        assert not p.can_fit_all([60 * KiB])
        assert not p.can_fit_all([40 * KiB, 35 * KiB, 10 * KiB])  # 10 left homeless


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 7),
                  st.integers(1, 32 * KiB)),
        max_size=50,
    )
)
def test_block_pool_invariants(script):
    """Free blocks stay sorted, disjoint and coalesced; accounting matches
    the counting semantics for in_use/peak."""
    p = BlockMemoryPool(128 * KiB)
    live: dict[str, int] = {}
    for is_malloc, slot, size in script:
        bid = f"b{slot}"
        if is_malloc and bid not in live:
            try:
                p.malloc(bid, size, 0.0)
            except OutOfMemoryError:
                continue
            live[bid] = round_size(size)
        elif not is_malloc and bid in live:
            p.free(bid, 0.0)
            del live[bid]
        assert p.in_use == sum(live.values())
        # free blocks: sorted, non-overlapping, never adjacent (coalesced)
        blocks = p._free_blocks
        for (o1, s1), (o2, s2) in zip(blocks, blocks[1:]):
            assert o1 + s1 < o2
        assert sum(s for _, s in blocks) == p.capacity - p.in_use


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 7),
                  st.integers(1, 32 * KiB)),
        max_size=50,
    )
)
def test_bucketed_placement_matches_linear_scan(script):
    """Placement must pick the exact block a reference best-fit scan of the
    free list would: smallest size >= request, lowest offset among equal
    sizes."""
    p = BlockMemoryPool(128 * KiB)
    live: set[str] = set()
    for is_malloc, slot, size in script:
        bid = f"b{slot}"
        if is_malloc and bid not in live:
            ref = None
            for off, s in p._free_blocks:  # reference linear scan
                if s >= round_size(size) and (ref is None or s < ref[1]):
                    ref = (off, s)
            try:
                p.malloc(bid, size, 0.0)
            except OutOfMemoryError:
                assert ref is None
                continue
            live.add(bid)
            assert p._offsets[bid] == (ref[0], round_size(size))
        elif not is_malloc and bid in live:
            p.free(bid, 0.0)
            live.remove(bid)


def _arena(machine):
    return BlockMemoryPool(machine.usable_gpu_memory)


class TestEngineIntegration:
    def test_fragmented_execution_matches_counting_when_roomy(self):
        g = small_cnn()
        cls = Classification.all_swap(g)
        a = execute(g, cls, X86_V100)
        b = execute(g, cls, X86_V100, device_pool=_arena(X86_V100))
        assert a.makespan == pytest.approx(b.makespan, rel=1e-9)
        assert a.device_peak == b.device_peak

    def test_fragmentation_never_speeds_things_up(self):
        from tests.conftest import tiny_machine
        g = poster_example()
        m = tiny_machine(mem_mib=224, link_gbps=2.0)
        cls = Classification.all_swap(g)
        counting = execute(g, cls, m)
        try:
            block = execute(g, cls, m, device_pool=_arena(m))
        except OutOfMemoryError:
            return  # fragmentation turning a tight fit into OOM is legal
        assert block.makespan >= counting.makespan * 0.999
