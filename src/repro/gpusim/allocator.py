"""GPU memory pool model.

The pool mirrors what PoocH hooks in Chainer: every ``malloc``/``free`` is
recorded with its simulated timestamp, size and buffer id, giving the
profiler the "sizes and order of malloc/free operations" the paper lists as
a profiling input (§4.2).

The model is a *counting* pool (capacity minus bytes in use) with cuDNN-style
512-byte size rounding.  Chainer's best-fit pool can additionally fail from
fragmentation; we deliberately omit fragmentation (noted in DESIGN.md) — all
of the paper's memory effects (in-core OOM, superneurons' ungated swap-in
failure, plan portability failures) are capacity effects, and a counting pool
keeps ground truth and PoocH's predictor exactly consistent.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable

from repro.common.errors import OutOfMemoryError, SimulationError
from repro.common.units import format_bytes

#: allocation granularity (Chainer's memory pool rounds to 512-byte units)
ALLOC_ROUND: int = 512


def round_size(nbytes: int) -> int:
    """Round a request up to the pool granularity (0 stays 0)."""
    if nbytes <= 0:
        return 0
    return (nbytes + ALLOC_ROUND - 1) // ALLOC_ROUND * ALLOC_ROUND


@dataclass(frozen=True)
class AllocEvent:
    """One entry of the malloc/free trace."""

    time: float
    kind: str  # "malloc" | "free"
    buffer: str
    nbytes: int  # rounded size
    in_use_after: int  # pool bytes in use after this event


class MemoryPool:
    """Capacity-limited counting allocator with a full event trace.

    ``track=False`` disables trace recording (state transitions, peaks and
    failure behaviour are unchanged) — the predictor's search hot loop runs
    hundreds of simulations whose traces nobody reads.
    """

    def __init__(self, capacity: int, name: str = "gpu",
                 track: bool = True) -> None:
        if capacity <= 0:
            raise SimulationError(f"pool capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = int(capacity)
        self.in_use = 0
        self.peak = 0
        self._sizes: dict[str, int] = {}
        self._track = track
        self.trace: list[AllocEvent] = []

    # -- queries ---------------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.in_use

    def is_resident(self, buffer: str) -> bool:
        return buffer in self._sizes

    def size_of(self, buffer: str) -> int:
        """Rounded size of a resident buffer."""
        return self._sizes[buffer]

    def can_fit(self, nbytes: int) -> bool:
        """Whether a request of ``nbytes`` (pre-rounding) would succeed now."""
        return round_size(nbytes) <= self.free_bytes

    def can_fit_all(self, sizes: list[int]) -> bool:
        """Whether all requests could be satisfied simultaneously."""
        return sum(round_size(s) for s in sizes) <= self.free_bytes

    # -- mutation ----------------------------------------------------------------

    def malloc(self, buffer: str, nbytes: int, time: float,
               context: str = "") -> None:
        """Allocate ``buffer``; raises :class:`OutOfMemoryError` on shortfall
        and :class:`SimulationError` on double allocation."""
        if buffer in self._sizes:
            raise SimulationError(f"{self.name}: double malloc of {buffer!r}")
        size = round_size(nbytes)
        if size > self.free_bytes:
            raise OutOfMemoryError(
                f"{self.name} pool out of memory allocating {buffer!r}: "
                f"requested {format_bytes(size)}, free {format_bytes(self.free_bytes)}"
                f" of {format_bytes(self.capacity)}"
                + (f" while {context}" if context else ""),
                requested=size,
                free=self.free_bytes,
                capacity=self.capacity,
                context=context,
            )
        self._sizes[buffer] = size
        self.in_use += size
        if self.in_use > self.peak:
            self.peak = self.in_use
        if self._track:
            self.trace.append(AllocEvent(time, "malloc", buffer, size, self.in_use))

    def free(self, buffer: str, time: float) -> None:
        """Release ``buffer``; raises on unknown/double free."""
        size = self._sizes.pop(buffer, None)
        if size is None:
            raise SimulationError(f"{self.name}: free of non-resident {buffer!r}")
        self.in_use -= size
        if self._track:
            self.trace.append(AllocEvent(time, "free", buffer, size, self.in_use))

    # -- reporting ---------------------------------------------------------------

    def usage_curve(self) -> list[tuple[float, int]]:
        """(time, bytes-in-use) steps derived from the trace."""
        return [(ev.time, ev.in_use_after) for ev in self.trace]

    def stats(self) -> dict[str, float]:
        """Numeric state summary for telemetry (all values are gauges:
        capacity, current/peak occupancy, trace length)."""
        return {
            "capacity_bytes": self.capacity,
            "in_use_bytes": self.in_use,
            "peak_bytes": self.peak,
            "trace_events": len(self.trace),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemoryPool({self.name}: {format_bytes(self.in_use)} / "
            f"{format_bytes(self.capacity)} in use, peak {format_bytes(self.peak)})"
        )


def _best_fit(sizes: Iterable[int], request: int) -> int | None:
    """Index of the smallest size that holds ``request`` bytes, the first
    among equal sizes; None when none does."""
    best = None
    best_size = 0
    for i, size in enumerate(sizes):
        if size >= request and (best is None or size < best_size):
            best, best_size = i, size
    return best


class BlockMemoryPool(MemoryPool):
    """Address-space best-fit allocator with splitting and coalescing.

    Unlike the counting pool, this models *fragmentation*: an allocation
    fails when no single free block is large enough, even if the total free
    bytes would suffice — the failure mode Chainer's arena allocator adds on
    top of pure capacity.  Opt-in by passing one as a device pool
    (``execute(..., device_pool=BlockMemoryPool(capacity))``); the counting
    pool remains the default so that PoocH's predictor and the ground truth
    stay exactly consistent (see DESIGN.md §5).

    Placement scans the offset-sorted free list linearly: the smallest block
    that fits, the lowest offset among ties.  The list stays short (a
    ResNet-50 all-swap iteration never holds more than a handful of free
    blocks), so no size index is kept beside it.
    """

    def __init__(self, capacity: int, name: str = "gpu") -> None:
        super().__init__(capacity, name)
        #: sorted list of free (offset, size) blocks
        self._free_blocks: list[tuple[int, int]] = [(0, self.capacity)]
        self._offsets: dict[str, tuple[int, int]] = {}

    # -- queries -----------------------------------------------------------

    def largest_free_block(self) -> int:
        return max((s for _, s in self._free_blocks), default=0)

    def fragmentation(self) -> float:
        """1 - largest_free_block / free_bytes (0 = unfragmented)."""
        free = self.free_bytes
        if free <= 0:
            return 0.0
        return 1.0 - self.largest_free_block() / free

    def can_fit(self, nbytes: int) -> bool:
        return _best_fit((s for _, s in self._free_blocks),
                         round_size(nbytes)) is not None

    def stats(self) -> dict[str, float]:
        """Counting-pool stats plus the fragmentation the block model adds
        (largest free block, fragmentation ratio, free blocks)."""
        base = super().stats()
        base["largest_free_block_bytes"] = self.largest_free_block()
        base["fragmentation"] = self.fragmentation()
        base["free_blocks"] = len(self._free_blocks)
        return base

    def can_fit_all(self, sizes: list[int]) -> bool:
        """Whether all requests could be placed simultaneously (best-fit,
        largest-first trial placement on a copy of the free list)."""
        blocks = [s for _, s in self._free_blocks]
        for size in sorted((round_size(s) for s in sizes), reverse=True):
            if size == 0:
                continue
            i = _best_fit(blocks, size)
            if i is None:
                return False
            blocks[i] -= size
        return True

    # -- mutation ------------------------------------------------------------

    def malloc(self, buffer: str, nbytes: int, time: float,
               context: str = "") -> None:
        if buffer in self._sizes:
            raise SimulationError(f"{self.name}: double malloc of {buffer!r}")
        size = round_size(nbytes)
        idx = _best_fit((s for _, s in self._free_blocks), size)
        if idx is None:
            total_free = self.free_bytes
            raise OutOfMemoryError(
                f"{self.name} pool cannot place {buffer!r}: requested "
                f"{format_bytes(size)}, largest free block "
                f"{format_bytes(self.largest_free_block())} "
                f"(total free {format_bytes(total_free)}"
                f"{', FRAGMENTED' if total_free >= size else ''})"
                + (f" while {context}" if context else ""),
                requested=size,
                free=total_free,
                capacity=self.capacity,
                context=context,
            )
        off, s = self._free_blocks[idx]
        if size:
            # zero-size requests reserve an address but no block: putting
            # 0-byte blocks on the free list would create duplicate-offset
            # entries that break the sorted invariant free() relies on.
            if s == size:
                del self._free_blocks[idx]
            else:
                self._free_blocks[idx] = (off + size, s - size)
        self._offsets[buffer] = (off, size)
        self._sizes[buffer] = size
        self.in_use += size
        if self.in_use > self.peak:
            self.peak = self.in_use
        if self._track:
            self.trace.append(AllocEvent(time, "malloc", buffer, size, self.in_use))

    def free(self, buffer: str, time: float) -> None:
        placed = self._offsets.pop(buffer, None)
        if placed is None:
            raise SimulationError(f"{self.name}: free of non-resident {buffer!r}")
        off, size = placed
        del self._sizes[buffer]
        self.in_use -= size
        if self._track:
            self.trace.append(AllocEvent(time, "free", buffer, size, self.in_use))
        if not size:
            return  # zero-size buffers hold no block (see malloc)
        # insert and coalesce with neighbours
        idx = bisect.bisect_left(self._free_blocks, (off, 0))
        self._free_blocks.insert(idx, (off, size))
        # merge right
        if idx + 1 < len(self._free_blocks):
            o2, s2 = self._free_blocks[idx + 1]
            if off + size == o2:
                self._free_blocks[idx] = (off, size + s2)
                del self._free_blocks[idx + 1]
        # merge left
        if idx > 0:
            o0, s0 = self._free_blocks[idx - 1]
            o1, s1 = self._free_blocks[idx]
            if o0 + s0 == o1:
                self._free_blocks[idx - 1] = (o0, s0 + s1)
                del self._free_blocks[idx]
