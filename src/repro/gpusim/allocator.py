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


class BlockMemoryPool(MemoryPool):
    """Address-space best-fit allocator with splitting and coalescing.

    Unlike the counting pool, this models *fragmentation*: an allocation
    fails when no single free block is large enough, even if the total free
    bytes would suffice — the failure mode Chainer's arena allocator adds on
    top of pure capacity.  Opt-in via ``Engine(..., fragmentation=True)``;
    the counting pool remains the default so that PoocH's predictor and the
    ground truth stay exactly consistent (see DESIGN.md §5).
    """

    def __init__(self, capacity: int, name: str = "gpu") -> None:
        super().__init__(capacity, name)
        #: sorted list of free (offset, size) blocks
        self._free_blocks: list[tuple[int, int]] = [(0, self.capacity)]
        self._offsets: dict[str, tuple[int, int]] = {}
        #: size-bucketed index over the same free blocks: the sorted distinct
        #: block sizes plus, per size, the sorted offsets of blocks with that
        #: size.  ``malloc``'s best-fit choice (smallest size >= request,
        #: lowest offset among ties) becomes two bisects instead of a linear
        #: scan of the free list; the block picked is identical.
        self._size_keys: list[int] = [self.capacity]
        self._buckets: dict[int, list[int]] = {self.capacity: [0]}

    # -- size-bucket index -------------------------------------------------

    def _bucket_add(self, off: int, size: int) -> None:
        bucket = self._buckets.get(size)
        if bucket is None:
            bisect.insort(self._size_keys, size)
            self._buckets[size] = [off]
        else:
            bisect.insort(bucket, off)

    def _bucket_remove(self, off: int, size: int) -> None:
        bucket = self._buckets[size]
        if len(bucket) == 1:
            del self._buckets[size]
            del self._size_keys[bisect.bisect_left(self._size_keys, size)]
        else:
            del bucket[bisect.bisect_left(bucket, off)]

    # -- queries -----------------------------------------------------------

    def largest_free_block(self) -> int:
        return self._size_keys[-1] if self._size_keys else 0

    def fragmentation(self) -> float:
        """1 - largest_free_block / free_bytes (0 = unfragmented)."""
        free = self.free_bytes
        if free <= 0:
            return 0.0
        return 1.0 - self.largest_free_block() / free

    def can_fit(self, nbytes: int) -> bool:
        size = round_size(nbytes)
        return bool(self._size_keys) and self._size_keys[-1] >= size

    def stats(self) -> dict[str, float]:
        """Counting-pool stats plus the fragmentation the block model adds
        and the shape of the size-bucket index (free blocks, distinct
        bucket sizes, deepest bucket)."""
        base = super().stats()
        base["largest_free_block_bytes"] = self.largest_free_block()
        base["fragmentation"] = self.fragmentation()
        base["free_blocks"] = len(self._free_blocks)
        base["size_buckets"] = len(self._size_keys)
        base["largest_bucket_blocks"] = max(
            (len(b) for b in self._buckets.values()), default=0
        )
        return base

    def can_fit_all(self, sizes: list[int]) -> bool:
        """Whether all requests could be placed simultaneously (best-fit,
        largest-first trial placement on a copy of the free list)."""
        blocks = sorted((s for _, s in self._free_blocks), reverse=False)
        for size in sorted((round_size(s) for s in sizes), reverse=True):
            if size == 0:
                continue
            for i, s in enumerate(blocks):
                if s >= size:
                    blocks[i] = s - size
                    blocks.sort()
                    break
            else:
                return False
        return True

    # -- mutation ------------------------------------------------------------

    def malloc(self, buffer: str, nbytes: int, time: float,
               context: str = "") -> None:
        if buffer in self._sizes:
            raise SimulationError(f"{self.name}: double malloc of {buffer!r}")
        size = round_size(nbytes)
        # best-fit via the bucket index: the first size key >= request is the
        # smallest qualifying block size, and its bucket's first offset is the
        # lowest-offset block of that size — exactly what a linear best-fit
        # scan of the offset-sorted free list would pick.
        k = bisect.bisect_left(self._size_keys, size)
        if k == len(self._size_keys):
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
        s = self._size_keys[k]
        off = self._buckets[s][0]
        if size:
            # zero-size requests reserve an address but no block: putting
            # 0-byte blocks on the free list would create duplicate-offset
            # entries that break the sorted invariant free() relies on.
            self._bucket_remove(off, s)
            idx = bisect.bisect_left(self._free_blocks, (off, 0))
            if s == size:
                del self._free_blocks[idx]
            else:
                self._free_blocks[idx] = (off + size, s - size)
                self._bucket_add(off + size, s - size)
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
        # insert and coalesce with neighbours, keeping the bucket index in step
        idx = bisect.bisect_left(self._free_blocks, (off, 0))
        self._free_blocks.insert(idx, (off, size))
        self._bucket_add(off, size)
        # merge right
        if idx + 1 < len(self._free_blocks):
            o2, s2 = self._free_blocks[idx + 1]
            if off + size == o2:
                self._bucket_remove(off, size)
                self._bucket_remove(o2, s2)
                size += s2
                self._free_blocks[idx] = (off, size)
                del self._free_blocks[idx + 1]
                self._bucket_add(off, size)
        # merge left
        if idx > 0:
            o0, s0 = self._free_blocks[idx - 1]
            o1, s1 = self._free_blocks[idx]
            if o0 + s0 == o1:
                self._bucket_remove(o0, s0)
                self._bucket_remove(o1, s1)
                self._free_blocks[idx - 1] = (o0, s0 + s1)
                del self._free_blocks[idx]
                self._bucket_add(o0, s0 + s1)
