"""N-device data-parallel simulation on a shared host link.

Data-parallel training runs the *same* plan on every device (each replica
computes the same layers over its shard of the batch), so a multi-device
iteration is N copies of one single-device timeline — plus two couplings
the single-device engine cannot see:

* **Host-link contention.**  All replicas' H2D and D2H traffic crosses one
  host interconnect.  The :class:`LinkArbiter` below re-times the transfer
  windows of the N shifted timelines: per direction, the link serves one
  device's transfer at a time; a window that arrives while the link is busy
  waits, and the wait *slips every later event of that device* by the same
  amount (a rigid-slip model: conservative, deterministic, and exactly what
  KARMA's interleaving argument needs — staggered replicas stop queueing
  behind each other).  Same-device windows never self-arbitrate: within one
  device a direction's stream is already serial in the base timeline, so a
  single device passes through the arbiter with zero delay and ``N=1`` is
  bit-identical to the plain engine by construction (the equivalence tests
  assert it zoo-wide).
* **Gradient exchange.**  An allreduce stream per device, modelled as a
  ring allreduce over the parameter gradients (``2(N-1)/N`` of the bytes
  across the slowest hop) that starts when the device's backward phase
  finishes and overlaps whatever compute remains; the iteration ends when
  both the device's timeline and its gradient exchange are done.

The aggregate host bound is enforced here too: N replicas of a plan whose
host-resident swap peak is ``P`` need ``N*P`` bytes of host DRAM — a plan
that fits one device can exceed ``cpu_mem_capacity`` at ``N``, and the
check names the overflowing bytes (see ``MachineSpec.host_swap_capacity``
for the planning-side share that prevents this by construction).
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

import numpy as np

from repro.common.errors import OutOfMemoryError, SimulationError
from repro.common.units import format_bytes
from repro.gpusim.engine import RunResult, StreamName, TaskKind, TaskRecord

#: streams whose tasks occupy the host link (the compute stream does not)
_LINK_STREAMS = (StreamName.H2D, StreamName.D2H)
#: a stream's busy-horizon slot in :class:`LinkArbiter`
_STREAM_INDEX = {s: i for i, s in enumerate(StreamName)}


@dataclass(frozen=True)
class TransferGrant:
    """One transfer window after arbitration."""

    device: int
    tid: str
    direction: StreamName
    #: when the device asked for the link (original start + stagger + slip)
    requested: float
    #: when the link actually served it (>= requested)
    granted: float
    end: float

    @property
    def delay(self) -> float:
        return self.granted - self.requested


class LinkArbiter:
    """Serialize overlapping transfer windows of different devices.

    One arbiter instance covers both directions of the shared host link:
    each direction has an independent busy horizon (PCIe and NVLink are
    full duplex — H2D never blocks D2H), but a device's accumulated slip is
    common to both directions, because a delayed transfer pushes back
    everything that device does afterwards.

    Grants are deterministic: requests are served in non-decreasing
    effective-request order with ties broken by (device, window index).
    Within one device the effective order equals the original order (slip
    is device-uniform), so a lone device — or any device whose windows
    never overlap another's — experiences zero delay.
    """

    def __init__(self, link_shared: bool = True) -> None:
        self.link_shared = link_shared
        #: ``(device, record, requested, granted)`` per grant, in grant
        #: order; :attr:`grants` expands them on demand
        self._grants: list[tuple[int, TaskRecord, float, float]] = []
        #: busy horizon per direction (per (direction, device) when the
        #: link is not shared, which makes contention impossible)
        self._free_at: dict[int, float] = {}

    @property
    def grants(self) -> list[TransferGrant]:
        """Every grant so far, in grant order."""
        return [
            TransferGrant(device=d, tid=rec.tid, direction=rec.stream,
                          requested=requested, granted=granted,
                          end=granted + rec.duration)
            for d, rec, requested, granted in self._grants
        ]

    def arbitrate(
        self,
        windows: Sequence[Sequence[TaskRecord]],
        stagger: Sequence[float],
    ) -> list[list[tuple[float, float]]]:
        """Re-time the per-device transfer windows.

        ``windows[d]`` is device ``d``'s transfer records in base-timeline
        order; ``stagger[d]`` shifts the whole device.  Returns, per
        device, the slip breakpoints ``[(base_start, slip_after), ...]`` in
        increasing base-start order — the cumulative delay applying to
        every event of that device at or after ``base_start`` (stagger not
        included).  The grants are left in :attr:`grants`.
        """
        n = len(windows)
        for d, s in enumerate(stagger):
            if not math.isfinite(s) or s < 0:
                raise SimulationError(
                    f"stagger offsets must be finite and >= 0, got {s!r} "
                    f"for device {d}")
        # flat per-window start / duration / horizon-key lists, built once
        # per distinct window list (replicas share one)
        columns: dict[int, tuple[list, list, list]] = {}
        for w in windows:
            if id(w) not in columns:
                columns[id(w)] = ([r.start for r in w],
                                  [r.duration for r in w],
                                  [_STREAM_INDEX[r.stream] for r in w])
        starts, durations, keys = (
            [columns[id(w)][k] for w in windows] for k in range(3))
        stride = 0 if self.link_shared else len(_STREAM_INDEX)
        slip = [0.0] * n
        breakpoints: list[list[tuple[float, float]]] = [[] for _ in range(n)]
        free_at = self._free_at
        grants = self._grants
        # a heap over effective request times picks the global next grant;
        # each device has one entry, its next window.  Entries are
        # re-validated because a grant can raise its device's slip and
        # therefore every pending request of that device.
        heap = [(starts[d][0] + stagger[d] + slip[d], d, 0)
                for d in range(n) if starts[d]]
        heapq.heapify(heap)
        while heap:
            requested, d, i = heap[0]
            start = starts[d][i]
            fresh = start + stagger[d] + slip[d]
            if fresh != requested:  # stale: slip grew since the push
                heapq.heapreplace(heap, (fresh, d, i))
                continue
            key = keys[d][i] + stride * d
            free = free_at.get(key, 0.0)
            granted = requested if requested >= free else free
            free_at[key] = granted + durations[d][i]
            if granted > requested:
                slip[d] = granted - start - stagger[d]
                breakpoints[d].append((start, slip[d]))
            grants.append((d, windows[d][i], requested, granted))
            i += 1
            if i < len(starts[d]):
                heapq.heapreplace(
                    heap, (starts[d][i] + stagger[d] + slip[d], d, i))
            else:
                heapq.heappop(heap)
        return breakpoints


@dataclass
class DeviceTimeline:
    """One device's view of the multi-device iteration."""

    device: int
    #: deliberate start offset of this replica (the KARMA stagger)
    stagger: float
    #: cumulative link-contention delay at the end of the timeline
    contention_delay: float
    #: shifted completion time of the device's own task timeline
    timeline_end: float
    #: shifted completion of the backward phase (gradient exchange trigger)
    backward_end: float
    #: duration of the ring gradient exchange (0 when N=1)
    allreduce_time: float
    #: slip breakpoints [(base_start, slip_after)] from the arbiter
    slip_breakpoints: list = field(default_factory=list)

    @property
    def done(self) -> float:
        """When this device finishes the iteration, allreduce included."""
        return max(self.timeline_end, self.backward_end + self.allreduce_time)

    def slip_at(self, base_start: float) -> float:
        """Contention slip applying to an event at ``base_start``: the
        value of the last breakpoint at or before it."""
        i = bisect.bisect_right(self.slip_breakpoints, base_start,
                                key=itemgetter(0))
        return self.slip_breakpoints[i - 1][1] if i else 0.0

    def shift_of(self, base_start: float) -> float:
        return self.stagger + self.slip_at(base_start)


@dataclass
class MultiDeviceResult:
    """Outcome of one N-device data-parallel iteration."""

    base: RunResult
    devices: int
    per_device: list[DeviceTimeline]
    #: iteration makespan: the slowest device, allreduce included
    makespan: float
    #: sum over devices of their final contention slip
    contention_delay_total: float
    #: host DRAM concurrently held by all replicas' swapped bytes
    host_bytes_total: int = 0
    #: the arbiter that timed the link (grants are expanded on demand)
    arbiter: LinkArbiter | None = field(default=None, repr=False,
                                        compare=False)

    @property
    def grants(self) -> list[TransferGrant]:
        """The arbiter's full grant list (contention-window forensics)."""
        return self.arbiter.grants if self.arbiter is not None else []

    @property
    def allreduce_time(self) -> float:
        return self.per_device[0].allreduce_time if self.per_device else 0.0

    def device_records(self, device: int) -> list[TaskRecord]:
        """The base records re-timed onto device ``device``'s clock."""
        dev = self.per_device[device]
        out = []
        for rec in self.base.records:
            shift = dev.shift_of(rec.start)
            out.append(TaskRecord(
                tid=rec.tid, kind=rec.kind, stream=rec.stream,
                layer=rec.layer, start=rec.start + shift,
                end=rec.end + shift,
            ))
        return out


def ring_allreduce_time(grad_bytes: int, machine) -> float:
    """Ring-allreduce duration for ``grad_bytes`` of gradients.

    Each device sends and receives ``2*(N-1)/N`` of the bytes across the
    exchange path, in ``2*(N-1)`` latency-bound steps.  0 when ``N == 1``
    or there are no gradients.
    """
    n = machine.devices
    if n <= 1 or grad_bytes <= 0:
        return 0.0
    bandwidth = machine.effective_allreduce_bandwidth
    volume = 2.0 * (n - 1) / n * grad_bytes
    return volume / bandwidth + 2.0 * (n - 1) * machine.copy_latency


def check_host_fit(base: RunResult, machine) -> int:
    """Aggregate host bound: N replicas of ``base``'s host peak must fit
    ``cpu_mem_capacity``.  Returns the total; raises naming the overflow."""
    total = machine.devices * base.host_peak
    if total > machine.cpu_mem_capacity:
        overflow = total - machine.cpu_mem_capacity
        raise OutOfMemoryError(
            f"host swap space exceeds CPU DRAM: {machine.devices} devices x "
            f"{format_bytes(base.host_peak)} host-resident swapped bytes = "
            f"{format_bytes(total)}, capacity "
            f"{format_bytes(machine.cpu_mem_capacity)} "
            f"(over by {format_bytes(overflow)})",
            requested=total,
            free=max(machine.cpu_mem_capacity - total + overflow, 0),
            capacity=machine.cpu_mem_capacity,
            context="multi-device host swap",
        )
    return total


def simulate_multi_device(
    base: RunResult,
    machine,
    *,
    stagger: Sequence[float] | None = None,
    grad_bytes: int = 0,
) -> MultiDeviceResult:
    """Simulate ``machine.devices`` data-parallel replicas of ``base``.

    ``base`` is one device's single-device timeline (every replica runs the
    same plan); ``stagger[d]`` deliberately offsets device ``d``'s start —
    all zeros is the naive contention scenario, increasing offsets are the
    KARMA-style interleave.  ``grad_bytes`` is the per-device gradient
    volume the ring allreduce exchanges (``graph.total_param_bytes``).

    With ``devices == 1`` and the default stagger the result is
    bit-identical to ``base``: no contention is possible (a device never
    self-arbitrates) and the allreduce term vanishes.
    """
    n = machine.devices
    if stagger is None:
        stagger = (0.0,) * n
    stagger = tuple(float(s) for s in stagger)
    if len(stagger) != n:
        raise SimulationError(
            f"stagger has {len(stagger)} offsets for {n} devices")
    host_total = check_host_fit(base, machine)

    transfers = sorted(
        (r for r in base.records if r.stream in _LINK_STREAMS),
        key=lambda r: (r.start, r.tid),
    )
    arbiter = LinkArbiter(link_shared=machine.link_shared)
    breakpoints = arbiter.arbitrate([transfers] * n, stagger)

    ar_time = ring_allreduce_time(grad_bytes, machine)
    records = base.records
    starts = np.fromiter((r.start for r in records), float, len(records))
    ends = np.fromiter((r.end for r in records), float, len(records))
    backward = np.fromiter((r.kind is TaskKind.BWD for r in records), bool,
                           len(records))
    per_device: list[DeviceTimeline] = []
    for d in range(n):
        bp = breakpoints[d]
        s = stagger[d]
        # ends shift by the slip in effect at each record's *start* (a
        # window already granted is never preempted), so re-derive both
        # phase ends from the shifted records rather than shifting the max;
        # the slip of a start is the last breakpoint at or before it, and
        # the sum keeps ``end + (stagger + slip)``, the order of shift_of
        slips = np.array([0.0] + [v for _, v in bp])[np.searchsorted(
            np.array([t for t, _ in bp], float), starts, side="right")]
        shifted = ends + (s + slips)
        timeline_end = backward_end = s
        if len(shifted):
            timeline_end = max(s, float(shifted.max()))
        if backward.any():
            backward_end = max(s, float(shifted[backward].max()))
        per_device.append(DeviceTimeline(
            device=d,
            stagger=s,
            contention_delay=bp[-1][1] if bp else 0.0,
            timeline_end=timeline_end,
            backward_end=backward_end if backward_end > s else timeline_end,
            allreduce_time=ar_time,
            slip_breakpoints=bp,
        ))

    return MultiDeviceResult(
        base=base,
        devices=n,
        per_device=per_device,
        makespan=max(dev.done for dev in per_device),
        contention_delay_total=sum(dev.contention_delay
                                   for dev in per_device),
        host_bytes_total=host_total,
        arbiter=arbiter,
    )
