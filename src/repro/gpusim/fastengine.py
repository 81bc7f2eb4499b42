"""The draft entry point of the event loop.

:class:`FastEngine` runs :class:`~repro.gpusim.engine.EventLoop`, the same
loop as :class:`~repro.gpusim.engine.Engine`, on the schedule builder's raw
*drafts*: no ``Task``/``BufferSpec`` finalisation and no structural
validation (the builder's output is trusted exactly as
``Engine(validate=False)`` trusts it), and no timeline — untracked pools,
no :class:`~repro.gpusim.engine.TaskRecord`, no residency assertions.  It
returns only (makespan, device peak, host peak), which is all a lone
predictor miss needs.  Only the counting :class:`MemoryPool` is used (the
search never simulates the fragmentation allocator).

The class is a thin shell over the shared loop; it keeps its own name (and
its own ``run``, counted as ``engine.fast_runs``) because the end-to-end
benchmark traces draft replays through ``FastEngine.run`` separately from
``Engine.run``.  ``tests/test_fastengine.py`` holds a draft replayed here
equal to its finalized :class:`~repro.gpusim.engine.Schedule` on ``Engine``.
"""

from __future__ import annotations

from repro.gpusim.allocator import MemoryPool
from repro.gpusim.engine import EventLoop
from repro.obs import metrics


class FastEngine(EventLoop):
    """Single-use replay of one raw schedule; see module docstring.

    Args:
        tasks: task drafts by tid (insertion order = creation order).
        queues: per-stream FIFO task-id lists (keyed by :class:`StreamName`).
        buffers: buffer drafts by bid (``free_after`` is the draft's
            ``writers | readers``).
        device_capacity / host_capacity: pool limits in bytes.
    """

    def __init__(
        self,
        tasks: dict,
        queues: dict,
        buffers: dict,
        device_capacity: int,
        host_capacity: int | None = None,
    ) -> None:
        super().__init__(
            tasks, queues, buffers,
            MemoryPool(device_capacity, "gpu", track=False),
            MemoryPool(host_capacity or (1 << 62), "host", track=False),
        )

    def run(self) -> tuple[float, int, int]:
        """Replay to completion; returns (makespan, device peak, host peak).

        Raises exactly where :class:`~repro.gpusim.engine.Engine` would:
        ``OutOfMemoryError`` for plan infeasibility, ``ScheduleError`` for
        malformed dependencies.
        """
        metrics.count("engine.fast_runs")
        self._replay()
        return self._now, self.device.peak, self.host.peak
