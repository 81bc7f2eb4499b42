"""Feature-map classifications (keep / swap / recompute) and swap-in
scheduling policies — the decision variables of the whole paper."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import ScheduleError
from repro.graph import NNGraph


class MapClass(enum.Enum):
    """Where a feature map lives between its last forward use and its first
    backward use (§4.1.1)."""

    KEEP = "keep"
    SWAP = "swap"
    RECOMPUTE = "recompute"


class SwapInPolicy(enum.Enum):
    """When a scheduled swap-in is allowed to start.

    * ``NAIVE`` — starts together with the computation one step ahead of the
      backward task that needs it (the left side of the paper's Fig. 10).
    * ``EAGER`` — starts as soon as GPU memory has room (plus a safety
      headroom), PoocH's improved schedule (§4.3, right side of Fig. 10).
    * ``SUPERNEURONS`` — starts with the backward computation of the nearest
      preceding convolution layer and does *not* check memory availability;
      an allocation failure at that point is fatal (§5.2).
    """

    NAIVE = "naive"
    EAGER = "eager"
    SUPERNEURONS = "superneurons"


@dataclass(frozen=True)
class Classification:
    """An assignment of a :class:`MapClass` to every classifiable feature map.

    ``classes`` maps feature-map index (== layer index) to class.  Maps that
    no backward task reads are not part of the assignment — they are freed
    after their last forward use regardless.
    """

    classes: dict[int, MapClass]

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def uniform(graph: NNGraph, cls: MapClass) -> "Classification":
        """Assign ``cls`` to every classifiable map (recompute-ineligible maps
        fall back to SWAP)."""
        classes = {}
        for i in graph.classifiable_maps():
            if cls is MapClass.RECOMPUTE and not graph[i].op.recomputable:
                classes[i] = MapClass.SWAP
            else:
                classes[i] = cls
        return Classification(classes)

    @staticmethod
    def all_keep(graph: NNGraph) -> "Classification":
        """The in-core plan: everything stays on the GPU."""
        return Classification.uniform(graph, MapClass.KEEP)

    @staticmethod
    def all_swap(graph: NNGraph) -> "Classification":
        """The paper's safe default and profiling-phase plan."""
        return Classification.uniform(graph, MapClass.SWAP)

    @staticmethod
    def all_recompute(graph: NNGraph) -> "Classification":
        """Chen-style sublinear plan (ineligible maps swap instead)."""
        return Classification.uniform(graph, MapClass.RECOMPUTE)

    # -- queries -----------------------------------------------------------------

    def of(self, i: int) -> MapClass:
        return self.classes[i]

    def get(self, i: int, default: MapClass | None = None) -> MapClass | None:
        return self.classes.get(i, default)

    def counts(self) -> dict[MapClass, int]:
        """Map-class histogram — the paper's Table 3 rows."""
        c = {MapClass.KEEP: 0, MapClass.SWAP: 0, MapClass.RECOMPUTE: 0}
        for cls in self.classes.values():
            c[cls] += 1
        return c

    def maps_of(self, cls: MapClass) -> list[int]:
        return sorted(i for i, c in self.classes.items() if c is cls)

    def key(self) -> tuple[int, int]:
        """Hashable identity, for memoising timeline simulations: the bit
        masks ``(keep, recompute)`` over map indices (bit ``i`` is map
        ``i``; every other classified map swaps).  Two classifications of
        one graph are equal exactly when their keys are, and step 1 keys
        its candidates on ``(keep mask, 0)`` without building a
        classification at all.

        Computed lazily and cached on the instance — safe because the
        class is treated as immutable everywhere (``with_class`` copies,
        deriving the child's key from a cached parent key)."""
        k = getattr(self, "_key", None)
        if k is None:
            keep = recompute = 0
            for i, c in self.classes.items():
                if c is MapClass.KEEP:
                    keep |= 1 << i
                elif c is MapClass.RECOMPUTE:
                    recompute |= 1 << i
            k = (keep, recompute)
            object.__setattr__(self, "_key", k)
        return k

    # -- derivation ----------------------------------------------------------------

    def with_class(self, i: int, cls: MapClass) -> "Classification":
        """Functional single-map update."""
        if i not in self.classes:
            raise ScheduleError(f"feature map {i} is not classifiable")
        new = dict(self.classes)
        new[i] = cls
        out = Classification(new)
        k = getattr(self, "_key", None)
        if k is not None:
            bit = 1 << i
            keep, recompute = k[0] & ~bit, k[1] & ~bit
            if cls is MapClass.KEEP:
                keep |= bit
            elif cls is MapClass.RECOMPUTE:
                recompute |= bit
            object.__setattr__(out, "_key", (keep, recompute))
        return out

    def with_classes(self, updates: dict[int, MapClass]) -> "Classification":
        new = dict(self.classes)
        for i, cls in updates.items():
            if i not in new:
                raise ScheduleError(f"feature map {i} is not classifiable")
            new[i] = cls
        return Classification(new)

    # -- validation ------------------------------------------------------------------

    def validate(self, graph: NNGraph) -> None:
        """Check coverage (exactly the classifiable maps) and recompute
        eligibility."""
        expected = set(graph.classifiable_maps())
        got = set(self.classes)
        if got != expected:
            extra, missing = got - expected, expected - got
            raise ScheduleError(
                f"classification covers wrong maps (extra={sorted(extra)[:5]}, "
                f"missing={sorted(missing)[:5]})"
            )
        for i, cls in self.classes.items():
            if cls is MapClass.RECOMPUTE and not graph[i].op.recomputable:
                raise ScheduleError(
                    f"map {i} ({graph[i].name}, {graph[i].op.kind.value}) "
                    "cannot be recomputed"
                )

    def describe(self, graph: NNGraph) -> str:
        """One line per map, for debugging and the examples."""
        lines = []
        for i in sorted(self.classes):
            lines.append(f"  {i:4d} {graph[i].name:24s} {self.classes[i].value}")
        counts = self.counts()
        head = (
            f"Classification: keep={counts[MapClass.KEEP]} "
            f"swap={counts[MapClass.SWAP]} recompute={counts[MapClass.RECOMPUTE]}"
        )
        return "\n".join([head, *lines])
