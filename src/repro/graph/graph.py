"""The NN computation graph: layers, dependencies, liveness queries.

Layers are stored in topological order (construction through
:class:`~repro.graph.builder.GraphBuilder` guarantees this; :meth:`NNGraph.validate`
re-checks).  The *feature map* of layer ``i`` is the output tensor of layer
``i`` — the paper's unit of keep/swap/recompute classification.

The liveness queries defined here are the ground truth used by both the
runtime schedule builder and the PoocH classifier:

* ``last_forward_use(i)`` — index of the last layer whose *forward* reads map
  ``i`` (or ``i`` itself if nothing does).  Swap-out / recompute-free can only
  happen after it.
* ``backward_users(i)`` — indices of layers whose *backward* task reads map
  ``i`` (consumers that need their input, plus ``i`` itself if its op needs
  its own output).  A map with no backward users never needs to be preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.common.errors import GraphError
from repro.graph.ops import Op, OpKind
from repro.graph.tensor_spec import TensorSpec


@dataclass(frozen=True)
class Layer:
    """One node of the graph.

    Attributes:
        index: position in topological order (== feature-map id).
        name: unique human-readable name.
        op: the bound operator.
        preds: indices of the layers whose feature maps this layer's forward
            reads (empty only for INPUT layers).
        out_spec: spec of the produced feature map.
    """

    index: int
    name: str
    op: Op
    preds: tuple[int, ...]
    out_spec: TensorSpec

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.index}] {self.name} {self.op} -> {self.out_spec}"


class NNGraph:
    """A validated, topologically-ordered DAG of layers."""

    def __init__(self, layers: list[Layer], name: str = "net") -> None:
        self.name = name
        self.layers: list[Layer] = list(layers)
        self._by_name: dict[str, int] = {}
        self.validate()

    # -- construction / validation -----------------------------------------

    def validate(self) -> None:
        """Check topological order, name uniqueness, pred arity and specs."""
        self._by_name.clear()
        for i, layer in enumerate(self.layers):
            if layer.index != i:
                raise GraphError(
                    f"layer {layer.name}: index {layer.index} != position {i}"
                )
            if layer.name in self._by_name:
                raise GraphError(f"duplicate layer name {layer.name!r}")
            self._by_name[layer.name] = i
            for p in layer.preds:
                if not 0 <= p < i:
                    raise GraphError(
                        f"layer {layer.name}: pred {p} not earlier in topo order"
                    )
            if layer.op.kind is OpKind.INPUT and layer.preds:
                raise GraphError(f"INPUT layer {layer.name} must have no preds")
            if layer.op.kind is not OpKind.INPUT and not layer.preds:
                raise GraphError(f"layer {layer.name} has no inputs")
        if not self.layers:
            raise GraphError("graph has no layers")
        # invalidate caches after (re)validation (the structural signature
        # memoized by repro.runtime.plan_io.graph_signature included)
        for attr in ("consumers", "_backward_users", "_last_forward_use",
                     "_graph_signature"):
            self.__dict__.pop(attr, None)

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, i: int) -> Layer:
        return self.layers[i]

    def by_name(self, name: str) -> Layer:
        """Look a layer up by its unique name."""
        try:
            return self.layers[self._by_name[name]]
        except KeyError:
            raise GraphError(f"no layer named {name!r}") from None

    @cached_property
    def consumers(self) -> list[list[int]]:
        """``consumers[i]`` — layers whose forward reads feature map ``i``,
        ascending."""
        cons: list[list[int]] = [[] for _ in self.layers]
        for layer in self.layers:
            for p in layer.preds:
                cons[p].append(layer.index)
        return cons

    # -- liveness -----------------------------------------------------------

    @cached_property
    def _last_forward_use(self) -> list[int]:
        return [
            max(cons) if cons else i
            for i, cons in enumerate(self.consumers)
        ]

    def last_forward_use(self, i: int) -> int:
        """Index of the last layer whose forward reads map ``i`` (``i`` if
        none).  Map ``i`` may not leave the GPU before this layer's forward
        completes."""
        return self._last_forward_use[i]

    @cached_property
    def _backward_users(self) -> list[tuple[int, ...]]:
        users: list[set[int]] = [set() for _ in self.layers]
        for layer in self.layers:
            if layer.op.bwd_needs_input:
                for p in layer.preds:
                    users[p].add(layer.index)
            if layer.op.bwd_needs_output and layer.op.has_backward:
                users[layer.index].add(layer.index)
        return [tuple(sorted(u)) for u in users]

    def backward_users(self, i: int) -> tuple[int, ...]:
        """Layers whose *backward* task reads feature map ``i``, ascending.

        Backward runs in descending layer order, so the first backward use of
        map ``i`` is ``max(backward_users(i))`` and the last is ``min(...)``.
        """
        return self._backward_users[i]

    def classifiable_maps(self) -> list[int]:
        """Feature maps the out-of-core problem is about: maps some backward
        task will read.  Maps outside this list are freed right after their
        last forward use regardless of classification."""
        return [i for i in range(len(self.layers)) if self._backward_users[i]]

    # -- aggregate statistics ------------------------------------------------

    @property
    def total_param_bytes(self) -> int:
        """Persistent parameter storage (weights + biases + BN affine)."""
        return sum(l.op.param_bytes for l in self.layers)

    @property
    def total_feature_bytes(self) -> int:
        """Sum of all feature-map sizes (the quantity Figs. 3/4 plot the bulk
        of)."""
        return sum(l.out_spec.nbytes for l in self.layers)

    @property
    def total_fwd_flops(self) -> float:
        return sum(l.op.fwd_flops for l in self.layers)

    def training_memory_bytes(self, optimizer_state_factor: float = 1.0) -> int:
        """Estimate of total training memory: all live feature maps + params
        + parameter gradients (+ optimizer state as a factor of params).

        This is the in-core requirement the paper's Figs. 3 and 4 report —
        every feature map with a backward user must be resident simultaneously
        in the worst case (just before backward begins), alongside parameters
        and their gradients.
        """
        feature = sum(
            self.layers[i].out_spec.nbytes for i in self.classifiable_maps()
        )
        params = self.total_param_bytes
        grads = params
        opt = int(params * optimizer_state_factor)
        workspace = max((l.op.workspace_bytes for l in self.layers), default=0)
        return feature + params + grads + opt + workspace

    def summary(self) -> str:
        """Multi-line human-readable description."""
        from repro.common.units import format_bytes

        kinds: dict[str, int] = {}
        for l in self.layers:
            kinds[l.op.kind.value] = kinds.get(l.op.kind.value, 0) + 1
        lines = [
            f"NNGraph {self.name!r}: {len(self.layers)} layers, "
            f"{len(self.classifiable_maps())} classifiable feature maps",
            f"  params: {format_bytes(self.total_param_bytes)}  "
            f"features: {format_bytes(self.total_feature_bytes)}  "
            f"fwd flops: {self.total_fwd_flops:.3g}",
            "  layer kinds: "
            + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())),
        ]
        return "\n".join(lines)
