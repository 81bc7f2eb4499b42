"""SuperNeurons-style static hybrid classification (Wang et al., PPoPP'18),
as the paper describes and re-implements it in §5.2:

* feature maps are kept on GPU memory preferentially from the output layer,
  as many as fit a static budget;
* of the rest, convolution-layer outputs are swapped and everything else is
  recomputed (the decision is by *layer type*, not measured time);
* each swap-in starts together with the backward computation of the nearest
  preceding convolution layer, without checking actual memory usage — which
  is exactly why the paper observes it failing at ResNet50 batch 640.

The static keep budget reserves the parameter+gradient storage and the
largest single-layer working set; everything beyond that is assumed
available, the kind of static reasoning whose mis-prediction the paper calls
out.
"""

from __future__ import annotations

from repro.baselines.common import BaselinePlan
from repro.graph import NNGraph
from repro.graph.ops import OpKind
from repro.gpusim.allocator import round_size
from repro.hw import MachineSpec
from repro.runtime.plan import Classification, MapClass, SwapInPolicy
from repro.runtime.schedule import ScheduleOptions


def _static_working_set(graph: NNGraph) -> int:
    """Largest *forward* transient of a single layer: inputs + output +
    workspace.

    SuperNeurons sizes its static keep budget against this forward bound
    only.  The true backward transient is larger (gradients plus the feature
    maps restored by swap-in/recompute plus whatever the un-gated prefetcher
    has already pulled in), which is exactly the paper's criticism —
    "superneurons schedules swapping-in without considering the actual
    memory usage, resulting in GPU memory shortage" at batch 640 — so the
    under-estimate is faithful, not a bug."""
    worst = 0
    for layer in graph:
        need = round_size(layer.out_spec.nbytes) + round_size(layer.op.workspace_bytes)
        for j in layer.preds:
            need += round_size(graph[j].out_spec.nbytes)
        worst = max(worst, need)
    return worst


def plan_superneurons(graph: NNGraph, machine: MachineSpec) -> BaselinePlan:
    """Build the SuperNeurons classification for ``graph`` on ``machine``.

    Note the plan depends only on the graph and the memory capacity — never
    on measured times — so it is identical on the x86 and POWER9 machines
    (the paper's Table 3 shows exactly that)."""
    budget = (
        machine.usable_gpu_memory
        - 2 * round_size(graph.total_param_bytes)
        - _static_working_set(graph)
    )
    classes: dict[int, MapClass] = {}
    kept = 0
    classifiable = graph.classifiable_maps()
    for i in sorted(classifiable, reverse=True):  # from the output layer
        size = round_size(graph[i].out_spec.nbytes)
        if kept + size <= budget:
            classes[i] = MapClass.KEEP
            kept += size
    # SuperNeurons recomputes only the cheap unary layers (BN, activation,
    # pooling, LRN) whose input is the immediately preceding — offloaded —
    # tensor; convolutions, joins (add/concat) and everything else swap.
    # Recomputing joins would recurse through the identity path of every
    # residual block in a stage and materialise the whole stage at once.
    cheap = {
        OpKind.BATCHNORM, OpKind.RELU, OpKind.POOL_MAX,
        OpKind.POOL_AVG, OpKind.GLOBAL_AVG_POOL, OpKind.LRN,
    }
    for i in classifiable:
        if i in classes:
            continue
        layer = graph[i]
        if layer.op.kind in cheap and layer.op.recomputable:
            classes[i] = MapClass.RECOMPUTE
        else:
            classes[i] = MapClass.SWAP
    return BaselinePlan(
        name="superneurons",
        classification=Classification(classes),
        options=ScheduleOptions(policy=SwapInPolicy.SUPERNEURONS),
    )
