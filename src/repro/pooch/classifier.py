"""The two-step classification search (§4.4).

Step 1 — keep vs swap (§4.4.2):
  * simulate the all-swap baseline, extract ``L_O`` / ``L_I``;
  * maps outside ``L_O ∪ L_I`` are classified ``swap`` immediately;
  * a binary search tree enumerates keep/swap for the maps of ``L_I``
    (the set for which the paper found no reliable greedy order);
  * at each leaf, the maps of ``L_O \\ L_I`` are scanned from the output
    layer toward the input, greedily switched ``swap → keep`` while the
    simulated plan stays feasible and does not slow down (the paper's
    observation: un-hidden swap-outs cluster at the end of forward, so
    keeping from the back strictly removes them);
  * every candidate is scored by the timeline predictor.

Step 2 — swap vs recompute (§4.4.3):
  * for every map still ``swap``, compute
    ``r(X) = recompute_overhead(X) / swap_overhead(X)`` with other classes
    fixed, both overheads measured by simulation against the "X kept"
    baseline;
  * discard ``r ≥ 1`` maps from consideration (they stay ``swap``), flip the
    smallest ``r < 1`` to ``recompute``, and repeat until the pool is empty.

Scalability deviations from the poster (documented in DESIGN.md §5): the
exact tree is bounded at ``max_exact_li`` variables (the highest-overhead
members of ``L_I``; the rest join the greedy scan), subtrees whose committed
keep-bytes already exceed capacity are pruned, and a total simulation budget
caps the search while keeping the best plan found.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import OutOfMemoryError
from repro.graph import NNGraph
from repro.gpusim.allocator import round_size
from repro.gpusim.engine import StreamName
from repro.hw import MachineSpec
from repro.obs import get_logger, metrics
from repro.pooch.overlap import OverlapAnalysis, analyze_overlap
from repro.pooch.predictor import PredictedOutcome, TimelinePredictor
from repro.runtime.plan import Classification, MapClass, SwapInPolicy
from repro.runtime.profiler import Profile

log = get_logger(__name__)


@dataclass(frozen=True)
class PoochConfig:
    """Classifier knobs; defaults follow the paper where it specifies them."""

    #: swap-in schedule used for every simulation and for execution (§4.3)
    policy: SwapInPolicy = SwapInPolicy.EAGER
    #: hidden-swap tolerances for the L_O/L_I extraction
    abs_tolerance: float = 2e-6
    rel_tolerance: float = 0.02
    #: exact-search width: at most this many L_I maps get true binary-tree
    #: enumeration; the rest fall back to the greedy scan
    max_exact_li: int = 8
    #: hard cap on step-1 predictor simulations (best plan so far is kept)
    step1_sim_budget: int = 1200
    #: accept a keep-switch when it does not slow the plan by more than this
    time_epsilon: float = 1e-12
    #: re-verify each r(X)<1 flip end-to-end and revert if it slowed the plan
    #: (safety net on top of the paper's rule)
    verify_flips: bool = True
    #: bytes of device capacity the chosen plan must leave free — slack for
    #: allocator fragmentation that the counting memory model cannot see
    #: (0 reproduces the paper; see the fragmentation ablation benchmark)
    capacity_margin: int = 0
    #: forward re-fetch gap for long skip connections (extension; see
    #: ScheduleOptions.forward_refetch_gap; None reproduces the paper)
    forward_refetch_gap: int | None = None

    def __post_init__(self) -> None:
        # configs arrive from CLI flags and HTTP bodies: reject a bad value
        # here, naming it, instead of deep inside the search
        for name, low in (("step1_sim_budget", 1), ("max_exact_li", 0),
                          ("capacity_margin", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < low:
                kind = "positive" if low else "non-negative"
                raise ValueError(f"{name} must be a {kind} integer, "
                                 f"got {value!r}")

    def signature(self) -> str:
        """Stable identity of every knob that affects the *chosen plan*.
        Plan caches key on this."""
        return (
            f"policy={self.policy.value};abs={self.abs_tolerance!r};"
            f"rel={self.rel_tolerance!r};li={self.max_exact_li};"
            f"budget={self.step1_sim_budget};eps={self.time_epsilon!r};"
            f"verify={self.verify_flips};margin={self.capacity_margin};"
            f"gap={self.forward_refetch_gap}"
        )


@dataclass
class SearchStats:
    """Bookkeeping the benchmarks and EXPERIMENTS.md report."""

    overlap: OverlapAnalysis | None = None
    exact_li: list[int] = field(default_factory=list)
    scan_order: list[int] = field(default_factory=list)
    sims_step1: int = 0
    sims_step2: int = 0
    budget_exhausted: bool = False
    time_all_swap: float = float("inf")
    time_after_step1: float = float("inf")
    time_after_step2: float = float("inf")
    flips_to_recompute: list[int] = field(default_factory=list)
    #: the paper's r(X) ratio per map, from the first step-2 round (the
    #: round where every step-1 swap map is evaluated)
    r_values: dict[int, float] = field(default_factory=dict)
    #: per-round r(X) history — one dict per step-2 round, in round order,
    #: capped at ``R_ROUNDS_LIMIT`` rounds (what the round's discard/argmin
    #: decisions actually read)
    r_rounds: list[dict[int, float]] = field(default_factory=list)
    #: step-2 rounds run and r-values evaluated over them (every round
    #: evaluates its whole surviving pool)
    step2_rounds: int = 0
    r_recomputed: int = 0
    #: step-2 share of the full/resumed replay split below
    sims_step2_full: int = 0
    sims_step2_resumed: int = 0
    #: keep probes answered from their liveness floor (derived from the
    #: current plan's profile) instead of a simulation — the floor already
    #: exceeded capacity, so the simulation could only have returned
    #: "infeasible"
    keep_probes_elided: int = 0
    #: True when the plan came from a PlanCache (verified by simulation)
    #: instead of a fresh search — search fields above are then empty
    plan_cache_hit: bool = False
    #: step-1 exact-tree accounting: leaves enumerated after the byte
    #: prune, leaves actually evaluated, and what branch-and-bound skipped
    leaves_total: int = 0
    leaves_evaluated: int = 0
    subtrees_pruned: int = 0
    leaves_pruned: int = 0
    #: of the event-engine simulations, how many replayed from time zero
    #: vs. resumed from a shared-prefix checkpoint
    sims_full: int = 0
    sims_resumed: int = 0
    #: vectorized-vs-fallback split of the search's simulations: outcomes a
    #: lockstep sweep produced *and the search consumed* (counted once, at
    #: absorb time) vs simulations that ran through the serial event-engine
    #: path (recompute probes, non-expressible drafts)
    sims_vectorized: int = 0
    sims_fallback: int = 0
    #: lockstep sweeps run and total candidate rows swept; rows the
    #: speculative step-1 driver evaluated but never consumed (mispredicted
    #: tails, pruned leaves) are included, so rows ≥ ``sims_vectorized``
    vector_sweeps: int = 0
    vector_candidates: int = 0
    #: wall-clock seconds spent inside classify()
    wall_time_s: float = 0.0
    #: multi-device planning (populated only when the machine has more than
    #: one device): replica count, stagger candidates scored, the chosen
    #: per-device start offsets, and the naive-vs-staggered makespans
    devices: int = 1
    stagger_candidates: int = 0
    stagger_s: list[float] = field(default_factory=list)
    multi_makespan_naive: float = 0.0
    multi_makespan_chosen: float = 0.0


#: bound on the retained per-round r-value history (each entry is one dict
#: per pool map; dozens of rounds only occur on degenerate searches)
R_ROUNDS_LIMIT = 32


# -- step-1 branch-and-bound -----------------------------------------------------


class _StepOneBounds:
    """Admissible lower bounds on the simulated makespan of any step-1
    candidate, as a function of which exact-tree maps are committed SWAP.

    Everything derives from the *all-swap* draft once.  Step-1 candidates
    share its compute queue exactly (keep/swap never adds or removes compute
    tasks), transfer queues of a candidate are order-preserving subsets of
    the all-swap ones, and a committed-swap map keeps its ``SO``/``SI``
    tasks in every leaf of the subtree.  Four relaxations, each ignoring
    memory gating and every undecided transfer (both only delay):

    * the serial compute queue itself;
    * per committed map, the dependency chain
      F → SO → SI → first backward reader → remaining compute queue;
    * the FIFO D2H queue packed with the committed swap-outs only;
    * the FIFO H2D queue packed with the committed swap-ins only.

    Float discipline: the engine's event arithmetic is a left fold of
    ``max(...) + duration`` steps, and IEEE ``max``/``+`` are monotone, so
    any bound computed as a left fold over a *subset* of those steps, in
    queue order, never exceeds the engine's float result.  The one sum that
    cannot be order-matched (the chain bound's compute-queue tail, which
    the engine folds forward but we precompute backward) is scaled down by
    the standard ``2n·ulp`` summation-error envelope.  Pruning on these
    bounds with a strict-< incumbent is therefore *exactly* plan-preserving.
    """

    def __init__(self, predictor: TimelinePredictor, all_swap: Classification,
                 candidates: set[int]) -> None:
        tasks, queues, buffers = predictor.draft(all_swap)
        compute = queues.get(StreamName.COMPUTE, [])
        pos_c = {tid: p for p, tid in enumerate(compute)}
        durs = [tasks[tid].duration for tid in compute]
        n = len(durs)
        t0 = 0.0
        if compute:
            first = tasks[compute[0]]
            t0 = max((tasks[d].duration for d in first.deps), default=0.0)
        # left-fold completion-time floor per compute position, engine order
        prefix = [0.0] * n
        acc = t0
        for p, d in enumerate(durs):
            acc += d
            prefix[p] = acc
        self.compute_lb = acc if n else 0.0
        # backward suffix sums, deflated to stay under any forward fold
        deflate = 1.0 - 2.0 * n * 2.0 ** -52
        suffix = [0.0] * (n + 1)
        for p in range(n - 1, -1, -1):
            suffix[p] = suffix[p + 1] + durs[p]

        pos_d = {tid: p for p, tid in enumerate(queues.get(StreamName.D2H, []))}
        pos_h = {tid: p for p, tid in enumerate(queues.get(StreamName.H2D, []))}
        self._ready: dict[int, float] = {}
        self._d_so: dict[int, float] = {}
        self._d_si: dict[int, float] = {}
        self._chain: dict[int, float] = {}
        order_d: list[tuple[int, int]] = []
        order_h: list[tuple[int, int]] = []
        for m in all_swap.maps_of(MapClass.SWAP):
            so = tasks.get(f"SO{m}")
            if so is None:
                continue
            fp = max((pos_c[d] for d in so.deps if d in pos_c), default=None)
            ready = prefix[fp] if fp is not None else t0
            self._ready[m] = ready
            self._d_so[m] = so.duration
            order_d.append((pos_d[f"SO{m}"], m))
            si = tasks.get(f"SI{m}")
            if si is None:
                continue
            self._d_si[m] = si.duration
            order_h.append((pos_h[f"SI{m}"], m))
            buf = buffers.get(f"fm{m}@b")
            rp = min(
                (pos_c[r] for r in buf.readers if r in pos_c), default=None
            ) if buf is not None else None
            if rp is not None:
                self._chain[m] = (
                    ready + so.duration + si.duration + suffix[rp] * deflate
                )
        order_d.sort()
        order_h.sort()
        self._order_d = [m for _, m in order_d]
        self._order_h = [m for _, m in order_h]
        #: maps outside the step-1 candidate set stay SWAP in every leaf
        self._base = frozenset(self._ready) - candidates

    def lower_bound(self, committed: frozenset[int] | set[int]) -> float:
        """Best-case makespan when ``base ∪ committed`` maps swap and every
        other transfer is free."""
        base = self._base
        lb = self.compute_lb
        chain = self._chain
        ready = self._ready
        # FIFO pack of the committed swap-outs (left fold, queue order)
        v = 0.0
        d_so = self._d_so
        for m in self._order_d:
            if m in base or m in committed:
                r = ready[m]
                v = (v if v > r else r) + d_so[m]
                c = chain.get(m, 0.0)
                if c > lb:
                    lb = c
        if v > lb:
            lb = v
        # FIFO pack of the committed swap-ins; each waits for its swap-out
        v = 0.0
        d_si = self._d_si
        for m in self._order_h:
            if m in base or m in committed:
                r = ready[m] + d_so[m]
                v = (v if v > r else r) + d_si[m]
        if v > lb:
            lb = v
        return lb


class _LeafCursor:
    """Walks the enumerated step-1 leaves in DFS order, skipping subtrees
    whose lower bound cannot strictly beat the incumbent.

    Equivalent to branch-and-bound woven into the recursive enumeration:
    a tree node (= decision prefix over ``exact_li``) is bounded exactly
    once, at the moment the first surviving leaf underneath it comes up —
    the same moment, with the same incumbent, as a recursive DFS would
    enter it.
    """

    def __init__(self, leaves: list[tuple[int, ...]], exact_li: list[int],
                 bounds: _StepOneBounds, stats: SearchStats) -> None:
        self._leaves = leaves
        self._exact = exact_li
        self._k = len(exact_li)
        self._bounds = bounds
        self._stats = stats
        self._pos = 0
        self._prev: tuple[bool, ...] | None = None

    def _decisions(self, keeps: tuple[int, ...]) -> tuple[bool, ...]:
        ks = set(keeps)
        return tuple(m in ks for m in self._exact)

    def next(self, best_time: float) -> tuple[int, tuple[int, ...]] | None:
        """Index and keep-set of the next leaf to evaluate, or None."""
        leaves = self._leaves
        while self._pos < len(leaves):
            keeps = leaves[self._pos]
            dec = self._decisions(keeps)
            prev = self._prev
            if prev is None:
                entered = 0  # first leaf enters the root and every node below
            else:
                entered = 0
                while entered < self._k and dec[entered] == prev[entered]:
                    entered += 1
                entered += 1  # nodes at depths <= common prefix were bounded
            pruned_depth = -1
            for depth in range(entered, self._k + 1):
                committed = frozenset(
                    self._exact[j] for j in range(depth) if not dec[j]
                )
                if self._bounds.lower_bound(committed) >= best_time:
                    pruned_depth = depth
                    break
            self._prev = dec
            if pruned_depth < 0:
                self._pos += 1
                return self._pos - 1, keeps
            self._stats.subtrees_pruned += 1
            prefix = dec[:pruned_depth]
            while (self._pos < len(leaves)
                   and self._decisions(leaves[self._pos])[:pruned_depth]
                   == prefix):
                self._pos += 1
                self._stats.leaves_pruned += 1
        return None


class _VectorLeafStager:
    """Speculative chunk-major evaluation of step-1 leaves on the lockstep
    vector engine, staged per leaf as ``(base, events)``: the leaf-base
    outcome plus one outcome (or None) per scan position.

    The serial search walks leaves one at a time, each an inherently
    sequential greedy scan (every accept changes the next trial).  The
    stager breaks that chain by evaluating ahead, then *replaying* through
    ``consume_leaf`` so accounting, budget truncation and the chosen plan
    are exactly serial, with outcomes from lockstep sweeps:

    * leaves are staged in windows sized to the remaining simulation
      budget (everything past the budget's reach is never swept);
    * every live leaf *speculates* a run of candidate trials along its
      own greedy frontier under predicted accept/reject decisions; one
      sweep evaluates every leaf's run at once; each leaf's greedy walk
      then replays against the swept outcomes — a mispredicted decision
      invalidates that leaf's speculated tail, which is regenerated from
      the corrected prefix in the next round.  Leaves advance
      independently (no barrier between scan positions), so a straggler
      never forces the window back into tiny sweeps;
    * decisions are predicted per scan position by majority vote over
      the decisions other leaves already made there, and a leaf's run is
      cut off once the joint probability that its speculated prefix is
      right drops below ``THRESH`` (or at ``DEPTH`` trials).  Positions
      where leaves agree are swept tens deep; positions where they
      genuinely disagree are swept nearly unspeculated;
    * a window opens with a pioneer cohort (growing fourfold per round)
      so early leaves populate the votes before the bulk of the window
      speculates against them.

    Decisions replayed here use the exact accept rule of the search on
    exact outcomes, so staged events equal what serial evaluation would
    have produced wherever the search consults them; everything else is
    discarded without ever touching the predictor cache.  A ``None`` event
    (byte-skip, non-OOM engine error, or vectorization lost mid-run) makes
    ``consume_leaf`` fall back to the serial predictor for that position.
    The vote tallies only steer *speculation* — which trials are staged —
    never a decision, so they cannot affect the chosen plan.
    """

    DEPTH = 48          # max speculated trials per leaf per sweep
    THRESH = 0.9        # min joint probability a speculated tail is valid
    RAMP = 32           # pioneer cohort size; quadruples every round

    def __init__(self, predictor, leaves, scan, map_bytes, keep_budget,
                 epsilon, budget_remaining) -> None:
        self.predictor = predictor
        self.leaves = leaves
        self.scan = scan
        self.map_bytes = map_bytes
        self.keep_budget = keep_budget
        self.epsilon = epsilon
        self.budget_remaining = budget_remaining
        self._fi = predictor.vector_flip_index()
        self._staged: dict[int, tuple] = {}
        #: per scan position: how many staged leaves accepted / rejected
        #: the flip there (majority predicts, minority share gates depth)
        self._acc = [0] * len(scan)
        self._rej = [0] * len(scan)
        #: leaves below this index were staged (or skipped past) already
        self._next = 0

    def get(self, idx: int):
        """Staged ``(base, events)`` for leaf ``idx``, staging the
        window that contains it on demand; None when vectorization is
        unavailable (caller falls back to pure serial evaluation)."""
        if self._fi is None:
            return None
        pre = self._staged.pop(idx, None)
        if pre is not None:
            return pre
        if idx < self._next:  # already consumed (cannot happen: the cursor
            return None       # visits each leaf once) — serve serially
        # size the window to what the simulation budget can still absorb:
        # one base plus one trial per scan position per leaf
        per_leaf = 1 + len(self.scan)
        want = max(8, -(-self.budget_remaining() // per_leaf))
        hi = min(len(self.leaves), idx + want)
        self._stage(list(range(idx, hi)))
        self._next = hi
        return self._staged.pop(idx, None)

    # -- window staging ---------------------------------------------------------

    def _rows_for(self, keep_sets) -> np.ndarray:
        fi = self._fi
        rows = np.zeros((len(keep_sets), len(fi)), bool)
        for r, ks in enumerate(keep_sets):
            for m in ks:
                rows[r, fi[m]] = True
        return rows

    def _stage(self, indices: list[int]) -> None:
        rows = self._rows_for([self.leaves[li] for li in indices])
        outs = self.predictor.predict_keep_batch(rows)
        if outs is None:
            self._fi = None
            return
        # leaves awaiting admission; each entry carries the walk state
        # (prefix, keep row, best time, kept bytes) at its greedy frontier
        queue: list[tuple[int, tuple]] = []
        for r, li in enumerate(indices):
            base = outs[r]
            self._staged[li] = (base, [None] * len(self.scan))
            if base is not None and base.feasible:
                kb = sum(self.map_bytes[m] for m in self.leaves[li])
                queue.append((li, ((), rows[r], base.time, kb)))
        live: dict[int, tuple] = {}
        admit = self.RAMP
        while queue or live:
            for li, st in queue[:admit]:
                live[li] = st
            del queue[:admit]
            admit *= 4
            entries: list[tuple[int, int, tuple]] = []
            cand: list[np.ndarray] = []
            for li, st in sorted(live.items()):
                self._gen(li, st, entries, cand)
            stage: dict[tuple[int, int], tuple] = {}
            if cand:
                outs = self.predictor.predict_keep_batch(np.stack(cand))
                if outs is None:
                    self._fi = None
                    return
                for (li, j, prefix), out in zip(entries, outs):
                    stage[(li, j)] = (prefix, out)
            for li, st in sorted(live.items()):
                done, nst = self._walk(li, st, stage)
                if done:
                    del live[li]
                else:
                    live[li] = nst

    def _gen(self, li, st, entries, cand) -> None:
        """Speculate the next run of candidate trials along one leaf's
        greedy frontier.  Each decision not yet made is predicted by the
        per-position majority vote; the run stops once the joint
        probability that the speculated prefix is right — the product of
        the majority shares it rests on — drops below ``THRESH``.  The
        first trial sits on no prediction at all, so every live leaf
        always stages at least one decidable trial (progress guarantee)."""
        prefix, cur, _t, kb = st
        fi = self._fi
        conf = 1.0
        emitted = 0
        for j in range(len(prefix), len(self.scan)):
            m = self.scan[j]
            if kb + self.map_bytes[m] > self.keep_budget:
                prefix = prefix + (False,)
                continue
            row = cur.copy()
            row[fi[m]] = True
            entries.append((li, j, prefix))
            cand.append(row)
            emitted += 1
            acc, rej = self._acc[j], self._rej[j]
            if acc >= rej:
                cur = row
                kb += self.map_bytes[m]
                prefix = prefix + (True,)
            else:
                prefix = prefix + (False,)
            if acc or rej:
                conf *= max(acc, rej) / (acc + rej)
            if emitted >= self.DEPTH or conf < self.THRESH:
                return

    def _walk(self, li, st, stage):
        """Replay the greedy scan for one leaf against the swept outcomes,
        casting its accept/reject votes as it decides.  Returns
        ``(True, None)`` when the scan is finished, else ``(False, state)``
        stalled at the first position whose outcome is missing (or was
        swept under a mispredicted prefix), to regenerate next round."""
        prefix, cur, t, kb = st
        _, events = self._staged[li]
        fi = self._fi
        for j in range(len(prefix), len(self.scan)):
            m = self.scan[j]
            if kb + self.map_bytes[m] > self.keep_budget:
                prefix = prefix + (False,)
                continue
            hit = stage.get((li, j))
            if hit is None or hit[0] != prefix:
                return False, (prefix, cur, t, kb)
            out = hit[1]
            events[j] = out
            if (out is not None and out.feasible
                    and out.time <= t + self.epsilon):
                cur = cur.copy()
                cur[fi[m]] = True
                t = out.time
                kb += self.map_bytes[m]
                self._acc[j] += 1
                prefix = prefix + (True,)
            else:
                self._rej[j] += 1
                prefix = prefix + (False,)
        return True, None


class PoochClassifier:
    """Runs the two-step search; one instance per (graph, profile, machine)."""

    def __init__(
        self,
        graph: NNGraph,
        profile: Profile,
        machine: MachineSpec,
        config: PoochConfig | None = None,
        predictor: TimelinePredictor | None = None,
    ) -> None:
        self.graph = graph
        self.profile = profile
        self.machine = machine
        self.config = config or PoochConfig()
        self.predictor = predictor or TimelinePredictor(
            graph, profile, machine, policy=self.config.policy,
            capacity_margin=self.config.capacity_margin,
            forward_refetch_gap=self.config.forward_refetch_gap,
        )
        self.stats = SearchStats()

    # -- public -------------------------------------------------------------------

    def classify(self, steps: int = 2) -> tuple[Classification, SearchStats]:
        """Run the search and return the chosen classification.

        ``steps=1`` stops after the keep/swap step — the paper's "swap-opt"
        ablation configuration (§5.1); ``steps=2`` (default) is full PoocH.
        """
        if steps not in (1, 2):
            raise ValueError(f"steps must be 1 or 2, got {steps}")
        start = time.perf_counter()
        full_at_start = self.predictor.full_simulations
        resumed_at_start = self.predictor.resumed_simulations
        sweeps_at_start = self.predictor.vector_sweeps
        swept_at_start = self.predictor.vector_candidates
        try:
            with metrics.span("search.step1", category="search",
                              graph=self.graph.name):
                step1 = self._step1_keep_vs_swap()
            if steps == 1:
                self.stats.time_after_step2 = self.stats.time_after_step1
                return step1, self.stats
            with metrics.span("search.step2", category="search",
                              graph=self.graph.name):
                step2 = self._step2_swap_vs_recompute(step1)
            return step2, self.stats
        finally:
            self.stats.wall_time_s = time.perf_counter() - start
            self.stats.sims_full = (
                self.predictor.full_simulations - full_at_start
            )
            self.stats.sims_resumed = (
                self.predictor.resumed_simulations - resumed_at_start
            )
            self.stats.vector_sweeps = (
                self.predictor.vector_sweeps - sweeps_at_start
            )
            self.stats.vector_candidates = (
                self.predictor.vector_candidates - swept_at_start
            )
            self.stats.sims_fallback = (
                self.stats.sims_step1 + self.stats.sims_step2
                - self.stats.sims_vectorized
            )
            self._publish_stats()

    def _publish_stats(self) -> None:
        """Mirror :class:`SearchStats` into the active metrics registry.

        Called once per search, after the fact — the search loops
        themselves never touch telemetry, so the chosen plan cannot depend
        on whether a registry is installed."""
        registry = metrics.active()
        s = self.stats
        log.info(
            "search on %r: step1 %d sims (%d/%d leaves, %d subtrees pruned), "
            "step2 %d sims, %d recompute flips, %.2f s wall",
            self.graph.name, s.sims_step1, s.leaves_evaluated,
            s.leaves_total, s.subtrees_pruned, s.sims_step2,
            len(s.flips_to_recompute), s.wall_time_s,
        )
        if registry is None:
            return
        registry.count("search.searches")
        registry.count("search.sims_step1", s.sims_step1)
        registry.count("search.sims_step2", s.sims_step2)
        registry.count("search.sims_full", s.sims_full)
        registry.count("search.sims_resumed", s.sims_resumed)
        registry.count("search.sims_vectorized", s.sims_vectorized)
        registry.count("search.sims_fallback", s.sims_fallback)
        registry.count("search.vector_sweeps", s.vector_sweeps)
        registry.count("search.vector_candidates", s.vector_candidates)
        registry.count("search.sims_step2_full", s.sims_step2_full)
        registry.count("search.sims_step2_resumed", s.sims_step2_resumed)
        registry.count("search.keep_probes_elided", s.keep_probes_elided)
        registry.count("search.step2_rounds_run", s.step2_rounds)
        registry.count("search.r_recomputed", s.r_recomputed)
        if s.r_rounds:
            # structured per-round r(X) history (schema v1.1): what every
            # round's discard/argmin decisions actually read
            registry.record("search.step2_rounds", [
                {str(m): r for m, r in round_.items()}
                for round_ in s.r_rounds
            ])
        registry.count("search.leaves_total", s.leaves_total)
        registry.count("search.leaves_evaluated", s.leaves_evaluated)
        registry.count("search.subtrees_pruned", s.subtrees_pruned)
        registry.count("search.leaves_pruned", s.leaves_pruned)
        registry.count("search.budget_exhausted", int(s.budget_exhausted))
        registry.count("search.flips_to_recompute", len(s.flips_to_recompute))
        registry.count("search.predictor_cache_hits",
                       self.predictor.cache_hits)
        registry.gauge("search.wall_s", s.wall_time_s)
        registry.gauge("search.time_all_swap", s.time_all_swap)
        registry.gauge("search.time_after_step1", s.time_after_step1)
        registry.gauge("search.time_after_step2", s.time_after_step2)

    # -- step 1 -------------------------------------------------------------------

    def _step1_keep_vs_swap(self) -> Classification:
        cfg = self.config
        all_swap = Classification.all_swap(self.graph)
        base_outcome = self.predictor.predict(all_swap)
        if not base_outcome.feasible:
            raise OutOfMemoryError(
                "even the all-swap plan does not fit this machine "
                f"({base_outcome.oom_context}); the network is too large for "
                "out-of-core execution at this granularity"
            )
        self.stats.time_all_swap = base_outcome.time

        if self.profile.baseline is None:
            raise OutOfMemoryError("profile is missing its baseline timeline")
        overlap = analyze_overlap(
            self.profile.baseline,
            abs_tolerance=cfg.abs_tolerance,
            rel_tolerance=cfg.rel_tolerance,
        )
        self.stats.overlap = overlap

        # maps eligible for KEEP consideration; everything else stays swap
        candidates = overlap.candidates & set(all_swap.classes)
        li = sorted(
            overlap.L_I & candidates,
            key=lambda m: overlap.overhead.get(m, 0.0),
            reverse=True,
        )
        exact_li = li[: cfg.max_exact_li]
        # the greedy scan covers L_O \ L_I plus any L_I overflow, walked from
        # the output layer toward the input (descending map index)
        scan = sorted(candidates - set(exact_li), reverse=True)
        self.stats.exact_li = list(exact_li)
        self.stats.scan_order = list(scan)

        # conservative keep-budget prune: keeps beyond this certainly OOM
        keep_budget = (
            self.machine.usable_gpu_memory - cfg.capacity_margin
            - 2 * round_size(self.graph.total_param_bytes)
        )
        map_bytes = {m: round_size(self.graph[m].out_spec.nbytes) for m in candidates}

        best_cls = all_swap
        best_time = base_outcome.time
        sims_at_start = self.predictor.simulations

        def budget_left() -> bool:
            used = self.predictor.simulations - sims_at_start
            if used >= cfg.step1_sim_budget:
                self.stats.budget_exhausted = True
                return False
            return True

        def absorb_staged(key: tuple, out: PredictedOutcome | None) -> None:
            if out is None:
                return  # nothing staged: the serial predictor takes over
            if self.predictor.absorb(key, out):
                self.stats.sims_vectorized += 1

        def consume_leaf(
            keeps: tuple[int, ...],
            pre: tuple[PredictedOutcome, list[PredictedOutcome | None]] | None,
        ) -> bool:
            """Evaluate one leaf: the exact L_I subset ``keeps``, then the
            greedy scan.  With ``pre`` (staged sweep outcomes) the
            evaluation *replays* — each outcome is absorbed into the shared
            predictor cache right before the lookup the serial search would
            make, so state, accounting and budget truncation are identical.
            Returns False when the simulation budget ran out mid-leaf."""
            nonlocal best_cls, best_time
            cls = all_swap.with_classes({m: MapClass.KEEP for m in keeps})
            if pre is not None:
                absorb_staged(cls.key(), pre[0])
            outcome = self.predictor.predict(cls)
            if not outcome.feasible:
                return True  # keeping this L_I subset over-commits memory
            cur_cls, cur_time = cls, outcome.time
            if cur_time < best_time:
                best_cls, best_time = cur_cls, cur_time
            kept_bytes = sum(map_bytes[m] for m in keeps)
            for idx, m in enumerate(scan):
                if not budget_left():
                    return False
                if kept_bytes + map_bytes[m] > keep_budget:
                    continue
                trial = cur_cls.with_class(m, MapClass.KEEP)
                if pre is not None:
                    absorb_staged(trial.key(), pre[1][idx])
                out = self.predictor.predict(trial)
                if out.feasible and out.time <= cur_time + cfg.time_epsilon:
                    cur_cls, cur_time = trial, out.time
                    kept_bytes += map_bytes[m]
                    if cur_time < best_time:
                        best_cls, best_time = cur_cls, cur_time
            return True

        # Enumerate the exact-tree leaves in DFS order, KEEP branch first
        # (high-overhead maps are kept in the best plans, so good leaves are
        # found early under a simulation budget).  Enumeration depends only
        # on the byte prune, never on simulation results.
        leaves: list[tuple[int, ...]] = []

        def enumerate_leaves(idx: int, keeps: list[int], kept_bytes: int) -> None:
            if idx == len(exact_li):
                leaves.append(tuple(keeps))
                return
            m = exact_li[idx]
            if kept_bytes + map_bytes[m] <= keep_budget:
                keeps.append(m)
                enumerate_leaves(idx + 1, keeps, kept_bytes + map_bytes[m])
                keeps.pop()
            enumerate_leaves(idx + 1, keeps, kept_bytes)

        enumerate_leaves(0, [], 0)
        self.stats.leaves_total = len(leaves)

        # Branch-and-bound over the same leaf list: subtrees whose admissible
        # lower bound cannot strictly beat the incumbent are skipped without
        # simulating.  Bounds never read simulation results, and the best
        # plan only ever improves on strict <, so the surviving evaluations
        # — and the chosen plan — match the exhaustive scan exactly as long
        # as the simulation budget is not exhausted (under an exhausted
        # budget pruning lets the search reach deeper into the leaf list).
        cursor = _LeafCursor(
            leaves, exact_li,
            _StepOneBounds(self.predictor, all_swap, candidates), self.stats,
        )
        # speculative lockstep sweeps stage per-leaf outcome streams; the
        # loop below remains the *definitive* serial walk (same cursor,
        # pruning, budget truncation and accounting), it just replays staged
        # outcomes instead of running the event engine candidate by candidate
        stager = _VectorLeafStager(
            self.predictor, leaves, scan, map_bytes, keep_budget,
            cfg.time_epsilon,
            lambda: (cfg.step1_sim_budget
                     - (self.predictor.simulations - sims_at_start)),
        )
        while True:
            nxt = cursor.next(best_time)
            if nxt is None or not budget_left():
                break
            pre = stager.get(nxt[0])
            self.stats.leaves_evaluated += 1
            if not consume_leaf(nxt[1], pre):
                break

        self.stats.sims_step1 = self.predictor.simulations - sims_at_start
        self.stats.time_after_step1 = best_time
        return best_cls

    # -- step 2 ----------------------------------------------------------------------

    def _r_value(
        self, current: Classification, x: int, t_swap: float
    ) -> float:
        """The paper's r(X) with classes of other maps fixed.

        Overheads are measured against the plan with X kept (no transfer, no
        recompute); when keeping X is itself infeasible, the cheaper of the
        two alternatives serves as the zero point, which preserves the
        comparison r(X) < 1 ⇔ recompute beats swap.
        """
        t_rec = self.predictor.predict(
            current.with_class(x, MapClass.RECOMPUTE)
        ).time
        if self.predictor.provably_infeasible(current, x):
            # probe elision: the keep candidate's liveness floor (derived
            # from current's profile) already exceeds capacity, so the
            # simulation could only confirm infeasibility
            self.stats.keep_probes_elided += 1
            t0 = min(t_swap, t_rec)
        else:
            keep_outcome = self.predictor.predict(
                current.with_class(x, MapClass.KEEP))
            t0 = (keep_outcome.time if keep_outcome.feasible
                  else min(t_swap, t_rec))
        rec_overhead = max(0.0, t_rec - t0)
        swap_overhead = max(0.0, t_swap - t0)
        if swap_overhead <= 0.0:
            return float("inf")
        if rec_overhead == float("inf"):
            return float("inf")
        return rec_overhead / swap_overhead

    def _vector_keep_probes(self, current: Classification,
                            pool: list[int]) -> None:
        """Answer a step-2 round's uncached keep probes ("X kept, everything
        else as in ``current``") with one lockstep sweep.

        Expressible only while ``current`` is pure keep/swap — i.e. the
        first round, and every round following a rejected flip; once a
        recompute flip is accepted the candidates leave the keep-flip
        family and the serial predictor takes over.  The recompute probes
        of :meth:`_r_value` are never expressible and always run serially
        (they are the ``sims_fallback`` share of step 2).  Outcomes are
        absorbed before the serial round reads them, so r-values, caches and
        simulation counts are exactly those of a serial search."""
        keeps = []
        for m, c in current.classes.items():
            if c is MapClass.KEEP:
                keeps.append(m)
            elif c is not MapClass.SWAP:
                return
        fi = self.predictor.vector_flip_index()
        if fi is None:
            return
        todo: list[tuple[Classification, int]] = []
        for x in pool:
            if self.predictor.provably_infeasible(current, x):
                continue  # _r_value elides this probe: don't sweep it
            keep_c = current.with_class(x, MapClass.KEEP)
            if self.predictor.cached(keep_c) is None:
                todo.append((keep_c, x))
        if not todo:
            return
        rows = np.zeros((len(todo), len(fi)), bool)
        if keeps:
            rows[:, [fi[m] for m in keeps]] = True
        for r, (_, x) in enumerate(todo):
            rows[r, fi[x]] = True
        outs = self.predictor.predict_keep_batch(rows)
        if outs is None:
            return
        for (keep_c, _), out in zip(todo, outs):
            if out is not None and self.predictor.absorb(keep_c.key(), out):
                self.stats.sims_vectorized += 1

    def _step2_swap_vs_recompute(self, step1: Classification) -> Classification:
        cfg = self.config
        sims_at_start = self.predictor.simulations
        full_at_start = self.predictor.full_simulations
        resumed_at_start = self.predictor.resumed_simulations
        current = step1
        pool = [
            m for m in step1.maps_of(MapClass.SWAP)
            if self.graph[m].op.recomputable
        ]
        current_time = self.predictor.predict(current).time

        # Every round evaluates r(X) for the whole surviving pool against the
        # frozen `current`; after a rejected flip those probes are memo-cache
        # hits (or elided again), and acceptance always re-predicts the
        # trial plan end to end.
        first_round = True
        while pool:
            self._vector_keep_probes(current, pool)
            r_values = {x: self._r_value(current, x, current_time)
                        for x in pool}
            self.stats.r_recomputed += len(pool)
            self.stats.step2_rounds += 1
            if len(self.stats.r_rounds) < R_ROUNDS_LIMIT:
                self.stats.r_rounds.append(dict(r_values))
            if first_round:
                self.stats.r_values = dict(r_values)
                first_round = False
            pool = [x for x in pool if r_values[x] < 1.0]
            if not pool:
                break
            x = min(pool, key=lambda m: r_values[m])
            trial = current.with_class(x, MapClass.RECOMPUTE)
            outcome = self.predictor.predict(trial)
            accept = outcome.feasible
            if accept and cfg.verify_flips:
                accept = outcome.time <= current_time + cfg.time_epsilon
            pool.remove(x)
            if accept:
                current = trial
                current_time = outcome.time
                self.stats.flips_to_recompute.append(x)

        self.stats.sims_step2 = self.predictor.simulations - sims_at_start
        self.stats.sims_step2_full = (
            self.predictor.full_simulations - full_at_start
        )
        self.stats.sims_step2_resumed = (
            self.predictor.resumed_simulations - resumed_at_start
        )
        self.stats.time_after_step2 = current_time
        return current
