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
  * every candidate is scored by the timeline predictor.  The walk runs on
    integer keep masks (bit ``m`` keeps map ``m``), the key the
    predictor's memo cache files "all-swap plus these keeps" under; only
    the returned plan becomes a :class:`Classification`.

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

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import OutOfMemoryError
from repro.graph import NNGraph
from repro.gpusim.allocator import round_size
from repro.hw import MachineSpec
from repro.obs import get_logger, metrics
from repro.pooch.config import PoochConfig
from repro.pooch.overlap import OverlapAnalysis, analyze_overlap
from repro.pooch.predictor import PredictedOutcome, TimelinePredictor
from repro.runtime.plan import Classification, MapClass
from repro.runtime.profiler import Profile

log = get_logger(__name__)

#: a keep-switch (step 1) or recompute flip (step 2) is accepted when it does
#: not slow the plan by more than this many seconds
TIME_EPSILON = 1e-12

#: the config fields a predictor simulates under; a classifier refuses a
#: predictor whose config disagrees with its own on any of them
_SIMULATION_FIELDS = ("policy", "capacity_margin", "forward_refetch_gap")


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
    #: keep probes answered from their liveness floor (derived from the
    #: current plan's profile) instead of a simulation — the floor already
    #: exceeded capacity, so the simulation could only have returned
    #: "infeasible"
    keep_probes_elided: int = 0
    #: True when the plan came from a PlanCache (verified by simulation)
    #: instead of a fresh search — search fields above are then empty
    plan_cache_hit: bool = False
    #: step-1 exact-tree accounting: leaves enumerated after the byte
    #: prune, up to the simulation budget's reach (``step1_sim_budget + 1``
    #: leaves at most on a cold predictor cache), and leaves actually
    #: evaluated
    leaves_total: int = 0
    leaves_evaluated: int = 0
    #: vectorized-vs-fallback split of the search's simulations: outcomes a
    #: lockstep sweep produced *and the search consumed* (counted once, at
    #: absorb time) vs simulations that ran through the serial event-engine
    #: path (non-expressible drafts, engine errors, lost vectorization)
    sims_vectorized: int = 0
    sims_fallback: int = 0
    #: lockstep sweeps run and total candidate rows swept; rows the
    #: speculative step-1 driver evaluated but never consumed (mispredicted
    #: tails, leaves past the budget) are included, so rows ≥
    #: ``sims_vectorized``
    vector_sweeps: int = 0
    vector_candidates: int = 0
    #: wall seconds step 1 spent in its lockstep sweeps
    #: (``predict_keep_batch``): what ``search.step1`` spends outside them
    #: is the walk's own bookkeeping
    step1_sweep_s: float = 0.0
    #: step 2's variant-family sweeps: wall seconds drafting and compiling
    #: them and running them, rows swept, and the tasks the rows' patches
    #: add, replace or drop against the current plan's draft
    step2_compile_s: float = 0.0
    step2_sweep_s: float = 0.0
    step2_rows: int = 0
    step2_patched_tasks: int = 0
    #: step 2's sweeps, the speculative rows they carried for later rounds
    #: (:class:`_FlipTree`), and the staged rows a round actually read
    step2_sweeps: int = 0
    step2_staged_rows: int = 0
    step2_staged_hits: int = 0
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


class _VectorLeafStager:
    """Speculative chunk-major evaluation of step-1 leaves on the lockstep
    vector engine, staged per leaf as ``(base, events)``: the leaf-base
    outcome and the outcomes of the leaf's scan trials, keyed by each
    trial's keep mask in decision order.

    Step 1 runs on keep masks: a candidate is "all-swap plus the maps whose
    bits are set" (bit ``m`` is map ``m``), the key the predictor's memo
    cache files it under (:meth:`Classification.key
    <repro.runtime.plan.Classification.key>`).  A trial's mask identifies
    it across the whole tree: leaves keep disjoint subsets of ``L_I``, and
    within a leaf two decision paths first differ in a map one of them
    kept.

    The serial search walks leaves one at a time, each an inherently
    sequential greedy scan (every accept changes the next trial).  The
    stager breaks that chain by evaluating ahead; the search's one walk
    then consumes the staged events, so accounting, budget truncation and
    the chosen plan are exactly serial, with outcomes from lockstep sweeps:

    * leaves are staged in windows sized to the remaining simulation
      budget (everything past the budget's reach is never swept);
    * every live leaf *speculates* a tree of candidate trials below its
      own greedy frontier: each trial's row branches into the trial that
      follows if it is accepted and the one that follows if it is
      rejected.  One sweep evaluates every leaf's tree at once; each
      leaf's greedy walk then replays against the swept outcomes as far as
      its tree reaches, and the walk's frontier seeds the next round's
      tree.  Leaves advance independently (no barrier between scan
      positions);
    * a branch's probability is the product of the accept shares on its
      path.  The share at a scan position is estimated from the decisions
      leaves already made there, split by the same leaf's previous
      decision (leaves mostly repeat it), with the overall repeat rate as
      one pseudo-observation — so an unseen position follows the branch's
      last decision about as often as leaves have so far.  Trees grow
      best-first, most probable trial first, for as long as a trial's
      probability exceeds the swept rows' expected yield per row of sweep
      cost — ``ROWS`` prices the sweep's fixed cost in rows.  A sweep far
      below ``ROWS`` rows therefore speculates both outcomes deep into
      uncertain positions, while a sweep far above it keeps only
      near-certain trials.  Every live leaf always stages its first trial
      (probability 1), so every round makes progress.

    Decisions replayed here use the exact accept rule of the search on
    exact outcomes, so staged events equal what serial evaluation would
    have produced wherever the search consults them; everything else is
    discarded without ever touching the predictor cache.  A trial with no
    event (a non-OOM engine error, or vectorization lost mid-run) is
    predicted serially by the search.  The vote tallies only steer
    *speculation* — which trials are staged — never a decision, so they
    cannot affect the chosen plan.
    """

    #: a sweep's break-even size.  One event round of a sweep costs about
    #: 50–60 us plus 0.12–0.18 us per row (docs/architecture.md; step-1
    #: sweeps replayed at K = 1..8,192 on ResNet-50/256 and at b512's own
    #: sizes, shared 2-vCPU x86 host), so a row costs 1/300–1/500 of a
    #: round's fixed cost: below 400 rows speculation is nearly free, far
    #: above it every row must be likely to be consumed.
    ROWS = 400

    def __init__(self, predictor, leaves, scan, map_bytes, keep_budget,
                 budget_remaining) -> None:
        self.predictor = predictor
        #: ``(keep mask, kept bytes)`` per leaf
        self.leaves = leaves
        self.keep_budget = keep_budget
        self.budget_remaining = budget_remaining
        n = len(scan)
        #: per scan position: the map's bit and its bytes
        self._bits = [1 << m for m in scan]
        self._sizes = [map_bytes[m] for m in scan]
        #: base-4 digits ordering a branch's decision path as its prefix
        #: tuple would (reject 1, accept 2, undecided 0; the first position
        #: is the most significant), so equally probable branches of one
        #: leaf leave the heap in path order
        self._rej = [1 << 2 * (n - 1 - j) for j in range(n)]
        self._acc = [2 << 2 * (n - 1 - j) for j in range(n)]
        fi = predictor.vector_flip_index()
        self._live = fi is not None
        if self._live:
            #: keep-matrix column j is map ``self._cols[j]``
            self._cols = np.array(sorted(fi, key=fi.__getitem__))
            self._nbytes = int(self._cols.max()) // 8 + 1
        self._staged: dict[int, tuple] = {}
        #: votes[j][prev][accepted]: decisions leaves made at scan position
        #: j, split by the same leaf's previous trial decision (a leaf's
        #: first trial counts as following an accept)
        self._votes = [[[0, 0], [0, 0]] for _ in range(n)]
        #: leaves below this index were staged (or skipped past) already
        self._next = 0

    def get(self, idx: int):
        """Staged ``(base, events)`` for leaf ``idx``, staging the
        window that contains it on demand; None when vectorization is
        unavailable (caller falls back to pure serial evaluation)."""
        if not self._live:
            return None
        pre = self._staged.pop(idx, None)
        if pre is not None:
            return pre
        if idx < self._next:  # already consumed (cannot happen: the walk
            return None       # visits each leaf once) — serve serially
        # size the window to what the simulation budget can still absorb:
        # one base plus one trial per scan position per leaf
        per_leaf = 1 + len(self._bits)
        want = max(8, -(-self.budget_remaining() // per_leaf))
        hi = min(len(self.leaves), idx + want)
        self._stage(list(range(idx, hi)))
        self._next = hi
        return self._staged.pop(idx, None)

    # -- window staging ---------------------------------------------------------

    def _sweep(self, masks: list[int]):
        """Sweep keep masks as one lockstep batch: the bool keep matrix
        comes from the masks' bytes in one conversion.  None (and
        vectorization off for good) when the predictor cannot sweep."""
        nb = self._nbytes
        raw = np.frombuffer(b"".join(m.to_bytes(nb, "little") for m in masks),
                            np.uint8).reshape(len(masks), nb)
        bits = np.unpackbits(raw, axis=1, bitorder="little")
        outs = self.predictor.predict_keep_batch(
            bits[:, self._cols].astype(bool))
        if outs is None:
            self._live = False
        return outs

    def _stage(self, indices: list[int]) -> None:
        outs = self._sweep([self.leaves[li][0] for li in indices])
        if outs is None:
            return
        # live leaves, each with the walk state (scan position, keep mask,
        # best time, kept bytes, previous decision) at its greedy frontier
        live: dict[int, tuple] = {}
        for li, base in zip(indices, outs):
            self._staged[li] = (base, {})
            if base is not None and base.feasible:
                keep, kb = self.leaves[li]
                live[li] = (0, keep, base.time, kb, True)
        while live:
            trials = self._gen(live)
            stage: dict[int, PredictedOutcome | None] = {}
            if trials:
                outs = self._sweep(trials)
                if outs is None:
                    return
                stage = dict(zip(trials, outs))
            for li, st in list(live.items()):
                nst = self._walk(li, st, stage)
                if nst is None:
                    del live[li]
                else:
                    live[li] = nst

    def _gen(self, live: dict[int, tuple]) -> list[int]:
        """Grow every live leaf's speculation tree best-first (see the
        class docstring) and return the keep masks of the trials to sweep.

        Growth stops at the first trial whose probability ``p`` no longer
        beats ``E / (ROWS + N)``: with N rows staged whose probabilities
        sum to E (expected consumed rows), a sweep's cost is proportional
        to ``ROWS + N``, so adding a row raises the expected yield per unit
        of cost exactly when ``p`` exceeds the current ratio."""
        bits, sizes, votes = self._bits, self._sizes, self._votes
        rej_digit, acc_digit = self._rej, self._acc
        budget, n, rows = self.keep_budget, len(bits), self.ROWS
        # a leaf mostly repeats its previous decision (keeps accumulate
        # until memory runs out): the share of repeats seen so far is the
        # prior of every position, which that position's own votes refine
        repeats = sum(v[0][0] + v[1][1] for v in votes)
        total = sum(v[0][0] + v[0][1] + v[1][0] + v[1][1] for v in votes)
        repeat = (repeats + 1) / (total + 2)
        # (-p, leaf, path digits, position, keep mask, kept bytes, prev)
        heap = [(-1.0, li, 0, j, cur, kb, prev)
                for li, (j, cur, _t, kb, prev) in sorted(live.items())]
        heapq.heapify(heap)
        trials: list[int] = []
        expected = 0.0
        while heap:
            negp, li, path, j, cur, kb, prev = heapq.heappop(heap)
            p = -negp
            if p < 1.0 and p * (rows + len(trials)) <= expected:
                break
            while j < n and kb + sizes[j] > budget:
                path |= rej_digit[j]  # byte-skipped: decided without a trial
                j += 1
            if j == n:
                continue
            trial = cur | bits[j]
            trials.append(trial)
            expected += p
            rej, acc = votes[j][prev]
            q = (acc + (repeat if prev else 1.0 - repeat)) / (acc + rej + 1)
            heapq.heappush(heap, (-p * q, li, path | acc_digit[j], j + 1,
                                  trial, kb + sizes[j], True))
            heapq.heappush(heap, (-p * (1.0 - q), li, path | rej_digit[j],
                                  j + 1, cur, kb, False))
        return trials

    def _walk(self, li, st, stage):
        """Replay the greedy scan for one leaf against the swept outcomes,
        recording its events and casting its accept/reject votes as it
        decides.  Returns None when the scan is finished, else the walk
        state stalled at the first trial not swept, to regrow from next
        round."""
        j, cur, t, kb, prev = st
        events = self._staged[li][1]
        bits, sizes, votes = self._bits, self._sizes, self._votes
        for j in range(j, len(bits)):
            if kb + sizes[j] > self.keep_budget:
                continue
            trial = cur | bits[j]
            if trial not in stage:
                return j, cur, t, kb, prev
            out = events[trial] = stage[trial]
            accept = (out is not None and out.feasible
                      and out.time <= t + TIME_EPSILON)
            votes[j][prev][accept] += 1
            if accept:
                cur, t = trial, out.time
                kb += sizes[j]
            prev = accept
        return None


class _FlipTree:
    """Best-first speculation over future step-2 rounds.

    Step 2 is a greedy chain: each round flips the pool map with the
    smallest r(X) < 1 to ``recompute``, and the next round probes the
    plan that flip produced.  Which map a round flips is nearly always the
    one the previous round's r-values ranked first, so when a round has to
    sweep, its sweep also carries the recompute probes of the plans the
    following rounds will most likely probe:

    * a *node* is a predicted plan: the sweeping round's plan plus the
      flips ``path`` predicted accepted, one per round.  Its children
      recompute one more map each, the maps of the sweep's r-order
      (:meth:`PoochClassifier._rank`) not on the path, best-ranked first;
    * a child's probability is its parent's times the share of accepted
      flips that had the child's rank among the maps not yet flipped —
      the search's running tally (:meth:`advance`), with one
      pseudo-observation spread over the ranks as 1/2, 1/4, ... so that a
      search with no history speculates one level when it pays;
    * the tree grows best-first, most probable node first, by the break-
      even rule of :class:`_VectorLeafStager`: a node's rows are staged
      while its probability ``p`` beats ``E / (ROWS + N)``, the expected
      consumed rows per unit of sweep cost over the ``N`` rows staged so
      far (the round's own probes count with probability 1), and while
      the sweep stays within ``MAX_ROWS``.  Identical plans reached along
      two paths are staged once.

    Outcomes wait in ``staged`` until a round reads them (see
    :meth:`PoochClassifier._sweep_round`); the tally and the ranking steer
    only which probes are swept, never a decision.  Each row is drafted as
    one flip of its node's plan, and each node once, as one flip of its
    parent's (:meth:`TimelinePredictor.predict_variant_batch`), so a row's
    drafting cost does not grow with its depth."""

    #: a step-2 sweep's fixed cost, in rows.  Timed over ResNet-50/512
    #: x86's step 2 (budget 600, shared 2-vCPU x86 host, a linear fit of
    #: each phase over the 9 sweeps' row counts): a sweep costs 19–28 ms
    #: fixed (``run_batch`` 17–24 ms, building its tables 2–4 ms) and a
    #: row about 0.35 ms (``run_batch`` 0.05–0.07 ms, tables 0.07–0.09 ms,
    #: drafting 0.11 ms and classifying and growing the tree 0.1 ms as
    #: timed before), so 55–80 rows.  75 gave the fastest step 2 among 40,
    #: 60, 75, 85, 100, 150 and 300 when a row cost 0.6–0.7 ms; at 100 the
    #: trees there carry 37 more rows for one more staged hit in the same
    #: 9 sweeps, within the host's run-to-run spread, so it stays.
    ROWS = 75
    #: most rows one sweep carries.  A family's memory grows with its
    #: rows (each row's patch, queue seeds and free counts), and the
    #: allocator keeps the peak: the ResNet-50/512 x86 search peaked at
    #: 53.3 MiB RSS with its largest family at 330 rows, 50.8 MiB capped
    #: at 256 rows (still 9 sweeps), 48.1 MiB with one level speculated.
    MAX_ROWS = 256

    def __init__(self) -> None:
        #: outcomes of speculative probes, keyed by classification key,
        #: that no round has read yet
        self.staged: dict[tuple[int, int], PredictedOutcome] = {}
        #: hits[r]: accepted flips that had rank r among the maps of the
        #: tree's r-order not yet flipped since the tree was grown
        self._hits: list[int] = []
        self._order: list[int] = []
        self._path: list[int] = []

    def advance(self, x: int) -> None:
        """A round accepted the flip of ``x``: tally its rank."""
        rest = [m for m in self._order if m not in self._path]
        if x not in rest:
            return  # no tree grown yet (the first round has no r-order)
        rank = rest.index(x)
        self._hits.extend([0] * (rank + 1 - len(self._hits)))
        self._hits[rank] += 1
        self._path.append(x)

    def _share(self, rank: int) -> float:
        hits = self._hits[rank] if rank < len(self._hits) else 0
        return (hits + 0.5 ** (rank + 1)) / (sum(self._hits) + 1)

    def grow(self, current: Classification, order: list[int], certain: int,
             cached) -> tuple[list[Classification], list[tuple[int, ...]]]:
        """Grow the tree for a round sweeping ``certain`` probes of
        ``current``; returns the speculative probes to sweep with it and,
        for each, its node's path.  Staged outcomes the new tree still
        reaches are kept (not swept again); the rest are dropped."""
        self._order, self._path = list(order), []
        kept: dict[tuple[int, int], PredictedOutcome] = {}
        spec: list[Classification] = []
        paths: list[tuple[int, ...]] = []
        seen_plans: set[frozenset] = set()
        seen_rows: set[tuple[int, int]] = set()
        expected = staged = float(certain)
        heap = [(-1.0, 0, (), current)]
        tie = itertools.count(1)
        while heap:
            negp, _, path, plan = heapq.heappop(heap)
            p = -negp
            if path:
                if (p * (self.ROWS + staged) <= expected
                        or staged + len(order) - len(path) > self.MAX_ROWS):
                    break
                if frozenset(path) in seen_plans:
                    continue
                seen_plans.add(frozenset(path))
                # one flip of the parent's plan: keys derive by bit ops
                plan = plan.with_class(path[-1], MapClass.RECOMPUTE)
                rows = 0
                for y in order:
                    if y in path:
                        continue
                    cls = plan.with_class(y, MapClass.RECOMPUTE)
                    key = cls.key()
                    if key in seen_rows:
                        continue
                    seen_rows.add(key)
                    if key in self.staged:
                        kept[key] = self.staged[key]
                    elif cached(cls) is None:
                        spec.append(cls)
                        paths.append(path)
                        rows += 1
                staged += rows
                expected += p * rows
            rest = [m for m in order if m not in path]
            for rank, y in enumerate(rest):
                heapq.heappush(heap, (-p * self._share(rank), next(tie),
                                      path + (y,), plan))
        self.staged = kept
        return spec, paths


class PoochClassifier:
    """Runs the two-step search; one instance per (graph, profile, machine).

    A supplied ``predictor`` must have been built from a config that agrees
    with ``config`` on every simulation setting (``ValueError`` otherwise):
    the keep-bytes prune and the simulations then read one capacity."""

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
        if predictor is None:
            predictor = TimelinePredictor(graph, profile, machine, self.config)
        for name in _SIMULATION_FIELDS:
            ours, theirs = (getattr(self.config, name),
                            getattr(predictor.config, name))
            if ours != theirs:
                raise ValueError(
                    f"config {name}={ours!r} disagrees with the predictor's "
                    f"{name}={theirs!r}: the search would prune and simulate "
                    f"under different settings")
        self.predictor = predictor
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
        pred = self.predictor
        at_start = (pred.vector_sweeps, pred.vector_candidates,
                    pred.keep_sweep_s, pred.variant_compile_s,
                    pred.variant_sweep_s, pred.variant_rows,
                    pred.variant_patched_tasks)
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
            s = self.stats
            s.wall_time_s = time.perf_counter() - start
            (s.vector_sweeps, s.vector_candidates, s.step1_sweep_s,
             s.step2_compile_s, s.step2_sweep_s, s.step2_rows,
             s.step2_patched_tasks) = (
                now - then for now, then in zip(
                    (pred.vector_sweeps, pred.vector_candidates,
                     pred.keep_sweep_s, pred.variant_compile_s,
                     pred.variant_sweep_s, pred.variant_rows,
                     pred.variant_patched_tasks),
                    at_start))
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
            "search on %r: step1 %d sims (%d/%d leaves), "
            "step2 %d sims, %d recompute flips, %.2f s wall",
            self.graph.name, s.sims_step1, s.leaves_evaluated,
            s.leaves_total, s.sims_step2,
            len(s.flips_to_recompute), s.wall_time_s,
        )
        if registry is None:
            return
        registry.count("search.searches")
        registry.count("search.sims_step1", s.sims_step1)
        registry.count("search.sims_step2", s.sims_step2)
        registry.count("search.sims_vectorized", s.sims_vectorized)
        registry.count("search.sims_fallback", s.sims_fallback)
        registry.count("search.vector_sweeps", s.vector_sweeps)
        registry.count("search.vector_candidates", s.vector_candidates)
        registry.count("search.keep_probes_elided", s.keep_probes_elided)
        registry.count("search.step2_rounds_run", s.step2_rounds)
        registry.count("search.r_recomputed", s.r_recomputed)
        registry.count("search.step2_rows", s.step2_rows)
        registry.count("search.step2_patched_tasks", s.step2_patched_tasks)
        registry.count("search.step2_sweeps", s.step2_sweeps)
        registry.count("search.step2_staged_rows", s.step2_staged_rows)
        registry.count("search.step2_staged_hits", s.step2_staged_hits)
        # why the search took its time: step 1's sweeps (the rest of
        # search.step1 is its walk), step 2's drafting + compiling of its
        # variant families vs sweeping them (timers, shown in the search
        # section)
        for name, seconds in (("step1_sweep", s.step1_sweep_s),
                              ("step2_compile", s.step2_compile_s),
                              ("step2_sweep", s.step2_sweep_s)):
            registry.add_time(f"search.{name}", seconds)
            registry.gauge(f"search.{name}_wall_s", seconds)
        if s.r_rounds:
            # structured per-round r(X) history (schema v1.1): what every
            # round's discard/argmin decisions actually read
            registry.record("search.step2_rounds", [
                {str(m): r for m, r in round_.items()}
                for round_ in s.r_rounds
            ])
        registry.count("search.leaves_total", s.leaves_total)
        registry.count("search.leaves_evaluated", s.leaves_evaluated)
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
        overlap = analyze_overlap(self.profile.baseline)
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
        keep_budget = (self.predictor.capacity
                       - 2 * round_size(self.graph.total_param_bytes))
        map_bytes = {m: round_size(self.graph[m].out_spec.nbytes) for m in candidates}

        pred = self.predictor
        best_keep, best_time = 0, base_outcome.time
        sims_at_start = pred.simulations

        def budget_left() -> bool:
            used = pred.simulations - sims_at_start
            if used >= cfg.step1_sim_budget:
                self.stats.budget_exhausted = True
                return False
            return True

        def keeping(keep: int) -> Classification:
            return all_swap.with_classes(
                {m: MapClass.KEEP for m in candidates if keep >> m & 1})

        def outcome(keep: int, swept: PredictedOutcome | None
                    ) -> PredictedOutcome:
            """The outcome of all-swap plus the maps of ``keep`` kept: a
            swept outcome the cache lacks is absorbed under the mask and
            counted as vectorized; anything else — no event, an outcome
            cached before the search, a predictor that cannot sweep — is
            a ``predict`` of the classification."""
            if swept is not None and pred.absorb((keep, 0), swept):
                self.stats.sims_vectorized += 1
                return swept
            return pred.predict(keeping(keep))

        scan_items = [(1 << m, map_bytes[m]) for m in scan]

        def consume_leaf(keep: int, kept_bytes: int,
                         staged: tuple | None) -> bool:
            """Walk one leaf — the exact L_I subset ``keep``, then the
            greedy scan — in the order the serial search would, reading
            each candidate through :func:`outcome` with its staged event
            (``staged`` is the stager's ``(base, events)``), so the cache,
            accounting and budget truncation are the serial search's.
            Returns False when the simulation budget ran out mid-leaf."""
            nonlocal best_keep, best_time
            base, events = staged or (None, {})
            out = outcome(keep, base)
            if not out.feasible:
                return True  # keeping this L_I subset over-commits memory
            cur, cur_time = keep, out.time
            if cur_time < best_time:
                best_keep, best_time = cur, cur_time
            for bit, size in scan_items:
                if not budget_left():
                    return False
                if kept_bytes + size > keep_budget:
                    continue
                trial = cur | bit
                out = outcome(trial, events.get(trial))
                if out.feasible and out.time <= cur_time + TIME_EPSILON:
                    cur, cur_time = trial, out.time
                    kept_bytes += size
                    if cur_time < best_time:
                        best_keep, best_time = cur, cur_time
            return True

        # The exact tree's leaves in DFS order, KEEP branch first
        # (high-overhead maps are kept in the best plans, so good leaves are
        # found early under a simulation budget), as (keep mask, kept
        # bytes).  Enumeration depends only on the byte prune, never on
        # simulation results.
        def enumerate_leaves(idx: int, keep: int, kept_bytes: int):
            if idx == len(exact_li):
                yield keep, kept_bytes
                return
            m = exact_li[idx]
            if kept_bytes + map_bytes[m] <= keep_budget:
                yield from enumerate_leaves(idx + 1, keep | 1 << m,
                                            kept_bytes + map_bytes[m])
            yield from enumerate_leaves(idx + 1, keep, kept_bytes)

        # Leaves keep distinct L_I subsets and scan trials never equal a
        # leaf base, so every leaf whose base is not cached before the walk
        # costs at least one new simulation.  Only the cached outcomes — the
        # all-swap base (mask 0), which is the last leaf, and any plan checked
        # on this predictor before the search (a plan-cache hit that failed
        # re-verification, a DynamicPoocH donor plan) — let the walk pass a
        # leaf for free, so it never gets past leaf
        # ``step1_sim_budget + cached - 1`` and the leaves beyond are never
        # listed (the tree has up to 2**max_exact_li leaves).
        reach = cfg.step1_sim_budget + pred.outcomes_cached
        leaves = list(itertools.islice(enumerate_leaves(0, 0, 0), reach))
        self.stats.leaves_total = len(leaves)

        # speculative lockstep sweeps stage per-leaf events; the loop below
        # remains the *definitive* serial walk (same leaf order, budget
        # truncation and accounting), it just reads staged outcomes instead
        # of running the event engine candidate by candidate
        stager = _VectorLeafStager(
            pred, leaves, scan, map_bytes, keep_budget,
            lambda: cfg.step1_sim_budget - (pred.simulations - sims_at_start),
        )
        for idx, (keep, kept_bytes) in enumerate(leaves):
            if not budget_left():
                break
            staged = stager.get(idx)
            self.stats.leaves_evaluated += 1
            if not consume_leaf(keep, kept_bytes, staged):
                break

        self.stats.sims_step1 = pred.simulations - sims_at_start
        self.stats.time_after_step1 = best_time
        return keeping(best_keep)

    # -- step 2 ----------------------------------------------------------------------

    @staticmethod
    def _rank(pool: list[int], r_values: dict[int, float]) -> list[int]:
        """The pool ranked by the latest r-values, lowest first — the order
        step 2's speculation tree predicts flips in (``sorted`` is stable,
        so on a tie rank 0 is the map the round's ``min`` picks).  It
        steers only which probes are swept ahead, never a decision."""
        return sorted(pool, key=r_values.__getitem__)

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

    def _sweep_round(self, current: Classification, pool: list[int],
                     tree: _FlipTree, order: list[int] | tuple = ()) -> None:
        """Answer a step-2 round's uncached probes with one lockstep sweep:
        every "current with X recomputed" probe of the pool, plus every
        "current with X kept" probe the liveness floor does not already
        elide — exactly the probes :meth:`_r_value` is about to read.

        When this round has to sweep, the sweep also carries the recompute
        probes of the later rounds ``tree`` predicts from ``order`` (the
        pool ranked by the latest r-values), and their outcomes wait in
        ``tree.staged`` (keyed by classification) instead of the
        predictor's cache.  A probe is absorbed only when a round reads it
        — straight from the sweep or from ``tree.staged`` — so r-values,
        caches and simulation counts are exactly those of a serial search;
        a probe no sweep could answer stays for the serial predictor."""
        cached = self.predictor.cached
        needed: list[Classification] = []
        keeps: list[Classification] = []
        for x in pool:
            needed.append(current.with_class(x, MapClass.RECOMPUTE))
            if not self.predictor.provably_infeasible(current, x):
                keeps.append(current.with_class(x, MapClass.KEEP))
        todo: list[Classification] = []
        for cls in needed + keeps:
            out = tree.staged.pop(cls.key(), None)
            if out is not None:
                self.stats.step2_staged_hits += 1
                self._absorb(cls.key(), out)
            elif cached(cls) is None:
                todo.append(cls)
        if not todo:
            return
        spec, paths = tree.grow(current, order, len(todo), cached)
        outs = self.predictor.predict_variant_batch(
            todo + spec, [()] * len(todo) + paths)
        if outs is None:
            return
        self.stats.step2_sweeps += 1
        self.stats.step2_staged_rows += len(spec)
        for cls, out in zip(todo, outs):
            self._absorb(cls.key(), out)
        for cls, out in zip(spec, outs[len(todo):]):
            if out is not None:
                tree.staged[cls.key()] = out

    def _absorb(self, key: tuple[int, int],
                out: PredictedOutcome | None) -> None:
        """Install a swept outcome the search is about to read, counting it
        as vectorized; None (nothing swept) leaves the lookup to the serial
        predictor."""
        if out is not None and self.predictor.absorb(key, out):
            self.stats.sims_vectorized += 1

    def _step2_swap_vs_recompute(self, step1: Classification) -> Classification:
        sims_at_start = self.predictor.simulations
        current = step1
        pool = [
            m for m in step1.maps_of(MapClass.SWAP)
            if self.graph[m].op.recomputable
        ]
        current_time = self.predictor.predict(current).time

        # Every round evaluates r(X) for the whole surviving pool against the
        # frozen `current`, its uncached probes swept in lockstep first;
        # after a rejected flip those probes are memo-cache hits (or elided
        # again), and acceptance always reads the trial plan's own outcome.
        # A sweep also speculates the probes of later rounds along the flips
        # the latest r-values rank first (r-values move little between
        # rounds), so a correctly predicted round needs no sweep of its own.
        first_round = True
        tree = _FlipTree()
        r_values: dict[int, float] = {}
        while pool:
            self._sweep_round(current, pool, tree,
                              self._rank(pool, r_values) if r_values else [])
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
            # re-verify the r(X)<1 flip end-to-end and reject it if it
            # slowed the plan (safety net on top of the paper's rule)
            accept = (outcome.feasible
                      and outcome.time <= current_time + TIME_EPSILON)
            pool.remove(x)
            if accept:
                current = trial
                current_time = outcome.time
                self.stats.flips_to_recompute.append(x)
                tree.advance(x)

        self.stats.sims_step2 = self.predictor.simulations - sims_at_start
        self.stats.time_after_step2 = current_time
        return current
