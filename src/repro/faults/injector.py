"""Deterministic, seed-driven fault injection.

Every decision the :class:`FaultInjector` makes — how much noise a task's
duration gets, whether a transfer stalls, whether an allocation spuriously
fails — is a *pure function* of ``(seed, decision key)``: a keyed RNG is
derived per decision instead of consuming one shared stream.  That buys two
properties the tests lean on hard:

* **bit-reproducibility**: a faulted run with a fixed ``--fault-seed`` is
  bit-identical no matter how many times (or in what order) components ask
  the injector for decisions;
* **purity of durations**: :class:`FaultyDurations` can answer the same
  query twice with the same value, so the schedule builder may be re-run
  (e.g. by the resilient executor's fallback chain) without the fault layer
  drifting underneath it.
"""

from __future__ import annotations

import operator
import zlib

import numpy as np

from repro.common.errors import SpuriousOOMError
from repro.common.units import format_bytes
from repro.faults.spec import FaultSpec
from repro.gpusim.allocator import MemoryPool, round_size
from repro.gpusim.engine import StreamName, TaskKind
from repro.gpusim.vecengine import VectorUnsupported
from repro.obs import metrics

#: hard floor on any multiplicative noise factor — matches the cost model's
#: jitter clamp so a noisy duration can never go zero or negative
_MIN_FACTOR = 0.05


def fault_seed(value) -> int:
    """``value`` as a fault seed: a non-negative integer (numpy ints too).
    Raises ``ValueError`` naming the value for a negative, ``bool`` or
    non-integral one, which ``int()`` would truncate or numpy reject late."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            seed = operator.index(value)
        except TypeError:
            seed = -1
        if seed >= 0:
            return seed
    raise ValueError(
        f"fault seed must be a non-negative integer, got {value!r}")


class FaultInjector:
    """Turns a :class:`FaultSpec` into deterministic per-decision draws."""

    def __init__(self, spec: FaultSpec | str | None = None, seed: int = 0) -> None:
        if spec is None:
            spec = FaultSpec()
        elif isinstance(spec, str):
            spec = FaultSpec.parse(spec)
        self.spec = spec
        self.seed = fault_seed(seed)

    # -- keyed randomness ---------------------------------------------------------

    def _rng(self, *key: object) -> np.random.Generator:
        """A fresh generator keyed on (seed, key): same key → same stream."""
        digest = zlib.crc32(repr(key).encode())
        return np.random.default_rng((self.seed, digest))

    def _noise_factor(self, stddev: float, *key: object) -> float:
        if stddev <= 0.0:
            return 1.0
        draw = float(self._rng(*key).standard_normal())
        return max(_MIN_FACTOR, 1.0 + stddev * draw)

    # -- duration faults ------------------------------------------------------------

    def duration_factor(self, what: str, layer: int) -> float:
        """Multiplicative noise on one executed task's duration, keyed by
        (task kind, layer) — deterministic per task identity."""
        return self._noise_factor(self.spec.duration_noise, "dur", what, layer)

    def transfer_slowdown(self) -> float:
        """Uniform slowdown of all H2D/D2H transfers (degraded link)."""
        return 1.0 / self.spec.bandwidth_factor

    def profile_factor(self, what: str, layer: int) -> float:
        """Multiplicative noise on one *profiled* duration."""
        return self._noise_factor(self.spec.profile_noise, "prof", what, layer)

    # -- transfer stalls -------------------------------------------------------------

    def transfer_failures(self, tid: str, cap: int, epoch: int = 0) -> int:
        """How many consecutive attempts of transfer ``tid`` transiently
        fail before one succeeds; capped at ``cap + 1`` (i.e. a return value
        of ``cap + 1`` means the retry budget is exhausted).  ``epoch`` keys
        the draw so a re-executed iteration sees fresh transient
        conditions."""
        p = self.spec.stall_prob
        if p <= 0.0:
            return 0
        rng = self._rng("stall", epoch, tid)
        failures = 0
        while failures <= cap and float(rng.random()) < p:
            failures += 1
        return failures

    # -- allocation faults -----------------------------------------------------------

    def spurious_oom(self, pool: str, buffer: str, attempt: int) -> bool:
        """Whether this allocation transiently fails.  Keyed by the attempt
        index too, so a retried iteration makes an independent draw."""
        p = self.spec.host_oom_prob if pool == "host" else self.spec.oom_prob
        if p <= 0.0:
            return False
        return float(self._rng("oom", pool, buffer, attempt).random()) < p

    def host_capacity(self, nominal: int) -> int:
        """Host swap space actually available under pinned-memory pressure."""
        return int(nominal * self.spec.host_capacity_factor)

    # -- profile perturbation -----------------------------------------------------------

    def perturb_profile(self, profile, graph=None, machine=None, options=None):
        """A copy of ``profile`` with noisy durations — what the classifier
        sees when the few profiled iterations were not representative.

        When ``graph`` and ``machine`` are given, the profile's all-swap
        baseline timeline is replayed from the perturbed durations (the
        classifier's overlap analysis inspects it, so it must be consistent
        with the numbers).
        """
        from repro.gpusim import Engine
        from repro.runtime.plan import Classification
        from repro.runtime.profiler import Profile
        from repro.runtime.schedule import ScheduleOptions, build_schedule

        if self.spec.profile_noise <= 0.0:
            return profile

        def jig(table: dict[int, float], what: str) -> dict[int, float]:
            return {k: v * self.profile_factor(what, k) for k, v in table.items()}

        noisy = Profile(
            graph_name=profile.graph_name,
            machine_name=profile.machine_name,
            fwd=jig(profile.fwd, "fwd"),
            bwd=jig(profile.bwd, "bwd"),
            swap_out=jig(profile.swap_out, "swap_out"),
            swap_in=jig(profile.swap_in, "swap_in"),
            update_time=profile.update_time * self.profile_factor("update", -1),
            map_bytes=dict(profile.map_bytes),
            iterations=profile.iterations,
        )
        if graph is not None and machine is not None:
            opts = options or ScheduleOptions()
            schedule = build_schedule(graph, Classification.all_swap(graph),
                                      noisy.durations(), opts)
            noisy.baseline = Engine(
                schedule,
                device_capacity=machine.usable_gpu_memory,
                host_capacity=machine.host_swap_capacity,
            ).run()
        return noisy


class FaultyDurations:
    """A :class:`~repro.runtime.durations.DurationProvider` that wraps
    another provider with the injector's duration faults.

    Noise is keyed per (kind, layer), never per call: recompute tasks share
    the forward duration exactly as the profiler assumes, and rebuilding a
    schedule reproduces it bit-for-bit.  Faults change *time*, never data.
    """

    def __init__(self, base, injector: FaultInjector) -> None:
        self.base = base
        self.injector = injector

    def fwd(self, layer: int) -> float:
        return self.base.fwd(layer) * self.injector.duration_factor("fwd", layer)

    def bwd(self, layer: int) -> float:
        return self.base.bwd(layer) * self.injector.duration_factor("bwd", layer)

    def swap_out(self, map_id: int) -> float:
        return (self.base.swap_out(map_id)
                * self.injector.duration_factor("swap_out", map_id)
                * self.injector.transfer_slowdown())

    def swap_in(self, map_id: int) -> float:
        return (self.base.swap_in(map_id)
                * self.injector.duration_factor("swap_in", map_id)
                * self.injector.transfer_slowdown())

    def input_load(self, layer: int) -> float:
        return (self.base.input_load(layer)
                * self.injector.duration_factor("input_load", layer)
                * self.injector.transfer_slowdown())

    def update(self) -> float:
        return self.base.update() * self.injector.duration_factor("update", -1)


# -- duration tables: FaultyDurations without a schedule rebuild ----------------


def _task_key(task) -> tuple[str, int, bool]:
    """(duration-factor kind, key layer, is-transfer) of one draft task —
    mirrors which :class:`FaultyDurations` method priced it."""
    kind = task.kind
    if kind is TaskKind.FWD:
        if task.stream is StreamName.H2D:  # the mini-batch upload
            return ("input_load", task.layer, True)
        return ("fwd", task.layer, False)
    if kind is TaskKind.RECOMPUTE:  # recompute shares the forward's key
        return ("fwd", task.layer, False)
    if kind is TaskKind.BWD:
        return ("bwd", task.layer, False)
    if kind is TaskKind.UPDATE:
        return ("update", -1, False)
    if kind is TaskKind.SWAP_OUT:
        return ("swap_out", task.layer, True)
    if kind is TaskKind.SWAP_IN:
        return ("swap_in", task.layer, True)
    raise VectorUnsupported(f"task kind {kind!r} has no duration-fault key")


# -- fast keyed draws ----------------------------------------------------------
#
# A sweep needs K seeds x U duration keys independent draws, each defined as
# ``default_rng((seed, digest)).standard_normal()``.  Constructing K*U
# generators through ``default_rng`` costs ~15us each — it dominates the
# whole lockstep sweep.  ``SeedSequence`` turns the entropy tuple into
# little-endian uint32 words (each int gives its own words, ``[0]`` for
# zero) and hashes them into a four-word pool (O'Neill's seed_seq: pure
# uint32 arithmetic), so the hash vectorizes over every pair whose entropy
# has the same word count: a seed below 2**32 gives two words with its
# digest, a larger seed three or more.  PCG64's seeding from the four output
# words is two 128-bit affine steps we do in Python ints and install via the
# bit generator's state setter — reusing ONE generator object for every
# draw, ``_DRAW_CHUNK`` pairs' words at a time.  ``_keyed_normals``
# cross-checks one draw per word count against ``default_rng`` at runtime
# and the caller falls back to the per-seed injector loop on any mismatch,
# so bit-identity never rests on this reimplementation alone.

_SS_POOL = 4
_SS_XSHIFT = np.uint32(16)
_SS_INIT_A = np.uint32(0x43B0D7E5)
_SS_MULT_A = np.uint32(0x931E8875)
_SS_INIT_B = np.uint32(0x8B51F9DD)
_SS_MULT_B = np.uint32(0x58F38DED)
_SS_MIX_L = np.uint32(0xCA01F9DD)
_SS_MIX_R = np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MASK = (1 << 128) - 1
#: keyed draws whose seeding words are held as Python ints at once
_DRAW_CHUNK = 1024


def _uint32_words(value: int) -> list[int]:
    """``SeedSequence``'s entropy words for one non-negative int:
    little-endian uint32 words, ``[0]`` for zero."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _seedseq_words(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, uint64)`` for every row,
    vectorized: ``entropy`` holds one equal-length uint32 column per entropy
    word, and row i's entropy is ``[col[i] for col in entropy]``."""
    old = np.seterr(over="ignore")  # uint32 wraparound is the algorithm
    try:
        hash_const = _SS_INIT_A

        def hashmix(value: np.ndarray) -> np.ndarray:
            nonlocal hash_const
            value = value ^ hash_const
            hash_const = hash_const * _SS_MULT_A
            value = value * hash_const
            return value ^ (value >> _SS_XSHIFT)

        def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            r = (_SS_MIX_L * x) - (_SS_MIX_R * y)
            return r ^ (r >> _SS_XSHIFT)

        zero = np.zeros_like(entropy[0])
        pool = [hashmix(entropy[i] if i < len(entropy) else zero)
                for i in range(_SS_POOL)]
        for i_src in range(_SS_POOL):
            for i_dst in range(_SS_POOL):
                if i_src != i_dst:
                    pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
        # entropy beyond the pool size mixes into every pool word
        for i_src in range(_SS_POOL, len(entropy)):
            for i_dst in range(_SS_POOL):
                pool[i_dst] = mix(pool[i_dst], hashmix(entropy[i_src]))

        hash_const = _SS_INIT_B

        def hashmix_out(value: np.ndarray) -> np.ndarray:
            nonlocal hash_const
            value = value ^ hash_const
            hash_const = hash_const * _SS_MULT_B
            value = value * hash_const
            return value ^ (value >> _SS_XSHIFT)

        out32 = [hashmix_out(pool[i % _SS_POOL]) for i in range(8)]
        words = np.empty((len(zero), 4), np.uint64)
        for i in range(4):
            words[:, i] = (out32[2 * i].astype(np.uint64)
                           | (out32[2 * i + 1].astype(np.uint64)
                              << np.uint64(32)))
        return words
    finally:
        np.seterr(**old)


def _keyed_normals(seeds: list[int], digests: list[int]) -> np.ndarray | None:
    """The ``(K, U)`` matrix of ``default_rng((seed, digest)).
    standard_normal()`` draws for non-negative seeds and uint32 digests, or
    ``None`` when a runtime cross-check against ``default_rng`` fails."""
    n_k, n_u = len(seeds), len(digests)
    out = np.empty((n_k, n_u), np.float64)
    if not n_k or not n_u:
        return out
    groups: dict[int, list[int]] = {}  # seed word count -> rows of seeds
    seed_words = [_uint32_words(s) for s in seeds]
    for k, words in enumerate(seed_words):
        groups.setdefault(len(words), []).append(k)
    bg = np.random.PCG64(0)
    gen = np.random.Generator(bg)
    state = bg.state
    inner = state["state"]
    normal = gen.standard_normal
    digest_col = np.asarray(digests, np.uint32)
    for n_words, rows in groups.items():
        per_seed = np.asarray([seed_words[k] for k in rows], np.uint32)
        entropy = [np.repeat(per_seed[:, j], n_u) for j in range(n_words)]
        entropy.append(np.tile(digest_col, len(rows)))
        words = _seedseq_words(entropy)
        flat = np.empty(len(words), np.float64)
        for lo in range(0, len(words), _DRAW_CHUNK):
            chunk = words[lo:lo + _DRAW_CHUNK].tolist()
            for i, (w0, w1, w2, w3) in enumerate(chunk, lo):
                # pcg_setseq_128_srandom: state=0; step; state+=initstate; step
                inc = (((w2 << 64) | w3) << 1 | 1) & _PCG_MASK
                inner["inc"] = inc
                inner["state"] = ((inc + ((w0 << 64) | w1)) * _PCG_MULT
                                  + inc) & _PCG_MASK
                bg.state = state
                flat[i] = normal()
        ref = np.random.default_rng((seeds[rows[0]], digests[0]))
        if flat[0] != float(ref.standard_normal()):
            return None  # numpy's seeding drifted from this reimplementation
        out[rows] = flat.reshape(len(rows), n_u)
    return out


class DurationTable:
    """Faulted duration tables for one fixed task list, priced per seed.

    Row k of :meth:`rows` holds, for every task of ``tids`` (in that
    order), the duration a schedule rebuilt under ``FaultyDurations(base,
    FaultInjector(spec, seed=seeds[k]))`` would carry — bit-identical,
    because the multiply order matches the provider's left fold:
    ``(clean * duration_factor) * transfer_slowdown``.  Tasks sharing a
    duration key (a recompute and its forward) share one draw per seed.
    ``tasks`` may be schedule drafts or finalized ``Task`` objects; their
    durations are the clean ones.
    """

    def __init__(self, tasks, tids) -> None:
        self.clean = np.array([tasks[t].duration for t in tids], np.float64)
        keys = [_task_key(tasks[t]) for t in tids]
        index: dict[tuple[str, int], int] = {}
        self.col_of = np.array(
            [index.setdefault((what, layer), len(index))
             for what, layer, _ in keys], np.int64)
        #: the distinct (kind, layer) duration keys, in column order
        self.keys = list(index)
        self.transfer = np.array([is_t for *_, is_t in keys], bool)
        # the injector keys each draw on repr(("dur", what, layer))
        self._digests = [zlib.crc32(repr(("dur", w, l)).encode())
                         for w, l in self.keys]

    def rows(self, spec: FaultSpec, seeds,
             clean: np.ndarray | None = None) -> np.ndarray:
        """The ``(K, n)`` table for ``seeds``; ``clean`` overrides the clean
        durations (same task order) for a provider that re-draws them.
        Counts its keyed draws as ``faults.draws_vectorized`` or, when the
        fast path's cross-check fails, ``faults.draws_fallback``."""
        clean = self.clean if clean is None else clean
        seeds = [fault_seed(s) for s in seeds]
        stddev = spec.duration_noise
        if stddev <= 0.0:
            fac = np.ones((len(seeds), len(self.keys)), np.float64)
        else:
            draws = _keyed_normals(seeds, self._digests)
            if draws is not None:
                fac = np.maximum(_MIN_FACTOR, 1.0 + stddev * draws)
                metrics.count("faults.draws_vectorized", fac.size)
            else:
                fac = np.empty((len(seeds), len(self.keys)), np.float64)
                for r, seed in enumerate(seeds):
                    inj = FaultInjector(spec, seed=seed)
                    fac[r] = [inj.duration_factor(w, l) for w, l in self.keys]
                metrics.count("faults.draws_fallback", fac.size)

        mat = clean * fac[:, self.col_of]
        slow = 1.0 / spec.bandwidth_factor  # FaultInjector.transfer_slowdown
        if slow != 1.0:
            mat[:, self.transfer] *= slow
        return mat


class FaultyMemoryPool(MemoryPool):
    """A counting pool whose allocations can *spuriously* fail.

    A spurious failure raises :class:`SpuriousOOMError` only when the
    allocation would otherwise have succeeded — a genuine capacity shortfall
    keeps raising the ordinary :class:`~repro.common.errors.OutOfMemoryError`
    so infeasibility is never mistaken for a transient fault.
    """

    def __init__(self, capacity: int, name: str, injector: FaultInjector,
                 attempt: int = 0, track: bool = True) -> None:
        super().__init__(capacity, name, track=track)
        self.injector = injector
        self.attempt = attempt

    def malloc(self, buffer: str, nbytes: int, time: float,
               context: str = "") -> None:
        if (round_size(nbytes) <= self.free_bytes
                and self.injector.spurious_oom(self.name, buffer, self.attempt)):
            raise SpuriousOOMError(
                f"{self.name} pool: injected transient allocation failure for "
                f"{buffer!r} ({format_bytes(round_size(nbytes))}) at "
                f"t={time:.6f}" + (f" while {context}" if context else ""),
                requested=round_size(nbytes),
                free=self.free_bytes,
                capacity=self.capacity,
                context=context or buffer,
            )
        super().malloc(buffer, nbytes, time, context=context)
