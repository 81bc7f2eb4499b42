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

#: hard floor on any multiplicative noise factor, so a noisy duration can
#: never go zero or negative
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
        sees when the profiled iteration was not representative.

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
# generators through ``default_rng`` costs ~15us each, so the draw is done
# as array math instead, with no generator object per draw:
#
# * ``SeedSequence`` turns the entropy tuple into little-endian uint32 words
#   (each int gives its own words, ``[0]`` for zero) and hashes them into a
#   four-word pool (O'Neill's seed_seq: pure uint32 arithmetic), so the
#   hash vectorizes over every pair whose entropy has the same word count: a
#   seed below 2**32 gives two words with its digest, a larger seed three or
#   more.
# * PCG64 seeds from the four output words (``init``, ``seq``) with
#   ``inc = 2*seq + 1`` and two LCG steps, and its first draw takes one more,
#   so the state it outputs from is ``init*M**2 + inc*(M**2 + M + 1) mod
#   2**128``: two 128-bit multiplies by constants, done on uint64 arrays in
#   32-bit limbs.  The output is ``rotr64(hi ^ lo, hi >> 58)``.
# * ``standard_normal`` is numpy's ziggurat, whose first try accepts about
#   98.5% of draws: ``idx = r & 0xff``, ``sign = (r >> 8) & 1``, ``rabs =
#   (r >> 9) & (2**52 - 1)``, accepted when ``rabs < ki[idx]`` with value
#   ``±(rabs * wi[idx])``.  A rejected first try (the tail of layer 0,
#   layer 1 whose ``ki`` is 0, the wedges) is replayed through one reused
#   PCG64 object set to the seeded state, i.e. numpy itself.
#
# ``_ZIG_KI`` pins numpy's ``ki_double``, which only a binary search over
# crafted generator states could re-derive; ``_numpy_wi`` reads
# ``wi_double`` from the running numpy once per process with crafted states
# and checks ``_ZIG_KI`` against it there, and ``_keyed_normals`` cross-checks
# each group's first accepted draw and first replayed one against
# ``default_rng``.  On any mismatch the caller falls back to the per-seed
# injector loop, so bit-identity never rests on this reimplementation alone.

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
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
#: a seeded state's first output comes from init*_PCG_A + inc*_PCG_B
_PCG_A = _PCG_MULT * _PCG_MULT & _PCG_MASK
_PCG_B = (_PCG_MULT * _PCG_MULT + _PCG_MULT + 1) & _PCG_MASK
_U32 = np.uint64(0xFFFFFFFF)
_RABS_MASK = np.uint64((1 << 52) - 1)
#: keyed draws whose 128-bit temporaries are held at once
_DRAW_CHUNK = 4096

# numpy's float64 ziggurat ``ki_double`` table (first-try acceptance bounds
# on ``rabs``, in hex), read from numpy through crafted PCG64 states
# (``TestKeyedNormals.test_ki_table_is_numpys`` re-derives it)
_ZIG_KI = np.array([int(h, 16) for h in """
ef33d8025ef6a 0000000000000 c08be98fbc6a8 da354fabd8142 e51f67ec1eeea
eb255e9d3f77e eef4b817ecab9 f19470afa44aa f37ed61ffcb18 f4f469561255c
f61a5e41ba396 f707a755396a4 f7cb2ec28449a f86f10c6357d3 f8fa6578325de
f9724c74dd0da f9da907dbf509 fa360f581fa74 fa86fde5b4bf8 facf160d354dc
fb0fb6718b90f fb49f8d5374c6 fb7ec2366fe77 fbaece9a1e50e fbdab9d040bed
fc03060ff6c57 fc2821037a248 fc4a67ae25bd1 fc6a2977aee31 fc87aa92896a4
fca325e4bde85 fcbcce902231a fcd4d12f839c4 fceb54d8fec99 fd007bf1dc930
fd1464dd6c4e6 fd272a8e2f450 fd38e4ff0c91e fd49a9990b478 fd598b8920f53
fd689c08e99ec fd76ea9c8e832 fd848547b08e8 fd9178bad2c8c fd9dd07a7add2
fda9970105e8c fdb4d5dc02e20 fdbf95c5bfcd0 fdc9debb99a7d fdd3b8118729d
fddd288342f90 fde6364369f64 fdeee708d514e fdf7401a6b42e fdff46599ed40
fe06fe4bc24f2 fe0e6c225a258 fe1593c28b84c fe1c78cbc3f99 fe231e9db1caa
fe29885da1b91 fe2fb8fb54186 fe35b33558d4a fe3b799d0002a fe410e99ead7f
fe46746d47734 fe4bad34c095c fe50baed29524 fe559f74ebc78 fe5a5c8e41212
fe5ef3e138689 fe6366fd91078 fe67b75c6d578 fe6be661e11aa fe6ff55e5f4f2
fe73e5900a702 fe77b823e9e39 fe7b6e37070a2 fe7f08d774243 fe8289053f08c
fe85efb35173a fe893dc840864 fe8c741f0cebc fe8f9387d4ef6 fe929cc879b1d
fe95909d388ea fe986fb939aa2 fe9b3ac714866 fe9df2694b6d5 fea0973abe67c
fea329cf166a4 fea5aab32952c fea81a6d5741a feaa797de1cf0 feacc85f3d920
feaf07865e63c feb13762fec13 feb3585fe2a4a feb56ae3162b4 feb76f4e284fa
feb965fe62014 febb4f4cf9d7c febd2b8f449d0 febefb16e2e3e fec0be31ebde8
fec2752b15a15 fec42049dafd3 fec5bfd29f196 fec75406ceef4 fec8dd2500cb4
feca5b6911f12 fecbcf0c427fe fecd38454fb15 fece97488c8b3 fecfec47f91b7
fed1377358528 fed278f844903 fed3b10242f4c fed4dfbad586e fed605498c3dd
fed721d414fe8 fed8357e4a982 fed9406a42cc8 feda42b85b704 fedb3c8746ab4
fedc2df416652 fedd171a46e52 feddf813c8ad3 feded0f909980 fedfa1e0fd414
fee06ae124bc4 fee12c0d95a06 fee1e579006e0 fee29734b6524 fee34150ae4bc
fee3e3db89b3c fee47ee2982f4 fee51271db086 fee59e9407f41 fee623528b42e
fee6a0b5897f1 fee716c3e077a fee7858327b82 fee7ecf7b06ba fee84d2484ab2
fee8a60b66343 fee8f7accc851 fee94207e25da fee9851a829ea fee9c0e13485c
fee9f557273f4 feea22762ccae feea4836b42ac feea668fc2d71 feea7d76ed6fa
feea8ce04fa0a feea94be8333b feea950296410 feea8d9c0075e feea7e7897654
feea678481d24 feea48aa29e83 feea21d22e4da fee9f2e352024 fee9bbc26af2e
fee97c524f2e4 fee93473c0a3a fee8e40557516 fee88ae369c7a fee828e7f3dfd
fee7bdea7b888 fee749bff37ff fee6cc3a9bd5e fee64529e007e fee5b45a32888
fee51994e57b6 fee474a0006cf fee3c53e12c50 fee30b2e02ad8 fee2462ad8205
fee175eb83c5a fee09a22a1447 fedfb27e349cc fedebea76216c feddbe422047e
fedcb0ece39d3 fedb964042cf4 feda6dce938c9 fed937237e98d fed7f1c38a836
fed69d2b9c02b fed538d06ae00 fed3c41dea422 fed23e76a2fd8 fed0a732fe644
fecefda07fe34 fecd4100eb7b8 fecb708956eb4 fec98b61230c1 fec790a0da978
fec57f50f31fe fec356686c962 fec114cb4b335 febeb948e6fd0 febc429a0b692
feb9af5ee0cdc feb6fe1c98542 feb42d3ad1f9e feb13b00b2d4b feae2591a02e9
feaaeae992257 fea788d8ee326 fea3fcffd73e5 fea044c8dd9f6 fe9c5d62f563b
fe9843ba947a4 fe93f471d4728 fe8f6bd76c5d6 fe8aa5dc4e8e6 fe859e07ab1ea
fe804f690a940 fe7ab488233c0 fe74c751f6aa5 fe6e8102aa202 fe67da0b6abd8
fe60c9f38307e fe5947338f742 fe51470977280 fe48bd436f458 fe3f9bffd1e37
fe35d35eeb19c fe2b5122fe4fe fe20003995557 fe13c82788314 fe068c4ee67b0
fdf82b02b71aa fde87c57efeaa fdd7509c63bfd fdc46e529bf13 fdaf8f82e0282
fd985e1b2ba75 fd7e6ef48cf04 fd613adbd650b fd40149e2f012 fd1a1a7b4c7ac
fcee204761f9e fcba8d85e11b2 fc7d26ecd2d22 fc32b2f1e22ed fbd6581c0b83a
fb606c4005434 fac40582a2874 f9e971e014598 f89fa48a41dfc f66c5f7f0302c
f1a5a4b331c4a
""".split()], np.uint64)

#: per process: numpy's ``wi_double`` read by ``_numpy_wi``, or ``False``
#: when ``_ZIG_KI`` does not match the running numpy
_zig_wi: np.ndarray | bool | None = None


def _crafted_state(first: int) -> dict:
    """A PCG64 state whose next two 64-bit outputs are ``first`` and 0 (a
    state whose high word is 0 outputs its low word)."""
    inc = -first * _PCG_MULT & _PCG_MASK
    state = (first - inc) * _PCG_MULT_INV & _PCG_MASK
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _numpy_wi() -> np.ndarray | None:
    """The running numpy's ziggurat ``wi_double`` table, read once per
    process, or ``None`` when ``_ZIG_KI`` is not numpy's.  A first output
    with ``rabs = 1`` returns ``wi[idx]`` (the wedge accepts layer 1's: its
    next output is 0); then one with ``rabs = ki - 1`` must return ``(ki -
    1) * wi[idx]`` on its first step and one with ``rabs = ki`` must not
    return on it."""
    global _zig_wi
    if _zig_wi is None:
        bg = np.random.PCG64(0)
        normal = np.random.Generator(bg).standard_normal

        def draw(rabs: int, idx: int) -> tuple[float, bool]:
            first = rabs << 9 | idx
            bg.state = _crafted_state(first)
            value = float(normal())
            return value, bg.state["state"]["state"] == first

        wi = [draw(1, idx)[0] for idx in range(256)]
        ok = all((ki == 0 or draw(ki - 1, idx) == ((ki - 1) * w, True))
                 and not draw(ki, idx)[1]
                 for idx, (w, ki) in enumerate(zip(wi, _ZIG_KI.tolist())))
        _zig_wi = np.array(wi) if ok else False
    return None if _zig_wi is False else _zig_wi


def _mul128(a_hi: np.ndarray, a_lo: np.ndarray,
            b: int) -> tuple[np.ndarray, np.ndarray]:
    """``(a * b) mod 2**128`` as (high, low) uint64 words, for a 128-bit
    array ``a`` and a 128-bit constant ``b``: 32-bit limbs keep every
    partial product of the low words' full product within uint64."""
    b_hi, b_lo = np.uint64(b >> 64), np.uint64(b & 0xFFFFFFFFFFFFFFFF)
    b0, b1 = b_lo & _U32, b_lo >> np.uint64(32)
    a0, a1 = a_lo & _U32, a_lo >> np.uint64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & _U32) + (p10 & _U32)
    lo = (mid << np.uint64(32)) | (p00 & _U32)
    hi = (a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32))
          + (mid >> np.uint64(32)) + a_hi * b_lo + a_lo * b_hi)
    return hi, lo


def _first_outputs(words: np.ndarray) -> np.ndarray:
    """The first 64-bit output of a PCG64 seeded from each column of
    ``words`` (``SeedSequence.generate_state(4, uint64)`` per column)."""
    one = np.uint64(1)
    init_hi, init_lo, seq_hi, seq_lo = words
    a_hi, a_lo = _mul128(init_hi, init_lo, _PCG_A)
    b_hi, b_lo = _mul128((seq_hi << one) | (seq_lo >> np.uint64(63)),
                         (seq_lo << one) | one, _PCG_B)
    lo = a_lo + b_lo
    hi = a_hi + b_hi + (lo < a_lo)
    out = hi ^ lo
    rot = hi >> np.uint64(58)
    return (out >> rot) | (out << ((np.uint64(64) - rot) & np.uint64(63)))


def _first_try_normals(words: np.ndarray,
                       wi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ziggurat's first try on each column's first output, with layer
    widths ``wi``: the draws, and a mask of the ones it rejects (their
    value is not the draw)."""
    r = _first_outputs(words)
    idx = (r & np.uint64(0xFF)).astype(np.intp)
    rabs = (r >> np.uint64(9)) & _RABS_MASK
    draws = rabs.astype(np.float64) * wi[idx]
    np.negative(draws, out=draws, where=(r & np.uint64(0x100)).astype(bool))
    return draws, rabs >= _ZIG_KI[idx]


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
    word, and row i's entropy is ``[col[i] for col in entropy]``.  Returns
    the four words as rows: row i's state is column i."""
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
        words = np.empty((4, len(zero)), np.uint64)
        for i in range(4):
            words[i] = (out32[2 * i].astype(np.uint64)
                        | (out32[2 * i + 1].astype(np.uint64)
                           << np.uint64(32)))
        return words
    finally:
        np.seterr(**old)


def _keyed_normals(seeds: list[int], digests: list[int]) -> np.ndarray | None:
    """The ``(K, U)`` matrix of ``default_rng((seed, digest)).
    standard_normal()`` draws for non-negative seeds and uint32 digests, or
    ``None`` when the pinned ``ki`` table or a runtime cross-check
    against ``default_rng`` fail.  Counts the draws whose first try was
    rejected, and so replayed through numpy, as ``faults.draws_replayed``."""
    n_k, n_u = len(seeds), len(digests)
    out = np.empty((n_k, n_u), np.float64)
    if not n_k or not n_u:
        return out
    wi = _numpy_wi()
    if wi is None:
        return None
    groups: dict[int, list[int]] = {}  # seed word count -> rows of seeds
    seed_words = [_uint32_words(s) for s in seeds]
    for k, words in enumerate(seed_words):
        groups.setdefault(len(words), []).append(k)
    bg = np.random.PCG64(0)
    state = bg.state
    inner = state["state"]
    normal = np.random.Generator(bg).standard_normal
    digest_col = np.asarray(digests, np.uint32)
    replayed = 0
    for n_words, rows in groups.items():
        per_seed = np.asarray([seed_words[k] for k in rows], np.uint32)
        entropy = [np.repeat(per_seed[:, j], n_u) for j in range(n_words)]
        entropy.append(np.tile(digest_col, len(rows)))
        words = _seedseq_words(entropy)
        n = words.shape[1]
        flat = np.empty(n, np.float64)
        rejected = np.empty(n, bool)
        for lo in range(0, n, _DRAW_CHUNK):
            hi = lo + _DRAW_CHUNK
            flat[lo:hi], rejected[lo:hi] = _first_try_normals(
                words[:, lo:hi], wi)
        replays = np.flatnonzero(rejected).tolist()
        for i in replays:
            # pcg_setseq_128_srandom: state=0; step; state+=initstate; step
            w0, w1, w2, w3 = words[:, i].tolist()
            inc = (((w2 << 64) | w3) << 1 | 1) & _PCG_MASK
            inner["inc"] = inc
            inner["state"] = ((inc + ((w0 << 64) | w1)) * _PCG_MULT
                              + inc) & _PCG_MASK
            bg.state = state
            flat[i] = normal()
        replayed += len(replays)
        # cross-check the group's first accepted draw and first replayed one
        for i in {int(np.argmin(rejected)), *replays[:1]}:
            ref = np.random.default_rng((seeds[rows[i // n_u]],
                                         digests[i % n_u]))
            if flat[i] != float(ref.standard_normal()):
                return None  # numpy drifted from this reimplementation
        out[rows] = flat.reshape(len(rows), n_u)
    metrics.count("faults.draws_replayed", replayed)
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

    def rows(self, spec: FaultSpec, seeds) -> np.ndarray:
        """The ``(K, n)`` table for ``seeds``.  Counts its keyed draws as
        ``faults.draws_vectorized`` (of which ``faults.draws_replayed`` went
        through a per-draw generator) or, when the fast path's checks fail,
        ``faults.draws_fallback``."""
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

        mat = self.clean * fac[:, self.col_of]
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
