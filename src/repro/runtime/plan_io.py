"""Classification (de)serialization: optimize once, run anywhere.

Plans are stored as JSON with enough provenance (graph name, map count,
machine, predicted time) to catch mismatched reuse early — loading a plan
against a structurally different graph fails loudly instead of producing a
silently wrong schedule.  This is also the vehicle for the paper's
plan-portability experiment in tool form: save the POWER9 plan, load it on
the x86 machine, watch it underperform.

:class:`PlanCache` layers a directory-backed store on top: chosen plans
keyed by (graph signature, machine signature, search-config signature), and
predictor simulation outcomes keyed additionally by classification — so
repeated optimizations (PoocH across runs, DynamicPoocH across sizes) can
warm-start instead of re-searching from scratch.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import threading
from collections import OrderedDict
from typing import Any, TYPE_CHECKING

from repro.common.errors import ScheduleError
from repro.graph import NNGraph
from repro.runtime.plan import Classification, MapClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw import MachineSpec
    from repro.runtime.profiler import Profile

FORMAT_VERSION = 1


def graph_signature(graph: NNGraph) -> str:
    """Structural identity of a graph: layers, ops, shapes, wiring.

    Two graphs with the same signature build identical schedules for a given
    classification — the property plan/outcome reuse rests on.  Deliberately
    *excludes* the graph name, so e.g. a renamed but structurally unchanged
    model still hits the cache.

    The digest is memoized on the graph instance: graphs are immutable after
    construction, and :meth:`NNGraph.validate` — the only sanctioned way to
    re-check a mutated layer list — drops the memo along with the liveness
    caches.  Signature-keyed lookups (PlanCache, the serve coalescer) are
    therefore O(1) after the first computation.
    """
    cached = graph.__dict__.get("_graph_signature")
    if cached is not None:
        return cached
    h = hashlib.sha256()
    for layer in graph:
        op = layer.op
        h.update(
            (
                f"{layer.index};{op.kind.value};{op.fwd_flops!r};"
                f"{op.bwd_flops!r};{op.fwd_bytes!r};{op.bwd_bytes!r};"
                f"{op.param_bytes};{op.workspace_bytes};"
                f"{int(op.bwd_needs_input)}{int(op.bwd_needs_output)};"
                f"{op.fused_activation};{layer.out_spec.nbytes};"
                f"{','.join(map(str, layer.preds))}\n"
            ).encode()
        )
    sig = h.hexdigest()[:32]
    graph.__dict__["_graph_signature"] = sig
    return sig


@functools.lru_cache(maxsize=256)
def machine_signature(machine: "MachineSpec") -> str:
    """Identity of every machine field the simulations depend on.

    ``MachineSpec`` is a frozen dataclass, so the result is memoized per
    spec — a server sharing one cache across thousands of lookups formats
    the string once.
    """
    sig = (
        f"{machine.name};gpu={machine.usable_gpu_memory};"
        f"cpu={machine.cpu_mem_capacity};flops={machine.gpu_peak_flops!r};"
        f"membw={machine.gpu_mem_bandwidth!r};h2d={machine.h2d_bandwidth!r};"
        f"d2h={machine.d2h_bandwidth!r};lat={machine.copy_latency!r}"
    )
    if machine.devices != 1:
        # devices shrink the per-device host share and add link contention;
        # single-device signatures stay byte-identical to the v1 format so
        # existing plan caches remain valid
        sig += f";dev={machine.devices}"
    return sig


def profile_signature(profile: "Profile") -> str:
    """Content hash of the profiled durations — simulation outcomes are a
    pure function of (graph, machine capacities, these numbers)."""
    h = hashlib.sha256()
    for table in (profile.fwd, profile.bwd, profile.swap_out, profile.swap_in):
        for k in sorted(table):
            h.update(f"{k}:{table[k]!r};".encode())
        h.update(b"|")
    h.update(f"upd:{profile.update_time!r}".encode())
    return h.hexdigest()[:32]


def plan_to_dict(
    classification: Classification,
    graph: NNGraph,
    *,
    machine: str = "",
    predicted_time: float | None = None,
) -> dict[str, Any]:
    """JSON-ready dict with provenance."""
    return {
        "format_version": FORMAT_VERSION,
        "graph_name": graph.name,
        "n_layers": len(graph),
        "classifiable_maps": len(graph.classifiable_maps()),
        "machine": machine,
        "predicted_time_s": predicted_time,
        "classes": {
            str(i): cls.value for i, cls in sorted(classification.classes.items())
        },
    }


def plan_from_dict(data: dict[str, Any], graph: NNGraph) -> Classification:
    """Rebuild and validate a classification against ``graph``."""
    if not isinstance(data, dict):
        raise ScheduleError(
            f"malformed plan file: expected a JSON object, got {data!r:.80}")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ScheduleError(f"unsupported plan format version {version!r}")
    if data.get("n_layers") != len(graph):
        raise ScheduleError(
            f"plan was made for a {data.get('n_layers')}-layer graph "
            f"({data.get('graph_name')!r}); this graph has {len(graph)} layers"
        )
    n_maps = len(graph.classifiable_maps())
    stored_maps = data.get("classifiable_maps")
    if stored_maps is not None and stored_maps != n_maps:
        # catches e.g. a fuse_activations mismatch, where the layer count is
        # identical but the set of classifiable maps is not
        raise ScheduleError(
            f"plan was made for a graph with {stored_maps} classifiable maps "
            f"({data.get('graph_name')!r}); this graph has {n_maps}"
        )
    if "classes" not in data:
        raise ScheduleError("malformed plan file: no 'classes' mapping")
    raw = data["classes"]
    if not isinstance(raw, dict):
        raise ScheduleError(
            f"malformed plan file: 'classes' must be a mapping of map id to "
            f"class, got {raw!r:.80}")
    try:
        classes = {int(i): MapClass(value) for i, value in raw.items()}
    except (TypeError, ValueError) as e:
        raise ScheduleError(f"malformed plan file: {e}") from e
    classification = Classification(classes)
    classification.validate(graph)
    return classification


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` without ever exposing a torn file.

    A concurrent reader (a second optimize process, or another thread of the
    planning server sharing one cache directory) must see either the old
    complete document or the new complete document — never a prefix.  POSIX
    ``os.replace`` of a same-directory temp file gives exactly that; the
    temp name carries pid and thread id so concurrent writers never collide
    on it.
    """
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        # a failed replace (or an exception between the two calls) must not
        # litter the cache directory with partial temp files
        if tmp.exists():  # pragma: no cover - only reachable on errors
            try:
                tmp.unlink()
            except OSError:
                pass


def save_plan(
    path: str | pathlib.Path,
    classification: Classification,
    graph: NNGraph,
    *,
    machine: str = "",
    predicted_time: float | None = None,
) -> None:
    """Write a plan JSON file (atomically — see :func:`_atomic_write_text`)."""
    payload = plan_to_dict(classification, graph, machine=machine,
                           predicted_time=predicted_time)
    _atomic_write_text(pathlib.Path(path), json.dumps(payload, indent=2) + "\n")


def load_plan(path: str | pathlib.Path, graph: NNGraph) -> Classification:
    """Read and validate a plan JSON file against ``graph``."""
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ScheduleError(f"cannot read plan file {path}: {e}") from e
    return plan_from_dict(data, graph)


# -- persistent plan / simulation-outcome cache -----------------------------------

#: serialized form of Classification.key(): "0:swap,1:keep,..."
def key_to_str(key: tuple[tuple[int, str], ...]) -> str:
    return ",".join(f"{i}:{v}" for i, v in key)


def key_from_str(s: str) -> tuple[tuple[int, str], ...]:
    if not s:
        return ()
    return tuple(map(_key_pair, s.split(",")))


@functools.lru_cache(maxsize=8192)
def _key_pair(part: str) -> tuple[int, str]:
    """One ``map:class`` pair, shared by every key that holds it: an outcome
    store holds hundreds of keys over the same few hundred pairs."""
    i, _, v = part.partition(":")
    return int(i), v


class PlanCache:
    """Directory-backed cache of search results, shareable across runs.

    Two stores under ``root``:

    * ``plans/`` — the chosen classification per (graph signature, machine
      signature, caller-supplied config signature).  Callers are expected to
      re-verify a loaded plan by simulation before trusting it (the
      simulate-before-running discipline); the cache only guarantees the
      plan was chosen for a structurally identical problem.
    * ``outcomes/`` — predictor simulation outcomes per (graph signature,
      machine signature, caller-supplied simulation signature), keyed by
      classification.  Entries are plain dicts mirroring
      ``PredictedOutcome`` fields; merging is last-writer-wins per
      classification (outcomes are deterministic, so writers agree).

    File names are content-hashed from the key signatures; each file also
    records the full signatures and is ignored on mismatch, so a hash
    collision degrades to a cache miss, never a wrong plan.

    With ``lru_capacity > 0`` a bounded in-memory LRU sits in front of the
    directory: plan hits return the already-deserialized
    :class:`Classification` (no file read, no JSON parse, no re-validation)
    and outcome hits return the parsed entry dict.  Stores write through, so
    the memo never serves anything the directory does not also hold.  All
    LRU state is lock-guarded — the planning server shares one ``PlanCache``
    across its worker threads.  Entries are keyed by the *full* signature
    triple (not the truncated file digest), so a digest collision still
    cannot alias two problems in memory.
    """

    def __init__(self, root: str | pathlib.Path, *, lru_capacity: int = 0) -> None:
        self.root = pathlib.Path(root)
        try:
            (self.root / "plans").mkdir(parents=True, exist_ok=True)
            (self.root / "outcomes").mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ScheduleError(
                f"cannot create plan cache directory at {self.root}: {e}"
            ) from e
        self.lru_capacity = lru_capacity
        self._lock = threading.Lock()
        #: (kind, *signatures) -> cached value; ordered oldest-first
        self._lru: OrderedDict[tuple, Any] = OrderedDict()
        #: tier accounting for the serve benchmark / stats endpoint
        self.lru_hits = 0
        self.disk_hits = 0
        self.misses = 0

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _digest(*parts: str) -> str:
        return hashlib.sha256(";;".join(parts).encode()).hexdigest()[:24]

    def _read(self, path: pathlib.Path, signatures: dict[str, str]) -> dict | None:
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None  # unreadable cache entries are misses, not errors
        if not isinstance(data, dict):
            return None
        for field, expect in signatures.items():
            if data.get(field) != expect:
                return None
        return data

    def _lru_get(self, key: tuple) -> Any | None:
        if not self.lru_capacity:
            return None
        with self._lock:
            try:
                value = self._lru.pop(key)
            except KeyError:
                return None
            self._lru[key] = value  # re-insert as most recent
            self.lru_hits += 1
            return value

    def _lru_put(self, key: tuple, value: Any) -> None:
        if not self.lru_capacity:
            return
        with self._lock:
            self._lru.pop(key, None)
            self._lru[key] = value
            while len(self._lru) > self.lru_capacity:
                self._lru.popitem(last=False)

    # -- plans -------------------------------------------------------------------

    def plan_path(self, graph: NNGraph, machine: "MachineSpec",
                  config_signature: str) -> pathlib.Path:
        digest = self._digest(graph_signature(graph),
                              machine_signature(machine), config_signature)
        return self.root / "plans" / f"{digest}.json"

    def load_plan(
        self, graph: NNGraph, machine: "MachineSpec", config_signature: str
    ) -> tuple[Classification, dict[str, Any]] | None:
        """The cached plan and its provenance dict, or ``None`` on miss."""
        gsig, msig = graph_signature(graph), machine_signature(machine)
        key = ("plan", gsig, msig, config_signature)
        cached = self._lru_get(key)
        if cached is not None:
            classification, data = cached
            return classification, dict(data)
        data = self._read(
            self.root / "plans" / f"{self._digest(gsig, msig, config_signature)}.json",
            {
                "graph_signature": gsig,
                "machine_signature": msig,
                "config_signature": config_signature,
            },
        )
        if data is None:
            with self._lock:
                self.misses += 1
            return None
        classification = plan_from_dict(data, graph)
        with self._lock:
            self.disk_hits += 1
        self._lru_put(key, (classification, data))
        return classification, dict(data)

    def store_plan(
        self,
        graph: NNGraph,
        machine: "MachineSpec",
        config_signature: str,
        classification: Classification,
        *,
        predicted_time: float | None = None,
        extra: dict[str, Any] | None = None,
    ) -> pathlib.Path:
        gsig, msig = graph_signature(graph), machine_signature(machine)
        payload = plan_to_dict(classification, graph, machine=machine.name,
                               predicted_time=predicted_time)
        payload["graph_signature"] = gsig
        payload["machine_signature"] = msig
        payload["config_signature"] = config_signature
        if extra:
            payload.update(extra)
        path = self.root / "plans" / f"{self._digest(gsig, msig, config_signature)}.json"
        _atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
        self._lru_put(("plan", gsig, msig, config_signature),
                      (classification, payload))
        return path

    # -- simulation outcomes -----------------------------------------------------

    def outcomes_path(self, graph: NNGraph, machine: "MachineSpec",
                      sim_signature: str) -> pathlib.Path:
        digest = self._digest(graph_signature(graph),
                              machine_signature(machine), sim_signature)
        return self.root / "outcomes" / f"{digest}.json"

    def load_outcomes(
        self, graph: NNGraph, machine: "MachineSpec", sim_signature: str
    ) -> dict[tuple[tuple[int, str], ...], dict[str, Any]]:
        """Cached simulation outcomes by classification key (empty on miss).

        Returns a fresh outer dict on every call (LRU hits included), so
        callers may merge into the result without corrupting the memo.
        """
        gsig, msig = graph_signature(graph), machine_signature(machine)
        key = ("outcomes", gsig, msig, sim_signature)
        cached = self._lru_get(key)
        if cached is not None:
            return dict(cached)
        data = self._read(
            self.root / "outcomes" / f"{self._digest(gsig, msig, sim_signature)}.json",
            {
                "graph_signature": gsig,
                "machine_signature": msig,
                "sim_signature": sim_signature,
            },
        )
        if data is None:
            return {}
        entries = {key_from_str(k): v for k, v in data.get("entries", {}).items()}
        self._lru_put(key, entries)
        return dict(entries)

    def merge_outcomes(
        self,
        graph: NNGraph,
        machine: "MachineSpec",
        sim_signature: str,
        entries: dict[tuple[tuple[int, str], ...], dict[str, Any]],
    ) -> int:
        """Union ``entries`` into the store; returns the total entry count."""
        gsig, msig = graph_signature(graph), machine_signature(machine)
        existing = self.load_outcomes(graph, machine, sim_signature)
        existing.update(entries)
        payload = {
            "format_version": FORMAT_VERSION,
            "graph_signature": gsig,
            "machine_signature": msig,
            "sim_signature": sim_signature,
            "entries": {key_to_str(k): v for k, v in existing.items()},
        }
        path = self.root / "outcomes" / f"{self._digest(gsig, msig, sim_signature)}.json"
        _atomic_write_text(path, json.dumps(payload) + "\n")
        self._lru_put(("outcomes", gsig, msig, sim_signature), existing)
        return len(existing)
