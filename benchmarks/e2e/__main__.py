"""Command line: ``run`` the workloads, ``compare`` result documents.

    python -m benchmarks.e2e run [--workload NAME]... [--seed N]
        [--seconds S] [--traced | --trace 1] [--smoke] [--out FILE]
    python -m benchmarks.e2e compare BASE.json NEW.json
    python -m benchmarks.e2e compare --pairs BASE_DIR NEW_DIR

``run`` starts one fresh Python process per workload (the ``child``
subcommand), prints every metric by name with its unit, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics, or with ``--traced`` the per-layer ones.  It exits 1 when a
correctness check fails and 2 when a workload cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from typing import Any

from benchmarks.e2e import hostspeed, report
from benchmarks.e2e.report import ROOT

#: when this process started running Python; set-up time counts from here
_T0 = time.perf_counter()

SCHEMA = "benchmarks.e2e/v1"
#: a run may take 180 s; its children share that
CHILD_TIMEOUT_S = 150
#: fresh processes that only set up, besides the measuring one: ``setup_s``
#: is the median over all three
SETUP_PROBES = 2


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a crashed workload)."""


# -- child: one workload in a fresh process -------------------------------------------


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from an
    installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        raise BenchError(f"imported repro from {repro.__file__}, not {src}")


def _child(args: argparse.Namespace) -> dict[str, Any]:
    _import_repro()
    from benchmarks.e2e import workloads

    # after the imports, so numpy's BLAS threads keep both CPUs
    hostspeed.pin()
    work = ROOT / ".bench_build" / "e2e"
    work.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        w = workloads.make(args.workload, args.seed, args.smoke, tmp)
        try:
            w.setup()
            # set-up as a user pays it: interpreter, imports, inputs
            raw_s = time.perf_counter() - _T0
            setup = {"setup_s": raw_s * hostspeed.REFERENCE_S
                     / hostspeed.probe_s(), "setup_raw_s": raw_s}
            if args.setup_only:
                return setup
            doc = _measure(args, w)
        finally:
            w.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    doc.update(setup)
    return doc


def _measure(args: argparse.Namespace, w) -> dict[str, Any]:
    """Rounds of timed operations for ``--seconds``, then the checks."""
    from repro.obs import metrics

    from benchmarks.e2e import trace, workloads

    tracer = trace.Tracer() if args.traced else None
    registry = (metrics.MetricsRegistry()
                if tracer is not None and w.uses_registry else None)
    #: (traced, op wall, {path: (scaled samples, raw samples)}) per round
    rounds: list[tuple[bool, float, dict[str, tuple[list, list]]]] = []
    # a traced run alternates traced and untraced rounds so it can report
    # its own overhead; it needs one of each
    min_rounds = 2 if tracer is not None else 1
    w.speed = hostspeed.Speed()
    start = time.perf_counter()
    last = 0.0
    # a round starts while at least half of one still fits
    while len(rounds) < min_rounds or (
            not args.smoke
            and time.perf_counter() - start + last / 2 <= args.seconds):
        traced = tracer is not None and len(rounds) % 2 == 0
        w.speed.inside_ops = not traced
        taken = {path: len(samples) for path, samples in w.ms.items()}
        began = time.perf_counter()
        restore = tracer.install() if traced else None
        try:
            with (metrics.use_registry(registry)
                  if traced and registry is not None else nullcontext()):
                wall = w.round(traced)
        finally:
            if restore is not None:
                restore()
        last = time.perf_counter() - began
        rounds.append((traced, wall, {
            path: (w.ms[path][n:], w.raw_ms[path][n:])
            for path, n in taken.items()}))
    w.check()

    plain = [r for r in rounds if not r[0]]

    def path_ms(path: str) -> dict[str, Any]:
        groups = [r[2][path][0] for r in plain]
        return report.summarize([v for g in groups for v in g], groups)

    def raw_ms(path: str) -> float | None:
        raw = [v for r in plain for v in r[2][path][1]]
        return statistics.median(raw) if raw else None

    doc: dict[str, Any] = {
        "workload": w.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "traced": tracer is not None,
        "rounds": len(rounds),
        "attempted": w.attempted,
        "failed": w.failed,
        "correct": not w.problems,
        "problems": w.problems,
        "info": w.info,
        "end_to_end": {
            "fast_path_ms": path_ms("fast"),
            "slow_path_ms": path_ms("slow"),
            # ru_maxrss is KiB on Linux
            "rss_mib": report.summarize(
                [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]),
        },
        # medians as measured, before scaling to reference host speed
        "raw": {"fast_path_ms": raw_ms("fast"), "slow_path_ms": raw_ms("slow")},
        # host speed as a share of reference speed, per probed operation
        "host_speed": report.summarize(w.speed.factors),
    }
    if tracer is not None:
        traced_walls = [r[1] for r in rounds if r[0]]
        overhead = (statistics.median(traced_walls)
                    / statistics.median(r[1] for r in plain) - 1.0) * 100
        doc["per_layer"] = workloads.layer_metrics(
            w, tracer.totals(), registry, len(traced_walls),
            coverage=tracer.top_level_s() / sum(traced_walls),
            overhead_pct=overhead)
        doc["missing_hooks"] = tracer.missing
    return doc


# -- run ---------------------------------------------------------------------------


def _spawn(name: str, args: argparse.Namespace, *extra: str) -> dict[str, Any]:
    cmd = [sys.executable, "-m", "benchmarks.e2e", "child", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"workload {name} ran past {CHILD_TIMEOUT_S} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload {name} exited {proc.returncode}")
    return json.loads(lines[-1])


def _run_workload(name: str, args: argparse.Namespace) -> dict[str, Any]:
    """The measuring child, plus set-up probes unless the run is traced
    (a traced run reports per-layer metrics only)."""
    setups = [] if args.traced else [
        _spawn(name, args, "--setup-only") for _ in range(SETUP_PROBES)]
    doc = _spawn(name, args, *(["--traced"] if args.traced else []))
    setups.append(doc)
    doc["end_to_end"]["setup_s"] = report.summarize(
        [s["setup_s"] for s in setups])
    doc["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    return doc


def _validate(docs: dict[str, dict], bench: dict[str, Any], traced: bool) -> None:
    """Every declared metric, and nothing undeclared, for every workload."""
    for name, doc in docs.items():
        declared = {m["name"] for m in bench["end_to_end"]}
        if set(doc["end_to_end"]) != declared:
            raise BenchError(f"{name}: end-to-end metrics "
                             f"{sorted(doc['end_to_end'])} != {sorted(declared)}")
        if traced:
            declared = {m["name"] for m in bench["per_layer"]}
            if set(doc["per_layer"]) != declared:
                raise BenchError(
                    f"{name}: per-layer metrics differ from BENCHMARK.json: "
                    f"{sorted(set(doc['per_layer']) ^ declared)}")


def _print_table(docs: dict[str, dict], bench: dict[str, Any]) -> None:
    for name, doc in docs.items():
        state = "ok" if doc["correct"] else "INCORRECT"
        print(f"== {name}  ({doc['rounds']} rounds, {doc['attempted']} ops, "
              f"{doc['failed']} failed, {state})")
        for m in bench["end_to_end"]:
            s = doc["end_to_end"][m["name"]]
            tail = (f", p{s['tail']['p']:g} {s['tail']['value']:.6g}"
                    if s.get("tail") else "")
            value = "n/a" if s["value"] is None else f"{s['value']:.6g}"
            q = ("" if s["value"] is None else
                 f"  [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}{tail}, "
                 f"spread {s['spread']:.1%}]")
            print(f"  {m['name']:<34} {value:>12} {m['unit']}{q}")
        raw = ", ".join(f"{k} {v:.6g}" for k, v in doc["raw"].items()
                        if v is not None)
        print(f"  as measured, at host speed {doc['host_speed']['value']:.3g}"
              f" of reference: {raw}")
        for m in bench["per_layer"] if "per_layer" in doc else ():
            print(f"  {m['name']:<34} {doc['per_layer'][m['name']]:>12.6g} "
                  f"{m['unit']}")
        for key, value in doc["info"].items():
            print(f"  info {key}: {value}")
        for problem in doc["problems"]:
            print(f"  PROBLEM: {problem}")
        if doc.get("missing_hooks"):
            print(f"  missing hooks: {', '.join(doc['missing_hooks'])}")


def _result_line(docs: dict[str, dict], bench: dict[str, Any],
                 traced: bool) -> dict[str, Any]:
    metrics: dict[str, Any] = {}
    for name, doc in docs.items():
        prefix = "" if len(docs) == 1 else f"{name}."
        if traced:
            for m in bench["per_layer"]:
                metrics[prefix + m["name"]] = {
                    "value": doc["per_layer"][m["name"]], "unit": m["unit"]}
        else:
            for m in bench["end_to_end"]:
                metrics[prefix + m["name"]] = {
                    "value": doc["end_to_end"][m["name"]]["value"],
                    "unit": m["unit"]}
    return {
        "correct": all(d["correct"] for d in docs.values()),
        "attempted": sum(d["attempted"] for d in docs.values()),
        "failed": sum(d["failed"] for d in docs.values()),
        "metrics": metrics,
    }


def _run(args: argparse.Namespace) -> int:
    bench = report.load_benchmark()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {ROOT / 'src'}")
    known = [w["name"] for w in bench["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise BenchError(f"unknown workloads {unknown}; known: {known}")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    args.traced = args.traced or args.trace == 1
    docs = {name: _run_workload(name, args) for name in names}
    _validate(docs, bench, args.traced)
    _print_table(docs, bench)
    result = _result_line(docs, bench, args.traced)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "schema": SCHEMA, "env": report.environment(), "seed": args.seed,
            "seconds": args.seconds, "traced": args.traced,
            "smoke": args.smoke, "workloads": docs}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- compare -----------------------------------------------------------------------


def _compare(args: argparse.Namespace) -> int:
    bench = report.load_benchmark()
    if args.pairs:
        bases = [json.loads(p.read_text())
                 for p in sorted(Path(args.base).glob("*.json"))]
        news = [json.loads(p.read_text())
                for p in sorted(Path(args.new).glob("*.json"))]
        if not bases or len(bases) != len(news):
            raise BenchError(f"--pairs needs equal, non-zero numbers of "
                             f"documents, got {len(bases)} and {len(news)}")
        if len(bases) < 10:
            print(f"warning: {len(bases)} pairs; a gain needs at least 10",
                  file=sys.stderr)
        warnings = report.env_warnings(bases[0], news[0])
        rows = report.compare_pairs(bases, news, bench)
    else:
        base = json.loads(Path(args.base).read_text())
        new = json.loads(Path(args.new).read_text())
        warnings = report.env_warnings(base, new)
        rows = report.compare_docs(base, new, bench)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(report.format_rows(rows))
    return 1 if any(v == "worse" for _, _, v, _ in rows) else 0


# -- entry ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append",
                     help="workload name (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=int, default=None,
                     help="timed phase per workload (default: run_seconds "
                          "from BENCHMARK.json)")
    run.add_argument("--traced", action="store_true",
                     help="report per-layer metrics (separate traced run)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1 is the same as --traced")
    run.add_argument("--smoke", action="store_true",
                     help="toy sizes and one round, for tests")
    run.add_argument("--out", help="write the result document here")

    cmp_ = sub.add_parser("compare", help="verdicts between result documents")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    cmp_.add_argument("--pairs", action="store_true",
                      help="BASE and NEW are directories of alternated runs")

    child = sub.add_parser("child", help="(internal) one workload, JSON out")
    child.add_argument("workload")
    child.add_argument("--seed", type=int, default=0)
    child.add_argument("--seconds", type=int, default=20)
    child.add_argument("--traced", action="store_true")
    child.add_argument("--smoke", action="store_true")
    child.add_argument("--setup-only", action="store_true",
                       help="report set-up time only")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.cmd == "child":
            # stdout carries exactly one line, the workload's document
            with redirect_stdout(sys.stderr):
                doc = _child(args)
            print(json.dumps(doc))
            return 0
        if args.cmd == "compare":
            return _compare(args)
        return _run(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
