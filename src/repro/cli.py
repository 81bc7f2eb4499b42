"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``models`` — list the model zoo.
* ``summary <model> [--batch N]`` — graph statistics and memory estimate.
* ``optimize <model> [--batch N] [--machine x86|power9]`` — run PoocH and
  print the plan.
* ``run <model> --method pooch|in-core|swap-all|swap-all-naive|superneurons|
  swap-opt|vdnn|recompute-all|checkpoint`` — simulate one iteration and
  report throughput.
* ``timeline <model> [--plan ...] [--policy ...]`` — render the ASCII
  execution timeline.
* ``robustness <model> [--noise-levels ...] [--fault-seed N]
  [--fault-seeds K]`` — sweep seeded fault levels, executing each scenario's
  plan under K fault seeds (lockstep-batched when the spec allows), and
  report P50/P95/P99 makespan, degradation, and OOM/fallback/retry rates.
* ``serve [--port N] [--plan-cache DIR] [--serve-workers N] ...`` — run the
  long-lived planning service (request coalescing, warm plan cache, bounded
  run queue; see ``repro.serve``).
* ``client <submit|status|result|events|stats|health|shutdown>`` — talk to
  a running planning service.

``run`` additionally accepts ``--faults SPEC --fault-seed N`` to execute
under deterministic injected faults (see ``repro.faults``).

Every subcommand accepts the observability flags ``--log-level``,
``--log-json`` and ``--metrics OUT.json`` (see ``repro.obs``); ``optimize``
and ``run`` additionally accept ``--trace TRACE.json`` for a Chrome trace of
the search phases plus the ground-truth timeline.

All commands are offline simulations; nothing touches real hardware.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from typing import Sequence

from repro.baselines import (
    plan_checkpoint,
    plan_incore,
    plan_recompute_all,
    plan_superneurons,
    plan_swap_all,
    plan_swap_all_unscheduled,
    plan_swap_opt,
    plan_vdnn,
)
from repro.common.errors import OutOfMemoryError, ReproError
from repro.common.units import GiB, format_bytes
from repro.faults import FaultInjector, FaultSpec
from repro.hw import MachineSpec, POWER9_V100, X86_V100, multi_gpu
from repro.models import MODEL_ZOO, build_model
from repro.obs import LEVELS, MetricsRegistry, configure_logging, metrics
from repro.pooch import PoocH, PoochConfig
from repro.runtime import (
    Classification,
    ScheduleOptions,
    SwapInPolicy,
    execute,
    images_per_second,
)

_MACHINES: dict[str, MachineSpec] = {"x86": X86_V100, "power9": POWER9_V100}

_SIMPLE_PLANNERS = {
    "in-core": plan_incore,
    "swap-all": plan_swap_all,
    "swap-all-naive": plan_swap_all_unscheduled,
    "superneurons": plan_superneurons,
    "vdnn": plan_vdnn,
    "recompute-all": plan_recompute_all,
    "checkpoint": plan_checkpoint,
}


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (--workers, --budget)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


def _port(text: str) -> int:
    """argparse type for a TCP port (--port; 0 picks a free one)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a port in [0, 65535], got {text!r}") from None
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"expected a port in [0, 65535], got {value}")
    return value


def _positive_seconds(text: str) -> float:
    """argparse type for a positive, finite duration (--timeout)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a positive, finite number of seconds, got {text!r}")
    return value


def _nonneg_int(text: str) -> int:
    """argparse type for values that must be >= 0 (--fault-seed)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}")
    return value


def _injector(args) -> FaultInjector | None:
    """Build the fault injector from --faults/--fault-seed (None when off)."""
    if not getattr(args, "faults", None):
        return None
    spec = FaultSpec.parse(args.faults)
    if not spec.active:
        return None
    return FaultInjector(spec, seed=args.fault_seed)


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--faults", metavar="SPEC",
                   help="inject deterministic faults, e.g. "
                        "'duration_noise=0.1,stall_prob=0.05,oom_prob=0.01' "
                        "(keys: duration_noise profile_noise bandwidth_factor "
                        "stall_prob stall_time oom_prob host_oom_prob "
                        "host_capacity_factor)")
    p.add_argument("--fault-seed", type=_nonneg_int, default=0,
                   help="seed for the fault injector; a fixed seed makes a "
                        "faulted run bit-reproducible")


def _obs_parent() -> argparse.ArgumentParser:
    """Shared observability flags, attached to every subcommand."""
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("observability")
    g.add_argument("--log-level", choices=LEVELS,
                   help="enable structured logging at this level "
                        "(silent by default)")
    g.add_argument("--log-json", action="store_true",
                   help="emit log records as JSON lines (implies logging on)")
    g.add_argument("--metrics", metavar="OUT.json",
                   help="write a RunMetrics JSON document (counters, gauges, "
                        "timers, spans) when the command finishes")
    return p


def _write_trace(args, result, label: str, multi=None) -> None:
    """Write the unified Chrome trace: search-phase spans + the run.

    With a multi-device result, each device contributes its own group of
    stream rows (shifted by stagger and link contention) instead of the
    single-device timeline.
    """
    if not getattr(args, "trace", None):
        return
    from repro.analysis import ChromeTraceBuilder

    builder = ChromeTraceBuilder(label)
    registry = metrics.active()
    if registry is not None and registry.spans:
        builder.add_spans(registry.spans, name="pipeline phases")
    if multi is not None:
        builder.add_multi_device_run(multi, name="ground truth")
    elif result is not None:
        builder.add_run(result, name="ground truth")
    builder.write(args.trace)
    print(f"chrome trace written to {args.trace} "
          "(open at https://ui.perfetto.dev)")


def _machine(args) -> MachineSpec:
    """The selected machine, widened to N data-parallel devices."""
    base = _MACHINES[args.machine]
    devices = getattr(args, "devices", 1)
    if devices > 1:
        return multi_gpu(base, devices)
    return base


def _build(args) -> "NNGraph":  # noqa: F821 - doc reference
    kwargs = {}
    if args.model == "resnext101_3d":
        kwargs["input_size"] = tuple(args.input_size)
    return build_model(args.model, batch=args.batch, **kwargs)


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("model", help="model name (see `models`)")
    p.add_argument("--batch", type=_positive_int, default=32,
                   help="batch size (positive integer)")
    p.add_argument("--input-size", type=_positive_int, nargs=3,
                   default=(16, 112, 112), metavar=("T", "H", "W"),
                   help="3D input size for resnext101_3d "
                        "(three positive integers)")
    p.add_argument("--machine", choices=sorted(_MACHINES), default="x86")


def _add_devices_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--devices", type=_positive_int, default=1,
                   help="number of data-parallel devices sharing the host "
                        "link; >1 enables the staggered multi-device "
                        "planning stage")


def _cmd_models(args) -> int:
    for name in sorted([*MODEL_ZOO, "resnext101_3d"]):
        print(name)
    return 0


def _cmd_summary(args) -> int:
    graph = _build(args)
    machine = _MACHINES[args.machine]
    print(graph.summary())
    need = graph.training_memory_bytes()
    have = machine.usable_gpu_memory
    print(f"training memory estimate: {format_bytes(need)} "
          f"({'fits' if need <= have else 'EXCEEDS'} the "
          f"{machine.name} GPU's {format_bytes(have)})")
    return 0


def _cmd_optimize(args) -> int:
    from repro.runtime import save_plan

    graph = _build(args)
    machine = _machine(args)
    config = PoochConfig(step1_sim_budget=args.budget)
    result = PoocH(machine, config, plan_cache=args.plan_cache).optimize(graph)
    print(result.summary())
    if result.stats.plan_cache_hit:
        print(f"plan reused from cache {args.plan_cache} "
              "(re-verified by simulation)")
    if args.verbose:
        print(result.classification.describe(graph))
    timeline = result.execute()
    print(f"ground-truth iteration: {timeline.makespan * 1e3:.2f} ms "
          f"({images_per_second(timeline, args.batch):.1f} img/s), "
          f"peak GPU memory {timeline.device_peak / GiB:.2f} GiB")
    if result.multi is not None:
        aggregate = (machine.devices * args.batch
                     / result.multi.chosen.makespan)
        print(f"multi-device iteration ({machine.devices} devices, "
              f"staggered): {result.multi.chosen.makespan * 1e3:.2f} ms "
              f"= {aggregate:.1f} img/s aggregate")
    _write_trace(args, timeline, f"{args.model} pooch",
                 multi=result.multi.chosen if result.multi else None)
    if args.save:
        save_plan(args.save, result.classification, graph,
                  machine=machine.name, predicted_time=result.predicted.time)
        print(f"plan written to {args.save}")
    return 0


def _run_resilient(graph, cls, machine, injector, policy=SwapInPolicy.EAGER):
    from repro.faults import execute_resilient

    robust = execute_resilient(graph, cls, machine, faults=injector,
                               options=ScheduleOptions(policy=policy))
    print(robust.describe())
    return robust.result


def _print_multi(machine, mresult, *, staggered: bool) -> None:
    mode = "staggered" if staggered else "synchronized"
    print(f"{machine.devices}-device iteration ({mode}): "
          f"{mresult.makespan * 1e3:.2f} ms "
          f"(link contention {mresult.contention_delay_total * 1e3:.2f} ms, "
          f"allreduce {mresult.allreduce_time * 1e3:.2f} ms overlapped)")


def _cmd_run(args) -> int:
    graph = _build(args)
    machine = _machine(args)
    injector = _injector(args)
    multi = None
    if args.plan:
        from repro.runtime import load_plan

        cls = load_plan(args.plan, graph)
        timeline = (execute(graph, cls, machine) if injector is None
                    else _run_resilient(graph, cls, machine, injector))
        if machine.devices > 1:
            from repro.gpusim import simulate_multi_device

            multi = simulate_multi_device(
                timeline, machine,
                grad_bytes=sum(layer.op.param_bytes for layer in graph))
            _print_multi(machine, multi, staggered=False)
        print(f"saved-plan on {machine.name}: {timeline.makespan * 1e3:.2f} ms "
              f"per iteration = "
              f"{images_per_second(timeline, args.batch):.1f} img/s "
              f"(peak {timeline.device_peak / GiB:.2f} GiB)")
        _write_trace(args, timeline, f"{args.model} saved-plan", multi=multi)
        return 0
    if args.method == "pooch":
        config = PoochConfig(step1_sim_budget=args.budget)
        result = PoocH(machine, config, plan_cache=args.plan_cache,
                       faults=injector).optimize(graph)
        if injector is None:
            timeline = result.execute()
        else:
            robust = result.execute_resilient()
            print(robust.describe())
            timeline = robust.result
        if result.multi is not None:
            multi = result.multi.chosen
            if injector is not None:
                from repro.gpusim import simulate_multi_device

                # the stagger stage ran the clean plan: replay the faulted
                # iteration with the stagger it chose
                multi = simulate_multi_device(
                    timeline, machine, stagger=result.multi.stagger,
                    grad_bytes=result.grad_bytes())
            _print_multi(machine, multi, staggered=any(result.multi.stagger))
    else:
        if args.method == "swap-opt":
            plan = plan_swap_opt(graph, machine)
        else:
            plan = _SIMPLE_PLANNERS[args.method](graph, machine)
        if injector is None:
            timeline = plan.execute(graph, machine)
        else:
            timeline = _run_resilient(graph, plan.classification, machine,
                                      injector, policy=plan.policy)
        if machine.devices > 1:
            from repro.gpusim import simulate_multi_device

            # baselines have no stagger search: show the synchronized cost
            multi = simulate_multi_device(
                timeline, machine,
                grad_bytes=sum(layer.op.param_bytes for layer in graph))
            _print_multi(machine, multi, staggered=False)
    print(f"{args.method} on {machine.name}: {timeline.makespan * 1e3:.2f} ms "
          f"per iteration = {images_per_second(timeline, args.batch):.1f} img/s "
          f"(peak {timeline.device_peak / GiB:.2f} GiB)")
    _write_trace(args, timeline, f"{args.model} {args.method}", multi=multi)
    return 0


def _cmd_robustness(args) -> int:
    from repro.analysis import robustness_report

    graph = _build(args)
    machine = _machine(args)
    specs = None
    if args.faults:
        spec = FaultSpec.parse(args.faults)
        if spec.active:
            specs = [spec]
    report = robustness_report(
        graph, machine,
        specs=specs,
        noise_levels=tuple(args.noise_levels),
        seed=args.fault_seed,
        fault_seeds=args.fault_seeds,
        workers=args.workers,
    )
    print(report.render())
    return 0


def _cmd_serve(args) -> int:
    """Run the planning service until interrupted (or POST /v1/shutdown)."""
    from repro.serve import JobManager, PlannerServer, ServePlanner

    manager = JobManager(
        ServePlanner(plan_cache=args.plan_cache),
        workers=args.serve_workers,
        max_queue=args.queue_depth,
        warm_capacity=args.warm_capacity,
    )
    server = PlannerServer(manager, host=args.host, port=args.port,
                           allow_remote_shutdown=not args.no_remote_shutdown)
    print(f"planning service listening on {server.url} "
          f"(workers={args.serve_workers} queue={args.queue_depth}"
          + (f" plan-cache={args.plan_cache}" if args.plan_cache else "")
          + ")",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("interrupt: shutting down", flush=True)
        server.httpd.server_close()
    finally:
        manager.shutdown()
        manager.publish_metrics()
        stats = manager.stats()
        print("served: " + " ".join(
            f"{k}={v}" for k, v in stats["counters"].items() if v))
    return 0


def _cmd_client(args) -> int:
    """One client action against a running planning service."""
    from repro.serve import PlannerClient, ServeClientError

    client = PlannerClient(args.url, timeout=args.timeout)
    try:
        if args.action == "submit":
            if not args.target:
                print("error: submit needs a model name", file=sys.stderr)
                return 1
            config = {"budget": args.budget}
            doc = client.submit(
                args.target, batch=args.batch, machine=args.machine,
                devices=args.devices, tenant=args.tenant, config=config,
            )
            print(f"job {doc['id']}: {doc['state']}"
                  + (f" (tier {doc['cache_tier']})"
                     if doc.get("cache_tier") else ""))
            if args.wait and doc["state"] not in ("done", "failed"):
                doc = client.wait(doc["id"], timeout=args.timeout)
            if doc["state"] == "done":
                result = doc["result"]
                counts: dict[str, int] = {}
                for cls in result["plan"]["classes"].values():
                    counts[cls] = counts.get(cls, 0) + 1
                print(f"  plan: " + " ".join(
                    f"{k}={v}" for k, v in sorted(counts.items())))
                print(f"  predicted iteration: "
                      f"{result['predicted_time_s'] * 1e3:.3f} ms; "
                      f"tier {result['cache_tier']}"
                      + (f" (coalesced with {result['coalesced_with']})"
                         if result.get("coalesced_with") else ""))
            elif args.wait:
                print(f"  {doc['state']}: {doc.get('error')}")
                return 1
        elif args.action in ("status", "result", "events"):
            if not args.target:
                print(f"error: {args.action} needs a job id", file=sys.stderr)
                return 1
            if args.action == "status":
                print(json.dumps(client.job(args.target), indent=2))
            elif args.action == "result":
                print(json.dumps(client.result(args.target,
                                               timeout=args.timeout), indent=2))
            else:
                for event in client.events(args.target):
                    print(json.dumps(event))
        elif args.action == "stats":
            print(json.dumps(client.stats(), indent=2))
        elif args.action == "health":
            print(json.dumps(client.health()))
        else:  # shutdown
            print(json.dumps(client.shutdown_server()))
    except ServeClientError as e:
        detail = f" (HTTP {e.status})" if e.status else ""
        print(f"error: {e}{detail}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    """Collate generated benchmark result tables into one report."""
    import pathlib

    results = pathlib.Path(args.results_dir)
    files = sorted(results.glob("*.txt"))
    if not files:
        print(f"no results under {results}/ — run "
              "`pytest benchmarks/ --benchmark-only` first", file=sys.stderr)
        return 1
    for f in files:
        print(f.read_text().rstrip())
        print()
    print(f"({len(files)} result tables from {results}/)")
    return 0


def _cmd_timeline(args) -> int:
    from repro.analysis import render_timeline

    graph = _build(args)
    machine = _MACHINES[args.machine]
    cls = {
        "keep": Classification.all_keep,
        "swap": Classification.all_swap,
        "recompute": Classification.all_recompute,
    }[args.plan](graph)
    result = execute(graph, cls, machine, options=ScheduleOptions(
        policy=SwapInPolicy(args.policy)))
    if args.trace:
        from repro.analysis import write_chrome_trace

        write_chrome_trace(result, args.trace, name=f"{args.model} {args.plan}")
        print(f"chrome trace written to {args.trace} "
              "(open at https://ui.perfetto.dev)")
    print(render_timeline(result, width=args.width))
    print(f"iteration {result.makespan * 1e3:.2f} ms, "
          f"peak {result.device_peak / GiB:.2f} GiB")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PoocH reproduction command line"
    )
    obs = _obs_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list available models",
                   parents=[obs]).set_defaults(fn=_cmd_models)

    p = sub.add_parser("summary", help="graph statistics + memory estimate",
                       parents=[obs])
    _add_model_args(p)
    p.set_defaults(fn=_cmd_summary)

    p = sub.add_parser("optimize", help="run PoocH and print the plan",
                       parents=[obs])
    _add_model_args(p)
    _add_devices_arg(p)
    p.add_argument("--budget", type=_positive_int, default=600,
                   help="step-1 simulation budget (positive integer)")
    p.add_argument("--plan-cache", metavar="DIR",
                   help="persistent plan cache directory: reuses a "
                        "previously chosen plan for the same graph, machine "
                        "and config (after re-verifying it by simulation) "
                        "and stores the plan a search chooses otherwise")
    p.add_argument("--verbose", action="store_true",
                   help="print the per-map classification")
    p.add_argument("--save", metavar="PLAN.json",
                   help="write the chosen plan to a JSON file")
    p.add_argument("--trace", metavar="TRACE.json",
                   help="write a chrome://tracing / Perfetto trace of the "
                        "search phases plus the ground-truth timeline")
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("run", help="simulate one iteration of a method",
                       parents=[obs])
    _add_model_args(p)
    _add_devices_arg(p)
    p.add_argument("--method", default="pooch",
                   choices=["pooch", "swap-opt", *sorted(_SIMPLE_PLANNERS)])
    p.add_argument("--budget", type=_positive_int, default=600)
    p.add_argument("--plan-cache", metavar="DIR",
                   help="persistent plan cache directory for --method pooch")
    p.add_argument("--plan", metavar="PLAN.json",
                   help="execute a saved plan instead of --method")
    p.add_argument("--trace", metavar="TRACE.json",
                   help="write a chrome://tracing / Perfetto trace of the "
                        "pipeline phases plus the executed timeline")
    _add_fault_args(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "robustness",
        help="sweep fault levels and report degradation/retries/fallbacks",
        parents=[obs])
    _add_model_args(p)
    _add_devices_arg(p)
    p.add_argument("--noise-levels", type=float, nargs="+",
                   default=[0.02, 0.05, 0.10], metavar="STDDEV",
                   help="noise ladder for the sweep: each level L runs "
                        "duration_noise=L, profile_noise=L and "
                        "stall_prob=L/2, so every rung takes the serial "
                        "path (stalls are not vectorizable); for a "
                        "lockstep-batched sweep pass --faults "
                        "duration_noise=... instead")
    p.add_argument("--fault-seeds", type=_positive_int, default=1,
                   help="number of fault seeds per scenario (seeds "
                        "fault-seed .. fault-seed+N-1); vectorizable specs "
                        "run all seeds in one lockstep batch and the report "
                        "gains P50/P95/P99 plus OOM/fallback/retry rates")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="process-pool fan-out for serial-path fault seeds "
                        "(stall/OOM specs); results are bit-identical to "
                        "--workers 1")
    _add_fault_args(p)
    p.set_defaults(fn=_cmd_robustness)

    p = sub.add_parser(
        "serve",
        help="run the long-lived planning service (coalescing + warm cache)",
        parents=[obs])
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=8477,
                   help="listen port (0 picks a free one; the chosen URL is "
                        "printed on startup)")
    p.add_argument("--plan-cache", metavar="DIR",
                   help="persistent plan cache directory shared with the "
                        "offline CLI and other servers (safe: writes are "
                        "atomic)")
    p.add_argument("--serve-workers", type=_positive_int, default=2,
                   help="search worker threads (each runs one job at a time)")
    p.add_argument("--queue-depth", type=_positive_int, default=16,
                   help="bounded run-queue depth; submissions beyond it are "
                        "rejected with 429")
    p.add_argument("--warm-capacity", type=_positive_int, default=128,
                   help="entries in the in-memory warm response LRU")
    p.add_argument("--no-remote-shutdown", action="store_true",
                   help="disable the POST /v1/shutdown endpoint")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("client", help="talk to a running planning service",
                       parents=[obs])
    p.add_argument("action",
                   choices=["submit", "status", "result", "events",
                            "stats", "health", "shutdown"])
    p.add_argument("target", nargs="?",
                   help="model name (submit) or job id (status/result/"
                        "events)")
    p.add_argument("--url", default="http://127.0.0.1:8477",
                   help="planning service base URL")
    p.add_argument("--tenant", default="default")
    p.add_argument("--batch", type=_positive_int, default=32)
    p.add_argument("--machine", choices=sorted(_MACHINES), default="x86")
    p.add_argument("--devices", type=_positive_int, default=1)
    p.add_argument("--budget", type=_positive_int, default=600,
                   help="step-1 simulation budget for submit")
    p.add_argument("--wait", action="store_true",
                   help="block until the submitted job settles")
    p.add_argument("--timeout", type=_positive_seconds, default=300.0,
                   help="client-side wait/transport timeout, seconds")
    p.set_defaults(fn=_cmd_client)

    p = sub.add_parser("report", help="collate benchmark result tables",
                       parents=[obs])
    p.add_argument("--results-dir", default="benchmarks/results")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("timeline", help="render an execution timeline",
                       parents=[obs])
    _add_model_args(p)
    p.add_argument("--plan", choices=["keep", "swap", "recompute"],
                   default="swap")
    p.add_argument("--policy", choices=[pol.value for pol in SwapInPolicy],
                   default="eager")
    p.add_argument("--width", type=_positive_int, default=100,
                   help="timeline width in characters (positive integer)")
    p.add_argument("--trace", metavar="TRACE.json",
                   help="also write a chrome://tracing / Perfetto trace file")
    p.set_defaults(fn=_cmd_timeline)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    if getattr(args, "log_level", None) or getattr(args, "log_json", False):
        configure_logging(level=args.log_level or "info",
                          json_output=bool(getattr(args, "log_json", False)))
    registry = previous = None
    if getattr(args, "metrics", None) or getattr(args, "trace", None):
        registry = MetricsRegistry()
        # seed the resilience counters so the section reads as an explicit
        # all-clear (zeros) on clean runs, not as missing data
        for name in ("resilience.transfer_retries", "resilience.fallbacks",
                     "resilience.replans", "resilience.spurious_ooms"):
            registry.count(name, 0)
        previous = metrics.set_active(registry)
    try:
        return args.fn(args)
    except OutOfMemoryError as e:
        print(f"OUT OF MEMORY: {e}", file=sys.stderr)
        return 2
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if registry is not None:
            metrics.set_active(previous)
            if getattr(args, "metrics", None):
                meta = {
                    "command": args.command,
                    "model": getattr(args, "model", None),
                    "machine": getattr(args, "machine", None),
                    "devices": getattr(args, "devices", 1),
                    "argv": list(argv) if argv is not None else sys.argv[1:],
                }
                pathlib.Path(args.metrics).write_text(
                    json.dumps(registry.snapshot(meta=meta), indent=2))
                print(f"run metrics written to {args.metrics}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
