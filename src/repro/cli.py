"""Command-line interface: ``repro-factory`` / ``python -m repro``.

Subcommands
-----------
``model``     emit the generated ICE-lab SysML v2 model (textual notation)
``validate``  parse + validate a .sysml file (or the built-in ICE lab)
``generate``  run the two-step configuration pipeline, optionally writing
              all JSON/YAML files to a directory; ``--trace`` prints the
              span tree, ``--trace=FILE`` writes the trace JSON
``trace``     run the full front end + generation with telemetry on and
              report the span tree (or JSON) plus process metrics
``simulate``  predict how the configured factory behaves: run seeded
              what-if scenarios (rush orders, machine slowdowns,
              workcell outages) through the discrete-event scenario
              engine and print the briefing — byte-identical output
              for a seed
``plan``      emit the third codegen backend: a PDDL operations-planning
              domain (machine capabilities as actions) plus per-workload
              problem files, solved by the deterministic from-scratch
              planner and replayed on the behavioural simulators —
              byte-identical emission for a seed, whatever ``--jobs``
``serve``     run the configuration service: a concurrent HTTP front end
              over the pipeline with single-flight dedup, admission
              control and graceful drain on SIGTERM
``watch``     watch .sysml files and incrementally regenerate on each
              edit: only dirty model subtrees re-elaborate, only
              changed output files are rewritten, and ``--deploy``
              rolls the regenerated manifests onto a simulated cluster
``deploy``    run the full Figure-1 flow on the simulated cluster and
              print the smoke report
``conformance``  run differential conformance trials over a seeded
              model corpus: every oracle on every seed, failures
              shrunk to minimal reproducers in the crash corpus
``table1``    print the reproduced Table I
``figures``   print the regenerated Figure 1 / Figure 2 renderings
``compare``   run the SysML v1-vs-v2 baseline comparison
"""

from __future__ import annotations

import argparse
import sys


def _cmd_model(args) -> int:
    from .icelab import icelab_model_text
    text = icelab_model_text()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {len(text)} bytes to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args) -> int:
    import json as _json

    from .sysml import validate_model
    from .sysml.errors import SysMLError
    try:
        model = _load_input(args)
    except SysMLError as exc:
        if args.json:
            print(_json.dumps({
                "ok": False,
                "errors": 1,
                "warnings": 0,
                "front_end_error": {
                    "message": exc.message,
                    "location": str(exc.location),
                    "kind": type(exc).__name__,
                },
                "diagnostics": [],
            }, indent=2))
        else:
            print(f"FRONT-END ERROR: {exc}")
        return 1
    report = validate_model(model)
    if args.json:
        print(report.to_json())
    else:
        print(report if len(report) else "model is well-formed")
    return 0 if report.ok else 1


def _load_input(args, cache=None):
    """The model of FILE (``.sysml`` text, or the ``.json`` that
    ``convert`` writes), else the built-in ICE lab. A JSON model has
    no source fingerprint, so the *cache* layers keyed on one (parse
    trees, topology, whole result) do not apply to it."""
    from .sysml import load_model, load_model_file
    if args.file:
        return load_model_file(args.file, cache=cache)
    from .icelab import icelab_sources
    return load_model(*icelab_sources(), cache=cache)


def _open_cache(directory, args):
    """The ArtifactCache at *directory*, bounded by --cache-max-bytes."""
    from .cache import DEFAULT_CACHE_MAX_BYTES, ArtifactCache
    max_bytes = getattr(args, "cache_max_bytes", None)
    return ArtifactCache(directory, DEFAULT_CACHE_MAX_BYTES
                         if max_bytes is None else max_bytes)


def _resolve_cache(args):
    """The ArtifactCache requested via --cache/--cache-dir, or None."""
    from .cache import default_cache_dir
    directory = args.cache_dir
    if directory is None and getattr(args, "cache", False):
        directory = default_cache_dir()
    if directory is None:
        return None
    return _open_cache(directory, args)


def _pipeline_options(args):
    """``PipelineOptions`` for --capacity/--namespace."""
    from .codegen import PipelineOptions
    return PipelineOptions(capacity=args.capacity, namespace=args.namespace)


def _add_perf_arguments(parser) -> None:
    parser.add_argument(
        "--cache", action="store_true",
        help="cache artifacts under $REPRO_CACHE_DIR "
             "(default ~/.cache/repro-factory)")
    parser.add_argument("--cache-dir", metavar="PATH",
                        help="cache artifacts under PATH")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        metavar="N", help="LRU size bound of the cache")


def _cmd_generate(args) -> int:
    from contextlib import nullcontext

    from .codegen import generate_configuration
    from .icelab import icelab_sources
    from .obs import Tracer
    from .sysml import load_model
    tracer = Tracer() if args.trace is not None else None
    cache = _resolve_cache(args)
    options = _pipeline_options(args)
    with tracer.activate() if tracer else nullcontext():
        model = load_model(*icelab_sources(), cache=cache)
        result = generate_configuration(model, options, cache=cache)
    for key, value in result.summary().items():
        print(f"{key:>20}: {value}")
    for group in result.groups:
        flag = " (oversized)" if group.oversized else ""
        print(f"  {group.name}: {', '.join(group.machine_names)} "
              f"[{group.points} pts]{flag}")
    if args.out:
        written = result.write_to(args.out)
        print(f"wrote {len(written)} files under {args.out}")
    if tracer is not None:
        trace = tracer.trace()
        if args.trace == "-":
            print()
            print("=== pipeline trace ===")
            print(trace.render())
        else:
            with open(args.trace, "w") as handle:
                handle.write(trace.to_json() + "\n")
            print(f"wrote trace JSON to {args.trace}")
    return 0


def _cmd_trace(args) -> int:
    """Run the full flow (parse -> ... -> step2) with telemetry on."""
    import json as _json

    from .codegen import generate_configuration
    from .obs import METRICS, Tracer
    from .sysml.errors import SysMLError

    cache = _resolve_cache(args)
    tracer = Tracer()
    try:
        with tracer.activate():
            model = _load_input(args, cache)
            result = generate_configuration(
                model, _pipeline_options(args), cache=cache)
    except SysMLError as exc:
        print(f"ERROR: {exc}")
        return 1
    trace = tracer.trace()
    if args.json:
        document = trace.to_dict()
        document["result"] = result.summary()
        text = _json.dumps(document, indent=2, default=str)
    else:
        lines = ["=== pipeline trace ===", trace.render(), "",
                 "=== phases ==="]
        for name, seconds in trace.phase_seconds().items():
            lines.append(f"{name:>12}: {seconds * 1e3:9.2f}ms")
        snapshot = METRICS.snapshot()
        cache_counters = {name: value
                          for name, value in snapshot.items()
                          if name.startswith("cache.")}
        lines += ["", "=== cache ==="]
        if cache_counters:
            for name, value in cache_counters.items():
                lines.append(f"{name:>20}: {value}")
        else:
            lines.append("(no cache activity)")
        lines += ["", "=== metrics ===", METRICS.to_json()]
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(text)} bytes to {args.out}")
    else:
        print(text)
    return 0


def _cmd_simulate(args) -> int:
    """Simulate seeded what-if scenarios for the configured factory."""
    from contextlib import nullcontext

    from .isa95 import extract_topology
    from .obs import Tracer
    from .sim import SCENARIOS, WorkloadError, simulate_suite
    from .sysml.errors import SysMLError

    names = tuple(name.strip() for name in args.scenarios.split(",")
                  if name.strip())
    unknown = sorted(set(names) - set(SCENARIOS))
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}; "
              f"known: {', '.join(sorted(SCENARIOS))}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    try:
        with tracer.activate() if tracer else nullcontext():
            topology = extract_topology(_load_input(args))
            briefing = simulate_suite(
                topology, seed=args.seed, names=names,
                policy=args.policy, base_jobs=args.base_jobs)
    except SysMLError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(briefing.to_json())
        print(f"wrote briefing to {args.out}")
    if args.json:
        sys.stdout.write(briefing.to_json())
    else:
        print(briefing.render())
        print(f"digest {briefing.digest}")
    if tracer is not None:
        # wall-clock timings are opt-in: the default output above is
        # deterministic for a seed, a trace never is
        print("\n=== phases ===")
        for name, seconds in tracer.trace().phase_seconds().items():
            print(f"{name:>12}: {seconds * 1e3:9.2f}ms")
    return 0


def _cmd_plan(args) -> int:
    """Emit PDDL + plan operations for the configured factory."""
    import json as _json
    from contextlib import nullcontext

    from .isa95 import extract_topology
    from .obs import Tracer
    from .planning import PlanningError, PlanningOptions, plan_operations
    from .sysml.errors import SysMLError

    try:
        options = PlanningOptions(
            seed=args.seed, problems=args.problems, orders=args.orders,
            strategy=args.strategy, planner_seed=args.planner_seed,
            validate=not args.no_validate, jobs=args.jobs)
    except PlanningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = _resolve_cache(args)
    tracer = Tracer() if args.trace else None
    try:
        with tracer.activate() if tracer else nullcontext():
            model = _load_input(args, cache)
            topology = extract_topology(model)
            result = plan_operations(
                topology, options,
                model_fingerprint=model.content_fingerprint, cache=cache)
    except SysMLError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    except PlanningError as exc:
        print(f"PLANNING ERROR: {exc}", file=sys.stderr)
        return 1
    if args.json:
        document = result.summary()
        document["problems_detail"] = [
            {"name": problem.name, "parts": problem.parts,
             "steps": problem.steps, "cost": problem.cost,
             "expanded": problem.expanded,
             "workload_fingerprint": problem.workload_fingerprint,
             "validation": (problem.validation.to_dict()
                            if problem.validation else None)}
            for problem in result.problems]
        document["digest"] = result.digest
        print(_json.dumps(document, indent=2))
    else:
        for key, value in result.summary().items():
            print(f"{key:>16}: {value}")
        for problem in result.problems:
            verdict = ("n/a" if problem.validation is None
                       else "valid" if problem.validation.ok
                       else "INVALID")
            print(f"  {problem.name}: {problem.parts} part(s), "
                  f"{problem.steps} step(s) -> plan cost {problem.cost} "
                  f"({problem.expanded} expanded) [{verdict}]")
            if problem.validation and not problem.validation.ok:
                for line in problem.validation.problems:
                    print(f"    ! {line}")
        print(f"digest {result.digest}")
    if args.out:
        written = result.write_to(args.out)
        print(f"wrote {len(written)} files under {args.out}")
    if tracer is not None:
        print("\n=== phases ===")
        for name, seconds in tracer.trace().phase_seconds().items():
            print(f"{name:>12}: {seconds * 1e3:9.2f}ms")
    if not result.all_valid:
        return 1
    return 0


def _cmd_serve(args) -> int:
    """Run the concurrent configuration service until SIGTERM/SIGINT."""
    import json as _json
    import signal
    import threading

    from .service import ConfigurationService, ServiceHTTPServer

    if args.workers > 0:
        return _cmd_serve_sharded(args)
    cache = _resolve_cache(args)
    service = ConfigurationService(
        _pipeline_options(args), cache=cache, max_inflight=args.max_inflight,
        policy=args.backpressure, block_deadline=args.block_deadline,
        rate=args.rate, drain_deadline=args.drain_deadline)
    server = ServiceHTTPServer((args.host, args.port), service)
    if args.port_file:
        with open(args.port_file, "w") as handle:
            handle.write(f"{server.port}\n")
    print(f"serving on http://{args.host}:{server.port} "
          f"(policy={args.backpressure}, max-inflight={args.max_inflight},"
          f" cache={'on' if cache else 'off'})",
          flush=True)

    def _graceful(signum, frame):
        # shutdown() must come from outside serve_forever's thread
        threading.Thread(target=server.drain_and_shutdown,
                         name="drain", daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    report = service.lifecycle.last_drain
    if report is None:  # serve_forever ended without a drain signal
        report = service.drain()
    print(f"drained: completed={report.completed} "
          f"waited={report.waited_seconds:.2f}s "
          f"remaining={report.remaining}", flush=True)
    if args.drain_report_file:
        with open(args.drain_report_file, "w") as handle:
            handle.write(_json.dumps(report.summary()) + "\n")
    snapshot = service.final_metrics or {}
    for name in ("service.requests", "service.responses",
                 "service.pipeline_executions",
                 "service.singleflight.followers", "service.memo_hits"):
        if name in snapshot:
            print(f"{name:>36}: {snapshot[name]}")
    return 0 if report.completed else 1


def _cmd_serve_sharded(args) -> int:
    """Run the sharded tier: N worker processes behind the router."""
    import json as _json
    import signal
    import tempfile
    import threading

    from .service import RouterHTTPServer, RouterService, WorkerProcess

    cache = _resolve_cache(args)
    if cache is None:
        # workers are separate processes; a shared content-addressed
        # store is what lets one shard's artifacts serve another after
        # a re-shard, so the sharded tier always runs with a cache
        from .cache import default_cache_dir
        cache = _open_cache(default_cache_dir(), args)
    serve_args = [
        "--capacity", str(args.capacity),
        "--namespace", args.namespace,
        "--max-inflight", str(args.max_inflight),
        "--backpressure", args.backpressure,
        "--block-deadline", str(args.block_deadline),
        "--rate", str(args.rate),
        "--drain-deadline", str(args.drain_deadline),
        "--cache-dir", str(cache.directory),
    ]
    if args.cache_max_bytes is not None:
        serve_args += ["--cache-max-bytes", str(args.cache_max_bytes)]
    options = _pipeline_options(args)
    workdir = tempfile.mkdtemp(prefix="repro-shards-")
    workers = [WorkerProcess(f"worker{i}", host=args.host,
                             serve_args=serve_args, workdir=workdir)
               for i in range(args.workers)]
    exit_code = 1
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.wait_ready()
        router = RouterService(workers, options)
        server = RouterHTTPServer((args.host, args.port), router)
        router.start_probes()
        if args.port_file:
            with open(args.port_file, "w") as handle:
                handle.write(f"{server.port}\n")
        print(f"routing on http://{args.host}:{server.port} over "
              f"{len(workers)} worker(s): "
              + ", ".join(f"{w.name}={w.port}" for w in workers)
              + f" (cache={cache.directory})", flush=True)

        def _graceful(signum, frame):
            # shutdown() must come from outside serve_forever's thread
            threading.Thread(
                target=server.drain_and_shutdown,
                args=(args.drain_deadline,), name="drain",
                daemon=True).start()

        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
        try:
            server.serve_forever(poll_interval=0.1)
        finally:
            server.server_close()
        report = router.lifecycle.last_drain
        if report is None:  # no drain signal: drain the topology now
            topology = router.drain(args.drain_deadline)
        else:
            # _graceful already drained router + workers; rebuild the
            # topology view from the workers' report files
            from .service import TopologyDrainReport
            topology = TopologyDrainReport(
                router=report,
                workers={worker.name: worker.drain(args.drain_deadline)
                         for worker in workers})
        print(f"drained: completed={topology.completed} "
              f"router_remaining={topology.router.remaining}",
              flush=True)
        for name, worker_report in sorted(topology.workers.items()):
            if worker_report is None:
                print(f"  {name}: NO REPORT (crashed or killed)",
                      flush=True)
            else:
                print(f"  {name}: completed={worker_report.completed} "
                      f"waited={worker_report.waited_seconds:.2f}s "
                      f"remaining={worker_report.remaining}", flush=True)
        if args.drain_report_file:
            with open(args.drain_report_file, "w") as handle:
                handle.write(_json.dumps(topology.summary()) + "\n")
        exit_code = 0 if topology.completed else 1
    finally:
        for worker in workers:
            worker.close()
    return exit_code


def _cmd_watch(args) -> int:
    """Watch .sysml files; re-elaborate dirty subtrees on each edit."""
    from .watch import WatchSession

    cache = _resolve_cache(args)
    cluster = None
    if args.deploy:
        from .k8s import Cluster
        cluster = Cluster()
    session = WatchSession(args.files, options=_pipeline_options(args),
                           cache=cache, out_dir=args.out, cluster=cluster,
                           interval=args.interval)

    def report(event) -> None:
        if not event.ok:
            print(f"[{event.iteration}] BROKEN MODEL (keeping previous "
                  f"generation): {event.error}", flush=True)
            return
        what = ", ".join(event.changed_files) or "(initial)"
        print(f"[{event.iteration}] {what}: "
              f"{len(event.regenerated)} regenerated, "
              f"{event.reused} reused "
              f"({event.seconds * 1e3:.1f}ms)", flush=True)
        for artifact in event.regenerated:
            print(f"    ~ {artifact}")
        if event.written:
            print(f"    wrote {len(event.written)} file(s)")
        if event.deployed is not None:
            print(f"    applied {event.deployed['applied']} document(s), "
                  f"{event.deployed['running']} pods running, "
                  f"{event.deployed['restarted_downstream']} downstream "
                  f"restarts")

    if args.once:
        event = session.poll()
        if event is not None:
            report(event)
        return 0 if event is not None and event.ok else 1
    print(f"watching {len(session.paths)} file(s) "
          f"every {args.interval}s (ctrl-c to stop)", flush=True)
    try:
        session.run(max_iterations=args.max_iterations, on_event=report)
    except KeyboardInterrupt:
        print(f"\nstopped after {session.iterations} generation(s)")
    return 0


def _cmd_conformance(args) -> int:
    """Differential conformance trials over the seeded corpus."""
    from .testkit import (CorpusConfig, oracle_names, run_conformance)
    if args.list_oracles:
        from .testkit import ORACLES
        for name, oracle in ORACLES.items():
            kind = "source-level" if oracle.source_level else "pipeline"
            kind += ", opt-in" if oracle.opt_in else ""
            print(f"{name:>12}  [{kind}]  {oracle.description}")
        return 0
    oracles = args.oracles.split(",") if args.oracles else None
    if oracles:
        known = set(oracle_names(include_opt_in=True))
        unknown = [name for name in oracles if name not in known]
        if unknown:
            print(f"unknown oracle(s): {', '.join(unknown)} "
                  f"(known: {', '.join(oracle_names(include_opt_in=True))})",
                  file=sys.stderr)
            return 2
    config = CorpusConfig(hostile=args.hostile)
    try:
        report = run_conformance(
            args.seeds, base_seed=args.base_seed, oracles=oracles,
            config=config, jobs=args.jobs, shrink=not args.no_shrink,
            crash_dir=args.crash_dir, chaos=args.chaos)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, stats in report.oracle_stats().items():
        print(f"{name:>12}: {stats['runs']} runs, "
              f"{stats['failures']} failures, "
              f"{stats['total_seconds']:.2f}s total")
    print(f"{report.failure_count} failure(s) over {len(report.trials)} "
          f"seeds [{args.base_seed}..{args.base_seed + args.seeds - 1}]"
          f"{' (hostile)' if args.hostile else ''}"
          f"{' (chaos)' if args.chaos else ''}")
    for reproducer in report.reproducers:
        where = reproducer.path or f"({reproducer.line_count} lines)"
        print(f"  reproducer [{reproducer.oracle} seed={reproducer.seed}]"
              f": {where}")
    print(f"digest: {report.digest}")
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report.to_json())
        print(f"wrote report JSON to {args.report}")
    return 0 if report.ok else 1


def _cmd_deploy(args) -> int:
    from .icelab import run_icelab
    result = run_icelab(capacity=args.capacity,
                        smoke_steps=args.steps)
    smoke = result.smoke
    print(f"pods: {smoke.pods_running} running, {smoke.pods_failed} failed,"
          f" {smoke.pods_pending} pending")
    print(f"variables flowing: {smoke.variables_flowing}"
          f"/{smoke.variables_total}")
    print(f"machines with data: {smoke.machines_with_data}"
          f"/{smoke.machines_total}")
    print(f"services invoked: {smoke.services_invoked} "
          f"(failed: {smoke.services_failed})")
    print(f"data points stored: {smoke.data_points_stored}")
    from .som import KpiMonitor
    monitor = KpiMonitor(result.world.store, result.topology)
    print()
    print(monitor.line_kpi().render())
    print(f"RESULT: {'OK' if smoke.all_ok else 'FAILED'}")
    result.shutdown()
    return 0 if smoke.all_ok else 1


def _cmd_table1(args) -> int:
    from .codegen import PipelineOptions, generate_configuration
    from .icelab import icelab_model
    from .pipeline import build_table1_report
    model = icelab_model()
    generation = generate_configuration(
        model, options=PipelineOptions(capacity=args.capacity))
    report = build_table1_report(model, generation.topology, generation)
    print(report.render())
    return 0


def _cmd_figures(args) -> int:
    from .codegen import generate_configuration
    from .diagrams import (connections_ascii, connections_dot,
                           measure_connections, overview_ascii,
                           overview_dot)
    from .icelab import icelab_model
    model = icelab_model()
    generation = generate_configuration(model)
    print("=== Figure 1 (methodology overview) ===")
    print(overview_ascii(generation) if not args.dot
          else overview_dot(generation))
    figure = measure_connections(model, "emco", "emcoDriverInstance")
    print("=== Figure 2 (machine-driver connections, EMCO) ===")
    print(connections_ascii(figure) if not args.dot
          else connections_dot(figure))
    return 0


def _cmd_convert(args) -> int:
    from .sysml.errors import SysMLError
    from .sysml.files import convert_model_file
    try:
        written = convert_model_file(args.source, args.destination)
    except SysMLError as exc:
        print(f"FRONT-END ERROR: {exc}")
        return 1
    print(f"wrote {written}")
    return 0


def _cmd_handbook(args) -> int:
    from .codegen import (PipelineOptions, generate_configuration,
                          generate_handbook)
    from .icelab import icelab_model
    result = generate_configuration(
        icelab_model(), options=PipelineOptions(namespace="icelab"))
    text = generate_handbook(result, title="ICE Laboratory handbook")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {len(text)} bytes to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    from .icelab import run_icelab
    from .pipeline import verify_conformance
    result = run_icelab(smoke_steps=args.steps)
    report = verify_conformance(result)
    print(report.render())
    result.shutdown()
    return 0 if report.ok else 1


def _cmd_compare(args) -> int:
    from .baseline import compare_methodologies
    from .machines.specs import ICE_LAB_SPECS
    print(compare_methodologies(list(ICE_LAB_SPECS)).render())
    return 0


def _cmd_cache(args) -> int:
    from pathlib import Path

    from .cache import default_cache_dir
    directory = Path(args.cache_dir or default_cache_dir()).expanduser()
    if not directory.is_dir():
        # inspecting or clearing must not create the directory as a
        # side effect, and a missing cache is not an error
        print(f"no cache at {directory}")
        return 0
    cache = _open_cache(directory, args)
    if args.action == "clear":
        removed = cache.clear()
        if removed:
            print(f"removed {removed} artifacts from {cache.directory}")
        else:
            print(f"no cache at {cache.directory} (nothing to remove)")
        return 0
    for key, value in cache.stats().items():
        print(f"{key:>12}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-factory",
        description="SysML v2 smart-factory configuration (DATE 2025 "
                    "reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_model = subparsers.add_parser("model", help="emit the ICE-lab model")
    p_model.add_argument("--out", help="write to file instead of stdout")
    p_model.set_defaults(func=_cmd_model)

    p_validate = subparsers.add_parser("validate",
                                       help="validate a model file")
    p_validate.add_argument("file", nargs="?",
                            help=".sysml or .json model file "
                                 "(default: built-in ICE lab)")
    p_validate.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON report (for health checks and CI)")
    p_validate.set_defaults(func=_cmd_validate)

    p_generate = subparsers.add_parser("generate",
                                       help="run the generation pipeline")
    p_generate.add_argument("--capacity", type=int, default=120,
                            help="max points per OPC UA client")
    p_generate.add_argument("--namespace", default="icelab")
    p_generate.add_argument("--out", help="directory for generated files")
    p_generate.add_argument(
        "--trace", nargs="?", const="-", default=None, metavar="FILE",
        help="record pipeline telemetry; prints the span tree, or "
             "writes trace JSON to FILE when given")
    _add_perf_arguments(p_generate)
    p_generate.set_defaults(func=_cmd_generate)

    p_trace = subparsers.add_parser(
        "trace", help="run front end + generation with telemetry on")
    p_trace.add_argument("file", nargs="?",
                         help=".sysml file (default: built-in ICE lab)")
    p_trace.add_argument("--capacity", type=int, default=120)
    p_trace.add_argument("--namespace", default="icelab")
    p_trace.add_argument("--json", action="store_true",
                         help="emit the full trace as JSON")
    p_trace.add_argument("--out", help="write the report to a file")
    _add_perf_arguments(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    p_simulate = subparsers.add_parser(
        "simulate",
        help="run seeded what-if scenarios through the scenario engine")
    p_simulate.add_argument("file", nargs="?",
                            help=".sysml file (default: built-in ICE lab)")
    p_simulate.add_argument("--seed", type=int, default=7,
                            help="scenario seed: fully determines the "
                                 "order book and every perturbation")
    p_simulate.add_argument("--scenarios",
                            default="baseline,rush-order,slowdown",
                            help="comma-separated scenario names; the "
                                 "first is the briefing's baseline")
    p_simulate.add_argument("--policy", choices=("fifo", "edd"),
                            default="fifo",
                            help="dispatch policy at every machine queue")
    p_simulate.add_argument("--base-jobs", type=int, default=None,
                            metavar="N",
                            help="baseline order-book size (default: "
                                 "2 jobs per workcell, min 4)")
    p_simulate.add_argument("--json", action="store_true",
                            help="emit the briefing JSON on stdout")
    p_simulate.add_argument("--out", metavar="PATH",
                            help="write the briefing JSON to PATH")
    p_simulate.add_argument("--trace", action="store_true",
                            help="print phase timings (wall clock — "
                                 "not part of the deterministic output)")
    p_simulate.set_defaults(func=_cmd_simulate)

    p_plan = subparsers.add_parser(
        "plan",
        help="emit a PDDL operations-planning domain/problems and "
             "solve them with the deterministic planner")
    p_plan.add_argument("file", nargs="?",
                        help=".sysml file (default: built-in ICE lab)")
    p_plan.add_argument("--seed", type=int, default=7,
                        help="workload seed: fully determines every "
                             "order book (and hence every problem)")
    p_plan.add_argument("--problems", type=int, default=1, metavar="N",
                        help="number of problem files to derive "
                             "(each gets its own seeded workload)")
    p_plan.add_argument("--orders", type=int, default=None, metavar="N",
                        help="orders per problem (default: the "
                             "workload generator's sizing rule)")
    p_plan.add_argument("--strategy", choices=("greedy", "uniform"),
                        default="greedy",
                        help="search strategy: heuristic greedy "
                             "(default) or cost-optimal uniform-cost")
    p_plan.add_argument("--planner-seed", type=int, default=None,
                        metavar="N",
                        help="tie-break seed for the search (default: "
                             "the workload seed); emission is "
                             "byte-identical across planner seeds")
    p_plan.add_argument("--no-validate", action="store_true",
                        help="skip replaying plans on the machine "
                             "behavioural simulators")
    p_plan.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes solving problems "
                             "(output is identical to serial)")
    p_plan.add_argument("--json", action="store_true",
                        help="emit the planning summary as JSON")
    p_plan.add_argument("--out", metavar="DIR",
                        help="write domain.pddl plus per-problem "
                             ".pddl/.plan files under DIR")
    p_plan.add_argument("--trace", action="store_true",
                        help="print phase timings (wall clock — "
                             "not part of the deterministic output)")
    _add_perf_arguments(p_plan)
    p_plan.set_defaults(func=_cmd_plan)

    p_serve = subparsers.add_parser(
        "serve", help="run the concurrent configuration service")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8737,
                         help="listen port (0 = ephemeral)")
    p_serve.add_argument("--port-file", metavar="PATH",
                         help="write the bound port to PATH "
                              "(for scripts using --port 0)")
    p_serve.add_argument("--capacity", type=int, default=120)
    p_serve.add_argument("--namespace", default="factory")
    p_serve.add_argument("--max-inflight", type=int, default=8,
                         help="max requests inside the pipeline at once")
    p_serve.add_argument(
        "--backpressure", choices=("reject", "block", "shed-oldest"),
        default="reject",
        help="policy past --max-inflight: fail fast with a retriable "
             "503, queue with a deadline, or shed the oldest waiter")
    p_serve.add_argument("--block-deadline", type=float, default=10.0,
                         metavar="SECONDS",
                         help="queue wait bound for --backpressure block")
    p_serve.add_argument("--rate", type=float, default=0.0,
                         metavar="RPS",
                         help="per-client token-bucket rate limit "
                              "(0 = off)")
    p_serve.add_argument("--drain-deadline", type=float, default=10.0,
                         metavar="SECONDS",
                         help="graceful-drain bound on SIGTERM/SIGINT")
    p_serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run the sharded tier: N worker processes behind a "
             "consistent-hash router (0 = single-process service)")
    p_serve.add_argument(
        "--drain-report-file", metavar="PATH",
        help="write the final drain report as JSON to PATH "
             "(single node: the DrainReport; --workers N: the "
             "topology report incl. every worker)")
    _add_perf_arguments(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_watch = subparsers.add_parser(
        "watch", help="watch .sysml files, regenerate incrementally")
    p_watch.add_argument("files", nargs="+", metavar="FILE",
                         help=".sysml source files to watch")
    p_watch.add_argument("--capacity", type=int, default=120)
    p_watch.add_argument("--namespace", default="icelab")
    p_watch.add_argument("--out", metavar="DIR",
                         help="write generated files under DIR "
                              "(only changed files are rewritten)")
    p_watch.add_argument("--interval", type=float, default=0.5,
                         metavar="SECONDS", help="poll interval")
    p_watch.add_argument("--once", action="store_true",
                         help="one generation, then exit")
    p_watch.add_argument("--max-iterations", type=int, default=None,
                         metavar="N",
                         help="stop after N generations (default: forever)")
    p_watch.add_argument("--deploy", action="store_true",
                         help="roll regenerated manifests onto a "
                              "simulated cluster after each generation")
    _add_perf_arguments(p_watch)
    p_watch.set_defaults(func=_cmd_watch)

    p_cache = subparsers.add_parser(
        "cache", help="inspect or clear the artifact cache")
    p_cache.add_argument("action", choices=("stats", "clear"))
    p_cache.add_argument("--cache-dir", metavar="PATH",
                         help="cache directory "
                              "(default: $REPRO_CACHE_DIR or "
                              "~/.cache/repro-factory)")
    p_cache.add_argument("--cache-max-bytes", type=int, default=None)
    p_cache.set_defaults(func=_cmd_cache)

    p_conf = subparsers.add_parser(
        "conformance",
        help="run differential conformance trials on a seeded corpus")
    p_conf.add_argument("--seeds", type=int, default=50, metavar="N",
                        help="number of consecutive seeds to try")
    p_conf.add_argument("--base-seed", type=int, default=0,
                        help="first seed of the range")
    p_conf.add_argument(
        "--oracles", default=None, metavar="A,B,...",
        help="comma-separated oracle subset (default: all)")
    p_conf.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes running trials (report "
                             "digest is identical regardless)")
    p_conf.add_argument("--hostile", action="store_true",
                        help="enable hostile mutations (unicode names, "
                             "quoted identifiers, deep nesting)")
    p_conf.add_argument("--chaos", action="store_true",
                        help="add the chaos oracle: re-run each trial "
                             "under a seeded fault plan (cache "
                             "corruption/IO errors, router-dispatch "
                             "crashes, injected 503s) and require "
                             "byte-identical bundles or typed "
                             "retriable errors")
    p_conf.add_argument("--report", metavar="FILE",
                        help="write the JSON report to FILE")
    p_conf.add_argument("--crash-dir", metavar="DIR",
                        help="write shrunk reproducers under DIR")
    p_conf.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging failures")
    p_conf.add_argument("--list-oracles", action="store_true",
                        help="list the registered oracles and exit")
    p_conf.set_defaults(func=_cmd_conformance)

    p_deploy = subparsers.add_parser("deploy",
                                     help="full simulated deployment")
    p_deploy.add_argument("--capacity", type=int, default=120)
    p_deploy.add_argument("--steps", type=int, default=5,
                          help="simulation steps for the smoke test")
    p_deploy.set_defaults(func=_cmd_deploy)

    p_table1 = subparsers.add_parser("table1",
                                     help="print the reproduced Table I")
    p_table1.add_argument("--capacity", type=int, default=120)
    p_table1.set_defaults(func=_cmd_table1)

    p_figures = subparsers.add_parser("figures",
                                      help="print Figures 1 and 2")
    p_figures.add_argument("--dot", action="store_true",
                           help="emit Graphviz DOT instead of ASCII")
    p_figures.set_defaults(func=_cmd_figures)

    p_convert = subparsers.add_parser(
        "convert", help="convert a model between .sysml and .json")
    p_convert.add_argument("source")
    p_convert.add_argument("destination")
    p_convert.set_defaults(func=_cmd_convert)

    p_handbook = subparsers.add_parser(
        "handbook", help="generate the factory operator handbook")
    p_handbook.add_argument("--out", help="write to file instead of stdout")
    p_handbook.set_defaults(func=_cmd_handbook)

    p_verify = subparsers.add_parser(
        "verify", help="deploy, then check model-vs-deployment conformance")
    p_verify.add_argument("--steps", type=int, default=5)
    p_verify.set_defaults(func=_cmd_verify)

    p_compare = subparsers.add_parser("compare",
                                      help="SysML v1 vs v2 comparison")
    p_compare.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    from .codegen import OptionError
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
