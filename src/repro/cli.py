"""Command-line interface: ``python -m repro``.

Subcommands
-----------
``solve``     SSSP with negative weights on a DIMACS graph
              (prints distances or a negative-cycle certificate).
              ``--engine`` picks the solver from the registry in
              :mod:`repro.core.engines` — ``goldberg_parallel`` (the
              paper, default via ``--mode parallel``),
              ``goldberg_sequential``, ``bnw_scaling``,
              ``fischer_simple`` — all of which print bit-identical
              distances on the same input.
``generate``  synthesise a benchmark workload as DIMACS text.
``bench``     run experiments / gate against baselines.  ``bench run``
              executes a selection of the registry in
              :mod:`repro.analysis.benchruns`, writes ``<id>.txt`` and
              ``BENCH_<id>.json`` records and judges each claim on a
              full sweep (exits 1 when one fails); ``bench compare BASE
              CAND`` gates a candidate results directory against a
              baseline (bit-exact on deterministic model costs,
              Mann–Whitney + bootstrap CI on wall-clock; exits 1 on
              regression); ``bench baseline`` snapshots records into
              ``benchmarks/baselines/``.
``trace``     per-phase cost breakdown of a ``solve --trace`` JSONL file
              (plus the per-worker block table when the trace has one,
              and ``--profile DIR`` for profiler hot paths).
``profile``   solve under the deterministic per-phase profiler
              (:mod:`repro.observability.profiler`) and print which
              functions dominate each phase; ``--output DIR`` writes
              pstats dumps, ``profile.json``, and a flamegraph
              collapsed-stack file.

``solve`` and ``bench run`` accept ``--metrics-port PORT`` to serve live
telemetry over HTTP while running: ``/metrics`` (Prometheus text),
``/healthz``, and ``/progress`` (JSON phase/scale/worker snapshot).

Exit codes (``solve``)
----------------------
0 distances printed; 2 invalid input (bad DIMACS, out-of-range source,
malformed weights, unusable checkpoint, unknown ``--engine``, or
``--checkpoint``/``--resume`` with an engine that cannot checkpoint);
3 negative cycle certified (every engine attaches an independently
verified cycle certificate); 4 retries/budget exhausted with fallback
disabled; 5 deadline exceeded (or solve interrupted) without a
fallback answer — rerun with ``--resume`` to continue from the last
checkpoint.  Diagnostics go to stderr.

Examples::

    python -m repro generate hidden-potential --n 200 --m 800 > g.gr
    python -m repro solve g.gr --source 1
    python -m repro solve g.gr --engine bnw_scaling
    python -m repro solve g.gr --engine fischer_simple --costs
    python -m repro solve g.gr --deadline 30 --checkpoint ck.bin
    python -m repro solve g.gr --checkpoint ck.bin --resume
    python -m repro solve g.gr --trace t.jsonl && python -m repro trace t.jsonl
    python -m repro bench run e9
    python -m repro bench run fast --fast
    python -m repro bench compare benchmarks/baselines benchmarks/results
    python -m repro bench baseline fast --fast
"""

from __future__ import annotations

import argparse
import math
import pathlib
import shutil
import signal
import sys
from contextlib import nullcontext

import numpy as np

from .analysis import print_table
from .core import solve_sssp_resilient
from .core.engines import engine_names
from .graph import generators
from .graph.io import DimacsError, dumps_dimacs, read_dimacs
from .observability import MetricsRegistry, Tracer, metering, tracing, \
    write_trace
from .resilience import (
    BudgetExceededError,
    CancelledError,
    CancelToken,
    CheckpointError,
    InputValidationError,
    RetryExhaustedError,
    WorkerPoolError,
)
from .runtime import BACKEND_NAMES, DegradationLadder

EXIT_OK = 0
EXIT_REGRESSION = 1       # `bench compare` regression, `bench run` failed claim
EXIT_INVALID_INPUT = 2
EXIT_NEGATIVE_CYCLE = 3
EXIT_EXHAUSTED = 4
EXIT_DEADLINE = 5
EXIT_FINDINGS = 6         # `check` found lint findings or races

DEFAULT_STATICS_BASELINE = pathlib.Path("statics_baseline.json")

DEFAULT_RESULTS_DIR = pathlib.Path("benchmarks") / "results"
DEFAULT_BASELINE_DIR = pathlib.Path("benchmarks") / "baselines"
DEFAULT_GATE_CONFIG = pathlib.Path("benchmarks") / "gate_config.json"

_GENERATORS = {
    "hidden-potential": lambda a: generators.hidden_potential_graph(
        a.n, a.m, potential_spread=a.spread, seed=a.seed),
    "bf-hard": lambda a: generators.bf_hard_graph(
        a.n, a.m, potential_spread=a.spread, seed=a.seed),
    "random": lambda a: generators.random_digraph(
        a.n, a.m, min_w=-a.spread, max_w=a.spread, seed=a.seed),
    "dag01": lambda a: generators.random_dag(
        a.n, a.m, weights=(0, -1), seed=a.seed),
    "zero-heavy": lambda a: generators.zero_heavy_digraph(
        a.n, a.m, seed=a.seed),
    "planted-cycle": lambda a: generators.planted_negative_cycle_graph(
        a.n, a.m, max(2, a.spread), seed=a.seed)[0],
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Parallel shortest paths with negative edge weights "
                    "(SPAA 2022 reproduction)")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve SSSP on a DIMACS graph")
    ps.add_argument("graph", help="DIMACS .gr file (or - for stdin)")
    ps.add_argument("--source", type=int, default=1,
                    help="1-based source vertex (default 1)")
    ps.add_argument("--mode", choices=("parallel", "sequential"),
                    default="parallel",
                    help="deprecated alias of --engine goldberg_parallel / "
                         "goldberg_sequential")
    ps.add_argument("--engine", choices=engine_names(), default=None,
                    help="solver from the SSSP engine registry "
                         "(default: --mode picks the Goldberg engine); "
                         "all engines print bit-identical distances; "
                         "only the goldberg_* engines support "
                         "--checkpoint/--resume")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--costs", action="store_true",
                    help="also print model work/span")
    ps.add_argument("--max-retries", type=int, default=2,
                    help="verification-failure retries before giving up "
                         "(default 2)")
    ps.add_argument("--fallback", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="degrade to Bellman-Ford when retries are "
                         "exhausted (--no-fallback exits 4 instead)")
    ps.add_argument("--max-work", type=float, default=None,
                    help="abort (or fall back) past this model-work budget")
    ps.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                    help="wall-clock budget; expiry falls back to "
                         "Bellman-Ford (or exits 5 with --no-fallback)")
    ps.add_argument("--checkpoint", default=None, metavar="PATH",
                    help="write an atomic checkpoint after every scale "
                         "level (Ctrl-C then becomes a clean, resumable "
                         "interruption)")
    ps.add_argument("--resume", action="store_true",
                    help="continue from --checkpoint if it exists "
                         "(bit-identical to the uninterrupted solve)")
    ps.add_argument("--trace", default=None, metavar="PATH",
                    help="record a structured trace of the solve "
                         "(per-phase work/span/counters) to PATH")
    ps.add_argument("--trace-format", choices=("jsonl", "chrome"),
                    default="jsonl",
                    help="trace file format: jsonl (repro tooling) or "
                         "chrome (chrome://tracing / Perfetto)")
    ps.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                    help="execution backend for block-parallel work "
                         "(default: classic in-process execution); "
                         "'process' starts a fault-tolerant worker pool "
                         "that degrades process->thread->serial instead "
                         "of crashing")
    ps.add_argument("--workers", type=int, default=None, metavar="N",
                    help="worker count for --backend thread/process "
                         "(default: CPU count, capped at 8)")
    ps.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                    help="serve live telemetry on 127.0.0.1:PORT while "
                         "solving: /metrics (Prometheus text), /healthz, "
                         "/progress (JSON); 0 picks a free port "
                         "(printed to stderr)")
    ps.add_argument("--liveness-timeout", type=float, default=2.0,
                    metavar="SECONDS",
                    help="--backend process: a worker silent this long "
                         "is presumed hung and replaced (default 2.0)")

    pg = sub.add_parser("generate", help="emit a workload as DIMACS")
    pg.add_argument("family", choices=sorted(_GENERATORS))
    pg.add_argument("--n", type=int, default=100)
    pg.add_argument("--m", type=int, default=400)
    pg.add_argument("--spread", type=int, default=8,
                    help="weight magnitude / cycle length parameter")
    pg.add_argument("--seed", type=int, default=0)

    pb = sub.add_parser(
        "bench",
        help="run experiments / regression-gate against baselines")
    bench = pb.add_subparsers(dest="action", required=True)
    pr = bench.add_parser(
        "run", help="run experiments and judge their claims",
        description="Run experiments, write <id>.txt and BENCH_<id>.json "
                    "records, and judge each claim on a full sweep.  "
                    "Exits 1 when a claim fails.")
    pr.add_argument("ids", nargs="*", default=["all"],
                    help="experiment ids (e1 e13b a5 ...), 'all', or 'fast' "
                         "(the CI gate subset); default all")
    pr.add_argument("--fast", action="store_true",
                    help="shrunken parameter sweeps (not judged: the "
                         "claims hold at full size)")
    pr.add_argument("--results-dir", default=str(DEFAULT_RESULTS_DIR),
                    help=f"output directory (default {DEFAULT_RESULTS_DIR})")
    pr.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                    help="serve live telemetry on 127.0.0.1:PORT while the "
                         "experiments run (0 picks a free port)")
    pc = bench.add_parser(
        "compare", help="gate a candidate results directory",
        description="Gate a candidate results directory against a "
                    "baseline: bit-exact on deterministic model costs, "
                    "Mann-Whitney + bootstrap CI on raw wall-clock "
                    "samples.  Exits 1 on regression.")
    pc.add_argument("baseline", help="directory of baseline BENCH_*.json")
    pc.add_argument("candidate", help="directory of candidate BENCH_*.json")
    pc.add_argument("--config", default=None,
                    help="gate config JSON (default "
                         f"{DEFAULT_GATE_CONFIG} when present)")
    pc.add_argument("--wallclock", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="--no-wallclock skips timing statistics (for "
                         "cross-machine comparisons, e.g. CI vs committed "
                         "baselines)")
    pc.add_argument("--allow-missing", action="store_true",
                    help="a baseline with no candidate record is skipped "
                         "instead of failing")
    pc.add_argument("--seed", type=int, default=0,
                    help="bootstrap RNG seed (default 0)")
    pbl = bench.add_parser(
        "baseline", help="snapshot records into the baseline directory",
        description="Snapshot BENCH_<id>.json records into the committed "
                    "baseline directory (reruns the experiments first "
                    "unless --no-run)")
    pbl.add_argument("ids", nargs="*", default=["all"],
                     help="experiment ids, 'all', or 'fast'; default all")
    pbl.add_argument("--fast", action="store_true",
                     help="shrunken parameter sweeps")
    pbl.add_argument("--results-dir", default=str(DEFAULT_RESULTS_DIR),
                     help=f"source directory (default {DEFAULT_RESULTS_DIR})")
    pbl.add_argument("--baseline-dir", default=str(DEFAULT_BASELINE_DIR),
                     help="snapshot destination "
                          f"(default {DEFAULT_BASELINE_DIR})")
    pbl.add_argument("--run", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="--no-run snapshots existing records without "
                          "rerunning")

    pp = sub.add_parser(
        "profile",
        help="solve under the per-phase profiler and print hot-path "
             "tables")
    pp.add_argument("graph", help="DIMACS .gr file (or - for stdin)")
    pp.add_argument("--source", type=int, default=1,
                    help="1-based source vertex (default 1)")
    pp.add_argument("--mode", choices=("parallel", "sequential"),
                    default="parallel")
    pp.add_argument("--engine", choices=engine_names(), default=None,
                    help="solver engine (overrides --mode)")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                    help="execution backend for the block maps")
    pp.add_argument("--output", default=None, metavar="DIR",
                    help="also write <phase>.prof pstats dumps, "
                         "profile.json, and profile.collapsed "
                         "(flamegraph collapsed-stack format) under DIR")
    pp.add_argument("--top", type=int, default=10,
                    help="functions per phase in the hot-path table "
                         "(default 10)")

    pt = sub.add_parser("trace",
                        help="per-phase cost breakdown of a JSONL trace "
                             "written by solve --trace")
    pt.add_argument("trace_file", help="JSONL trace file")
    pt.add_argument("--profile", default=None, metavar="PATH",
                    help="also print the per-phase profiler tables from "
                         "a profile.json (or a directory containing one) "
                         "written by `repro profile --output`")

    pr = sub.add_parser("report",
                        help="rerun every experiment, write a markdown report")
    pr.add_argument("--output", default="REPORT.md")
    pr.add_argument("--fast", action="store_true",
                    help="shrunken sweeps (< 1 minute)")

    pc = sub.add_parser(
        "check",
        help="static determinism lint (RS001-RS010), interprocedural "
             "flow analysis (RS011-RS015), and fork-join race check; "
             "exits 6 on findings")
    pc.add_argument("--lint", action="store_true",
                    help="run only the per-module static rules")
    pc.add_argument("--flow", action="store_true",
                    help="run only the interprocedural flow rules")
    pc.add_argument("--race", action="store_true",
                    help="run only the race probes")
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.add_argument("--paths", nargs="+", default=["src"],
                    help="files/directories to lint (default: src)")
    pc.add_argument("--rules", default=None,
                    help="comma-separated rule ids (default: all)")
    pc.add_argument("--baseline", default=None, metavar="PATH",
                    help="grandfathered-findings file (default: "
                         "statics_baseline.json if present)")
    pc.add_argument("--probe", action="append", default=None,
                    dest="probes", metavar="NAME",
                    help="race probe to run (repeatable; default: all "
                         "registered probes)")
    pc.add_argument("--pool-sizes", default="1,2,8",
                    help="comma-separated ForkJoinPool sizes for --race")
    pc.add_argument("--output", default=None, metavar="PATH",
                    help="also write the JSON report to PATH")
    return p


def _start_telemetry_server(port: int, *, registry, tracer=None,
                            backend=None):
    """Validate ``port`` and start a :class:`TelemetryServer`, printing
    its URL (stderr, ``c``-prefixed like the other diagnostics).
    Returns the server, or raises ValueError on a bad port."""
    from .observability.http import TelemetryServer

    if not (0 <= port <= 65535):
        raise ValueError(f"--metrics-port must be 0..65535, got {port}")
    server = TelemetryServer(registry=registry, tracer=tracer,
                             backend=backend, port=port)
    server.start()
    print(f"c metrics: {server.url('/metrics')}", file=sys.stderr)
    return server


def cmd_solve(args) -> int:
    try:
        g = read_dimacs(sys.stdin if args.graph == "-" else args.graph)
    except (DimacsError, InputValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    source = args.source - 1
    if not (0 <= source < g.n):
        print(f"error: source {args.source} out of range 1..{g.n}",
              file=sys.stderr)
        return EXIT_INVALID_INPUT
    if args.max_retries < 0:
        print("error: --max-retries must be >= 0", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if args.deadline is not None and not args.deadline >= 0:
        print("error: --deadline must be >= 0 seconds", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if args.resume and args.checkpoint is None:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if not 0 < args.liveness_timeout < math.inf:
        print("error: --liveness-timeout must be finite and > 0 seconds",
              file=sys.stderr)
        return EXIT_INVALID_INPUT
    if args.metrics_port is not None \
            and not (0 <= args.metrics_port <= 65535):
        print("error: --metrics-port must be 0..65535", file=sys.stderr)
        return EXIT_INVALID_INPUT
    backend = None
    if args.backend is not None:
        backend = DegradationLadder.for_backend(
            args.backend, n_workers=args.workers,
            **({"liveness_timeout": args.liveness_timeout}
               if args.backend == "process" else {}))

    # with a checkpoint in play, turn SIGINT/SIGTERM into a *cooperative*
    # cancellation: the solve stops at the next phase boundary with the
    # last scale level safely on disk, and exits 5 instead of a traceback
    token = CancelToken() if args.checkpoint is not None else None
    previous_handlers = {}
    if token is not None:
        def _cancel(signum, frame):
            token.cancel(f"signal {signal.Signals(signum).name}")
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous_handlers[sig] = signal.signal(sig, _cancel)
            except (ValueError, OSError):  # non-main thread / platform
                pass
    tracer = None
    if args.trace is not None:
        tracer = Tracer(graph=str(args.graph), source=args.source,
                        mode=args.mode, seed=args.seed,
                        **({"engine": args.engine}
                           if args.engine is not None else {}))
    registry = server = None
    if args.metrics_port is not None:
        registry = MetricsRegistry()
        try:
            server = _start_telemetry_server(
                args.metrics_port, registry=registry, tracer=tracer,
                backend=backend)
        except OSError as exc:
            print(f"error: cannot bind --metrics-port "
                  f"{args.metrics_port}: {exc}", file=sys.stderr)
            if backend is not None:
                backend.shutdown()
            return EXIT_INVALID_INPUT
    try:
        with (tracing(tracer) if tracer is not None else nullcontext()), \
                (metering(registry) if registry is not None
                 else nullcontext()):
            res = solve_sssp_resilient(
                g, source, mode=args.mode, engine=args.engine,
                seed=args.seed,
                max_retries=args.max_retries, max_work=args.max_work,
                fallback=args.fallback, deadline=args.deadline, token=token,
                checkpoint_path=args.checkpoint, resume=args.resume,
                backend=backend)
    except InputValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except CheckpointError as exc:
        print(f"error: unusable checkpoint ({exc.reason}): {exc}",
              file=sys.stderr)
        return EXIT_INVALID_INPUT
    except CancelledError as exc:  # includes DeadlineExceededError
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if args.checkpoint is not None:
            print(f"c resume with: --checkpoint {args.checkpoint} --resume",
                  file=sys.stderr)
        return EXIT_DEADLINE
    except (RetryExhaustedError, BudgetExceededError,
            WorkerPoolError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)
        if server is not None:
            server.stop()
        if backend is not None:
            backend.shutdown()
        # export even when the solve errored/was interrupted: a partial
        # trace is exactly what post-mortem analysis needs
        if tracer is not None:
            try:
                write_trace(tracer, args.trace, fmt=args.trace_format)
                print(f"c trace: {args.trace} ({args.trace_format}, "
                      f"{len(tracer.spans)} spans)", file=sys.stderr)
            except OSError as exc:
                print(f"warning: could not write trace: {exc}",
                      file=sys.stderr)
    prov = res.provenance
    if prov is not None and prov.used_fallback:
        print(f"c degraded to {prov.engine} ({prov.fallback_reason})",
              file=sys.stderr)
    elif prov is not None and prov.retries:
        print(f"c verified after {prov.retries} retr"
              f"{'y' if prov.retries == 1 else 'ies'}", file=sys.stderr)
    if prov is not None and prov.backend is not None:
        print(f"c backend {prov.backend}", file=sys.stderr)
        for d in prov.demotions:
            print(f"c backend demoted {d['from']} -> {d['to']}: "
                  f"{d['reason']}", file=sys.stderr)
        if prov.worker_losses:
            print(f"c absorbed {len(prov.worker_losses)} worker "
                  f"loss(es): "
                  + ", ".join(f"w{x['wid']} {x['kind']}"
                              for x in prov.worker_losses),
                  file=sys.stderr)
    if res.has_negative_cycle:
        cyc = " ".join(str(v + 1) for v in res.negative_cycle)
        print(f"negative cycle: {cyc}")
        rc = EXIT_NEGATIVE_CYCLE
    else:
        for v, d in enumerate(res.dist):
            text = "inf" if np.isinf(d) else str(int(d))
            print(f"d {v + 1} {text}")
        rc = EXIT_OK
    if args.costs:
        print(f"c work {res.cost.work:.0f} span_model "
              f"{res.cost.span_model:.0f} parallelism "
              f"{res.cost.parallelism:.1f}", file=sys.stderr)
    return rc


def cmd_generate(args) -> int:
    g = _GENERATORS[args.family](args)
    sys.stdout.write(dumps_dimacs(
        g, comments=[f"family={args.family} n={args.n} m={args.m} "
                     f"spread={args.spread} seed={args.seed}"]))
    return 0


def _cmd_bench_run(args) -> int:
    from .analysis.benchruns import run_benches

    registry = server = None
    if args.metrics_port is not None:
        if not (0 <= args.metrics_port <= 65535):
            print("error: --metrics-port must be 0..65535",
                  file=sys.stderr)
            return EXIT_INVALID_INPUT
        registry = MetricsRegistry()
        try:
            server = _start_telemetry_server(args.metrics_port,
                                             registry=registry)
        except OSError as exc:
            print(f"error: cannot bind --metrics-port "
                  f"{args.metrics_port}: {exc}", file=sys.stderr)
            return EXIT_INVALID_INPUT
    try:
        with (metering(registry) if registry is not None
              else nullcontext()):
            records = run_benches(args.ids, args.results_dir,
                                  fast=args.fast, progress=print)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    finally:
        if server is not None:
            server.stop()
    print(f"wrote records to {args.results_dir}")
    failed = [r["meta"]["exp_id"] for r in records
              if not all(c["held"] for c in r["meta"].get("claim", ()))]
    if failed:
        print(f"claims FAILED: {', '.join(failed)}", file=sys.stderr)
        return EXIT_REGRESSION
    return EXIT_OK


def _cmd_bench_compare(args) -> int:
    from .analysis.benchgate import GateConfig, compare_dirs, render_report

    config_path = args.config
    if config_path is None and DEFAULT_GATE_CONFIG.is_file():
        config_path = DEFAULT_GATE_CONFIG
    try:
        config = GateConfig.load(config_path) if config_path \
            else GateConfig()
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: bad gate config {config_path}: {exc}",
              file=sys.stderr)
        return EXIT_INVALID_INPUT
    report = compare_dirs(
        args.baseline, args.candidate, config,
        check_wallclock=args.wallclock,
        require_all_baselines=not args.allow_missing,
        seed=args.seed)
    print(render_report(report))
    return EXIT_OK if report.ok else EXIT_REGRESSION


def _cmd_bench_baseline(args) -> int:
    from .analysis.benchjson import list_bench_json, write_bench_summary
    from .analysis.benchruns import resolve_specs, run_benches

    try:
        specs = resolve_specs(args.ids)
        if args.run:
            run_benches(args.ids, args.results_dir, fast=args.fast,
                        progress=print)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    wanted = {f"BENCH_{s.bench_id}.json" for s in specs}
    sources = [p for p in list_bench_json(args.results_dir)
               if p.name in wanted]
    missing = wanted - {p.name for p in sources}
    if missing:
        print(f"error: no records for {sorted(missing)} in "
              f"{args.results_dir} (run `repro bench run` first)",
              file=sys.stderr)
        return EXIT_INVALID_INPUT
    dest = pathlib.Path(args.baseline_dir)
    dest.mkdir(parents=True, exist_ok=True)
    for src in sources:
        shutil.copyfile(src, dest / src.name)
        print(f"baselined {src.name}")
    write_bench_summary(dest)
    print(f"snapshot of {len(sources)} record(s) in {dest}")
    return EXIT_OK


def cmd_bench(args) -> int:
    return {"run": _cmd_bench_run,
            "compare": _cmd_bench_compare,
            "baseline": _cmd_bench_baseline}[args.action](args)


def cmd_trace(args) -> int:
    from .analysis.tracetables import (
        trace_cost_breakdown,
        trace_phase_table,
        trace_worker_table,
    )
    from .observability import load_trace

    try:
        trace = load_trace(args.trace_file)
        breakdown = trace_cost_breakdown(trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    print_table(breakdown, f"cost breakdown: {args.trace_file}")
    print_table(trace_phase_table(trace), "per-phase totals")
    workers = trace_worker_table(trace)
    if workers:
        print_table(workers, "per-worker blocks")
    if args.profile is not None:
        from .analysis.profiletables import (
            profile_hot_table,
            profile_phase_table,
        )

        path = pathlib.Path(args.profile)
        if path.is_dir():
            path = path / "profile.json"
        try:
            from .observability.profiler import load_profile_json
            doc = load_profile_json(path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID_INPUT
        print_table(profile_phase_table(doc), f"profiled phases: {path}")
        print_table(profile_hot_table(doc), "hot paths")
    return 0


def cmd_profile(args) -> int:
    from .analysis.profiletables import (
        profile_hot_table,
        profile_phase_table,
    )
    from .observability.profiler import PhaseProfiler, profiling

    try:
        g = read_dimacs(sys.stdin if args.graph == "-" else args.graph)
    except (DimacsError, InputValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    source = args.source - 1
    if not (0 <= source < g.n):
        print(f"error: source {args.source} out of range 1..{g.n}",
              file=sys.stderr)
        return EXIT_INVALID_INPUT
    if args.top < 1:
        print("error: --top must be >= 1", file=sys.stderr)
        return EXIT_INVALID_INPUT
    backend = None
    if args.backend is not None:
        backend = DegradationLadder.for_backend(args.backend)
    profiler = PhaseProfiler(top=args.top)
    try:
        with profiling(profiler):
            res = solve_sssp_resilient(
                g, source, mode=args.mode, engine=args.engine,
                seed=args.seed, backend=backend)
    except InputValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    finally:
        if backend is not None:
            backend.shutdown()
    if res.has_negative_cycle:
        print("c negative cycle certified; profiling the detection path",
              file=sys.stderr)
    if args.output is not None:
        paths = profiler.write(args.output)
        print(f"c profile exports: {', '.join(str(p) for p in sorted(paths.values()))}",
              file=sys.stderr)
    print_table(profile_phase_table(profiler),
                f"profiled phases: {args.graph}")
    print_table(profile_hot_table(profiler, args.top), "hot paths")
    return EXIT_OK if not res.has_negative_cycle else EXIT_NEGATIVE_CYCLE


def cmd_report(args) -> int:
    from .analysis.report import write_report

    path = write_report(args.output, fast=args.fast)
    print(f"wrote {path}")
    return 0


def cmd_check(args) -> int:
    import json as _json

    from .statics import lint_paths, rules_by_id, run_race_probes
    from .statics.engine import Baseline, ProjectRule

    explicit = args.lint or args.race or args.flow
    do_lint = args.lint or not explicit
    do_flow = args.flow or not explicit
    do_race = args.race or not explicit

    payload: dict = {"schema": "repro-check/1"}
    ok = True

    if do_lint or do_flow:
        try:
            if args.rules:
                chosen = rules_by_id(args.rules.split(","))
            else:
                from .statics import ALL_RULES, FLOW_RULES
                chosen = tuple(ALL_RULES) + tuple(FLOW_RULES)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID_INPUT
        lint_rules = tuple(r for r in chosen
                           if not isinstance(r, ProjectRule))
        flow_rules = tuple(r for r in chosen
                           if isinstance(r, ProjectRule))
        baseline = None
        baseline_path = (pathlib.Path(args.baseline) if args.baseline
                         else DEFAULT_STATICS_BASELINE)
        if baseline_path.exists():
            try:
                baseline = Baseline.load(baseline_path)
            except ValueError as exc:
                print(f"error: bad baseline {baseline_path}: {exc}",
                      file=sys.stderr)
                return EXIT_INVALID_INPUT
        elif args.baseline is not None:
            print(f"error: baseline {baseline_path} not found",
                  file=sys.stderr)
            return EXIT_INVALID_INPUT
        # each plane runs its own pass against the shared baseline
        # (stale detection is rule-filtered, so a subset run is safe);
        # with an explicit --rules list, a plane with no matching rules
        # is skipped rather than silently running everything
        planes = []
        if do_lint and (lint_rules or not args.rules):
            planes.append(("lint", lint_rules))
        if do_flow and (flow_rules or not args.rules):
            planes.append(("flow", flow_rules))
        for plane, plane_rules in planes:
            try:
                rep = lint_paths(args.paths, rules=plane_rules,
                                 baseline=baseline)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_INVALID_INPUT
            payload[plane] = rep.to_json()
            ok = ok and rep.ok
            if args.format == "text":
                print(rep.render())
    if do_race:
        try:
            pool_sizes = tuple(
                int(s) for s in str(args.pool_sizes).split(",") if s)
            if not pool_sizes or any(s < 1 for s in pool_sizes):
                raise ValueError(args.pool_sizes)
        except ValueError:
            print(f"error: bad --pool-sizes {args.pool_sizes!r}",
                  file=sys.stderr)
            return EXIT_INVALID_INPUT
        try:
            races = run_race_probes(args.probes, pool_sizes=pool_sizes)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return EXIT_INVALID_INPUT
        payload["race"] = races.to_json()
        ok = ok and races.ok
        if args.format == "text":
            print(races.render())

    payload["ok"] = ok
    text = _json.dumps(payload, indent=2, sort_keys=True)
    if args.format == "json":
        print(text)
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n")
    return EXIT_OK if ok else EXIT_FINDINGS


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args)
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "check":
        return cmd_check(args)
    return cmd_bench(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
