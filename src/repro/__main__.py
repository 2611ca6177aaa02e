"""Command-line entry point: ``python -m repro``.

Five subcommands:

* ``python -m repro list`` — every reproducible paper artefact with its
  claim.
* ``python -m repro run <experiment> [--workers N] [--max-depth D] ...`` —
  run one artefact with a scaled configuration and print a compact summary
  of the result object.  ``--workers`` feeds the multiprocess dispatch legs
  of the experiments that measure real parallel execution (fig8 / fig13);
  ``--max-depth`` lets their shard planner split tree layers below the
  first when the first-layer arity would starve the pool.  ``--copy-cost``
  pins the analytic state-copy cost, while ``--calibrated``
  microbenchmarks the default backend and uses the measured ratio instead.
  ``--trace [PATH]`` runs the experiment under a tracer (see
  :mod:`repro.obs`) and writes a Chrome trace next to the summary.
* ``python -m repro trace <experiment> [--out PATH]
  [--format chrome|jsonl|summary]`` — run one artefact with tracing on and
  export the recorded spans: Chrome trace-event JSON (Perfetto-loadable),
  JSON-lines, or a per-span-name summary table followed by the
  measured-vs-CostModel drift report.  Tracing is inert, so the traced
  result is bitwise the ``run`` result.
* ``python -m repro calibrate [--backend B] [--qubits N] [--cache PATH]``
  — measure the per-primitive cost model (see
  :mod:`repro.core.costmodel`) and print its table, optionally persisting
  it to a JSON artifact for reuse and CI diffing.
* ``python -m repro lint [paths] [--rules ...] [--format json|text]
  [--fail-on warning|error]`` — run the AST-based contract checker (see
  :mod:`repro.lint`) that enforces the seeding, backend-conformance,
  multiprocessing-safety, API-hygiene and clock-confinement invariants;
  the CI gate.
* ``python -m repro serve [--port P | --replay]`` — the
  simulation-as-a-service front end (see :mod:`repro.serve`): either a
  line-delimited-JSON TCP server, or ``--replay`` to drive the synthetic
  heavy-traffic benchmark against an in-process server and print the
  cold/warm comparison (``--json PATH`` persists the report for CI).
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import Any, Sequence

from repro.core.costmodel import DEFAULT_CALIBRATION_QUBITS, get_cost_model
from repro.experiments.common import DEFAULT_CONFIG
from repro.experiments.registry import EXPERIMENTS, get_experiment

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce TQSim paper artefacts (figures and tables).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the available experiments")

    run = commands.add_parser("run", help="run one experiment by id")
    _add_experiment_arguments(run)
    run.add_argument("--trace", nargs="?", const="trace.json", default=None,
                     metavar="PATH",
                     help="run under a tracer and write a Chrome trace "
                          "(default PATH: trace.json); tracing is inert, "
                          "the printed result is unchanged")

    trace = commands.add_parser(
        "trace",
        help="run one experiment with tracing on and export the spans",
    )
    _add_experiment_arguments(trace)
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="output file (defaults: trace.json for chrome, "
                            "trace.jsonl for jsonl; summary prints to "
                            "stdout unless --out is given)")
    trace.add_argument("--format", choices=("chrome", "jsonl", "summary"),
                       default="chrome",
                       help="chrome = trace-event JSON (Perfetto-loadable), "
                            "jsonl = one span/metric per line, summary = "
                            "per-span-name totals plus the CostModel drift "
                            "report (default: chrome)")

    calibrate = commands.add_parser(
        "calibrate",
        help="microbenchmark the cost model for one backend and width",
    )
    calibrate.add_argument("--backend", default="optimized",
                           help="execution backend to calibrate "
                                "(default: optimized)")
    calibrate.add_argument("--qubits", type=int,
                           default=DEFAULT_CALIBRATION_QUBITS,
                           help="circuit width to calibrate at")
    calibrate.add_argument("--cache", default=None,
                           help="JSON artifact to read/write calibrated "
                                "models (created if missing)")
    calibrate.add_argument("--refresh", action="store_true",
                           help="re-measure even when a cached model exists")
    calibrate.add_argument("--repeats", type=int, default=48,
                           help="timed kernel calls per measurement burst")

    lint = commands.add_parser(
        "lint",
        help="run the AST-based contract checker over the source tree",
    )
    # The lint arguments live next to the rules so the checker is usable
    # standalone (tests drive add_lint_arguments/run_lint_cli directly).
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)

    serve = commands.add_parser(
        "serve",
        help="run the simulation service (TCP) or its replay benchmark",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for the TCP server")
    serve.add_argument("--port", type=int, default=8753,
                       help="TCP port accepting line-delimited JSON requests")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes per request (1 = in-process "
                            "engine; more fans shards out through the pool "
                            "dispatcher)")
    serve.add_argument("--replay", action="store_true",
                       help="instead of listening, run the synthetic "
                            "heavy-traffic replay (cold pass, then the same "
                            "mix warm) and print the comparison")
    serve.add_argument("--requests", type=int, default=24,
                       help="replay request count")
    serve.add_argument("--qubits", type=int, default=6,
                       help="replay circuit width")
    serve.add_argument("--shots", type=int, default=256,
                       help="shots per replay request")
    serve.add_argument("--noise", default=None,
                       help="replay noise model code (default: ideal)")
    serve.add_argument("--json", default=None, metavar="PATH",
                       help="write the replay report as JSON to PATH")
    return parser


def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by ``run`` and ``trace`` (one experiment + config)."""
    parser.add_argument("experiment",
                        help="experiment id, e.g. fig11 or table2")
    parser.add_argument("--shots", type=int, default=None,
                        help="outcomes per simulation (default: scaled-down "
                             "harness value)")
    parser.add_argument("--max-qubits", type=int, default=None,
                        help="skip benchmarks wider than this")
    parser.add_argument("--seed", type=int, default=None,
                        help="base RNG seed")
    parser.add_argument("--backend", default=None,
                        help="execution backend name (see repro.backends)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the measured dispatch legs")
    parser.add_argument("--max-depth", type=int, default=None,
                        help="tree layers the shard planner may split "
                             "(1 = first layer only; deeper feeds more "
                             "workers than the first-layer arity at the cost "
                             "of running each shard's ancestors)")
    parser.add_argument("--copy-cost", type=float, default=None,
                        help="state-copy cost in gate executions handed to "
                             "the partitioners (default: harness value)")
    parser.add_argument("--calibrated", action="store_true",
                        help="microbenchmark the default backend and use the "
                             "measured copy cost instead of the analytic "
                             "value")


def _describe(value: Any, indent: str = "  ") -> list[str]:
    """Flatten a result object into short human-readable lines.

    Experiment results are plain dataclasses mixing scalars with large
    row lists; scalars are printed verbatim and containers are summarised
    by length so the output stays one screen tall.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        lines = []
        for field in dataclasses.fields(value):
            item = getattr(value, field.name)
            if dataclasses.is_dataclass(item) and not isinstance(item, type):
                lines.append(f"{indent}{field.name}:")
                lines.extend(_describe(item, indent + "  "))
            elif isinstance(item, (list, tuple)):
                lines.append(f"{indent}{field.name}: {len(item)} item(s)")
            elif isinstance(item, dict):
                keys = ", ".join(str(key) for key in list(item)[:6])
                suffix = ", ..." if len(item) > 6 else ""
                lines.append(
                    f"{indent}{field.name}: {len(item)} entry(ies) [{keys}{suffix}]"
                )
            elif isinstance(item, float):
                lines.append(f"{indent}{field.name}: {item:.6g}")
            else:
                lines.append(f"{indent}{field.name}: {item}")
        return lines
    return [f"{indent}{value}"]


def _cmd_list() -> int:
    width = max(len(identifier) for identifier in EXPERIMENTS)
    for identifier in sorted(EXPERIMENTS):
        experiment = EXPERIMENTS[identifier]
        print(f"{identifier.ljust(width)}  {experiment.title}")
        print(f"{' ' * width}  {experiment.paper_claim}")
    return 0


def _experiment_config(args: argparse.Namespace):
    """Build the :class:`ExperimentConfig` the shared arguments describe.

    Returns ``None`` after printing a message when an argument is invalid
    (the caller exits 2).
    """
    overrides: dict[str, Any] = {}
    if args.shots is not None:
        # Rejected here, not deep inside a worker: zero shards cannot be
        # planned, dispatched or merged (Dispatcher.run raises the same
        # constraint as a ValueError for library callers).
        if args.shots < 1:
            print("--shots must be >= 1")
            return None
        overrides["shots"] = args.shots
    if args.max_qubits is not None:
        overrides["max_qubits"] = args.max_qubits
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.backend is not None:
        overrides["backend"] = args.backend
    extra = dict(DEFAULT_CONFIG.extra)
    if args.workers is not None:
        if args.workers < 1:
            print("--workers must be >= 1")
            return None
        extra["workers"] = args.workers
    if args.max_depth is not None:
        if args.max_depth < 1:
            print("--max-depth must be >= 1")
            return None
        extra["max_depth"] = args.max_depth
    if args.copy_cost is not None and args.calibrated:
        print("--copy-cost and --calibrated are mutually exclusive")
        return None
    if args.copy_cost is not None:
        if args.copy_cost < 0:
            print("--copy-cost must be non-negative")
            return None
        overrides["copy_cost_in_gates"] = args.copy_cost
    if args.calibrated:
        width = overrides.get("max_qubits", DEFAULT_CONFIG.max_qubits)
        model = get_cost_model("optimized", width)
        overrides["copy_cost_in_gates"] = model.copy_cost_in_gates
        extra["calibrated"] = True
        print(
            f"calibrated copy cost: {model.copy_cost_in_gates:.4g} gates "
            f"(optimized backend, {width} qubits)"
        )
    if extra != DEFAULT_CONFIG.extra:
        overrides["extra"] = extra
    return DEFAULT_CONFIG.scaled(**overrides)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        experiment = get_experiment(args.experiment)
    except KeyError as error:
        print(error.args[0])
        return 2
    config = _experiment_config(args)
    if config is None:
        return 2

    from repro.obs import NULL_TRACER, Tracer, use_tracer, write_chrome_trace

    tracer = Tracer() if args.trace is not None else NULL_TRACER
    print(f"== {experiment.identifier}: {experiment.title} ==")
    print(f"paper claim: {experiment.paper_claim}")
    with use_tracer(tracer):
        result = experiment.runner(config)
    print(f"result ({type(result).__name__}):")
    for line in _describe(result):
        print(line)
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as stream:
            events = write_chrome_trace(tracer, stream)
        print(f"trace: {events} event(s) -> {args.trace}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one experiment under a tracer and export the recorded spans."""
    try:
        experiment = get_experiment(args.experiment)
    except KeyError as error:
        print(error.args[0])
        return 2
    config = _experiment_config(args)
    if config is None:
        return 2

    from repro.obs import (
        Tracer,
        drift_report,
        render_drift,
        render_summary,
        summarize,
        use_tracer,
        write_chrome_trace,
        write_jsonl,
    )

    tracer = Tracer()
    print(f"== {experiment.identifier}: {experiment.title} (traced) ==")
    with use_tracer(tracer):
        experiment.runner(config)

    out = args.out
    if args.format == "chrome":
        out = out or "trace.json"
        with open(out, "w", encoding="utf-8") as stream:
            events = write_chrome_trace(tracer, stream)
        print(f"trace: {events} event(s) -> {out}")
    elif args.format == "jsonl":
        out = out or "trace.jsonl"
        with open(out, "w", encoding="utf-8") as stream:
            lines = write_jsonl(tracer, stream)
        print(f"trace: {lines} line(s) -> {out}")
    else:
        rendered = "\n\n".join(
            (
                render_summary(summarize(tracer)),
                render_drift(drift_report(tracer)),
            )
        )
        if out is None:
            print(rendered)
        else:
            with open(out, "w", encoding="utf-8") as stream:
                stream.write(rendered + "\n")
            print(f"summary -> {out}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    if args.qubits < 1:
        print("--qubits must be >= 1")
        return 2
    if args.repeats < 1:
        print("--repeats must be >= 1")
        return 2
    try:
        model = get_cost_model(
            args.backend,
            args.qubits,
            cache_path=args.cache,
            refresh=args.refresh,
            repeats=args.repeats,
        )
    except ValueError as error:
        print(str(error))
        return 2
    print(f"== cost model: backend={model.backend} qubits={model.num_qubits} ==")
    rows = [
        ("copy_ns", model.copy_ns, "one statevector copy (the reuse price)"),
        ("batch_overhead_ns", model.batch_overhead_ns,
         "fixed cost per batched kernel call"),
        ("batch_row_ns", model.batch_row_ns,
         "incremental cost per batch row"),
        ("sample_ns", model.sample_ns, "one leaf outcome draw"),
        ("one_node_gate_ns", model.one_node_gate_ns,
         "one gate on one node: overhead + one row"),
    ]
    width = max(len(name) for name, _, _ in rows)
    for name, value, note in rows:
        print(f"{name.ljust(width)}  {value:14,.1f}  {note}")
    print(f"{'copy_cost_in_gates'.ljust(width)}  "
          f"{model.copy_cost_in_gates:14.4f}  copy_ns / one_node_gate_ns")
    if args.cache is not None:
        print(f"cached to {args.cache}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation service: TCP listener or the replay benchmark."""
    if args.workers < 1:
        print("--workers must be >= 1")
        return 2
    if args.replay:
        if args.requests < 1:
            print("--requests must be >= 1")
            return 2
        import json as json_module

        from repro.serve import SimulationServer, run_replay

        with SimulationServer(workers=args.workers) as server:
            report = run_replay(
                server,
                num_requests=args.requests,
                num_qubits=args.qubits,
                shots=args.shots,
                noise=args.noise,
            )
        print(f"== serve replay: {report.num_requests} request(s), "
              f"{args.qubits} qubits, {args.shots} shots ==")
        rows = [
            ("cold pass", f"{report.cold_seconds:.3f} s",
             f"{report.cold_rps:8.1f} req/s"),
            ("warm pass", f"{report.warm_seconds:.3f} s",
             f"{report.warm_rps:8.1f} req/s"),
        ]
        for name, seconds, rps in rows:
            print(f"  {name}: {seconds}  {rps}")
        print(f"  speedup: {report.speedup:.2f}x  "
              f"warm hits: {report.warm_hits}/{report.num_requests}")
        print(f"  p50: {report.p50_ms:.3g} ms  p99: {report.p99_ms:.3g} ms")
        verdict = "identical" if report.identical else "DIVERGED"
        print(f"  cold vs warm counts: {verdict}")
        for mismatch in report.mismatches:
            print(f"    {mismatch}")
        for name, value in sorted(report.cache_counters.items()):
            print(f"  {name}: {value:g}")
        if args.json is not None:
            with open(args.json, "w", encoding="utf-8") as stream:
                json_module.dump(report.to_json(), stream, indent=2)
                stream.write("\n")
            print(f"report -> {args.json}")
        return 0 if report.identical else 1

    import asyncio

    from repro.serve import SimulationServer, serve_forever

    server = SimulationServer(workers=args.workers)
    try:
        asyncio.run(serve_forever(server, host=args.host, port=args.port))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.close()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    if args.command == "lint":
        from repro.lint.cli import run_lint_cli

        return run_lint_cli(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return _cmd_run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
