"""Run the benchmark: ``python3 bench/run.py [options]``.

Each selected workload runs in a fresh process of its own, one after
another, so workloads never overlap.  A run prints every metric by name
with its unit, checks the outputs, and (for a full run or with ``--out``)
writes a JSON ledger.

Options:

``--workload NAME``   one workload from ``BENCHMARK.json`` (default: all)
``--seed N``          seed of the generated inputs (default 0)
``--seconds S``       measuring time per workload (default ``run_seconds``)
``--trace [0|1]``     per-layer run instead of the end-to-end one
``--quick``           shots and requests divided by 8, one round; a smoke
                      test, never used for claims
``--out PATH``        ledger path (default ``bench/results/latest.json`` or
                      ``latest.trace.json`` when all workloads run)

With ``--workload``, the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of ``BENCHMARK.json`` (``per_layer`` with
``--trace 1``).  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import ledger  # noqa: E402  (the script's own package)

ROOT = ledger.ROOT
#: Thread pools of the BLAS libraries are pinned to one thread, so a
#: workload never runs more threads than its own processes, and string
#: hashing is fixed, so dict and set layouts repeat from one workload
#: process to the next.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: Fresh processes whose set-up times give ``setup_s`` (the measuring
#: process is one of them).
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path)
    # Internal: run one workload in this process and print its report.
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Child side
# ---------------------------------------------------------------------------
def child_main(args: argparse.Namespace, started: float) -> int:
    # Pinned before the simulator is imported, so set-up and every one-core
    # leg run on the core the speed probe measures (see workloads.SpeedProbe).
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    sys.path.insert(0, str(ROOT / "src"))
    from bench.probe import SpeedProbe

    probe = SpeedProbe(cpus)
    # Set-up, imports included, is timed under the probe from the start of
    # main().
    with probe.timing(since=started) as setup_timing:
        from bench import workloads

        setup = workloads.set_up(args.child, args.seed, args.quick)
    report = workloads.run_child(
        args.child, setup, probe, setup_timing, args.seconds, bool(args.trace),
        args.quick, args.setup_only,
    )
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------
def call_child(args: argparse.Namespace, name: str, seconds: float,
               setup_only: bool = False) -> dict[str, Any]:
    """Run one workload process to completion and parse its report."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", name,
        "--seed", str(args.seed), "--seconds", repr(seconds),
        "--trace", str(args.trace),
    ]
    if args.quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, **PINNED_ENV)
    # A session of its own lets a timeout stop the pool workers too.
    process = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                               stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{name}: timed out after {CHILD_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: workload process exited with "
                           f"{process.returncode}")
    return json.loads(lines[-1])


def run_workload(args: argparse.Namespace, name: str, seconds: float
                 ) -> dict[str, Any]:
    """Set-up samples, then the measuring process; one report."""
    samples = []
    if not (args.quick or args.trace):
        samples = [call_child(args, name, seconds, setup_only=True)
                   for _ in range(SETUP_SAMPLES - 1)]
    report = call_child(args, name, seconds)
    samples.append({key: report.pop(key) for key in ("setup_s", "setup_wall_s")})
    metrics = report["metrics"]
    metrics["setup_s"] = ledger.distribution([s["setup_s"] for s in samples], "s")
    report["extra"].setdefault("wall_clock", {})["setup_s"] = statistics.median(
        s["setup_wall_s"] for s in samples)
    metrics["failed_frac"] = ledger.scalar(
        report["failed"] / max(report["attempted"], 1), "ratio",
        report["attempted"],
    )
    if args.trace:
        return report
    derived = report["derived"] = {
        "speedup_over_baseline": metrics["shots_per_s"]["value"]
        / metrics["baseline_shots_per_s"]["value"],
    }
    wall = report["extra"]["wall_clock"]
    if "pool2_shots_per_s" in wall:
        # The pool runs on two cores in wall seconds: compare wall with wall.
        derived["pool2_speedup_over_engine"] = (
            wall["pool2_shots_per_s"] / wall["engine_shots_per_s"])
    return report


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def fingerprint() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
        "pinned_env": PINNED_ENV,
    }


def contract_metrics(report: dict[str, Any], wanted: list[dict[str, str]]
                     ) -> dict[str, Any]:
    """The metrics ``BENCHMARK.json`` names that this run measured."""
    source = report.get("layers", {}) | report["metrics"]
    return {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
            for m in wanted if m["name"] in source}


def print_report(name: str, report: dict[str, Any]) -> None:
    for metric, entry in sorted(report["metrics"].items()) + sorted(
            report.get("layers", {}).items()):
        line = f"{name:12s} {metric:36s} {entry['value']:14.6g} {entry['unit']}"
        if entry.get("n", 1) > 1:
            line += (f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, "
                     f"n={entry['n']}]")
        print(line)
    for ratio, value in sorted(report.get("derived", {}).items()):
        print(f"{name:12s} {ratio:36s} {value:14.4g} x (derived, not gated)")
    for failure in report["failures"]:
        print(f"{name:12s} FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if args.child:
        return child_main(args, started)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = ledger.load_config()
    names = [w["name"] for w in config["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    wanted = config["per_layer" if args.trace else "end_to_end"]
    env = fingerprint()
    reports = {}
    for name in [args.workload] if args.workload else names:
        try:
            report = run_workload(args, name, seconds)
        except RuntimeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        env["numpy"] = report.pop("numpy")
        measured = contract_metrics(report, wanted)
        report["failures"] += [f"metric {m['name']} was not measured"
                               for m in wanted if m["name"] not in measured]
        report["failed"] = len(report["failures"])
        print_report(name, report)
        reports[name] = report
    env["loadavg_end"] = list(os.getloadavg())

    out = args.out
    if out is None and args.workload is None:
        out = ROOT / "bench" / "results" / (
            "latest.trace.json" if args.trace else "latest.json")
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "seed": args.seed, "seconds": seconds, "quick": args.quick,
            "trace": bool(args.trace), "env": env, "workloads": reports,
        }, indent=1, sort_keys=True) + "\n")
        print(f"ledger written to {out}")

    correct = all(report["failed"] == 0 for report in reports.values())
    if args.workload is not None:
        report = reports[args.workload]
        print(json.dumps({"correct": correct, "attempted": report["attempted"],
                          "failed": report["failed"],
                          "metrics": contract_metrics(report, wanted)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
