"""Microbenchmark: tracing overhead, disabled and enabled.

The observability contract (ISSUE: ``repro.obs``) has a quantitative half on
top of the bitwise one: a *disabled* tracer must cost the hot path under 2%
(the inert guard is one attribute lookup plus a no-op context manager), and a
fully *enabled* tracer must stay under 15% on the span-heavy one-node-at-a-time
traversal (``max_batch=1``: one span per tree node).  Both numbers are printed for the CI smoke log; the timing
assertions themselves are skipped on shared CI runners (scheduling noise),
exactly like the other wall-clock benchmarks here.  The bitwise assertion —
traced counts equal untraced counts — always runs.

The disabled-path bound is measured synthetically rather than as a
run-vs-run delta: two untraced runs differ by scheduling noise larger than
the effect being measured.  Instead we time the exact per-site cost of the
inert guard (``tracer.enabled`` check falling through to ``NULL_SPAN``),
multiply by the number of instrumented sites an enabled run actually
records, and compare that worst-case total against the untraced runtime.
"""

import os

import pytest
from conftest import print_table

from repro.circuits.library import qft_circuit
from repro.core import ManualPartitioner, TQSimEngine
from repro.noise import depolarizing_noise_model
from repro.obs import NULL_SPAN, NULL_TRACER, Tracer, clock

TREE_ARITIES = (16, 16)
WIDTH = 8
SHOTS = 256
SEED = 2025
ROUNDS = 3

DISABLED_BUDGET = 0.02
ENABLED_BUDGET = 0.15


def _engine(tracer=None):
    return TQSimEngine(
        depolarizing_noise_model(), seed=SEED, max_batch=1, tracer=tracer,
    )


def _run(tracer=None):
    """Best-of-N wall-clock of the one-node-at-a-time traversal."""
    circuit = qft_circuit(WIDTH)
    plan = ManualPartitioner(TREE_ARITIES).plan(
        circuit, SHOTS, depolarizing_noise_model()
    )
    timings = []
    result = None
    for _ in range(ROUNDS):
        with clock.stopwatch() as timer:
            result = _engine(tracer).run(circuit, SHOTS, plan=plan)
        timings.append(timer.elapsed)
    return result, min(timings)


def _null_guard_seconds(sites: int) -> float:
    """Time ``sites`` executions of the disabled-tracer guard.

    This is the exact shape every instrumented site compiles down to when
    tracing is off: one ``enabled`` attribute lookup and a ``NULL_SPAN``
    context entry/exit.
    """
    tracer = NULL_TRACER
    with clock.stopwatch() as timer:
        for _ in range(sites):
            with (tracer.span("site", a=1) if tracer.enabled else NULL_SPAN):
                pass
    return timer.elapsed


def test_tracing_overhead_budgets():
    untraced, untraced_seconds = _run()

    tracer = Tracer()
    traced, enabled_seconds = _run(tracer)
    sites = len(tracer.spans)
    assert sites > 100  # the traversal really is span-heavy

    disabled_seconds = _null_guard_seconds(sites)
    disabled_ratio = disabled_seconds / untraced_seconds
    enabled_ratio = enabled_seconds / untraced_seconds - 1.0

    print_table(
        f"Tracing overhead — {WIDTH}-qubit noisy QFT, tree {TREE_ARITIES}, "
        f"{SHOTS} shots, {sites} spans",
        [
            {"mode": "untraced", "seconds": untraced_seconds, "overhead": 0.0},
            {"mode": f"disabled guard x{sites}", "seconds": disabled_seconds,
             "overhead": disabled_ratio},
            {"mode": "enabled", "seconds": enabled_seconds,
             "overhead": enabled_ratio},
        ],
    )

    # The bitwise half of the contract holds on any machine, always.
    assert traced.counts == untraced.counts
    assert traced.cost.matches(untraced.cost)

    if os.environ.get("CI"):
        pytest.skip(
            "timing assertion skipped on CI (disabled "
            f"{disabled_ratio:.2%}, enabled {enabled_ratio:+.2%})"
        )
    assert disabled_ratio < DISABLED_BUDGET, (
        f"disabled-tracer guard cost {disabled_ratio:.2%} of the untraced "
        f"runtime (budget {DISABLED_BUDGET:.0%})"
    )
    assert enabled_ratio < ENABLED_BUDGET, (
        f"enabled tracing added {enabled_ratio:.2%} "
        f"(budget {ENABLED_BUDGET:.0%})"
    )
