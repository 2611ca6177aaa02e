"""Batched-tree microbenchmark: sibling subtrees per kernel call vs one at a time.

Runs the same noisy tree-reuse workload — one high-arity two-layer plan —
through ``TQSimEngine`` at chunk cap 1 (one node at a time) and at the
default cap (the parent state broadcast into a ``(B, 2**n)`` batch, one
kernel call per gate for all ``B`` children) and asserts the batch
amortisation wins.  This is the acceptance microbenchmark for the chunked
traversal: reuse eliminates the shared-prefix work, batching accelerates the
fan-out that remains.
"""

import os
import time

import pytest
from conftest import print_table

from repro.circuits.library import qft_circuit
from repro.core import TQSimEngine, UniformCircuitPartitioner
from repro.noise.sycamore import depolarizing_noise_model

WIDTH = 10
SHOTS = 256
ROUNDS = 3


def _plan():
    circuit = qft_circuit(WIDTH)
    noise_model = depolarizing_noise_model()
    plan = UniformCircuitPartitioner(2).plan(circuit, SHOTS, noise_model)
    return circuit, noise_model, plan


def _run_engine(**caps) -> tuple[float, object]:
    circuit, noise_model, plan = _plan()
    engine = TQSimEngine(noise_model, seed=9, **caps)
    timings, result = [], None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = engine.run(circuit, SHOTS, plan=plan)
        timings.append(time.perf_counter() - start)
    return min(timings), result


def test_batched_tree_beats_sequential_tree(benchmark):
    sequential_seconds, sequential = _run_engine(max_batch=1)

    def run_batched():
        return _run_engine()

    batched_seconds, batched = benchmark.pedantic(
        run_batched, rounds=1, iterations=1
    )
    speedup = sequential_seconds / batched_seconds
    print_table(
        f"Batched tree — {WIDTH}-qubit noisy QFT, {SHOTS} shots, "
        f"tree {sequential.metadata['tree']}",
        [
            {"execution": "chunk cap 1", "seconds": sequential_seconds},
            {"execution": "default chunk cap", "seconds": batched_seconds},
            {"execution": "speedup", "seconds": speedup},
        ],
    )
    # Identical accounted work regardless of timing flakiness.
    assert batched.cost.gate_applications == sequential.cost.gate_applications
    assert batched.cost.noise_applications == sequential.cost.noise_applications
    assert batched.cost.state_copies == sequential.cost.state_copies
    assert batched.cost.leaf_samples == sequential.cost.leaf_samples
    assert batched.shots == sequential.shots
    # Seeding contract v2: per-node path-keyed streams make every chunk
    # size bitwise identical, not just statistically equivalent.
    assert batched.counts == sequential.counts
    if os.environ.get("CI"):
        pytest.skip(
            f"timing assertion skipped on CI (measured speedup {speedup:.2f}x)"
        )
    # Path-keyed counter streams (vectorised block draws) plus the
    # per-subcircuit noise pre-draw push the measured win well past the
    # 1.5x floor the v5 seed shipped with; 5x+ is typical on one core.
    assert speedup >= 3.5
