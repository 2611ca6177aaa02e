"""Microbenchmark: serial vs multiprocess dispatch of one high-arity plan.

Prints the measured scaling table for the CI smoke job.  Worker counts are
capped at the runner's cores: an oversubscribed pool measures scheduler
thrash, not the subsystem.  The hard assertions are the exactness contract
(bitwise-identical merged counts on any machine); wall-clock speedup is
asserted only where the hardware can actually deliver it, and leniently —
timing on shared CI runners is noisy.
"""

import os

from conftest import print_table

from repro.circuits.library import qft_circuit
from repro.core import ManualPartitioner, TQSimEngine
from repro.dispatch import SerialDispatcher
from repro.experiments.common import (
    dispatch_worker_counts,
    measure_dispatch_scaling,
)
from repro.noise import depolarizing_noise_model

TREE_ARITIES = (16, 16)
WIDTH = 9
SHOTS = 256


def test_parallel_dispatch_scaling(bench_config):
    cores = os.cpu_count() or 1
    # The shared default policy: (1, 2, 4) capped at the runner's cores.
    worker_counts = dispatch_worker_counts(bench_config)
    noise_model = depolarizing_noise_model()
    width = min(WIDTH, bench_config.max_qubits)
    circuit = qft_circuit(width)
    config = bench_config.scaled(shots=SHOTS)
    plan = ManualPartitioner(TREE_ARITIES).plan(circuit, SHOTS, noise_model)

    measured = measure_dispatch_scaling(
        circuit, noise_model, config, plan, worker_counts=worker_counts
    )
    single = TQSimEngine(
        noise_model, seed=config.seed + 2, backend="batched"
    ).run(circuit, SHOTS, plan=plan)

    print_table(
        f"Parallel dispatch — {measured.name}, tree {measured.tree}, "
        f"{cores} core(s), serial {measured.serial_seconds:.3f}s",
        measured.as_rows(),
    )

    # Exactness: sharded execution reproduces the single-engine run bitwise,
    # whatever the worker count or scheduling.
    assert measured.counts_match_serial
    from repro.dispatch import SerialDispatcher

    serial = SerialDispatcher(
        noise_model, seed=config.seed + 2, num_shards=2
    ).run(circuit, SHOTS, plan=plan)
    assert serial.counts == single.counts
    assert serial.cost.matches(single.cost)

    # Scaling: only meaningful with real cores behind the workers.  Two
    # workers on >= 2 cores must at least recoup the process overhead.
    speedups = measured.speedups
    if cores >= 2 and 2 in speedups:
        assert speedups[2] > 0.9, (
            f"2-worker dispatch slower than serial by more than overhead "
            f"margin: {speedups[2]:.2f}x"
        )
    if cores >= 4 and 4 in speedups:
        assert speedups[4] > 1.2, (
            f"expected real scaling at 4 workers on {cores} cores, "
            f"measured {speedups[4]:.2f}x"
        )


def test_parallel_dispatch_deep_sharding_low_arity(bench_config):
    """The A0-starvation case: a (2, 64) plan sharded below the first layer.

    First-layer sharding caps this plan at two shards; with ``max_depth=2``
    the planner splits the 64-way second layer so every worker gets a slice.
    The hard assertion is exactness (deep shards replay their prefix but the
    merged counts and counters stay bitwise the single-engine run's); the
    printed table shows what the descent costs and buys on this host.
    """
    cores = os.cpu_count() or 1
    worker_counts = dispatch_worker_counts(bench_config)
    noise_model = depolarizing_noise_model()
    width = min(WIDTH, bench_config.max_qubits)
    circuit = qft_circuit(width)
    config = bench_config.scaled(shots=128)
    plan = ManualPartitioner((2, 64)).plan(circuit, 128, noise_model)

    measured = measure_dispatch_scaling(
        circuit, noise_model, config, plan,
        worker_counts=worker_counts, max_depth=2,
    )
    single = TQSimEngine(
        noise_model, seed=config.seed + 2, backend="batched"
    ).run(circuit, 128, plan=plan)

    print_table(
        f"Deep-sharded dispatch — {measured.name}, tree {measured.tree}, "
        f"max_depth=2, {cores} core(s), serial {measured.serial_seconds:.3f}s",
        measured.as_rows(),
    )

    assert measured.counts_match_serial
    deep = SerialDispatcher(
        noise_model, seed=config.seed + 2, num_shards=4, max_depth=2
    ).run(circuit, 128, plan=plan)
    assert deep.counts == single.counts
    assert deep.cost.matches(single.cost)
    assert deep.metadata["dispatch"]["shard_depth"] == 1
    for point in measured.points:
        # Descent only where first-layer sharding would starve the pool.
        assert point.shard_depth == (1 if point.num_workers > 2 else 0)
        assert point.num_shards == point.num_workers
