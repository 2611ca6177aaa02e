"""Microbenchmark: pool dispatch crash recovery.

What does one worker crash cost?  An injected ``os._exit`` on shard 0's
first attempt forces the full recovery path (broken-pool detection, worker
rebuild, re-run); the benchmark prints the measured recovery time next to
the healthy pool run.

The hard assertions are the exactness contract (both legs bitwise
identical to serial) and the recovery accounting.
"""

from conftest import print_table

from repro.circuits.library import qft_circuit
from repro.core import ManualPartitioner
from repro.experiments.common import measure_faulty_dispatch
from repro.noise import depolarizing_noise_model

TREE_ARITIES = (16, 16)
WIDTH = 9
SHOTS = 256
REPEATS = 3


def test_resilient_dispatch_overhead_and_recovery(bench_config):
    noise_model = depolarizing_noise_model()
    width = min(WIDTH, bench_config.max_qubits)
    circuit = qft_circuit(width)
    config = bench_config.scaled(shots=SHOTS)
    plan = ManualPartitioner(TREE_ARITIES).plan(circuit, SHOTS, noise_model)

    measured = measure_faulty_dispatch(
        circuit, noise_model, config, plan, num_workers=2, repeats=REPEATS
    )

    print_table(
        f"Pool dispatch — {measured.name}, {measured.num_workers} "
        "worker(s), one injected crash",
        [
            {
                "leg": "pool (healthy)",
                "seconds": measured.pool_seconds,
                "note": "baseline",
            },
            {
                "leg": "pool (1 crash)",
                "seconds": measured.faulty_seconds,
                "note": (
                    f"recovery {measured.recovery_overhead_seconds:.3f}s, "
                    f"{measured.pool_rebuilds} rebuild(s)"
                ),
            },
        ],
    )

    # Exactness: healthy or crashed, every leg merges to the serial bits.
    assert measured.counts_match_serial
    # The injected crash must actually have exercised the recovery path.
    assert measured.pool_rebuilds >= 1
    assert measured.faulty_seconds > 0
