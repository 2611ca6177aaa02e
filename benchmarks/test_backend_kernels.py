"""Backend kernel microbenchmark: in-place slice kernels vs the tensordot path.

Runs the same noisy workload on the reference ``numpy`` backend and the
default ``optimized`` backend and asserts the optimized kernels win.  This is
the acceptance microbenchmark for the backend subsystem.  A per-target table
of the dense 1q kernel on the engine's block shapes rides along; it asserts
bitwise equality only, so the rates land in the log with no timing bound.
"""

import os
import time
import timeit

import numpy as np
import pytest
from conftest import print_table

from repro.backends import get_backend
from repro.circuits import Gate
from repro.circuits.library import qft_circuit
from repro.core import BaselineNoisySimulator
from repro.noise.sycamore import depolarizing_noise_model

WIDTH = 10
SHOTS = 24
ROUNDS = 3
#: Block shapes of the per-target table: a full frontier chunk of an
#: 8-qubit workload (64 rows, row-inner) and a one-row block (chunk cap 1,
#: the per-shot baseline).
TABLE_QUBITS = 8
TABLE_ROWS = (64, 1)
TABLE_CALLS = 100


def _run_noisy(backend_name: str) -> float:
    """Best-of-N wall-clock of the noisy workload (robust to CI scheduling)."""
    circuit = qft_circuit(WIDTH)
    simulator = BaselineNoisySimulator(
        depolarizing_noise_model(), seed=9, backend=backend_name
    )
    timings = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        simulator.run(circuit, SHOTS)
        timings.append(time.perf_counter() - start)
    return min(timings)


def test_optimized_backend_beats_reference(benchmark):
    reference_seconds = _run_noisy("numpy")
    optimized_seconds = benchmark.pedantic(
        _run_noisy, args=("optimized",), rounds=1, iterations=1
    )
    print_table(
        f"Backend kernels — {WIDTH}-qubit noisy QFT, {SHOTS} shots",
        [
            {"backend": "numpy (reference)", "seconds": reference_seconds},
            {"backend": "optimized (default)", "seconds": optimized_seconds},
            {"backend": "speedup", "seconds": reference_seconds / optimized_seconds},
        ],
    )
    if os.environ.get("CI"):
        # Shared CI runners make wall-clock comparisons scheduling noise;
        # the table above still lands in the log, and the equivalence test
        # below keeps guarding correctness there.
        pytest.skip(
            "timing assertion skipped on CI "
            f"(measured speedup {reference_seconds / optimized_seconds:.2f}x)"
        )
    assert optimized_seconds < reference_seconds


def test_backends_produce_equivalent_statevectors():
    """Sanity companion to the timing claim: same physics on both backends."""
    import numpy as np

    circuit = qft_circuit(8)
    reference = get_backend("numpy")
    optimized = get_backend("optimized")
    state_ref = reference.initial_state(8)
    state_opt = optimized.initial_state(8)
    for gate in circuit:
        state_ref = reference.apply_gate(state_ref, gate)
        state_opt = optimized.apply_gate(state_opt, gate)
    assert np.allclose(state_opt, state_ref, atol=1e-10)


def _dense_1q_per_target(rows: int) -> list[dict]:
    """Time H on every target of a ``rows x 2**8`` block from
    ``allocate_batch``, checking each call's bytes against the block's rows
    updated one at a time as 1-D states."""
    backend = get_backend("optimized")
    hadamard = Gate.standard("h", (0,)).to_matrix()
    rng = np.random.default_rng(rows)
    dim = 2**TABLE_QUBITS
    block = backend.allocate_batch(TABLE_QUBITS, rows)
    block[...] = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    table = []
    for target in range(TABLE_QUBITS):
        expected = np.array([
            backend.apply_unitary(np.array(row), hadamard, (target,))
            for row in block
        ])
        assert backend.apply_unitary(block, hadamard, (target,)) is block
        assert block.tobytes() == expected.tobytes(), target
        # H is its own inverse, so repeated calls keep the values in range.
        seconds = min(timeit.repeat(
            lambda: backend.apply_unitary(block, hadamard, (target,)),
            number=TABLE_CALLS, repeat=5,
        )) / TABLE_CALLS
        table.append({
            "rows": rows,
            "target": target,
            "run": rows << target,
            "us_per_gate": seconds * 1e6,
            "ns_per_row": seconds * 1e9 / rows,
        })
    return table


@pytest.mark.parametrize("rows", TABLE_ROWS)
def test_dense_1q_per_target_table(rows):
    """Dense 1q rate per target on the engine's block shapes (no bound)."""
    print_table(
        f"Dense 1q kernel (H) per target — {rows} x 2^{TABLE_QUBITS} block",
        _dense_1q_per_target(rows),
    )
