"""Kraus-step tables: the time of one general-Kraus noise event.

The first table prints, for the paper's amplitude damping (AD), phase
damping (PD) and thermal relaxation (TR) channels, the nanoseconds per row
of one ``apply_noise_events_uniforms`` event on a row-inner block (the
engine's frontier-chunk layout) on the lowest, a middle and the highest
target: at 8 qubits on 1, 16 and 128 rows, at 12 and 16 qubits on one row
(a per-shot baseline) and on the default chunk cap's rows (8 and 1).

The second times the population sums a weight starts from at the same
widths and row counts: as ``KrausChannel.branch_weights`` takes them (two
reductions, over the upper half of the non-operand qubits and then the
rest) against one reduction over all non-operand axes of the
``operand_planes`` view.  Both keep the float columns as the inner axis;
the one reduction's inner loop is then two floats long on a one-row block.

Each cell is the fastest of ``ROUNDS`` rounds of ``REPEATS`` calls, the
row counts taking turns within a round.  The only assertion is that each
row's result equals the same row run alone: the timings are evidence, not
a gate.
"""

import time
from functools import partial

import numpy as np
from conftest import print_table

from repro.backends.optimized import OptimizedNumpyBackend
from repro.core.engine import default_chunk_cap
from repro.noise.channels import _population_split
from repro.noise.model import NoiseEvent
from repro.noise.sycamore import noise_model_by_code
from repro.statevector.apply import operand_planes

CODES = ("AD", "PD", "TR")
#: Row counts per width; the last is the default chunk cap.
ROWS = {8: (1, 16, 128), 12: (1, 8), 16: (1,)}
ROUNDS = 3
REPEATS = 40


def _targets(num_qubits: int) -> tuple[int, ...]:
    return (0, num_qubits // 2 - 1, num_qubits - 1)


def _block(backend, num_qubits: int, rows: int,
           rng: np.random.Generator) -> np.ndarray:
    dim = 2**num_qubits
    states = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    block = backend.allocate_batch(num_qubits, rows)
    block[...] = states / np.linalg.norm(states, axis=1, keepdims=True)
    return block


def _best_seconds(calls: dict) -> dict:
    """Fastest seconds per call of each of ``calls``, taking turns."""
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(ROUNDS):
        for key, call in calls.items():
            began = time.perf_counter()
            for _ in range(REPEATS):
                call()
            best[key] = min(best[key], (time.perf_counter() - began) / REPEATS)
    return best


def _check_rows_alone(backend, block, events, rng) -> None:
    alone = [row.copy() for row in block]
    uniforms = rng.random((len(block), 1))
    backend.apply_noise_events_uniforms(block, events, uniforms)
    for row, state in enumerate(alone):
        single = backend.apply_noise_events_uniforms(
            state, events, uniforms[row : row + 1]
        )
        assert single.tobytes() == block[row].tobytes(), row


def _event_rows(code: str, num_qubits: int, rng) -> list[dict]:
    backend = OptimizedNumpyBackend()
    channel = noise_model_by_code(code).single_qubit_channels[0]
    ns = {}
    for target in _targets(num_qubits):
        events = [NoiseEvent(channel, (target,))]
        largest = max(ROWS[num_qubits])
        _check_rows_alone(
            backend, _block(backend, num_qubits, largest, rng), events, rng
        )
        best = _best_seconds({
            rows: partial(backend.apply_noise_events_uniforms,
                          _block(backend, num_qubits, rows, rng), events,
                          rng.random((rows, 1)))
            for rows in ROWS[num_qubits]
        })
        ns[target] = {rows: seconds / rows * 1e9
                      for rows, seconds in best.items()}
    low, middle, high = _targets(num_qubits)
    return [
        {"channel": code, "qubits": num_qubits, "rows": rows,
         "targets": f"{low}/{middle}/{high}", "low": ns[low][rows],
         "middle": ns[middle][rows], "high": ns[high][rows]}
        for rows in ROWS[num_qubits]
    ]


def _split_sums(floats: np.ndarray, qubits: tuple[int, ...],
                num_qubits: int) -> np.ndarray:
    split, upper, lower, _ = _population_split(qubits, num_qubits)
    sums = np.square(floats).reshape(split)
    return np.add.reduce(np.add.reduce(sums, axis=upper), axis=lower)


def _one_sum(floats: np.ndarray, qubits: tuple[int, ...],
             num_qubits: int) -> np.ndarray:
    shape, _, _ = operand_planes(qubits, num_qubits)
    sums = np.square(floats).reshape(shape + (-1,))
    return np.add.reduce(sums, axis=tuple(range(0, len(shape), 2)))


def _population_rows(num_qubits: int, rng) -> list[dict]:
    backend = OptimizedNumpyBackend()
    rows_out = []
    for rows in ROWS[num_qubits]:
        floats = _block(backend, num_qubits, rows, rng).T.view(np.float64)
        for target in _targets(num_qubits):
            args = (floats, (target,), num_qubits)
            best = _best_seconds({"split": partial(_split_sums, *args),
                                  "one sum": partial(_one_sum, *args)})
            rows_out.append({
                "qubits": num_qubits, "rows": rows, "target": target,
                "split ns/row": best["split"] / rows * 1e9,
                "one sum ns/row": best["one sum"] / rows * 1e9,
                "one sum / split": best["one sum"] / best["split"],
            })
    return rows_out


def test_kraus_step_ns_per_row():
    for num_qubits, rows in ROWS.items():
        assert rows[-1] == default_chunk_cap(num_qubits)
    rng = np.random.default_rng(25)
    print_table(
        f"Kraus step - ns per row of one event, row-inner blocks "
        f"(best of {ROUNDS} x {REPEATS})",
        [row for num_qubits in ROWS for code in CODES
         for row in _event_rows(code, num_qubits, rng)],
    )
    print_table(
        f"Population sums - two reductions (split) vs one, ns per row "
        f"(best of {ROUNDS} x {REPEATS})",
        [row for num_qubits in ROWS for row in _population_rows(num_qubits, rng)],
    )
