"""Cross-backend equivalence, registry behavior and seeded determinism.

The optimized in-place backend must be numerically indistinguishable from the
reference tensordot backend on any circuit, and the engines must stay
reproducible under a fixed seed across the backend refactor.
"""

import numpy as np
import pytest

from repro.backends import (
    NumpyBackend,
    OptimizedNumpyBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.circuits import Circuit, Gate
from repro.circuits.library import ghz_circuit, qft_circuit
from repro.core import BaselineNoisySimulator, TQSimEngine, UniformCircuitPartitioner
from repro.noise import NoiseModel, ReadoutError, depolarizing_noise_model
from repro.statevector import StatevectorSimulator

ATOL = 1e-10

#: Gate vocabulary for the random-circuit property tests: a mix of dense,
#: diagonal, anti-diagonal, controlled/sparse and 3-qubit gates so every
#: kernel path of the optimized backend is exercised.
ONE_QUBIT_GATES = ("h", "x", "y", "z", "s", "sdg", "t", "sx", "rx", "ry", "rz", "p", "u")
TWO_QUBIT_GATES = ("cx", "cz", "swap", "ch", "cp", "crx", "rzz", "rxx", "fsim", "iswap")
THREE_QUBIT_GATES = ("ccx", "cswap")

_PARAM_COUNTS = {"rx": 1, "ry": 1, "rz": 1, "p": 1, "u": 3, "cp": 1, "crx": 1,
                 "rzz": 1, "rxx": 1, "fsim": 2}


def random_circuit(num_qubits: int, num_gates: int, rng: np.random.Generator) -> Circuit:
    """A random circuit mixing 1q/2q/3q standard gates and raw unitaries."""
    circuit = Circuit(num_qubits)
    for _ in range(num_gates):
        kind = rng.random()
        if kind < 0.45:
            name = str(rng.choice(ONE_QUBIT_GATES))
            qubits = (int(rng.integers(num_qubits)),)
        elif kind < 0.85:
            name = str(rng.choice(TWO_QUBIT_GATES))
            qubits = tuple(int(q) for q in rng.choice(num_qubits, 2, replace=False))
        elif kind < 0.95 and num_qubits >= 3:
            name = str(rng.choice(THREE_QUBIT_GATES))
            qubits = tuple(int(q) for q in rng.choice(num_qubits, 3, replace=False))
        else:
            # Haar-ish random dense 2-qubit unitary via QR.
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q, r = np.linalg.qr(raw)
            unitary = q * (np.diag(r) / np.abs(np.diag(r)))
            circuit.append(Gate.from_matrix(
                unitary, tuple(int(q) for q in rng.choice(num_qubits, 2, replace=False))
            ))
            continue
        params = tuple(rng.uniform(-np.pi, np.pi, _PARAM_COUNTS.get(name, 0)))
        circuit.append(Gate.standard(name, qubits, *params))
    return circuit


#: Storage layouts of a trajectory block that the bitwise tests run over: a
#: block from ``allocate_batch`` (row-inner), the leading rows of a wider
#: ``allocate_batch`` buffer (the engine's last chunk of a layer), a
#: C-ordered array, and rows fancy-indexed out of a row-inner buffer (a
#: C-ordered copy, as the noise steps make of the rows that drew a branch).
BLOCK_LAYOUTS = ("allocated", "partial", "c_order", "fancy")


def in_layout(block: np.ndarray, layout: str) -> np.ndarray:
    """A copy of the ``(B, 2**n)`` ``block`` stored in ``layout``."""
    rows, dim = block.shape
    num_qubits = dim.bit_length() - 1
    backend = OptimizedNumpyBackend()
    if layout == "allocated":
        out = backend.allocate_batch(num_qubits, rows)
    elif layout == "partial":
        out = backend.allocate_batch(num_qubits, rows + 3)[:rows]
    elif layout == "c_order":
        out = np.empty((rows, dim), dtype=complex)
    elif layout == "fancy":
        wide = backend.allocate_batch(num_qubits, 2 * rows)
        picked = 2 * np.arange(rows) + 1
        wide[picked] = block
        return wide[picked]
    else:
        raise ValueError(f"unknown layout {layout!r}")
    out[...] = block
    return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_registry_resolves_names_and_default():
    assert isinstance(get_backend("numpy"), NumpyBackend)
    assert isinstance(get_backend("reference"), NumpyBackend)
    assert isinstance(get_backend("optimized"), OptimizedNumpyBackend)
    assert isinstance(get_backend("OPTIMIZED"), OptimizedNumpyBackend)
    # The optimized backend is the default everywhere.
    assert isinstance(get_backend(None), OptimizedNumpyBackend)
    assert {"numpy", "optimized"} <= set(available_backends())


def test_registry_passes_instances_through():
    backend = OptimizedNumpyBackend()
    assert get_backend(backend) is backend


def test_registry_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("no_such_backend")


def test_register_backend_rejects_duplicates_and_accepts_new():
    with pytest.raises(ValueError, match="already registered"):
        register_backend("numpy", NumpyBackend)

    class _Custom(NumpyBackend):
        name = "custom_test_backend"

    register_backend("custom_test_backend", _Custom, overwrite=True)
    assert isinstance(get_backend("custom_test_backend"), _Custom)


def test_simulators_use_optimized_backend_by_default():
    assert isinstance(TQSimEngine().backend, OptimizedNumpyBackend)
    assert isinstance(BaselineNoisySimulator().backend, OptimizedNumpyBackend)
    assert isinstance(StatevectorSimulator().backend, OptimizedNumpyBackend)


# ---------------------------------------------------------------------------
# Cross-backend statevector equivalence
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_random_circuits_agree_across_backends(seed):
    rng = np.random.default_rng(1000 + seed)
    num_qubits = int(rng.integers(3, 7))
    circuit = random_circuit(num_qubits, num_gates=40, rng=rng)
    reference = get_backend("numpy")
    optimized = get_backend("optimized")
    state_ref = reference.initial_state(num_qubits)
    state_opt = optimized.initial_state(num_qubits)
    for gate in circuit:
        state_ref = reference.apply_gate(state_ref, gate)
        state_opt = optimized.apply_gate(state_opt, gate)
    np.testing.assert_allclose(state_opt, state_ref, atol=ATOL, rtol=0)


@pytest.mark.parametrize("builder", [lambda: qft_circuit(6), lambda: ghz_circuit(6)])
def test_library_circuits_agree_through_simulator(builder):
    circuit = builder()
    reference = StatevectorSimulator(backend="numpy").run(circuit)
    optimized = StatevectorSimulator(backend="optimized").run(circuit)
    np.testing.assert_allclose(optimized.data, reference.data, atol=ATOL, rtol=0)


@pytest.mark.parametrize("layout", ["single", *BLOCK_LAYOUTS])
def test_optimized_backend_applies_in_place(layout):
    """Every kernel branch writes the caller's array, whatever its layout."""
    backend = OptimizedNumpyBackend()
    reference = NumpyBackend()
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
    state = rows[0].copy() if layout == "single" else in_layout(rows, layout)
    dense, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    gates = [
        Gate.standard("h", (2,)),
        Gate.standard("x", (0,)),
        Gate.standard("rz", (1,), 0.4),
        Gate.standard("cx", (3, 1)),
        Gate.standard("cz", (0, 2)),
        Gate.from_matrix(dense, (1, 3)),
        Gate.standard("ccx", (0, 1, 3)),
    ]
    for gate in gates:
        expected = reference.apply_gate(np.array(state), gate)
        result = backend.apply_gate(state, gate)
        assert result is state
        np.testing.assert_allclose(state, expected, atol=ATOL, rtol=0)


def test_reference_backend_does_not_mutate_input():
    backend = NumpyBackend()
    state = backend.initial_state(3)
    before = state.copy()
    backend.apply_gate(state, Gate.standard("h", (0,)))
    np.testing.assert_array_equal(state, before)


def test_kraus_operators_agree_across_backends():
    """Non-unitary matrices (Kraus operators) run through the same kernels."""
    rng = np.random.default_rng(7)
    state = rng.normal(size=16) + 1j * rng.normal(size=16)
    kraus = np.array([[1.0, 0.3], [0.0, 0.5]], dtype=complex)
    expected = get_backend("numpy").apply_unitary(state, kraus, (2,))
    actual = get_backend("optimized").apply_unitary(state.copy(), kraus, (2,))
    np.testing.assert_allclose(actual, expected, atol=ATOL, rtol=0)


def test_optimized_backend_validates_inputs():
    backend = OptimizedNumpyBackend()
    state = backend.initial_state(3)
    with pytest.raises(ValueError):
        backend.apply_unitary(state, np.eye(2), (5,))
    with pytest.raises(ValueError):
        backend.apply_unitary(state, np.eye(4), (0,))
    with pytest.raises(ValueError):
        backend.apply_unitary(state, np.eye(4), (1, 1))


# ---------------------------------------------------------------------------
# Seeded determinism across the refactor
# ---------------------------------------------------------------------------
def test_engine_counts_reproducible_with_seed():
    circuit = qft_circuit(5)
    noise_model = depolarizing_noise_model()
    partitioner = UniformCircuitPartitioner(3)
    first = TQSimEngine(noise_model, seed=11).run(circuit, 200,
                                                 partitioner=partitioner)
    second = TQSimEngine(noise_model, seed=11).run(circuit, 200,
                                                   partitioner=partitioner)
    assert first.counts == second.counts
    assert first.cost.state_copies == second.cost.state_copies
    assert first.metadata["backend"] == "optimized"


def test_baseline_counts_reproducible_with_seed():
    circuit = ghz_circuit(4)
    noise_model = depolarizing_noise_model()
    first = BaselineNoisySimulator(noise_model, seed=3).run(circuit, 150)
    second = BaselineNoisySimulator(noise_model, seed=3).run(circuit, 150)
    assert first.counts == second.counts


def test_engine_counts_agree_across_backends_with_same_seed():
    """Same seed, same RNG stream: both backends must sample identically."""
    circuit = qft_circuit(5)
    noise_model = depolarizing_noise_model()
    partitioner = UniformCircuitPartitioner(2)
    optimized = TQSimEngine(noise_model, seed=21, backend="optimized").run(
        circuit, 128, partitioner=partitioner
    )
    reference = TQSimEngine(noise_model, seed=21, backend="numpy").run(
        circuit, 128, partitioner=partitioner
    )
    assert optimized.counts == reference.counts


def test_readout_error_applies_through_shared_sampler():
    model = NoiseModel(readout_error=ReadoutError(1.0))
    circuit = Circuit(2).x(0)
    result = BaselineNoisySimulator(model, seed=5).run(circuit, 25)
    # |01> with every bit flipped reads out as |10>.
    assert result.counts == {"10": 25}
