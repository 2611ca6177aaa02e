"""Batched trajectories: kernel equivalence, noise semantics, counts.

The ``batched`` registry alias (the optimized backend) must advance every
row of a ``(B, 2**n)`` block exactly like it advances a single state, and the
:class:`~repro.core.batched.BatchedTrajectorySimulator` built on it runs the
per-shot baseline's one-layer plan at a larger chunk cap, so for one seed it
is *identical* to the baseline, noise and readout error included.
"""

import numpy as np
import pytest
from test_backend_equivalence import BLOCK_LAYOUTS, in_layout, random_circuit

from repro.backends import (
    OptimizedNumpyBackend,
    available_backends,
    get_backend,
)
from repro.circuits import Circuit, Gate
from repro.circuits.library import ghz_circuit, qft_circuit
from repro.core import BaselineNoisySimulator, BatchedTrajectorySimulator
from repro.core.pathrng import PathStream, child_keys, draw_block, run_root_key
from repro.metrics import total_variation_distance
from repro.noise import (
    KrausChannel,
    NoiseModel,
    PauliChannel,
    ReadoutError,
    depolarizing_noise_model,
)

ATOL = 1e-10


def _random_batch(batch: int, num_qubits: int, rng: np.random.Generator
                  ) -> np.ndarray:
    block = rng.normal(size=(batch, 2**num_qubits)) + 1j * rng.normal(
        size=(batch, 2**num_qubits)
    )
    return block / np.linalg.norm(block, axis=1, keepdims=True)


def _streams(rows: int, seed: int = 12345) -> list[PathStream]:
    """One path-keyed stream per trajectory, as the engine keys its rows."""
    return [PathStream(key) for key in child_keys(run_root_key(seed), 0, rows)]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_batched_backend_is_registered():
    # "batched" survives as an alias of the optimized backend.
    assert "batched" in available_backends()
    assert isinstance(get_backend("batched"), OptimizedNumpyBackend)
    assert isinstance(get_backend("batched_numpy"), OptimizedNumpyBackend)
    assert get_backend("batched").name == "optimized"


def test_batched_backend_validates_inputs():
    backend = get_backend("batched")
    state = backend.reset_state(backend.allocate_batch(3, 2))
    with pytest.raises(ValueError):
        backend.apply_unitary(state, np.eye(2), (5,))
    with pytest.raises(ValueError):
        backend.apply_unitary(state, np.eye(4), (0,))
    with pytest.raises(ValueError):
        backend.apply_unitary(state, np.eye(4), (1, 1))
    with pytest.raises(ValueError):
        backend.allocate_batch(3, 0)


# ---------------------------------------------------------------------------
# Kernel equivalence (every kernel path, batched vs sequential)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
@pytest.mark.parametrize("seed", range(6))
def test_batched_random_circuits_match_sequential_backends(seed, layout):
    rng = np.random.default_rng(2000 + seed)
    num_qubits = int(rng.integers(3, 7))
    circuit = random_circuit(num_qubits, num_gates=40, rng=rng)
    batch = 4
    block = in_layout(_random_batch(batch, num_qubits, rng), layout)
    rows_optimized = np.array(block)
    rows_reference = [row.copy() for row in block]
    batched = get_backend("batched")
    optimized = get_backend("optimized")
    reference = get_backend("numpy")
    for gate in circuit:
        assert batched.apply_gate(block, gate) is block
        for i in range(batch):
            rows_optimized[i] = optimized.apply_gate(rows_optimized[i], gate)
            rows_reference[i] = reference.apply_gate(rows_reference[i], gate)
    # The batched kernels mirror the optimized kernels operation for
    # operation, so each row must match bit for bit ...
    np.testing.assert_array_equal(block, rows_optimized)
    # ... and stay within numerical tolerance of the tensordot reference.
    np.testing.assert_allclose(block, np.array(rows_reference), atol=ATOL, rtol=0)


def test_batched_backend_accepts_single_statevector():
    """The scalar Backend contract holds: 1-D states run through the same
    kernels as a batch of one, and allocate_state stays one-dimensional."""
    batched = get_backend("batched")
    optimized = get_backend("optimized")
    state = batched.initial_state(4)
    assert state.shape == (2**4,)
    expected = optimized.initial_state(4)
    for gate in qft_circuit(4):
        state = batched.apply_gate(state, gate)
        expected = optimized.apply_gate(expected, gate)
    np.testing.assert_array_equal(state, expected)


def test_batched_backend_works_in_sequential_engines():
    """A registry name must work with every engine (README contract)."""
    circuit = qft_circuit(5)
    noise_model = depolarizing_noise_model()
    via_batched = BaselineNoisySimulator(
        noise_model, seed=13, backend="batched"
    ).run(circuit, 40)
    via_optimized = BaselineNoisySimulator(
        noise_model, seed=13, backend="optimized"
    ).run(circuit, 40)
    # Same kernels, same RNG stream: identical counts.
    assert via_batched.counts == via_optimized.counts
    assert via_batched.metadata["backend"] == "optimized"


def test_allocate_batch_is_row_inner():
    """A block keeps its (rows, 2**n) shape with its rows adjacent."""
    block = get_backend("batched").allocate_batch(5, 8)
    assert block.shape == (8, 2**5)
    assert block.strides[0] == block.itemsize
    assert block.T.flags.c_contiguous


@pytest.mark.parametrize("layout", ["allocated", "partial"])
def test_block_helpers_match_c_ordered_copies(layout):
    """gather_into, broadcast_into and reset_state write a row-inner block,
    or the leading rows of a wider one, exactly as a C-ordered copy, and
    leave the buffer's other rows alone."""
    backend = get_backend("batched")
    rng = np.random.default_rng(21)
    num_qubits, rows = 4, 6
    parents = _random_batch(3, num_qubits, rng)
    state = _random_batch(1, num_qubits, rng)[0]
    picked = np.array([2, 0, 0, 1, 2, 1])
    buffer = backend.allocate_batch(
        num_qubits, rows if layout == "allocated" else rows + 2
    )
    buffer.fill(np.nan)
    block = buffer[:rows]
    copy = np.full((rows, 2**num_qubits), np.nan, dtype=complex)
    ground = np.zeros_like(copy)
    ground[:, 0] = 1.0
    cases = [
        (lambda out, source: backend.gather_into(out, source, picked),
         parents[picked]),
        (lambda out, source: backend.broadcast_into(out, state),
         np.broadcast_to(state, copy.shape)),
        (lambda out, source: backend.reset_state(out), ground),
    ]
    for call, expected in cases:
        assert call(block, in_layout(parents, "allocated")) is block
        call(copy, parents)
        np.testing.assert_array_equal(block, expected)
        np.testing.assert_array_equal(copy, expected)
        assert np.isnan(buffer[rows:]).all()


def test_batched_backend_partial_view():
    """Kernels work on a leading view of the pooled block (partial pass)."""
    backend = get_backend("batched")
    buffer = backend.allocate_batch(3, 8)
    state = backend.reset_state(buffer[:3])
    backend.apply_gate(state, Gate.standard("h", (1,)))
    expected = get_backend("optimized").apply_gate(
        get_backend("optimized").initial_state(3), Gate.standard("h", (1,))
    )
    np.testing.assert_array_equal(state, np.tile(expected, (3, 1)))


# ---------------------------------------------------------------------------
# Batched noise semantics
# ---------------------------------------------------------------------------
def test_mixture_indices_sampled_per_trajectory():
    channel = PauliChannel({"X": 0.5})
    indices = channel.mixture_indices_from_uniforms(
        draw_block(_streams(2000))[:, 0]
    )
    assert indices.shape == (2000,)
    assert set(np.unique(indices)) <= {0, 1}
    assert abs(indices.mean() - 0.5) < 0.05


def test_groupwise_noise_application_partitions_the_batch():
    """Each trajectory gets its own sampled branch, applied group-wise."""
    backend = get_backend("batched")
    state = backend.reset_state(backend.allocate_batch(1, 64))
    channel = PauliChannel({"X": 0.5})
    event = NoiseModel(single_qubit_channels=[channel]).events_for_gate(
        Gate.standard("h", (0,))
    )[0]
    backend.apply_noise_events_multi(state, [event], _streams(64))
    flipped = np.isclose(np.abs(state[:, 1]), 1.0)
    untouched = np.isclose(np.abs(state[:, 0]), 1.0)
    assert np.all(flipped | untouched)
    # With p=0.5 over 64 trajectories both groups are present (p ~ 2**-64
    # of this flaking per tail, and the streams are deterministic anyway).
    assert flipped.any() and untouched.any()


def test_batched_noise_without_identity_first_branch():
    """Branch 0 of an identity-not-first mixture must be applied, batched too."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    always_x = KrausChannel([x], name="always_x", mixture=([1.0], [x]))
    backend = get_backend("batched")
    state = backend.reset_state(backend.allocate_batch(1, 4))
    event = NoiseModel(single_qubit_channels=[always_x]).events_for_gate(
        Gate.standard("h", (0,))
    )[0]
    backend.apply_noise_events_multi(state, [event], _streams(4))
    np.testing.assert_allclose(np.abs(state[:, 1]), 1.0, atol=ATOL)


def test_batched_general_kraus_keeps_norm_per_trajectory(rng):
    from repro.noise import AmplitudeDampingChannel

    backend = get_backend("batched")
    state = _random_batch(8, 3, rng)
    event = NoiseModel(
        single_qubit_channels=[AmplitudeDampingChannel(0.4)]
    ).events_for_gate(Gate.standard("h", (1,)))[0]
    backend.apply_noise_events_multi(state, [event], _streams(8))
    np.testing.assert_allclose(
        np.linalg.norm(state, axis=1), np.ones(8), atol=1e-8
    )


# ---------------------------------------------------------------------------
# Batched outcome sampling
# ---------------------------------------------------------------------------
def test_sample_outcomes_one_per_trajectory():
    backend = get_backend("batched")
    state = backend.reset_state(backend.allocate_batch(2, 5))
    backend.apply_gate(state, Gate.standard("x", (1,)))
    assert backend.sample_outcomes_multi(state, _streams(5)) == ["10"] * 5


def test_sample_outcomes_vectorized_readout_flips():
    backend = get_backend("batched")
    state = backend.reset_state(backend.allocate_batch(2, 6))
    backend.apply_gate(state, Gate.standard("x", (0,)))
    outcomes = backend.sample_outcomes_multi(
        state, _streams(6), ReadoutError(1.0)
    )
    assert outcomes == ["10"] * 6


def test_sample_outcome_on_batched_state_raises():
    backend = get_backend("batched")
    state = backend.reset_state(backend.allocate_batch(2, 3))
    (stream,) = _streams(1)
    with pytest.raises(ValueError, match="sample_outcomes"):
        backend.sample_outcome(state, stream)
    single = backend.reset_state(backend.allocate_batch(2, 1))
    assert backend.sample_outcome(single, stream) == "00"


# ---------------------------------------------------------------------------
# Batched-vs-sequential simulator equivalence (the acceptance tests)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("batch_size", [1, 4, 16])
@pytest.mark.parametrize("noise", ["ideal", "depolarizing", "readout"])
def test_counts_identical_to_baseline(batch_size, noise):
    """Same seed: shot ``j`` draws from the same path-keyed stream at every
    batch size, so counts and counters are bit-identical, noise and
    readout error included."""
    circuit = qft_circuit(5)
    shots = 50  # deliberately not a multiple of 16 (partial final pass)
    model = {
        "ideal": None,
        "depolarizing": depolarizing_noise_model(),
        "readout": depolarizing_noise_model(readout_error=0.05),
    }[noise]
    batched = BatchedTrajectorySimulator(
        model, seed=9, batch_size=batch_size
    ).run(circuit, shots)
    baseline = BaselineNoisySimulator(model, seed=9, backend="optimized").run(
        circuit, shots
    )
    assert batched.counts == baseline.counts
    assert batched.cost.matches(baseline.cost)


@pytest.mark.parametrize("batch_size", [1, 4, 16])
@pytest.mark.parametrize("with_readout", [False, True])
def test_noisy_counts_statistically_consistent(
    batch_size, with_readout, strong_depolarizing_model
):
    """Different seeds draw different trajectories; the distributions must
    still agree."""
    circuit = ghz_circuit(4)
    shots = 800
    model = strong_depolarizing_model
    if with_readout:
        model = depolarizing_noise_model(
            single_qubit_error=0.05, two_qubit_error=0.10, readout_error=0.03
        )
    batched = BatchedTrajectorySimulator(
        model, seed=31, batch_size=batch_size
    ).run(circuit, shots)
    sequential = BaselineNoisySimulator(model, seed=77, backend="optimized").run(
        circuit, shots
    )
    assert batched.total_outcomes == shots
    distance = total_variation_distance(
        batched.probabilities(), sequential.probabilities()
    )
    assert distance < 0.12


def test_noisy_counts_consistent_with_reference_backend(
    strong_depolarizing_model,
):
    circuit = ghz_circuit(4)
    shots = 800
    batched = BatchedTrajectorySimulator(
        strong_depolarizing_model, seed=5, batch_size=8
    ).run(circuit, shots)
    reference = BaselineNoisySimulator(
        strong_depolarizing_model, seed=6, backend="numpy"
    ).run(circuit, shots)
    distance = total_variation_distance(
        batched.probabilities(), reference.probabilities()
    )
    assert distance < 0.12


def test_batched_readout_error_deterministic_flip():
    model = NoiseModel(readout_error=ReadoutError(1.0))
    circuit = Circuit(2).x(0)
    result = BatchedTrajectorySimulator(model, seed=5, batch_size=4).run(
        circuit, 25
    )
    # |01> with every bit flipped reads out as |10>.
    assert result.counts == {"10": 25}


def test_batched_counts_reproducible_with_seed(strong_depolarizing_model):
    circuit = ghz_circuit(4)
    first = BatchedTrajectorySimulator(
        strong_depolarizing_model, seed=3, batch_size=8
    ).run(circuit, 150)
    second = BatchedTrajectorySimulator(
        strong_depolarizing_model, seed=3, batch_size=8
    ).run(circuit, 150)
    assert first.counts == second.counts


# ---------------------------------------------------------------------------
# Simulator accounting and validation
# ---------------------------------------------------------------------------
def test_batched_cost_counters_keep_per_shot_semantics(
    bv6, depolarizing_model
):
    shots = 50
    result = BatchedTrajectorySimulator(
        depolarizing_model, seed=1, batch_size=16
    ).run(bv6, shots)
    sequential = BaselineNoisySimulator(depolarizing_model, seed=1).run(
        bv6, shots
    )
    assert result.cost.gate_applications == shots * bv6.num_gates
    assert result.cost.gate_applications == sequential.cost.gate_applications
    assert result.cost.noise_applications == sequential.cost.noise_applications
    assert result.cost.leaf_samples == shots
    assert result.cost.wall_time_seconds > 0
    assert result.metadata["simulator"] == "batched"
    assert result.metadata["batch_size"] == 16
    assert result.metadata["passes"] == 4  # ceil(50 / 16)


def test_batched_simulator_validation(ghz3):
    with pytest.raises(ValueError):
        BatchedTrajectorySimulator().run(ghz3, 0)
    with pytest.raises(ValueError):
        BatchedTrajectorySimulator(batch_size=0)
    # The engine's plan rejects an empty circuit.
    with pytest.raises(ValueError, match="empty circuit"):
        BatchedTrajectorySimulator(depolarizing_noise_model()).run(
            Circuit(3), 10
        )
