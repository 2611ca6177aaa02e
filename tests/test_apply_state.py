"""Tests for the statevector kernels and the Statevector type."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Gate
from repro.circuits.circuit import _expand_gate
from repro.circuits.stdgates import cx_matrix, h_matrix, random_unitary
from repro.statevector import (
    Statevector,
    apply_gate,
    apply_kraus_to_density,
    apply_unitary,
    apply_unitary_to_density,
)
from repro.statevector.apply import local_indices, operand_planes


def test_apply_unitary_matches_dense_expansion(rng):
    num_qubits = 4
    state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    state /= np.linalg.norm(state)
    for targets in [(0,), (2,), (0, 3), (3, 1), (1, 2, 0)]:
        matrix = random_unitary(2 ** len(targets), rng)
        gate = Gate.from_matrix(matrix, targets)
        expected = _expand_gate(gate, num_qubits) @ state
        assert np.allclose(apply_unitary(state, matrix, targets), expected)


def test_local_indices_follow_the_gate_matrix_convention(rng):
    """A diagonal matrix scales amplitude b by its entry at local index b."""
    num_qubits = 4
    state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    for targets in [(0,), (2,), (0, 3), (3, 1), (1, 2, 0)]:
        diagonal = rng.normal(size=2 ** len(targets)) + 1j
        local = local_indices(targets, num_qubits)
        assert not local.flags.writeable
        np.testing.assert_allclose(
            state * diagonal[local],
            apply_unitary(state, np.diag(diagonal), targets),
        )


def test_operand_planes_group_amplitudes_by_local_index(rng):
    """Plane ``l`` holds the amplitudes at local index ``l``, and once the
    other axes are summed away it sits at ``positions[l]``."""
    num_qubits = 5
    state = rng.normal(size=2**num_qubits)
    for targets in [(0,), (4,), (0, 3), (3, 1), (1, 4, 0)]:
        shape, planes, positions = operand_planes(targets, num_qubits)
        local = local_indices(targets, num_qubits)
        basis = np.arange(2**num_qubits).reshape(shape)
        sums = state.reshape(shape).sum(axis=tuple(range(0, len(shape), 2)))
        assert sorted(positions) == list(range(2 ** len(targets)))
        for index, (plane, position) in enumerate(zip(planes, positions)):
            assert np.array_equal(
                np.sort(basis[plane], axis=None), np.flatnonzero(local == index)
            )
            assert np.isclose(sums.ravel()[position], state[local == index].sum())


def test_apply_unitary_validates_inputs(rng):
    state = Statevector.zero_state(3).data
    with pytest.raises(ValueError):
        apply_unitary(state, np.eye(2), (5,))
    with pytest.raises(ValueError):
        apply_unitary(state, np.eye(2), (0, 1))
    with pytest.raises(ValueError):
        apply_unitary(state, np.eye(4), (1, 1))
    with pytest.raises(ValueError):
        apply_unitary(np.zeros(3), np.eye(2), (0,))


def test_apply_gate_uses_gate_operands():
    state = Statevector.zero_state(2).data
    state = apply_gate(state, Gate.standard("x", (1,)))
    assert np.allclose(state, [0, 0, 1, 0])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), target=st.integers(0, 4))
def test_apply_unitary_preserves_norm(seed, target):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=32) + 1j * rng.normal(size=32)
    state /= np.linalg.norm(state)
    result = apply_unitary(state, random_unitary(2, rng), (target,))
    assert np.isclose(np.linalg.norm(result), 1.0)


def test_apply_unitary_to_density_matches_conjugation(rng):
    psi = Statevector.random(3, rng)
    rho = psi.to_density_matrix()
    evolved = apply_unitary_to_density(rho, cx_matrix(), (0, 2))
    expected_state = apply_unitary(psi.data, cx_matrix(), (0, 2))
    assert np.allclose(evolved, np.outer(expected_state, expected_state.conj()))


def test_apply_kraus_to_density_preserves_trace(rng):
    from repro.noise import AmplitudeDampingChannel

    rho = Statevector.random(2, rng).to_density_matrix()
    channel = AmplitudeDampingChannel(0.3)
    evolved = apply_kraus_to_density(rho, channel.kraus_operators, (1,))
    assert np.isclose(np.trace(evolved).real, 1.0)
    assert np.allclose(evolved, evolved.conj().T)


# ---------------------------------------------------------------------------
# Statevector type
# ---------------------------------------------------------------------------
def test_zero_state_and_from_label():
    assert np.allclose(Statevector.zero_state(2).data, [1, 0, 0, 0])
    labelled = Statevector.from_label("10")
    assert np.allclose(labelled.data, [0, 0, 1, 0])
    with pytest.raises(ValueError):
        Statevector.from_label("12")


def test_statevector_validation():
    with pytest.raises(ValueError):
        Statevector(np.ones((2, 2)))
    with pytest.raises(ValueError):
        Statevector(np.ones(3))


def test_probabilities_and_dict():
    state = Statevector(np.array([1, 1j, 0, 0]) / np.sqrt(2))
    probs = state.probabilities()
    assert probs[0] == pytest.approx(0.5)
    assert state.probability_dict() == pytest.approx({"00": 0.5, "01": 0.5})


def test_normalize_and_norm():
    state = Statevector(np.array([3.0, 4.0]))
    assert state.norm() == pytest.approx(5.0)
    assert state.normalize().norm() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        Statevector(np.zeros(2)).normalize()


def test_inner_and_fidelity(rng):
    a = Statevector.random(3, rng)
    assert a.fidelity(a) == pytest.approx(1.0)
    b = Statevector.random(3, rng)
    assert 0.0 <= a.fidelity(b) <= 1.0
    with pytest.raises(ValueError):
        a.inner(Statevector.random(2, rng))


def test_evolve_returns_new_state():
    state = Statevector.zero_state(1)
    evolved = state.evolve(h_matrix(), (0,))
    assert np.allclose(state.data, [1, 0])
    assert np.allclose(np.abs(evolved.data) ** 2, [0.5, 0.5])


def test_expectation_diagonal():
    state = Statevector(np.array([1, 0, 0, 1]) / np.sqrt(2))
    diagonal = np.array([0.0, 1.0, 2.0, 3.0])
    assert state.expectation_diagonal(diagonal) == pytest.approx(1.5)


def test_sample_counts_total(rng):
    counts = Statevector.from_label("01").sample_counts(100, rng)
    assert counts == {"01": 100}


def test_copy_is_deep():
    state = Statevector.zero_state(1)
    clone = state.copy()
    clone.data[0] = 0.0
    assert state.data[0] == 1.0
