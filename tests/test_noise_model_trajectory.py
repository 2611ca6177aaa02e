"""Tests for NoiseModel wiring and trajectory (Monte-Carlo) sampling."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.circuits import Circuit, Gate
from repro.core.pathrng import PathStream, draw_block, run_root_key
from repro.noise import (
    AmplitudeDampingChannel,
    DepolarizingChannel,
    KrausChannel,
    NoiseModel,
    PauliChannel,
    ReadoutError,
    depolarizing_noise_model,
    noise_model_by_code,
    sample_channel_on_state,
    sample_noise_realization,
)
from repro.noise.sycamore import NOISE_MODEL_CODES, combined_noise_model
from repro.statevector import Statevector


def test_events_for_single_and_two_qubit_gates(depolarizing_model):
    one_qubit = Gate.standard("h", (0,))
    two_qubit = Gate.standard("cx", (0, 1))
    events_1q = depolarizing_model.events_for_gate(one_qubit)
    events_2q = depolarizing_model.events_for_gate(two_qubit)
    assert len(events_1q) == 1 and events_1q[0].qubits == (0,)
    assert len(events_2q) == 1 and events_2q[0].qubits == (0, 1)
    assert events_2q[0].channel.num_qubits == 2


def test_single_qubit_channel_fans_out_over_two_qubit_gate():
    model = NoiseModel(two_qubit_channels=[AmplitudeDampingChannel(0.1)])
    events = model.events_for_gate(Gate.standard("cz", (2, 5)))
    assert [event.qubits for event in events] == [(2,), (5,)]


def test_identity_gate_is_noiseless_and_overrides_work(depolarizing_model):
    assert depolarizing_model.events_for_gate(Gate.standard("id", (0,))) == []
    model = depolarizing_noise_model()
    model.mark_noiseless("rz")
    assert model.events_for_gate(Gate.standard("rz", (0,), 0.1)) == []
    model.add_gate_override("h", [AmplitudeDampingChannel(0.5)])
    events = model.events_for_gate(Gate.standard("h", (0,)))
    assert events[0].channel.name == "amplitude_damping"


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(single_qubit_channels=[DepolarizingChannel(0.1, 2)])
    with pytest.raises(ValueError):
        NoiseModel(two_qubit_channels=[DepolarizingChannel(0.1, 2)]).events_for_gate(
            Gate.standard("ccx", (0, 1, 2))
        )


def test_error_probability_for_gate_and_circuit(depolarizing_model):
    gate_error = depolarizing_model.error_probability_for_gate(
        Gate.standard("cx", (0, 1))
    )
    assert gate_error == pytest.approx(0.015)
    circuit = Circuit(2).h(0).cx(0, 1)
    expected = 1.0 - (1.0 - 0.001) * (1.0 - 0.015)
    assert depolarizing_model.circuit_error_probability(circuit) == pytest.approx(
        expected
    )
    assert depolarizing_model.expected_noise_events(circuit) == pytest.approx(0.016)


def test_is_trivial():
    assert NoiseModel().is_trivial
    assert not depolarizing_noise_model().is_trivial
    assert not NoiseModel(readout_error=ReadoutError(0.1)).is_trivial


def test_noise_model_codes_cover_figure16():
    assert len(NOISE_MODEL_CODES) == 9
    for code in NOISE_MODEL_CODES:
        model = noise_model_by_code(code)
        ends_with_readout = code.endswith("R") and code != "TR"
        assert (model.readout_error is not None) == (ends_with_readout or code == "ALL")
    with pytest.raises(ValueError):
        noise_model_by_code("XYZ")


def test_combined_model_has_all_channel_classes():
    model = combined_noise_model()
    names = {channel.name for channel in model.single_qubit_channels}
    assert {"depolarizing_1q", "thermal_relaxation", "amplitude_damping",
            "phase_damping"} <= names


# ---------------------------------------------------------------------------
# Trajectory sampling
# ---------------------------------------------------------------------------
def test_mixed_unitary_sampling_statistics(rng):
    channel = PauliChannel({"X": 0.5})
    state = Statevector.zero_state(1).data
    flipped = 0
    for _ in range(800):
        new_state, index = sample_channel_on_state(state, channel, (0,), rng)
        flipped += index != 0
        assert np.isclose(np.linalg.norm(new_state), 1.0)
    assert abs(flipped / 800 - 0.5) < 0.07


def test_kraus_sampling_matches_density_matrix_average(rng):
    """The trajectory ensemble must converge to the exact channel action."""
    channel = AmplitudeDampingChannel(0.35)
    plus = Statevector(np.array([1.0, 1.0]) / np.sqrt(2))
    trials = 3000
    accumulated = np.zeros((2, 2), dtype=complex)
    for _ in range(trials):
        sampled, _ = sample_channel_on_state(plus.data, channel, (0,), rng)
        accumulated += np.outer(sampled, sampled.conj())
    ensemble = accumulated / trials
    exact = channel.apply_to_density(plus.to_density_matrix())
    assert np.allclose(ensemble, exact, atol=0.03)


def test_gate_noise_keeps_norm(depolarizing_model, rng):
    state = Statevector.random(3, rng).data
    gate = Gate.standard("cx", (0, 2))
    events = depolarizing_model.events_for_gate(gate)
    uniforms = draw_block([PathStream(run_root_key(3))], len(events))
    noisy = get_backend("numpy").apply_noise_events_uniforms(
        state, events, uniforms
    )
    assert np.isclose(np.linalg.norm(noisy), 1.0)


def test_noise_realization_sampling_and_replay(rng, bv6, strong_depolarizing_model):
    realization = sample_noise_realization(bv6, strong_depolarizing_model, rng)
    assert len(realization) == bv6.num_gates
    key_full = realization.prefix_key(bv6.num_gates)
    key_prefix = realization.prefix_key(3)
    assert key_full[:3] == key_prefix
    # Branch indices address valid mixture entries.
    for gate_index, gate in enumerate(bv6):
        events = strong_depolarizing_model.events_for_gate(gate)
        assert len(realization.choices[gate_index]) == len(events)


def test_noise_realization_rejects_non_mixture_channels(rng, bv6):
    model = NoiseModel(single_qubit_channels=[AmplitudeDampingChannel(0.1)],
                       two_qubit_channels=[AmplitudeDampingChannel(0.1)])
    with pytest.raises(ValueError):
        sample_noise_realization(bv6, model, rng)


# ---------------------------------------------------------------------------
# Identity-not-first mixtures (replay regression)
# ---------------------------------------------------------------------------
def _always_x_channel():
    """A single-branch mixture whose branch 0 is X, not the identity."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return KrausChannel([x], name="always_x", mixture=([1.0], [x]))


def test_replay_applies_identity_not_first_branch_zero(rng):
    """Regression: replay used to skip branch 0 unconditionally, silently
    dropping the non-identity operator of identity-not-first mixtures."""
    from repro.noise import apply_noise_realization_event

    channel = _always_x_channel()
    assert channel.is_mixed_unitary and not channel.mixture_identity_first
    model = NoiseModel().add_gate_override("x", [channel])
    circuit = Circuit(1).x(0)
    realization = sample_noise_realization(circuit, model, rng)
    assert realization.choices == [[0]]

    gate = circuit.gates[0]
    state = np.array([1.0, 0.0], dtype=complex)
    state = np.asarray(gate.to_matrix()) @ state  # ideal X: |0> -> |1>
    state = apply_noise_realization_event(state, gate, model, realization, 0)
    # The replayed branch-0 X must undo the gate: |1> -> |0>.
    np.testing.assert_allclose(state, [1.0, 0.0], atol=1e-12)


def test_realization_with_identity_not_first_branch_is_not_identity(rng):
    model = NoiseModel().add_gate_override("x", [_always_x_channel()])
    circuit = Circuit(1).x(0)
    realization = sample_noise_realization(circuit, model, rng)
    assert realization.choices == [[0]]
    assert not realization.is_identity()


def test_realization_identity_first_branch_zero_still_identity(
    rng, bv6, strong_depolarizing_model
):
    """All-zero draws of identity-first channels still count as identity."""
    from repro.noise import NoiseRealization

    realization = sample_noise_realization(bv6, strong_depolarizing_model, rng)
    zeroed = NoiseRealization(
        [[0] * len(row) for row in realization.choices],
        realization.identity_first,
    )
    assert zeroed.is_identity()
    # Realizations without the identity_first record keep the old convention.
    assert NoiseRealization([[0], [0, 0]]).is_identity()
    assert not NoiseRealization([[1], [0]]).is_identity()
