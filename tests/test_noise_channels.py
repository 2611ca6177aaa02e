"""Tests for the quantum error channels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import Backend
from repro.core.pathrng import PathStream, child_keys, draw_block, run_root_key
from repro.noise import (
    AmplitudeDampingChannel,
    DepolarizingChannel,
    KrausChannel,
    PauliChannel,
    PhaseDampingChannel,
    ReadoutError,
    ThermalRelaxationChannel,
    compose_channels,
)


def _assert_cptp(channel):
    dim = 2**channel.num_qubits
    completeness = sum(k.conj().T @ k for k in channel.kraus_operators)
    assert np.allclose(completeness, np.eye(dim), atol=1e-9)


@pytest.mark.parametrize(
    "channel",
    [
        DepolarizingChannel(0.01, 1),
        DepolarizingChannel(0.1, 2),
        PauliChannel({"X": 0.05, "Z": 0.02}),
        AmplitudeDampingChannel(0.2),
        PhaseDampingChannel(0.3),
        ThermalRelaxationChannel(15.0, 20.0, 0.05),
    ],
    ids=["dep1q", "dep2q", "pauli", "ad", "pd", "tr"],
)
def test_channels_are_cptp(channel):
    _assert_cptp(channel)


def test_kraus_channel_rejects_incomplete_operators():
    with pytest.raises(ValueError):
        KrausChannel([np.eye(2) * 0.5])
    with pytest.raises(ValueError):
        KrausChannel([])
    with pytest.raises(ValueError):
        KrausChannel([np.ones((2, 3))])


def test_depolarizing_probabilities():
    channel = DepolarizingChannel(0.12, 1)
    probs = channel.pauli_probabilities
    assert probs["I"] == pytest.approx(0.88)
    assert probs["X"] == probs["Y"] == probs["Z"] == pytest.approx(0.04)
    assert channel.error_probability == pytest.approx(0.12)
    two_qubit = DepolarizingChannel(0.15, 2)
    assert len(two_qubit.pauli_probabilities) == 16
    assert two_qubit.pauli_probabilities["II"] == pytest.approx(0.85)


def test_depolarizing_validation():
    with pytest.raises(ValueError):
        DepolarizingChannel(1.5, 1)
    with pytest.raises(ValueError):
        DepolarizingChannel(0.1, 3)


def test_depolarizing_channel_maps_towards_maximally_mixed():
    channel = DepolarizingChannel(1.0, 1)
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    out = channel.apply_to_density(rho)
    # With error probability 1 the three Paulis are applied with 1/3 each:
    # rho -> (X rho X + Y rho Y + Z rho Z)/3 = (2I - rho)/3... compute directly.
    expected = (2.0 * np.eye(2) / 3.0 - rho / 3.0)
    assert np.allclose(out, expected)


def test_pauli_channel_validation():
    with pytest.raises(ValueError):
        PauliChannel({})
    with pytest.raises(ValueError):
        PauliChannel({"X": 0.5, "ZZ": 0.1})
    with pytest.raises(ValueError):
        PauliChannel({"Q": 0.5})
    with pytest.raises(ValueError):
        PauliChannel({"X": 0.7, "Y": 0.7})


def test_pauli_channel_is_mixed_unitary():
    channel = PauliChannel({"X": 0.25})
    assert channel.is_mixed_unitary
    probs, unitaries = channel.mixture()
    assert probs.sum() == pytest.approx(1.0)
    assert len(unitaries) == len(probs)
    assert np.allclose(unitaries[0], np.eye(2))


_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@pytest.mark.parametrize(
    "kraus, mixture, message",
    [
        # Accepted at one time: a run applied Z where the channel applies X.
        ([np.sqrt(0.7) * _I, np.sqrt(0.3) * _X], ([0.7, 0.3], [_I, _Z]),
         "is not the channel of its Kraus operators"),
        # Accepted at one time, then raised IndexError mid-run.
        ([np.sqrt(0.5) * _I, np.sqrt(0.5) * _X], ([0.5, 0.5], [_I]),
         "one \\(2, 2\\) unitary per probability"),
        ([np.sqrt(0.5) * _I, np.sqrt(0.5) * _X], ([0.5, 0.5], [_I, np.eye(4)]),
         "one \\(2, 2\\) unitary per probability"),
        ([np.sqrt(0.5) * _I, np.sqrt(0.5) * _H], ([0.5, 0.5], [_I, _H]),
         "drop mixture="),
        ([np.sqrt(0.5) * _I, np.sqrt(0.5) * _X], ([0.5, 0.5], [_I, 2 * _X]),
         "phased permutations"),
        ([_I], ([1.2, -0.2], [_I, _I]), "finite, non-negative and sum to 1"),
        ([_I], ([0.5, 0.4], [_I, _I]), "finite, non-negative and sum to 1"),
        ([_I], ([np.nan, 1.0], [_I, _I]), "finite, non-negative and sum to 1"),
    ],
    ids=["wrong_unitary", "missing_unitary", "wrong_shape", "hadamard",
         "not_unit_modulus", "negative", "short_sum", "nan"],
)
def test_mixture_is_validated_at_construction(kraus, mixture, message):
    with pytest.raises(ValueError, match=message):
        KrausChannel(kraus, name="bad", mixture=mixture)


def test_every_shipped_mixture_constructs():
    from repro.noise import NOISE_MODEL_CODES, noise_model_by_code

    channels = [
        DepolarizingChannel(p, n) for p in (0.0, 0.015, 0.5, 1.0) for n in (1, 2)
    ]
    channels.append(PauliChannel({"X": 0.1, "Y": 0.25, "Z": 0.05}))
    channels.append(PauliChannel({"XY": 0.2, "ZI": 0.1}))
    channels.append(KrausChannel([_X], name="always_x", mixture=([1.0], [_X])))
    for code in NOISE_MODEL_CODES:
        model = noise_model_by_code(code)
        channels += model.single_qubit_channels + model.two_qubit_channels
    mixtures = [channel for channel in channels if channel.is_mixed_unitary]
    assert len(mixtures) >= 11
    for channel in mixtures:
        probabilities, unitaries = channel.mixture()
        assert np.isclose(probabilities.sum(), 1.0)
        assert len(unitaries) == len(probabilities)


def test_amplitude_damping_relaxes_excited_state():
    channel = AmplitudeDampingChannel(0.4)
    excited = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    out = channel.apply_to_density(excited)
    assert out[0, 0] == pytest.approx(0.4)
    assert out[1, 1] == pytest.approx(0.6)


def test_phase_damping_kills_coherence_not_population():
    channel = PhaseDampingChannel(0.5)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    out = channel.apply_to_density(plus)
    assert out[0, 0] == pytest.approx(0.5)
    assert abs(out[0, 1]) < 0.5


def test_thermal_relaxation_constraints():
    with pytest.raises(ValueError):
        ThermalRelaxationChannel(10.0, 25.0, 0.1)  # T2 > 2*T1
    with pytest.raises(ValueError):
        ThermalRelaxationChannel(-1.0, 1.0, 0.1)
    channel = ThermalRelaxationChannel(15.0, 20.0, 0.035)
    assert 0.0 < channel.gamma < 1.0
    assert 0.0 <= channel.lam < 1.0


def test_thermal_relaxation_off_diagonal_decay():
    t1, t2, dt = 12.0, 18.0, 0.5
    channel = ThermalRelaxationChannel(t1, t2, dt)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    out = channel.apply_to_density(plus)
    assert abs(out[0, 1]) == pytest.approx(0.5 * np.exp(-dt / t2), rel=1e-6)


def test_compose_channels_order_and_width():
    damping = AmplitudeDampingChannel(0.2)
    dephasing = PhaseDampingChannel(0.3)
    composed = compose_channels(dephasing, damping)
    _assert_cptp(composed)
    rho = np.array([[0.3, 0.4], [0.4, 0.7]], dtype=complex)
    expected = dephasing.apply_to_density(damping.apply_to_density(rho))
    assert np.allclose(composed.apply_to_density(rho), expected)
    with pytest.raises(ValueError):
        compose_channels(DepolarizingChannel(0.1, 2), damping)


def test_superoperator_trace_preserving(rng):
    channel = DepolarizingChannel(0.2, 1)
    superop = channel.to_superoperator()
    rho = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    out = (superop @ rho.reshape(-1, order="F")).reshape(2, 2, order="F")
    assert np.isclose(np.trace(out).real, 1.0)


def test_readout_error_assignment_matrix():
    error = ReadoutError(0.1)
    assert error.is_symmetric
    matrix = error.assignment_matrix()
    assert matrix.sum(axis=0) == pytest.approx([1.0, 1.0])
    asym = ReadoutError(0.1, 0.02)
    assert not asym.is_symmetric
    with pytest.raises(ValueError):
        ReadoutError(1.2)


def test_readout_error_sampling_statistics():
    error = ReadoutError(0.3)
    streams = [PathStream(key) for key in child_keys(run_root_key(7), 0, 2000)]
    measured = Backend._readout_flips_from_uniforms(
        np.ones(2000, dtype=np.int64), 1, error, draw_block(streams)
    )
    flips = int(np.count_nonzero(measured == 0))
    assert abs(flips / 2000 - 0.3) < 0.05


@settings(max_examples=20, deadline=None)
@given(p=st.floats(0.0, 1.0), gamma=st.floats(0.0, 1.0))
def test_channel_error_probabilities_in_range(p, gamma):
    assert 0.0 <= DepolarizingChannel(p, 1).error_probability <= 1.0
    assert AmplitudeDampingChannel(gamma).error_probability == pytest.approx(gamma)
