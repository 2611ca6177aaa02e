"""The vectorised general-Kraus trajectory step and the per-chunk noise pre-draw.

Every noise event, mixed-unitary or general Kraus, consumes exactly one
uniform per row.  The backend's block update must pick, row for row, the
branch :func:`~repro.noise.trajectory.sample_channel_on_state` picks from the
same uniform and leave the same renormalised state; the engine pre-draws a
whole subcircuit's uniforms in one block per chunk.
"""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core import ManualPartitioner, TQSimEngine
from repro.core.pathrng import PathStream, child_keys
from repro.noise import NoiseModel, depolarizing_noise_model
from repro.noise.channels import (
    AmplitudeDampingChannel,
    KrausChannel,
    PhaseDampingChannel,
    ThermalRelaxationChannel,
)
from repro.noise.model import NoiseEvent
from repro.noise.trajectory import sample_channel_on_state
from repro.obs import Tracer

NUM_QUBITS = 4


class _FixedUniform:
    """A stream whose next scalar draw is a given uniform."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self, size=None):
        assert size is None
        return self.value


def _two_qubit_damping() -> KrausChannel:
    single = AmplitudeDampingChannel(0.3).kraus_operators
    return KrausChannel(
        [np.kron(a, b) for a in single for b in single],
        name="two_qubit_damping",
    )


CHANNELS = {
    "amplitude_damping": (AmplitudeDampingChannel(0.3), (1,)),
    "phase_damping": (PhaseDampingChannel(0.4), (2,)),
    "thermal_relaxation": (ThermalRelaxationChannel(50.0, 30.0, 20.0), (0,)),
    "two_qubit_damping": (_two_qubit_damping(), (3, 1)),
}


def _random_block(rows: int, rng: np.random.Generator) -> np.ndarray:
    dim = 2**NUM_QUBITS
    block = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    return block / np.linalg.norm(block, axis=1, keepdims=True)


@pytest.mark.parametrize("backend", ["optimized", "numpy"])
@pytest.mark.parametrize("rows", [1, 5, 64])
@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_vectorised_update_matches_per_state_sampler(name, rows, backend):
    channel, qubits = CHANNELS[name]
    assert not channel.is_mixed_unitary
    if name == "thermal_relaxation":
        assert channel.num_kraus == 4
    rng = np.random.default_rng(rows * 31 + len(name))
    block = _random_block(rows, rng)
    uniforms = rng.random(rows)
    resolved = get_backend(backend)
    updated = block.copy()
    indices = resolved._apply_kraus_from_uniforms(
        updated, NoiseEvent(channel, qubits), uniforms
    )
    for row in range(rows):
        expected, index = sample_channel_on_state(
            block[row].copy(), channel, qubits, _FixedUniform(uniforms[row]),
            backend=resolved,
        )
        assert indices[row] == index
        np.testing.assert_allclose(updated[row], expected, rtol=0, atol=1e-12)
    # Rows stay normalised trajectories.
    np.testing.assert_allclose(
        np.linalg.norm(updated, axis=1), np.ones(rows), atol=1e-12
    )


def test_zero_weight_row_raises_before_writing():
    channel, qubits = CHANNELS["amplitude_damping"]
    block = _random_block(5, np.random.default_rng(8))
    block[2] = 0.0
    before = block.copy()
    backend = get_backend("optimized")
    with pytest.raises(
        ValueError, match="channel 'amplitude_damping' annihilated the state"
    ):
        backend.apply_noise_events_uniforms(
            block, [NoiseEvent(channel, qubits)], np.full((5, 1), 0.5)
        )
    assert not np.isnan(block).any()
    np.testing.assert_array_equal(block, before)


def test_every_event_advances_each_row_counter_by_one():
    damping, _ = CHANNELS["amplitude_damping"]
    depolarizing = depolarizing_noise_model().single_qubit_channels[0]
    events = [
        NoiseEvent(depolarizing, (0,)),
        NoiseEvent(damping, (1,)),
        NoiseEvent(_two_qubit_damping(), (2, 3)),
        NoiseEvent(depolarizing, (3,)),
    ]
    streams = [PathStream(int(key)) for key in child_keys(0xC0FFEE, 0, 6)]
    block = _random_block(6, np.random.default_rng(2))
    backend = get_backend("optimized")
    backend.apply_noise_events_multi(block, events, streams)
    assert [stream.counter for stream in streams] == [len(events)] * 6
    backend.apply_noise_events_multi(block, events[:1], streams)
    assert [stream.counter for stream in streams] == [len(events) + 1] * 6


def test_one_noise_predraw_per_chunk_for_mixed_kinds(qft5):
    noise = NoiseModel(
        single_qubit_channels=depolarizing_noise_model().single_qubit_channels,
        two_qubit_channels=[AmplitudeDampingChannel(0.04)],
        name="depolarizing+damping",
    )
    plan = ManualPartitioner((3, 10)).plan(qft5, 30, noise)
    tracer = Tracer()
    TQSimEngine(noise, seed=5, max_batch=4, tracer=tracer).run(
        qft5, 30, plan=plan
    )
    draws = [
        sum(len(noise.events_for_gate(gate)) for gate in subcircuit)
        for subcircuit in plan.subcircuits
    ]
    assert all(draws)
    chunks = [s for s in tracer.spans if s.name == "engine.subcircuit"]
    predraws = [s for s in tracer.spans if s.name == "engine.noise_predraw"]
    # (3,) first-layer rows in one chunk, then the 30 second-layer nodes in
    # ceil(30 / 4) frontier chunks that span parents.
    assert len(chunks) == 1 + 8
    assert len(predraws) == len(chunks)
    for chunk in chunks:
        (predraw,) = [s for s in predraws if s.parent == chunk.index]
        assert predraw.attributes["draws"] == draws[chunk.attributes["layer"]]
        assert predraw.attributes["rows"] == chunk.attributes["rows"]


def test_kraus_event_on_single_state_matches_block_of_one():
    """A 1-D state runs through the same update as a one-row block."""
    channel, qubits = CHANNELS["thermal_relaxation"]
    state = _random_block(1, np.random.default_rng(4))[0]
    backend = get_backend("optimized")
    single = backend.apply_noise_events_uniforms(
        state.copy(), [NoiseEvent(channel, qubits)], np.array([[0.9]])
    )
    block = state.copy().reshape(1, -1)
    backend.apply_noise_events_uniforms(
        block, [NoiseEvent(channel, qubits)], np.array([[0.9]])
    )
    np.testing.assert_array_equal(single, block[0])
    assert single.shape == state.shape
