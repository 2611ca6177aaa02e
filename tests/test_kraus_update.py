"""The vectorised general-Kraus trajectory step and the per-chunk noise pre-draw.

Every noise event, mixed-unitary or general Kraus, consumes exactly one
uniform per row.  The backend's block update must pick, row for row, the
branch :func:`~repro.noise.trajectory.sample_channel_on_state` picks from the
same uniform and leave the same renormalised state; the engine pre-draws a
whole subcircuit's uniforms in one block per chunk.  Both paths price the
branches from the channel's effect operators ``E_i = K_i†K_i``, so both are
also checked against a first-principles oracle that applies every ``K_i``.
"""

import numpy as np
import pytest
from test_backend_equivalence import BLOCK_LAYOUTS, in_layout

from repro.backends import get_backend
from repro.backends.optimized import OptimizedNumpyBackend
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
from repro.statevector.apply import apply_unitary

NUM_QUBITS = 4
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


class _FixedUniform:
    """A stream whose next scalar draw is a given uniform."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self, size=None):
        assert size is None
        return self.value


class _CountingBackend(OptimizedNumpyBackend):
    """The optimized backend, counting its ``apply_unitary`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def apply_unitary(self, state, matrix, targets):
        self.calls += 1
        return super().apply_unitary(state, matrix, targets)


def _tensor_square(channel: KrausChannel, name: str) -> KrausChannel:
    single = channel.kraus_operators
    return KrausChannel([np.kron(a, b) for a in single for b in single], name=name)


def _two_qubit_damping() -> KrausChannel:
    return _tensor_square(AmplitudeDampingChannel(0.3), "two_qubit_damping")


def _damping_after_hadamard() -> KrausChannel:
    """``K_i H``: its effects ``H E_i H`` are not diagonal."""
    return KrausChannel(
        [k @ HADAMARD for k in AmplitudeDampingChannel(0.3).kraus_operators],
        name="damping_after_hadamard",
    )


CHANNELS = {
    "amplitude_damping": (AmplitudeDampingChannel(0.3), (1,)),
    "phase_damping": (PhaseDampingChannel(0.4), (2,)),
    "thermal_relaxation": (ThermalRelaxationChannel(50.0, 30.0, 20.0), (0,)),
    "two_qubit_damping": (_two_qubit_damping(), (3, 1)),
    "damping_after_hadamard": (_damping_after_hadamard(), (2,)),
    "two_qubit_damping_after_hadamard": (
        _tensor_square(_damping_after_hadamard(), "two_qubit_after_hadamard"),
        (3, 1),
    ),
}


def _random_block(rows: int, rng: np.random.Generator) -> np.ndarray:
    dim = 2**NUM_QUBITS
    block = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    return block / np.linalg.norm(block, axis=1, keepdims=True)


def _oracle(state, channel, qubits, uniform):
    """One trajectory step from first principles.

    Apply every ``K_i``, draw the branch by inverse CDF over
    ``vdot(K_i psi, K_i psi)`` and renormalise the drawn candidate.
    """
    candidates = [apply_unitary(state, k, qubits) for k in channel.kraus_operators]
    weights = np.array([np.vdot(c, c).real for c in candidates])
    cumulative = np.cumsum(weights)
    index = int(np.sum(cumulative[:-1] <= uniform * cumulative[-1]))
    return candidates[index] / np.sqrt(weights[index]), index


def _pattern_uniforms(pattern: str, rows: int) -> np.ndarray:
    """Low uniforms draw branch 0; high ones send rows off it."""
    off = {
        "none": [],
        "one": [rows // 2],
        "some": list(range(0, rows, 3)),
        "all": list(range(rows)),
    }[pattern]
    uniforms = np.full(rows, 1e-3)
    uniforms[off] = 1.0 - 1e-3
    return uniforms


@pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
@pytest.mark.parametrize("backend", ["optimized", "numpy"])
@pytest.mark.parametrize("pattern", ["none", "one", "some", "all"])
@pytest.mark.parametrize("rows", [1, 5, 64])
@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_both_paths_match_the_first_principles_oracle(
    name, rows, pattern, backend, layout
):
    channel, qubits = CHANNELS[name]
    rng = np.random.default_rng(rows * 7 + len(name))
    block = _random_block(rows, rng)
    uniforms = _pattern_uniforms(pattern, rows)
    resolved = get_backend(backend)
    updated = in_layout(block, layout)
    indices = resolved._apply_kraus_from_uniforms(
        updated, NoiseEvent(channel, qubits), uniforms
    )
    for row in range(rows):
        expected, index = _oracle(block[row], channel, qubits, uniforms[row])
        single, single_index = sample_channel_on_state(
            block[row].copy(), channel, qubits, _FixedUniform(uniforms[row]),
            backend=resolved,
        )
        assert indices[row] == single_index == index
        np.testing.assert_allclose(updated[row], expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(single, expected, rtol=0, atol=1e-12)
    if pattern == "none":
        assert not indices.any()
    if pattern == "all":
        assert indices.all()


@pytest.mark.parametrize("backend", ["optimized", "numpy"])
@pytest.mark.parametrize("rows", [1, 5, 64])
def test_zero_weight_branch_is_never_drawn(rows, backend):
    """``K_1 H |+> = 0``: branch 1 is empty, whatever the uniform."""
    channel, qubits = CHANNELS["damping_after_hadamard"]
    rng = np.random.default_rng(rows)
    # |+> on qubit 2, a random state of qubits 3, 1 and 0 around it.
    rest = _random_block(rows, rng)[:, :8].reshape(rows, 2, 1, 4)
    plus = np.array([1.0, 1.0]).reshape(1, 1, 2, 1) / np.sqrt(2.0)
    block = (rest * plus).reshape(rows, 2**NUM_QUBITS)
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    uniforms = np.linspace(0.0, 1.0, rows, endpoint=False)
    uniforms[-1] = np.nextafter(1.0, 0.0)
    resolved = get_backend(backend)
    updated = block.copy()
    indices = resolved._apply_kraus_from_uniforms(
        updated, NoiseEvent(channel, qubits), uniforms
    )
    assert not indices.any()
    assert np.isfinite(updated).all()
    for row in range(rows):
        expected, index = _oracle(block[row], channel, qubits, uniforms[row])
        single, single_index = sample_channel_on_state(
            block[row].copy(), channel, qubits, _FixedUniform(uniforms[row]),
            backend=resolved,
        )
        assert index == single_index == 0
        assert np.isfinite(single).all()
        np.testing.assert_allclose(updated[row], expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(single, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
@pytest.mark.parametrize("backend", ["optimized", "numpy"])
@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_update_is_bitwise_independent_of_block_size(name, backend, layout):
    """Each row's update is the same alone, in blocks of 5 and in 64, in
    every block layout, as in a C-ordered block of 64."""
    channel, qubits = CHANNELS[name]
    rng = np.random.default_rng(len(name))
    block = _random_block(64, rng)
    uniforms = rng.random((64, 1))
    events = [NoiseEvent(channel, qubits)]
    resolved = get_backend(backend)
    whole = resolved.apply_noise_events_uniforms(block.copy(), events, uniforms)
    for size in (1, 5, 64):
        pieces = in_layout(block, layout)
        for start in range(0, 64, size):
            stop = start + size
            pieces[start:stop] = resolved.apply_noise_events_uniforms(
                pieces[start:stop], events, uniforms[start:stop]
            )
        np.testing.assert_array_equal(pieces, whole)


def test_no_jump_block_makes_no_kernel_call():
    """The no-jump operator of amplitude damping is diagonal: one multiply."""
    channel, qubits = CHANNELS["amplitude_damping"]
    backend = _CountingBackend()
    block = _random_block(64, np.random.default_rng(11))
    indices = backend._apply_kraus_from_uniforms(
        block, NoiseEvent(channel, qubits), np.zeros(64)
    )
    assert not indices.any()
    assert backend.calls == 0


def test_block_step_makes_at_most_one_kernel_call_per_drawn_branch():
    channel, qubits = CHANNELS["thermal_relaxation"]
    backend = _CountingBackend()
    block = _random_block(64, np.random.default_rng(12))
    indices = backend._apply_kraus_from_uniforms(
        block, NoiseEvent(channel, qubits), np.linspace(0.0, 0.999, 64)
    )
    drawn = set(indices.tolist())
    assert len(drawn) >= 3
    assert backend.calls <= len(drawn)


@pytest.mark.parametrize("uniform", [0.0, 0.999])
def test_per_state_sampler_applies_one_operator(uniform):
    channel, qubits = CHANNELS["thermal_relaxation"]
    backend = _CountingBackend()
    state = _random_block(1, np.random.default_rng(13))[0]
    _, index = sample_channel_on_state(
        state, channel, qubits, _FixedUniform(uniform), backend=backend
    )
    assert index == (0 if uniform == 0.0 else 2)
    assert backend.calls == 1


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
