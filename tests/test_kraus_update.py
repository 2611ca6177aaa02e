"""The vectorised trajectory noise steps and the per-chunk noise pre-draw.

Every noise event, mixed-unitary or general Kraus, consumes exactly one
uniform per row.  The backend's block update must pick, row for row, the
branch :func:`~repro.noise.trajectory.sample_channel_on_state` picks from the
same uniform and leave the same state; the engine pre-draws a whole
subcircuit's uniforms in one block per chunk.  General Kraus paths price
the branches from the channel's effect operators ``E_i = K_i†K_i``, so both
are also checked against a first-principles oracle that applies every
``K_i``.  A mixture branch is applied in place on its row as a phased
permutation, which must give byte for byte what the optimized kernel gives
for the drawn unitary.
"""

import numpy as np
import pytest
from test_backend_equivalence import BLOCK_LAYOUTS, in_layout

from repro.backends import get_backend
from repro.backends.optimized import OptimizedNumpyBackend
from repro.core import ManualPartitioner, TQSimEngine
from repro.core.engine import ChunkSlots, _mixture_hits
from repro.circuits.circuit import Circuit
from repro.core.pathrng import PathStream, child_keys, draw_block
from repro.noise import NoiseModel, depolarizing_noise_model, noise_model_by_code
from repro.noise.channels import (
    AmplitudeDampingChannel,
    DepolarizingChannel,
    KrausChannel,
    PauliChannel,
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


def _random_block(
    rows: int, rng: np.random.Generator, num_qubits: int = NUM_QUBITS
) -> np.ndarray:
    dim = 2**num_qubits
    block = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    return block / np.linalg.norm(block, axis=1, keepdims=True)


#: The benchmark's width: every target of each one-qubit channel, and an
#: adjacent and a non-adjacent pair (in descending order) of each two-qubit
#: one.
WIDE_QUBITS = 8
WIDE_CASES = [
    (name, qubits)
    for name, (channel, _) in sorted(CHANNELS.items())
    for qubits in (
        [(target,) for target in range(WIDE_QUBITS)]
        if channel.num_qubits == 1 else [(3, 4), (6, 1)]
    )
]
WIDE_IDS = [
    f"{name}-q{'q'.join(map(str, qubits))}" for name, qubits in WIDE_CASES
]


def _reduced_density_weights(state, channel, qubits):
    """``Re tr(E_i rho)`` of the reduced density matrix on ``qubits``."""
    num_qubits = state.size.bit_length() - 1
    # Local index l = sum_m bit_m << m, so the last operand leads.
    axes = [num_qubits - 1 - q for q in reversed(qubits)]
    rest = [axis for axis in range(num_qubits) if axis not in axes]
    amplitudes = state.reshape((2,) * num_qubits).transpose(axes + rest)
    amplitudes = amplitudes.reshape(2 ** len(qubits), -1)
    rho = amplitudes @ amplitudes.conj().T
    return np.array([
        np.trace(k.conj().T @ k @ rho).real for k in channel.kraus_operators
    ])


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
@pytest.mark.parametrize(
    ("name", "qubits"), WIDE_CASES, ids=WIDE_IDS
)
def test_update_is_bitwise_independent_of_block_size(
    name, qubits, backend, layout
):
    """At 8 qubits each row's update is the same as a 1-D state, alone, in
    blocks of 2, 3, 5, 64 and 128, in every block layout, as in a C-ordered
    block of 128."""
    channel, _ = CHANNELS[name]
    rng = np.random.default_rng([len(name), *qubits])
    block = _random_block(128, rng, WIDE_QUBITS)
    uniforms = rng.random((128, 1))
    events = [NoiseEvent(channel, qubits)]
    resolved = get_backend(backend)
    whole = resolved.apply_noise_events_uniforms(block.copy(), events, uniforms)
    for size in (1, 2, 3, 5, 64, 128):
        pieces = in_layout(block, layout)
        for start in range(0, 128, size):
            stop = start + size
            pieces[start:stop] = resolved.apply_noise_events_uniforms(
                pieces[start:stop], events, uniforms[start:stop]
            )
        np.testing.assert_array_equal(pieces, whole)
    for row in range(128):
        single = resolved.apply_noise_events_uniforms(
            block[row].copy(), events, uniforms[row : row + 1]
        )
        np.testing.assert_array_equal(single, whole[row])


@pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
@pytest.mark.parametrize(
    ("name", "qubits"), WIDE_CASES, ids=WIDE_IDS
)
def test_branch_weights_of_a_row_alone_equal_its_weights_in_the_block(
    name, qubits, layout
):
    """A row's weights alone (a one-row slice of the block, or a C-ordered
    copy of it) are bitwise its weights in the 128-row block, and within
    1e-14 of ``Re tr(E_i rho_b)`` of its reduced density matrix."""
    channel, _ = CHANNELS[name]
    block = _random_block(
        128, np.random.default_rng([len(name), *qubits]), WIDE_QUBITS
    )
    stored = in_layout(block, layout)
    weights = channel.branch_weights(stored, qubits)
    assert weights.shape == (128, channel.num_kraus)
    for row in range(128):
        for alone in (stored[row : row + 1], block[row : row + 1].copy()):
            np.testing.assert_array_equal(
                channel.branch_weights(alone, qubits)[0], weights[row]
            )
        np.testing.assert_allclose(
            weights[row],
            _reduced_density_weights(block[row], channel, qubits),
            rtol=1e-14, atol=0,
        )


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


# ---------------------------------------------------------------------------
# Mixed-unitary events: one branch lookup, drawn branches applied on their rows
# ---------------------------------------------------------------------------
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

MIXTURES = {
    "depolarizing_1q": (DepolarizingChannel(0.3, 1), (2,)),
    "depolarizing_2q": (DepolarizingChannel(0.3, 2), (3, 1)),
    "depolarizing_2q_low_first": (DepolarizingChannel(0.3, 2), (1, 3)),
    "pauli_non_uniform": (PauliChannel({"X": 0.1, "Y": 0.25, "Z": 0.05}), (0,)),
    # Identity not first: every draw applies an operator.
    "always_x": (
        KrausChannel([PAULI_X], name="always_x", mixture=([1.0], [PAULI_X])),
        (1,),
    ),
}


def _mixture_uniforms(pattern: str, rows: int) -> np.ndarray:
    """Branch 0 for low uniforms; the rows sent off it spread over every
    other branch (the identity weighs at most 0.7 here)."""
    uniforms = _pattern_uniforms(pattern, rows)
    off = uniforms > 0.5
    uniforms[off] = np.linspace(0.75, 1.0, int(off.sum()), endpoint=False)
    return uniforms


def _block_with_zeros(rows: int, rng: np.random.Generator) -> np.ndarray:
    """A random block holding exact and negative zeros, whose sign a
    multiply by 1 could flip."""
    block = _random_block(rows, rng)
    block.real[:, ::3] = -0.0
    block.imag[:, 1::4] = 0.0
    block.imag[:, 2::5] = -0.0
    return block


@pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
@pytest.mark.parametrize("backend", ["optimized", "numpy"])
@pytest.mark.parametrize("pattern", ["none", "one", "some", "all"])
@pytest.mark.parametrize("rows", [1, 5, 64])
@pytest.mark.parametrize("name", sorted(MIXTURES))
def test_mixture_paths_match_the_kernel_byte_for_byte(
    name, rows, pattern, backend, layout
):
    """The block step and the per-state sampler equal the optimized kernel
    applied to the drawn unitary, bytes included, and the reference
    contraction by value."""
    channel, qubits = MIXTURES[name]
    block = _block_with_zeros(rows, np.random.default_rng(rows + len(name)))
    uniforms = _mixture_uniforms(pattern, rows)
    resolved = get_backend(backend)
    updated = in_layout(block, layout)
    out = resolved.apply_noise_events_uniforms(
        updated, [NoiseEvent(channel, qubits)], uniforms[:, None]
    )
    assert out is updated
    branches = channel.mixture_indices_from_uniforms(uniforms)
    kernel = OptimizedNumpyBackend()
    for row in range(rows):
        unitary = channel.mixture_unitary(int(branches[row]))
        expected = kernel.apply_unitary(block[row].copy(), unitary, qubits)
        single, index = sample_channel_on_state(
            block[row].copy(), channel, qubits, _FixedUniform(uniforms[row]),
            backend=resolved,
        )
        assert index == branches[row]
        assert updated[row].tobytes() == expected.tobytes()
        assert single.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(
            updated[row], apply_unitary(block[row], unitary, qubits)
        )
    if pattern == "none" and channel.mixture_identity_first:
        assert updated.tobytes() == in_layout(block, layout).tobytes()


def test_mixture_block_step_makes_no_kernel_call():
    """Drawn Pauli branches are updated on their rows, never by a kernel."""
    channel, qubits = MIXTURES["depolarizing_2q"]
    backend = _CountingBackend()
    block = in_layout(_random_block(64, np.random.default_rng(5)), "allocated")
    before = block.copy()
    uniforms = _mixture_uniforms("some", 64)
    backend.apply_noise_events_uniforms(
        block, [NoiseEvent(channel, qubits)], uniforms[:, None]
    )
    moved = ~np.all(block == before, axis=1)
    assert moved.sum() == len(range(0, 64, 3))
    state = block[0].copy()
    sample_channel_on_state(
        state, channel, qubits, _FixedUniform(0.99), backend=backend
    )
    assert backend.calls == 0


def _count_calls(monkeypatch, name: str) -> list[int]:
    calls: list[int] = []
    original = getattr(KrausChannel, name)

    def counted(self, uniforms):
        calls.append(1)
        return original(self, uniforms)

    monkeypatch.setattr(KrausChannel, name, counted)
    return calls


@pytest.mark.parametrize("cap", [1, 4, 64])
@pytest.mark.parametrize("strong", [False, True], ids=["DC", "strong"])
def test_one_mixture_lookup_per_channel_per_chunk(qft5, strong, cap, monkeypatch):
    """Each chunk maps its uniform block in one pass per mixed channel,
    with at most one branch lookup (none when every draw stays on the
    identity), never one per event."""
    noise = (
        depolarizing_noise_model(0.05, 0.1) if strong
        else noise_model_by_code("DC")
    )
    plan = ManualPartitioner((3, 10)).plan(qft5, 30, noise)
    channels = [
        {
            event.channel
            for gate in subcircuit
            for event in noise.events_for_gate(gate)
        }
        for subcircuit in plan.subcircuits
    ]
    assert all(len(found) == 2 for found in channels)
    passes = _count_calls(monkeypatch, "mixture_hits")
    lookups = _count_calls(monkeypatch, "mixture_indices_from_uniforms")
    tracer = Tracer()
    TQSimEngine(noise, seed=3, max_batch=cap, tracer=tracer).run(
        qft5, 30, plan=plan
    )
    chunks = [s for s in tracer.spans if s.name == "engine.subcircuit"]
    expected = sum(len(channels[chunk.attributes["layer"]]) for chunk in chunks)
    assert len(passes) == expected
    assert 0 < len(lookups) <= expected


class _NoiseCallCounter(OptimizedNumpyBackend):
    """The optimized backend, counting its block noise-step calls, on a
    chunk's shared slots or with every row its own slot."""

    def __init__(self) -> None:
        super().__init__()
        self.noise_calls = 0
        self.shared_calls = 0

    def apply_slot_noise(self, block, events, uniforms, slots=None):
        self.noise_calls += 1
        self.shared_calls += slots is not None
        return super().apply_slot_noise(block, events, uniforms, slots)


def test_kraus_only_gates_make_one_noise_call_per_chunk(qft5):
    noise = noise_model_by_code("ADR")
    plan = ManualPartitioner((3, 10)).plan(qft5, 30, noise)
    noisy = [
        sum(1 for gate in subcircuit if noise.events_for_gate(gate))
        for subcircuit in plan.subcircuits
    ]
    backend = _NoiseCallCounter()
    tracer = Tracer()
    TQSimEngine(noise, seed=3, backend=backend, max_batch=4,
                tracer=tracer).run(qft5, 30, plan=plan)
    chunks = [s for s in tracer.spans if s.name == "engine.subcircuit"]
    assert backend.noise_calls == sum(
        noisy[chunk.attributes["layer"]] for chunk in chunks
    )
    # Chunks of several nodes share slots and pass them to the one step.
    assert backend.shared_calls > 0


NOISE_STEP_MODELS = {
    "depolarizing": depolarizing_noise_model(0.2, 0.3),
    "amplitude_damping_readout": noise_model_by_code("ADR"),
    # A mixture before and after general-Kraus channels on the same gate.
    "mixed_and_kraus_per_gate": NoiseModel(
        single_qubit_channels=[
            DepolarizingChannel(0.3), AmplitudeDampingChannel(0.3),
            PauliChannel({"X": 0.2, "Z": 0.2}),
        ],
        two_qubit_channels=[
            PhaseDampingChannel(0.3), DepolarizingChannel(0.3, 2),
        ],
    ),
    "all": noise_model_by_code("ALL"),
}


#: How the engine step's 16 nodes hold slots: each its own row, or four
#: nodes on each of four distinct rows, which noise events then split.
SLOT_SHARING = {"own": None, "shared": np.arange(16) % 4}


@pytest.mark.parametrize("sharing", sorted(SLOT_SHARING))
@pytest.mark.parametrize("backend", ["optimized", "numpy"])
@pytest.mark.parametrize("name", sorted(NOISE_STEP_MODELS))
def test_engine_noise_step_equals_the_per_gate_block_step(
    qft5, name, backend, sharing
):
    """The engine's up-front branch lookup leaves every node as the block
    step applied gate by gate, every event in order, to a block holding
    one row per node, whether or not nodes share slots."""
    noise = NOISE_STEP_MODELS[name]
    engine = TQSimEngine(noise, backend=backend)
    keys = child_keys(0xBEEF, 0, 16)
    owner = SLOT_SHARING[sharing]
    states = _random_block(16, np.random.default_rng(6))
    buffer = in_layout(states, "allocated")
    if owner is None:
        slots = ChunkSlots(buffer, None, 16)
    else:
        slots = ChunkSlots(buffer, owner.copy(), 4)
        states = states[owner]
    subcircuit = Circuit(NUM_QUBITS)
    for gate in qft5.gates:
        if max(gate.qubits) < NUM_QUBITS:
            subcircuit.append(gate)
    matched = engine._match_noise(subcircuit)
    streams = [PathStream(int(key)) for key in keys]
    engine._apply_subcircuit(slots, subcircuit, matched, streams)
    uniforms = draw_block([PathStream(int(key)) for key in keys], matched.draws)
    resolved = get_backend(backend)
    expected = in_layout(states, "allocated")
    column = 0
    for gate, events in zip(subcircuit, matched.events):
        expected = resolved.apply_gate(expected, gate)
        if events:
            expected = resolved.apply_noise_events_uniforms(
                expected, events, uniforms[:, column : column + len(events)]
            )
            column += len(events)
    assert column == matched.draws > 0
    if name in ("depolarizing", "mixed_and_kraus_per_gate"):
        assert _mixture_hits(matched.mixtures, uniforms)
    result = slots.block if owner is None else slots.block[slots.owner]
    assert slots.count <= 16
    if owner is not None:
        # The draws split the four shared slots.
        assert slots.count > 4
    assert np.asarray(result).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("backend", ["optimized", "numpy"])
@pytest.mark.parametrize("name", sorted(NOISE_STEP_MODELS))
def test_slot_noise_step_on_shared_slots_equals_the_per_row_step(
    qft5, name, backend
):
    """``Backend.apply_slot_noise`` handed shared slots and every event of
    a subcircuit in one call, mixtures included, leaves each node's slot
    byte for byte as the per-row step leaves a row of its own."""
    noise = NOISE_STEP_MODELS[name]
    events = [
        event
        for gate in qft5.gates
        if max(gate.qubits) < NUM_QUBITS
        for event in noise.events_for_gate(gate)
    ]
    owner = SLOT_SHARING["shared"]
    states = _random_block(16, np.random.default_rng(8))
    slots = ChunkSlots(in_layout(states, "allocated"), owner.copy(), 4)
    uniforms = np.random.default_rng(9).random((16, len(events)))
    resolved = get_backend(backend)
    resolved.apply_slot_noise(slots.block, events, uniforms, slots)
    expected = resolved.apply_noise_events_uniforms(
        in_layout(states[owner], "allocated"), events, uniforms
    )
    # The draws split the four shared slots.
    assert 4 < slots.count <= 16
    result = slots.block[slots.owner]
    assert np.asarray(result).tobytes() == np.asarray(expected).tobytes()
