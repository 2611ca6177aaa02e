"""Chunk-size independence of the TQSim engine's frontier-chunk traversal.

Chunking must be a pure *execution* change: same plan, same seed, same
accounted work — bitwise identical counts and cost counters at every chunk
cap, with or without noise.  Cap 1 is the classic one-node-at-a-time order.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.analysis.memory import batched_tree_pool_states
from repro.backends import OptimizedNumpyBackend, get_backend
from repro.circuits import Circuit
from repro.core import (
    DynamicCircuitPartitioner,
    ManualPartitioner,
    TQSimEngine,
    UniformCircuitPartitioner,
)
from repro.core.engine import DEFAULT_CHUNK_AMPLITUDES, default_chunk_cap
from repro.noise import NoiseModel, ReadoutError, depolarizing_noise_model


def _counter_tuple(result):
    cost = result.cost
    return (
        cost.gate_applications,
        cost.noise_applications,
        cost.state_copies,
        cost.leaf_samples,
    )


def _run(circuit, shots, plan, noise_model=None, seed=7, **engine_kwargs):
    engine = TQSimEngine(noise_model, seed=seed, **engine_kwargs)
    return engine.run(circuit, shots, plan=plan)


# ---------------------------------------------------------------------------
# Noiseless equivalence: bitwise-identical counts
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("max_batch", [1, 4, None])
def test_noiseless_counts_identical_to_sequential(qft5, max_batch):
    shots = 96
    plan = UniformCircuitPartitioner(3).plan(qft5, shots, None)
    sequential = _run(qft5, shots, plan, max_batch=1)
    caps = {} if max_batch is None else {"max_batch": max_batch}
    batched = _run(qft5, shots, plan, **caps)
    assert batched.counts == sequential.counts
    # With no cap given the run resolves the default for the circuit's
    # width: 2**15 amplitudes are 1024 five-qubit rows.
    assert batched.metadata["max_batch"] == (
        max_batch or default_chunk_cap(qft5.num_qubits)
    )


def test_noiseless_counts_identical_with_full_arity_chunks(qft5):
    shots = 64
    plan = ManualPartitioner((16, 4)).plan(qft5, shots, None)
    sequential = _run(qft5, shots, plan, max_batch=1)
    # Full-arity chunks: the cap equals the largest layer arity.
    batched = _run(qft5, shots, plan, max_batch=16)
    assert batched.counts == sequential.counts


# ---------------------------------------------------------------------------
# Noisy equivalence: identical counts
# ---------------------------------------------------------------------------
def test_noisy_counts_tvd_consistent(bv6):
    noise_model = depolarizing_noise_model()
    noise_model.readout_error = ReadoutError(0.02)
    shots = 1200
    plan = ManualPartitioner((300, 4)).plan(bv6, shots, noise_model)
    sequential = _run(bv6, shots, plan, noise_model, max_batch=1)
    batched = _run(bv6, shots, plan, noise_model)
    # Per-node streams: chunking never changes a draw.
    assert batched.counts == sequential.counts


def test_noisy_counts_mixed_kraus_channels(ghz3):
    from repro.noise.channels import AmplitudeDampingChannel

    noise_model = NoiseModel(
        single_qubit_channels=[AmplitudeDampingChannel(0.05)],
        two_qubit_channels=[AmplitudeDampingChannel(0.03)],
    )
    shots = 200
    plan = UniformCircuitPartitioner(2).plan(ghz3, shots, noise_model)
    sequential = _run(ghz3, shots, plan, noise_model, max_batch=1)
    batched = _run(ghz3, shots, plan, noise_model)
    # The vectorised Kraus update picks every row's branch from that row's
    # own uniform, so chunking changes neither counts nor accounted work.
    assert batched.counts == sequential.counts
    assert _counter_tuple(batched) == _counter_tuple(sequential)


# ---------------------------------------------------------------------------
# Cost counters: identical across chunk sizes and vs sequential
# ---------------------------------------------------------------------------
def test_cost_counters_identical_across_batch_sizes(qft5, depolarizing_model):
    shots = 128
    plan = DynamicCircuitPartitioner(margin_of_error=0.1).plan(
        qft5, shots, depolarizing_model
    )
    full_arity = max(plan.tree.arities)
    sequential = _run(qft5, shots, plan, depolarizing_model, max_batch=1)
    counters = {
        max_batch: _counter_tuple(
            _run(qft5, shots, plan, depolarizing_model, max_batch=max_batch)
        )
        for max_batch in (1, 4, full_arity)
    }
    assert counters[1] == counters[4] == counters[full_arity]
    assert counters[1] == _counter_tuple(sequential)
    assert sequential.cost.state_copies == plan.tree.state_copies
    assert sequential.cost.leaf_samples == plan.total_outcomes


# ---------------------------------------------------------------------------
# Shots accounting
# ---------------------------------------------------------------------------
def test_shots_records_actual_leaves_and_requested_in_metadata(qft5):
    shots = 50
    plan = ManualPartitioner((9, 7)).plan(qft5, shots, None)  # 63 leaves
    for backend in ("optimized", "batched"):
        result = _run(qft5, shots, plan, backend=backend)
        assert result.shots == plan.total_outcomes == 63
        assert result.total_outcomes == 63
        assert result.metadata["requested_shots"] == shots


# ---------------------------------------------------------------------------
# Engine configuration and backend plumbing
# ---------------------------------------------------------------------------
def test_max_batch_sets_the_chunk_cap(qft5):
    plan = ManualPartitioner((8, 2)).plan(qft5, 16, None)
    pinned = TQSimEngine(max_batch=8)
    assert pinned.max_batch == 8
    assert pinned.run(qft5, 16, plan=plan).metadata["max_batch"] == 8
    # Without a cap the engine keeps none and each run resolves the rule's
    # cap at the circuit's width.
    default = TQSimEngine(backend="batched")
    assert default.max_batch is None
    assert default.run(qft5, 16, plan=plan).metadata["max_batch"] == (
        default_chunk_cap(qft5.num_qubits)
    )


@pytest.mark.parametrize(
    "num_qubits, cap",
    [(1, 16384), (4, 2048), (8, 128), (9, 64), (15, 1), (20, 1)],
)
def test_default_chunk_cap_fills_the_amplitude_budget(num_qubits, cap):
    """The default cap holds 2**15 amplitudes, and at least one state."""
    assert DEFAULT_CHUNK_AMPLITUDES == 2**15
    assert default_chunk_cap(num_qubits) == cap


def test_default_run_resolves_the_cap_per_width(depolarizing_model):
    """One default engine runs each circuit at its own width's cap and
    records it in the metadata and on the ``engine.run`` span."""
    from repro.obs import Tracer

    tracer = Tracer()
    engine = TQSimEngine(depolarizing_model, seed=3, tracer=tracer)
    caps = []
    for width in (4, 10):
        circuit = Circuit(width).h(0).cx(0, width - 1)
        plan = ManualPartitioner((4, 2)).plan(circuit, 8, depolarizing_model)
        caps.append(engine.run(circuit, 8, plan=plan).metadata["max_batch"])
    spans = [s for s in tracer.spans if s.name == "engine.run"]
    assert caps == [2048, 32]
    assert [s.attributes["chunk_cap"] for s in spans] == caps


def test_max_batch_must_be_positive():
    with pytest.raises(ValueError):
        TQSimEngine(max_batch=0)


def test_broadcast_into_copies_state_to_every_row():
    backend = get_backend("batched")
    state = backend.initial_state(3)
    state = backend.apply_unitary(state, np.array([[0, 1], [1, 0]]), (1,))
    batch = backend.broadcast_into(backend.allocate_batch(3, 5), state)
    assert batch.shape == (5, 8)
    assert np.array_equal(batch, np.broadcast_to(state, (5, 8)))


def test_batched_traversal_honours_out_of_place_backends(qft5):
    """An out-of-place batch backend must still land results in the pool."""

    class OutOfPlaceBatched(OptimizedNumpyBackend):
        def apply_unitary(self, state, matrix, targets):
            fresh = state.copy()
            super().apply_unitary(fresh, matrix, targets)
            return fresh

    shots = 48
    plan = UniformCircuitPartitioner(2).plan(qft5, shots, None)
    in_place = _run(qft5, shots, plan, backend="batched")
    out_of_place = _run(qft5, shots, plan, backend=OutOfPlaceBatched())
    assert out_of_place.counts == in_place.counts


def test_single_layer_plan_runs_batched(ghz3):
    """A one-subcircuit plan degenerates to batched per-shot execution."""
    from repro.core import SingleShotPartitioner

    plan = SingleShotPartitioner().plan(ghz3, 40, None)
    sequential = _run(ghz3, 40, plan, max_batch=1)
    batched = _run(ghz3, 40, plan)
    assert batched.counts == sequential.counts
    assert batched.cost.state_copies == 0
    assert batched.cost.gate_applications == 40 * ghz3.num_gates


def test_gather_into_copies_each_row_from_its_parent():
    backend = get_backend("batched")
    parents = np.arange(3 * 8, dtype=complex).reshape(3, 8)
    rows = np.array([0, 0, 2, 1, 2])
    batch = backend.gather_into(backend.allocate_batch(3, 5), parents, rows)
    assert np.array_equal(batch, parents[rows])


# ---------------------------------------------------------------------------
# Frontier chunks: the pool the traversal allocates, and its lifetime
# ---------------------------------------------------------------------------
class _RecordingBackend(OptimizedNumpyBackend):
    """Records every pooled buffer the engine allocates."""

    def __init__(self):
        super().__init__()
        self.rows: list[int] = []
        self.buffers: list[weakref.ref] = []

    def allocate_batch(self, num_qubits, rows):
        block = super().allocate_batch(num_qubits, rows)
        self.rows.append(rows)
        self.buffers.append(weakref.ref(block))
        return block


@pytest.mark.parametrize(
    "arities, cap, pooled",
    [
        ((1024, 4), 64, 128),
        ((3,) * 7, 64, 295),
        ((3, 10), 4, 7),
        ((3, 10), 1, 2),
        ((3,) * 7, 1, 7),
        ((4, 2, 2), 1, 3),
    ],
)
def test_pool_holds_capped_frontiers(qft5, arities, cap, pooled):
    """The engine allocates exactly ``sum_i min(frontier_i, cap)`` rows."""
    backend = _RecordingBackend()
    shots = int(np.prod(arities))
    plan = ManualPartitioner(arities).plan(qft5, shots, None)
    _run(qft5, shots, plan, backend=backend, max_batch=cap)
    assert sum(backend.rows) == pooled
    assert batched_tree_pool_states(arities, cap) == pooled
    assert len(backend.rows) == len(arities)


def test_default_cap_holds_one_wide_state_per_layer(depolarizing_model):
    """From 15 qubits up a default run pools one state per layer: a
    16-qubit state is 1 MiB, where 64 rows were 64 MiB per layer."""
    backend = _RecordingBackend()
    circuit = Circuit(16).h(0).cx(0, 15).x(7)
    plan = ManualPartitioner((2, 2)).plan(circuit, 4, depolarizing_model)
    result = TQSimEngine(depolarizing_model, seed=5, backend=backend).run(
        circuit, 4, plan=plan
    )
    assert backend.rows == [1, 1]
    assert result.metadata["max_batch"] == 1
    assert result.cost.leaf_samples == 4


def test_pool_is_freed_when_run_returns(qft5, depolarizing_model):
    """No reference cycle keeps a run's pool alive for the cyclic GC."""
    backend = _RecordingBackend()
    plan = ManualPartitioner((3, 5, 2)).plan(qft5, 30, depolarizing_model)
    gc.disable()
    try:
        _run(qft5, 30, plan, depolarizing_model, backend=backend, max_batch=4)
        assert len(backend.buffers) == 3
        assert all(buffer() is None for buffer in backend.buffers)
    finally:
        gc.enable()
