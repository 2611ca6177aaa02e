"""Picklability regressions: everything a ShardSpec carries must cross a
process boundary and behave identically on the other side.

These tests pin the contract the dispatch subsystem depends on: circuits,
gates, partition plans, noise models, channels (including their lazily built
sampling caches) and results all round-trip through ``pickle`` with
behaviour — not just attribute equality — preserved.
"""

import pickle

import numpy as np
import pytest

from repro.circuits import Gate
from repro.circuits.library import qft_circuit
from repro.core import (
    CostCounters,
    DynamicCircuitPartitioner,
    ManualPartitioner,
    SimulationResult,
    TQSimEngine,
    TreeStructure,
)
from repro.dispatch import ShardPlanner, run_shard
from repro.noise import ReadoutError, depolarizing_noise_model
from repro.noise.channels import (
    AmplitudeDampingChannel,
    DepolarizingChannel,
    PauliChannel,
    ThermalRelaxationChannel,
)


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_gate_roundtrip_standard_parametric_and_matrix():
    for gate in (
        Gate.standard("h", (0,)),
        Gate.standard("rz", (1,), 0.7),
        Gate.standard("cx", (0, 2)),
        Gate.from_matrix(np.array([[0, 1], [1, 0]]), (1,), label="flip"),
    ):
        copy = _roundtrip(gate)
        assert copy.name == gate.name
        assert copy.qubits == gate.qubits
        assert copy.params == gate.params
        assert copy.label == gate.label
        assert np.allclose(copy.to_matrix(), gate.to_matrix())


def test_circuit_roundtrip_preserves_semantics(qft5):
    circuit = qft5.copy()
    circuit.unitary(np.eye(4), (0, 3), label="probe")
    copy = _roundtrip(circuit)
    assert copy == circuit
    assert copy.name == circuit.name
    assert np.allclose(copy.to_matrix(), circuit.to_matrix())


def test_tree_structure_and_partition_plan_roundtrip(qft5, depolarizing_model):
    tree = _roundtrip(TreeStructure((6, 3, 2)))
    assert tree.arities == (6, 3, 2)
    assert tree.total_outcomes == 36
    plan = DynamicCircuitPartitioner().plan(qft5, 120, depolarizing_model)
    copy = _roundtrip(plan)
    assert copy.tree.arities == plan.tree.arities
    assert copy.policy == plan.policy
    assert copy.subcircuit_lengths == plan.subcircuit_lengths
    assert all(ours == theirs
               for ours, theirs in zip(copy.subcircuits, plan.subcircuits))


@pytest.mark.parametrize("channel", [
    DepolarizingChannel(0.05),
    DepolarizingChannel(0.02, num_qubits=2),
    PauliChannel({"X": 0.1, "Z": 0.05}),
    AmplitudeDampingChannel(0.03),
    ThermalRelaxationChannel(t1=50e3, t2=70e3, gate_time=35.0),
])
def test_kraus_channels_roundtrip_with_behaviour(channel):
    # Build the lazy sampling caches first: a previously sampled channel is
    # exactly what a noise model holds when it gets pickled mid-session.
    if channel.is_mixed_unitary:
        channel.sample_mixture_index(np.random.default_rng(0))
    copy = _roundtrip(channel)
    assert copy.num_qubits == channel.num_qubits
    assert copy.error_probability == pytest.approx(channel.error_probability)
    assert np.allclose(copy.to_superoperator(), channel.to_superoperator())
    if channel.is_mixed_unitary:
        rng_a, rng_b = (np.random.default_rng(9) for _ in range(2))
        assert [copy.sample_mixture_index(rng_a) for _ in range(20)] == [
            channel.sample_mixture_index(rng_b) for _ in range(20)
        ]


def test_noise_model_roundtrip_with_overrides_and_readout(small_circuit):
    model = depolarizing_noise_model()
    model.add_gate_override("h", [DepolarizingChannel(0.2)])
    model.mark_noiseless("rz")
    model.readout_error = ReadoutError(0.03, 0.01)
    copy = _roundtrip(model)
    assert copy.name == model.name
    assert copy.name_sensitive_gates == model.name_sensitive_gates
    assert copy.readout_error.p0_given_1 == pytest.approx(0.03)
    assert copy.readout_error.p1_given_0 == pytest.approx(0.01)
    for gate in small_circuit:
        ours = copy.events_for_gate(gate)
        theirs = model.events_for_gate(gate)
        assert len(ours) == len(theirs)
        for mine, other in zip(ours, theirs):
            assert mine.qubits == other.qubits
            assert np.allclose(
                mine.channel.to_superoperator(),
                other.channel.to_superoperator(),
            )
    assert copy.circuit_error_probability(small_circuit) == pytest.approx(
        model.circuit_error_probability(small_circuit)
    )


def test_simulation_result_roundtrip():
    result = SimulationResult(
        counts={"010": 4, "111": 2},
        num_qubits=3,
        shots=6,
        cost=CostCounters(gate_applications=18, state_copies=3,
                          wall_time_seconds=0.25),
        metadata={"tree": "(3,2)", "probabilities": np.array([0.5, 0.5])},
    )
    copy = _roundtrip(result)
    assert copy.counts == result.counts
    assert copy.cost.matches(result.cost)
    assert np.array_equal(copy.metadata["probabilities"],
                          result.metadata["probabilities"])
    assert copy.probabilities() == pytest.approx(result.probabilities())


def test_shard_spec_roundtrip_reproduces_worker_result(qft5):
    """The end-to-end property dispatch relies on: pickling a spec does not
    change what the worker computes."""
    noise = depolarizing_noise_model()
    noise.readout_error = ReadoutError(0.02)
    shards = ShardPlanner(noise_model=noise).plan_shards(
        qft5, 90, 3, seed=13,
        partitioner=DynamicCircuitPartitioner(),
    )
    spec = shards[1]
    direct = run_shard(spec)
    shipped = run_shard(_roundtrip(spec))
    assert shipped.counts == direct.counts
    assert shipped.cost.matches(direct.cost)
    # A spec names its slice by range, not by one key per node: covering
    # all 1024 first-layer nodes costs no more on the wire than one node.
    plan = ManualPartitioner((1024, 4)).plan(qft5, 4096, noise)
    planner = ShardPlanner(noise_model=noise)
    (whole,) = planner.plan_shards(qft5, 4096, 1, seed=13, plan=plan)
    one_node = planner.plan_shards(qft5, 4096, 1024, seed=13, plan=plan)[0]
    assert abs(len(pickle.dumps(whole)) - len(pickle.dumps(one_node))) <= 64


def test_engine_accepts_seed_sequence():
    circuit = qft_circuit(4)
    seed_sequence = np.random.SeedSequence(77)
    from_sequence = TQSimEngine(seed=seed_sequence).run(circuit, 32)
    from_int = TQSimEngine(seed=77).run(circuit, 32)
    assert from_sequence.counts == from_int.counts
