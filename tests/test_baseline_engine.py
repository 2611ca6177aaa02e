"""Tests for the baseline Monte-Carlo simulator and the TQSim reuse engine."""

import pytest

from repro.circuits import Circuit
from repro.circuits.library import ghz_circuit
from repro.core import (
    BaselineNoisySimulator,
    BatchedTrajectorySimulator,
    DynamicCircuitPartitioner,
    ManualPartitioner,
    SingleShotPartitioner,
    TQSimEngine,
    UniformCircuitPartitioner,
)
from repro.metrics import normalized_fidelity, total_variation_distance
from repro.noise import NoiseModel, ReadoutError
from repro.statevector import StatevectorSimulator


def test_baseline_without_noise_matches_ideal_distribution(ghz3):
    simulator = BaselineNoisySimulator(noise_model=None, seed=0)
    result = simulator.run(ghz3, 600)
    assert result.total_outcomes == 600
    assert set(result.counts) <= {"000", "111"}
    ideal = StatevectorSimulator().probabilities(ghz3)
    assert total_variation_distance(ideal, result.probabilities()) < 0.1


def test_baseline_cost_counters(bv6, depolarizing_model):
    shots = 50
    simulator = BaselineNoisySimulator(depolarizing_model, seed=1)
    result = simulator.run(bv6, shots)
    assert result.cost.gate_applications == shots * bv6.num_gates
    assert result.cost.leaf_samples == shots
    assert result.cost.state_copies == 0
    assert result.cost.wall_time_seconds > 0
    assert result.metadata["simulator"] == "baseline"


def test_baseline_readout_error_changes_outcomes():
    model = NoiseModel(readout_error=ReadoutError(1.0))
    circuit = Circuit(1).x(0)
    result = BaselineNoisySimulator(model, seed=2).run(circuit, 20)
    assert result.counts == {"0": 20}


def test_baseline_rejects_invalid_shots(ghz3):
    with pytest.raises(ValueError):
        BaselineNoisySimulator().run(ghz3, 0)
    # The engine's plan rejects an empty circuit.
    with pytest.raises(ValueError, match="empty circuit"):
        BaselineNoisySimulator().run(Circuit(3), 10)


# ---------------------------------------------------------------------------
# TQSim engine
# ---------------------------------------------------------------------------
def test_engine_without_noise_matches_ideal(ghz3):
    engine = TQSimEngine(noise_model=None, seed=3)
    result = engine.run(ghz3, 400, partitioner=UniformCircuitPartitioner(2))
    ideal = StatevectorSimulator().probabilities(ghz3)
    assert total_variation_distance(ideal, result.probabilities()) < 0.15
    assert result.total_outcomes >= 400


def test_engine_cost_matches_tree_accounting(qft5, depolarizing_model):
    shots = 128
    partitioner = UniformCircuitPartitioner(3)
    plan = partitioner.plan(qft5, shots, depolarizing_model)
    engine = TQSimEngine(depolarizing_model, seed=4)
    result = engine.run(qft5, shots, plan=plan)
    expected_gates = plan.tree.computation_cost(plan.subcircuit_lengths)
    assert result.cost.gate_applications == expected_gates
    assert result.cost.state_copies == plan.tree.state_copies
    assert result.cost.leaf_samples == plan.total_outcomes
    assert result.total_outcomes == plan.total_outcomes
    assert result.metadata["tree"] == str(plan.tree)


def test_engine_reduces_computation_versus_baseline(qft5, depolarizing_model):
    shots = 200
    baseline = BaselineNoisySimulator(depolarizing_model, seed=5).run(qft5, shots)
    engine = TQSimEngine(depolarizing_model, seed=6)
    result = engine.run(
        qft5, shots,
        partitioner=DynamicCircuitPartitioner(copy_cost_in_gates=5.0,
                                              margin_of_error=0.1),
    )
    assert result.cost.gate_applications < baseline.cost.gate_applications
    assert result.speedup_over(baseline, copy_cost_in_gates=5.0) > 1.0


def test_engine_accuracy_close_to_baseline(bv6, strong_depolarizing_model):
    """With a strong noise model and plenty of shots the TQSim distribution
    stays close to the baseline trajectory distribution."""
    shots = 1200
    ideal = StatevectorSimulator().probabilities(bv6)
    baseline = BaselineNoisySimulator(strong_depolarizing_model, seed=7).run(
        bv6, shots
    )
    engine = TQSimEngine(strong_depolarizing_model, seed=8)
    tqsim = engine.run(bv6, shots, partitioner=ManualPartitioner((300, 4)))
    nf_baseline = normalized_fidelity(ideal, baseline.probabilities())
    nf_tqsim = normalized_fidelity(ideal, tqsim.probabilities())
    assert abs(nf_baseline - nf_tqsim) < 0.08


def test_engine_single_subcircuit_plan_equals_baseline_cost(bv6, depolarizing_model):
    engine = TQSimEngine(depolarizing_model, seed=9)
    result = engine.run(bv6, 64, partitioner=SingleShotPartitioner())
    assert result.cost.state_copies == 0
    assert result.cost.gate_applications == 64 * bv6.num_gates


def test_engine_rejects_mismatched_plan(qft5, bv6, depolarizing_model):
    plan = UniformCircuitPartitioner(2).plan(bv6, 16, depolarizing_model)
    engine = TQSimEngine(depolarizing_model)
    with pytest.raises(ValueError):
        engine.run(qft5, 16, plan=plan)
    with pytest.raises(ValueError):
        engine.run(qft5, 0)


def test_engine_readout_error_applied_at_leaves():
    model = NoiseModel(readout_error=ReadoutError(1.0))
    circuit = ghz_circuit(2)
    engine = TQSimEngine(model, seed=10)
    result = engine.run(circuit, 50, partitioner=UniformCircuitPartitioner(2))
    # Readout flips both bits, so outcomes remain in the GHZ support.
    assert set(result.counts) <= {"00", "11"}


def test_engine_metadata_records_policy_and_noise_model(qft5, depolarizing_model):
    engine = TQSimEngine(depolarizing_model, seed=11)
    result = engine.run(qft5, 100, partitioner=UniformCircuitPartitioner(3))
    assert result.metadata["policy"] == "ucp"
    assert result.metadata["noise_model"] == depolarizing_model.name


# ---------------------------------------------------------------------------
# Noise-event matching runs once per applied gate
# ---------------------------------------------------------------------------
class _CountingNoiseModel:
    """Wrapper counting events_for_gate calls (a real lookup each time)."""

    def __init__(self, inner):
        self._inner = inner
        self.lookups = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def events_for_gate(self, gate):
        self.lookups += 1
        return self._inner.events_for_gate(gate)


def test_engine_matches_noise_events_once_per_gate(qft5, depolarizing_model):
    """Noise events are matched once per gate per run, not per node or
    per chunk."""
    plan = UniformCircuitPartitioner(2).plan(qft5, 32, depolarizing_model)
    counting = _CountingNoiseModel(depolarizing_model)
    engine = TQSimEngine(counting, seed=4, max_batch=4)
    result = engine.run(qft5, 32, plan=plan)
    assert counting.lookups == qft5.num_gates
    assert result.cost.noise_applications > 0
    engine.run(qft5, 32, plan=plan)
    assert counting.lookups == 2 * qft5.num_gates


def _check_one_lookup_per_gate_per_run(simulator, counting, circuit):
    """The per-shot simulators match noise events once per gate per run,
    like the engine whose one-layer plan they run, not once per shot."""
    result = simulator.run(circuit, 20)
    assert counting.lookups == circuit.num_gates
    assert result.cost.gate_applications == 20 * circuit.num_gates
    assert result.cost.noise_applications > 0
    simulator.run(circuit, 20)
    assert counting.lookups == 2 * circuit.num_gates


def test_baseline_matches_noise_events_once_per_gate(bv6, depolarizing_model):
    counting = _CountingNoiseModel(depolarizing_model)
    _check_one_lookup_per_gate_per_run(
        BaselineNoisySimulator(counting, seed=4), counting, bv6
    )


def test_batched_matches_noise_events_once_per_gate(bv6, depolarizing_model):
    counting = _CountingNoiseModel(depolarizing_model)
    _check_one_lookup_per_gate_per_run(
        BatchedTrajectorySimulator(counting, seed=4, batch_size=8),
        counting,
        bv6,
    )
