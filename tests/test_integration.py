"""End-to-end integration tests crossing multiple subsystems."""

import pytest

from repro.circuits.library import bv_circuit, qft_circuit
from repro.core import (
    BaselineNoisySimulator,
    DynamicCircuitPartitioner,
    TQSimEngine,
)
from repro.density import DensityMatrixSimulator
from repro.metrics import normalized_fidelity, total_variation_distance
from repro.noise import depolarizing_noise_model
from repro.statevector import StatevectorSimulator


def test_trajectory_ensembles_converge_to_density_matrix():
    """Section 2.4.1: baseline and TQSim ensembles both approximate the exact
    mixed-state distribution, and they agree with each other."""
    circuit = bv_circuit(5)
    noise = depolarizing_noise_model(single_qubit_error=0.01,
                                     two_qubit_error=0.05)
    shots = 1500
    exact = DensityMatrixSimulator(noise, seed=0).probabilities(circuit)
    baseline = BaselineNoisySimulator(noise, seed=1).run(circuit, shots)
    engine = TQSimEngine(noise, seed=2)
    partitioner = DynamicCircuitPartitioner(copy_cost_in_gates=4.0,
                                            margin_of_error=0.1,
                                            min_first_layer_shots=200)
    tqsim = engine.run(circuit, shots, partitioner=partitioner)

    assert total_variation_distance(exact, baseline.probabilities()) < 0.08
    assert total_variation_distance(exact, tqsim.probabilities()) < 0.10
    assert total_variation_distance(
        baseline.probabilities(), tqsim.probabilities()
    ) < 0.12


def test_headline_claim_speedup_with_bounded_fidelity_loss():
    """The paper's headline: TQSim reduces computation while its normalized
    fidelity stays close to the baseline's."""
    circuit = qft_circuit(6)
    noise = depolarizing_noise_model()
    shots = 600
    ideal = StatevectorSimulator().probabilities(circuit)

    baseline = BaselineNoisySimulator(noise, seed=3).run(circuit, shots)
    partitioner = DynamicCircuitPartitioner(copy_cost_in_gates=8.0,
                                            margin_of_error=0.15,
                                            min_first_layer_shots=100)
    tqsim = TQSimEngine(noise, seed=4).run(
        circuit, shots, partitioner=partitioner
    )

    speedup = tqsim.speedup_over(baseline, copy_cost_in_gates=8.0)
    assert speedup > 1.25  # strictly less computation

    nf_baseline = normalized_fidelity(ideal, baseline.probabilities())
    nf_tqsim = normalized_fidelity(ideal, tqsim.probabilities())
    assert abs(nf_baseline - nf_tqsim) < 0.12


def test_wall_clock_speedup_tracks_cost_speedup():
    """On the NumPy backend the measured wall-clock ratio follows the
    computation-reduction ratio (the paper's backend-independence argument)."""
    circuit = qft_circuit(7)
    noise = depolarizing_noise_model()
    shots = 300
    baseline = BaselineNoisySimulator(noise, seed=5).run(circuit, shots)
    partitioner = DynamicCircuitPartitioner(copy_cost_in_gates=6.0,
                                            margin_of_error=0.2,
                                            min_first_layer_shots=50)
    # One node at a time: the execution the per-trajectory counters model
    # (larger chunks add a batching win on top).
    tqsim = TQSimEngine(noise, seed=6, max_batch=1).run(
        circuit, shots, partitioner=partitioner
    )
    cost_speedup = tqsim.speedup_over(baseline, copy_cost_in_gates=6.0)
    wall_speedup = tqsim.speedup_over(baseline, use_wall_time=True)
    assert cost_speedup > 1.2
    assert wall_speedup > 1.0
    assert wall_speedup == pytest.approx(cost_speedup, rel=0.6)


def test_deterministic_given_seed():
    circuit = bv_circuit(5)
    noise = depolarizing_noise_model()
    first = TQSimEngine(noise, seed=42).run(circuit, 100)
    second = TQSimEngine(noise, seed=42).run(circuit, 100)
    assert first.counts == second.counts
    different = TQSimEngine(noise, seed=43).run(circuit, 100)
    assert first.counts != different.counts or first.counts == different.counts
