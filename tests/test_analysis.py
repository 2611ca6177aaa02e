"""Tests for the analytical memory / speedup / HPC / parallel-shot models."""

import pytest

from repro.analysis import (
    FRONTIER,
    HPC_SYSTEMS,
    PERLMUTTER,
    SUMMIT,
    baseline_simulation_bytes,
    density_matrix_bytes,
    max_density_matrix_qubits,
    max_speedup_equal_subcircuits,
    max_statevector_qubits,
    memory_scaling_table,
    memory_utilization,
    noisy_over_ideal_slowdown,
    parallel_shot_speedup,
    parallel_shot_sweep,
    plan_speedup,
    speedup_breakdown,
    statevector_bytes,
    tqsim_memory_utilization,
    tqsim_simulation_bytes,
)
from repro.analysis.memory import (
    EL_CAPITAN_MEMORY_BYTES,
    LAPTOP_MEMORY_BYTES,
    batched_tree_pool_states,
    batched_tree_simulation_bytes,
    max_batch_for_budget,
)
from repro.circuits.library import qft_circuit
from repro.core import UniformCircuitPartitioner
from repro.noise import depolarizing_noise_model


# ---------------------------------------------------------------------------
# Memory models (Figures 4, 5, 9)
# ---------------------------------------------------------------------------
def test_memory_formulas():
    assert statevector_bytes(10) == 16 * 1024
    assert density_matrix_bytes(10) == 16 * 1024 * 1024
    assert baseline_simulation_bytes(20) == statevector_bytes(20)
    with pytest.raises(ValueError):
        statevector_bytes(0)


def test_figure4_capacity_crossovers():
    """A 16 GB laptop fits >=29-qubit statevectors; El Capitan cannot hold a
    25-qubit density matrix (the paper's Figure-4 claim)."""
    assert max_statevector_qubits(LAPTOP_MEMORY_BYTES) >= 29
    assert max_density_matrix_qubits(LAPTOP_MEMORY_BYTES) <= 15
    assert max_density_matrix_qubits(EL_CAPITAN_MEMORY_BYTES) < 25
    assert max_statevector_qubits(EL_CAPITAN_MEMORY_BYTES) > 40


def test_memory_scaling_table_monotone():
    table = memory_scaling_table(10, 20)
    assert len(table) == 11
    assert all(b.statevector_bytes < b.density_matrix_bytes for b in table)
    assert table[-1].statevector_bytes > table[0].statevector_bytes
    with pytest.raises(ValueError):
        memory_scaling_table(10, 5)


def test_tqsim_memory_linear_in_subcircuits():
    single = tqsim_simulation_bytes(20, 1)
    many = tqsim_simulation_bytes(20, 7)
    assert many > single
    assert many == pytest.approx(single + 6 * statevector_bytes(20))
    with pytest.raises(ValueError):
        tqsim_simulation_bytes(20, 0)


def test_batched_tree_pool_sums_capped_frontiers():
    # sum_i min(A_0 * ... * A_i, cap): frontier chunks span parents, so a
    # layer's buffer fills up to the cap even when its arity is small.
    assert batched_tree_pool_states((1024, 4), 64) == 64 + 64
    assert batched_tree_pool_states((3,) * 7, 64) == 3 + 9 + 27 + 4 * 64
    assert batched_tree_pool_states((3, 10), 4) == 3 + 4
    assert batched_tree_pool_states((3, 10), 1) == 2
    with pytest.raises(ValueError):
        batched_tree_pool_states((3, 0), 4)


@pytest.mark.parametrize("arities", [(8, 8), (3,) * 7, (1024, 4), (5,)])
def test_max_batch_for_budget_bisects_to_the_largest_fitting_cap(arities):
    leaves = 1
    for arity in arities:
        leaves *= arity
    for states in (1, 2, 7, 40, 150, 10**6):
        budget = states * statevector_bytes(6)
        fitting = [
            cap for cap in range(1, leaves + 1)
            if batched_tree_simulation_bytes(6, arities, cap) <= budget
        ]
        assert max_batch_for_budget(6, arities, budget) == max(fitting,
                                                               default=1)


# ---------------------------------------------------------------------------
# Speedup models (Section 3.6)
# ---------------------------------------------------------------------------
def test_max_speedup_formula_increases_with_k():
    shots = 32000
    values = [max_speedup_equal_subcircuits(k, shots) for k in (2, 4, 8)]
    assert values[0] < values[1] < values[2]
    assert values[0] == pytest.approx(2.0, abs=1e-3)


def test_plan_speedup_and_breakdown():
    circuit = qft_circuit(6)
    plan = UniformCircuitPartitioner(3).plan(circuit, 512,
                                             depolarizing_noise_model())
    speedup = plan_speedup(plan, copy_cost_in_gates=10.0)
    breakdown = speedup_breakdown(plan, copy_cost_in_gates=10.0)
    assert speedup > 1.0
    assert breakdown.speedup == pytest.approx(
        breakdown.baseline_gate_applications
        / breakdown.tqsim_total_gate_equivalents
    )
    assert 0.0 < breakdown.computation_reduction < 1.0


def test_noisy_over_ideal_slowdown_scales_with_shots():
    assert noisy_over_ideal_slowdown(8192) > noisy_over_ideal_slowdown(1024)
    with pytest.raises(ValueError):
        noisy_over_ideal_slowdown(0)


# ---------------------------------------------------------------------------
# HPC memory utilisation (Table 1 / Section 3.3)
# ---------------------------------------------------------------------------
def test_table1_systems_and_utilization():
    assert len(HPC_SYSTEMS) == 3
    assert FRONTIER.usable_gpu_memory_bytes == pytest.approx(256e9)
    assert PERLMUTTER.usable_gpu_memory_bytes == pytest.approx(128e9)
    assert SUMMIT.usable_gpu_memory_bytes == pytest.approx(32e9)
    # Section 3.3 quotes 25%, 5.3% and 30.8% utilisation.
    assert memory_utilization(FRONTIER) == pytest.approx(0.25, abs=0.01)
    assert memory_utilization(SUMMIT) == pytest.approx(0.053, abs=0.01)
    assert memory_utilization(PERLMUTTER) == pytest.approx(0.308, abs=0.02)


def test_tqsim_improves_memory_utilization():
    for system in (FRONTIER, SUMMIT, PERLMUTTER):
        baseline = memory_utilization(system)
        with_reuse = tqsim_memory_utilization(system, num_qubits=32,
                                              num_subcircuits=7)
        assert with_reuse > baseline
        assert with_reuse <= 1.0
    with pytest.raises(ValueError):
        tqsim_memory_utilization(FRONTIER, 30, 0)


def test_max_statevector_qubits_per_system():
    assert FRONTIER.max_statevector_qubits() >= 33
    assert SUMMIT.max_statevector_qubits() >= 30


# ---------------------------------------------------------------------------
# Parallel shots (Figure 8)
# ---------------------------------------------------------------------------
def test_parallel_shot_speedup_shape():
    """Small circuits benefit (up to ~3x); beyond ~24 qubits there is none."""
    small = parallel_shot_speedup(20, 16)
    large = parallel_shot_speedup(25, 16)
    assert small > 2.0
    assert large < 1.3
    assert parallel_shot_speedup(20, 1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        parallel_shot_speedup(20, 0)


def test_parallel_shot_sweep_memory_negligible():
    points = parallel_shot_sweep()
    per_shot_24 = next(p for p in points
                       if p.num_qubits == 24 and p.parallel_shots == 1)
    # Paper: one 24-qubit statevector is 256 MB = 0.625% of A100 memory.
    assert per_shot_24.memory_bytes == pytest.approx(256 * 2**20, rel=0.05)
    assert per_shot_24.memory_fraction == pytest.approx(0.00625, rel=0.1)
    speedups = [p.speedup for p in points if p.num_qubits == 20]
    assert speedups == sorted(speedups)  # more parallel shots never hurt
