"""Tests for the redundancy-elimination comparator and the QAOA/VQA support."""

import networkx as nx
import numpy as np
import pytest

from repro.circuits.library import bv_circuit, qft_circuit, random_maxcut_graph
from repro.core import SingleShotPartitioner
from repro.noise import depolarizing_noise_model
from repro.redunelim import analyze_redundancy_elimination, tqsim_normalized_computation
from repro.vqa import (
    best_cut_brute_force,
    compare_landscapes,
    cut_value,
    expected_cut_from_counts,
    expected_cut_from_probabilities,
    maxcut_cost_diagonal,
    qaoa_cost_landscape,
)


NOISE = depolarizing_noise_model()
STRONG_NOISE = depolarizing_noise_model(single_qubit_error=0.02,
                                        two_qubit_error=0.05)


# ---------------------------------------------------------------------------
# Redundancy elimination (Figure 19)
# ---------------------------------------------------------------------------
def test_redundancy_analysis_bounds(bv6):
    analysis = analyze_redundancy_elimination(bv6, NOISE, shots=50, seed=0)
    assert analysis.baseline_gate_applications == 50 * bv6.num_gates
    assert 0 < analysis.redun_elim_gate_applications <= 50 * bv6.num_gates
    assert 0.0 < analysis.normalized_computation <= 1.0
    assert analysis.eliminated_fraction == pytest.approx(
        1.0 - analysis.normalized_computation
    )


def test_redundancy_elimination_wins_for_small_low_noise_circuits(bv6):
    """With tiny error rates most shots share the all-identity realization."""
    low_noise = depolarizing_noise_model(single_qubit_error=1e-4,
                                         two_qubit_error=1e-4)
    analysis = analyze_redundancy_elimination(bv6, low_noise, shots=100, seed=1)
    assert analysis.normalized_computation < 0.3


def test_redundancy_elimination_degrades_with_gate_count():
    """Figure 19: the eliminated fraction collapses as circuits grow."""
    short = analyze_redundancy_elimination(bv_circuit(6), STRONG_NOISE, 60, seed=2)
    long = analyze_redundancy_elimination(qft_circuit(6), STRONG_NOISE, 60, seed=2)
    assert long.num_gates > 3 * short.num_gates
    assert long.normalized_computation > short.normalized_computation


def test_tqsim_normalized_computation_below_one_for_long_circuits():
    value = tqsim_normalized_computation(qft_circuit(8), NOISE, shots=2000,
                                         copy_cost_in_gates=10.0)
    assert 0.0 < value < 0.8


def test_redundancy_validation(bv6):
    with pytest.raises(ValueError):
        analyze_redundancy_elimination(bv6, NOISE, shots=0)


# ---------------------------------------------------------------------------
# Max-Cut / QAOA
# ---------------------------------------------------------------------------
def test_cut_value_and_diagonal():
    graph = nx.Graph([(0, 1), (1, 2)])
    assert cut_value(graph, "010") == 2  # node1 opposite to nodes 0 and 2
    assert cut_value(graph, "000") == 0
    diagonal = maxcut_cost_diagonal(graph)
    assert diagonal[0b010] == 2
    assert best_cut_brute_force(graph) == 2
    with pytest.raises(ValueError):
        cut_value(graph, "01")


def test_expected_cut_consistency():
    graph = nx.Graph([(0, 1), (1, 2)])
    probs = np.zeros(8)
    probs[0b010] = 0.5
    probs[0b000] = 0.5
    assert expected_cut_from_probabilities(graph, probs) == pytest.approx(1.0)
    counts = {"010": 50, "000": 50}
    assert expected_cut_from_counts(graph, counts) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        expected_cut_from_counts(graph, {})


def test_qaoa_landscape_and_comparison():
    graph = random_maxcut_graph(5, seed=3)
    gammas = np.linspace(-1.0, 1.0, 2)
    betas = np.linspace(-1.0, 1.0, 2)
    kwargs = dict(noise_model=STRONG_NOISE, gammas=gammas, betas=betas,
                  shots=48, seed=4, graph_name="test")
    baseline = qaoa_cost_landscape(graph, simulator="baseline", **kwargs)
    tqsim = qaoa_cost_landscape(graph, simulator="tqsim", **kwargs)
    assert baseline.costs.shape == (2, 2)
    assert baseline.grid_points == 4
    assert np.all(baseline.costs >= 0)
    summary = compare_landscapes(baseline, tqsim)
    assert summary["mse"] >= 0.0
    assert summary["cost_speedup"] > 0.0
    with pytest.raises(ValueError):
        qaoa_cost_landscape(graph, simulator="magic", **kwargs)


def test_landscape_legs_draw_independent_streams():
    """One set of arguments seeds the two legs apart.  A one-layer tree is
    the baseline's own plan, so on one seed shot ``j`` and first-layer node
    ``j`` would share a stream and the two landscapes would be equal."""
    graph = random_maxcut_graph(5, seed=3)
    kwargs = dict(noise_model=STRONG_NOISE, gammas=np.linspace(-1.0, 1.0, 2),
                  betas=np.linspace(-1.0, 1.0, 2), shots=48, seed=4)
    baseline = qaoa_cost_landscape(graph, simulator="baseline", **kwargs)
    tree = qaoa_cost_landscape(graph, simulator="tqsim",
                               partitioner=SingleShotPartitioner(), **kwargs)
    assert not np.array_equal(baseline.costs, tree.costs)
    # An unseeded sweep stays unseeded on both legs.
    kwargs.update(seed=None, gammas=[0.5], betas=[0.5])
    for simulator in ("baseline", "tqsim"):
        assert qaoa_cost_landscape(graph, simulator=simulator,
                                   **kwargs).grid_points == 1
