"""Figure 18: QAOA Max-Cut cost landscapes under noise.

Paper result: generating a 31x31 landscape for three graphs (random-9,
star-9, 3-regular-16) takes 10.3 hours with the baseline and 6.4 hours with
TQSim (1.61x–3.7x depending on the graph) while the landscapes agree to an
MSE of ~0.001–0.002.  The reproduction uses a coarser grid and smaller
graphs by default; grid size and graph sizes scale with the config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.library.qaoa import random_maxcut_graph, regular_graph, star_graph
from repro.experiments.common import DEFAULT_CONFIG, ExperimentConfig
from repro.noise.sycamore import depolarizing_noise_model
from repro.vqa.landscape import LandscapeResult, compare_landscapes, qaoa_cost_landscape

__all__ = ["LandscapeComparison", "QaoaLandscapeResult", "run"]

#: (graph, qubits, speedup, MSE) table shown next to Figure 18.
PAPER_TABLE = {
    "random": {"qubits": 9, "speedup": 3.7, "mse": 0.001},
    "star": {"qubits": 9, "speedup": 2.2, "mse": 0.002},
    "3-regular": {"qubits": 16, "speedup": 1.6, "mse": 0.002},
}


@dataclass(frozen=True)
class LandscapeComparison:
    """Baseline and TQSim landscapes for one graph plus their comparison."""

    graph_name: str
    num_qubits: int
    baseline: LandscapeResult
    tqsim: LandscapeResult
    mse: float
    cost_speedup: float


@dataclass(frozen=True)
class QaoaLandscapeResult:
    """One comparison per input graph."""

    comparisons: list[LandscapeComparison]


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> QaoaLandscapeResult:
    """Generate baseline and TQSim landscapes for the three input graphs."""
    grid_points = int(config.extra.get("grid_points", 4))
    gammas = np.linspace(-np.pi, np.pi, grid_points)
    betas = np.linspace(-np.pi, np.pi, grid_points)
    noise_model = depolarizing_noise_model()
    shots = max(32, config.shots // 4)

    random_qubits = min(config.max_qubits, 9)
    regular_qubits = min(config.max_qubits, 8)
    graphs = [
        ("random", random_maxcut_graph(random_qubits, seed=config.seed)),
        ("star", star_graph(random_qubits)),
        ("3-regular", regular_graph(regular_qubits, degree=3, seed=config.seed)),
    ]
    comparisons = []
    # A DCP partitioner tuned to the per-grid-point shot count, so the reuse
    # structure is meaningful even at the harness's reduced scale.
    partitioner = config.scaled(shots=shots).dcp_partitioner()
    for name, graph in graphs:
        kwargs = dict(
            noise_model=noise_model,
            gammas=gammas,
            betas=betas,
            shots=shots,
            seed=config.seed,
            graph_name=name,
        )
        baseline = qaoa_cost_landscape(graph, simulator="baseline", **kwargs)
        tqsim = qaoa_cost_landscape(graph, simulator="tqsim",
                                    partitioner=partitioner, **kwargs)
        summary = compare_landscapes(baseline, tqsim, config.copy_cost_in_gates)
        comparisons.append(
            LandscapeComparison(
                graph_name=name,
                num_qubits=graph.number_of_nodes(),
                baseline=baseline,
                tqsim=tqsim,
                mse=summary["mse"],
                cost_speedup=summary["cost_speedup"],
            )
        )
    return QaoaLandscapeResult(comparisons=comparisons)
