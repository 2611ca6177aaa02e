"""QAOA cost-landscape sweeps under noise (Figure 18).

Generating a landscape means simulating one circuit per (gamma, beta) grid
point — the paper's example runs 961 circuits per graph — which is exactly the
kind of repetitive multi-shot workload TQSim accelerates.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.circuits.library.qaoa import qaoa_maxcut_circuit
from repro.core.baseline import BaselineNoisySimulator
from repro.core.copycost import DEFAULT_COPY_COST_IN_GATES
from repro.core.engine import TQSimEngine
from repro.core.results import CostCounters
from repro.metrics.fidelity import distribution_mse
from repro.noise.model import NoiseModel
from repro.obs import clock
from repro.vqa.maxcut import expected_cut_from_counts

__all__ = ["LandscapeResult", "qaoa_cost_landscape", "compare_landscapes"]


@dataclass
class LandscapeResult:
    """One simulator's cost landscape over a (gamma, beta) grid."""

    graph_name: str
    gammas: np.ndarray
    betas: np.ndarray
    costs: np.ndarray
    simulator: str
    cost_counters: CostCounters
    wall_time_seconds: float

    @property
    def grid_points(self) -> int:
        """Number of simulated circuits."""
        return int(self.costs.size)


def qaoa_cost_landscape(
    graph: nx.Graph,
    noise_model: NoiseModel | None,
    simulator: str = "baseline",
    gammas: np.ndarray | None = None,
    betas: np.ndarray | None = None,
    shots: int = 200,
    seed: int | None = 0,
    graph_name: str = "graph",
    partitioner=None,
) -> LandscapeResult:
    """Sweep (gamma, beta) and record the expected Max-Cut value at each point.

    Parameters
    ----------
    simulator:
        ``"baseline"`` (per-shot Monte Carlo) or ``"tqsim"`` (reuse engine).
    gammas, betas:
        Grid axes; default to a coarse 5x5 grid over [-pi, pi].
    seed:
        Seed of the baseline leg; the TQSim leg runs at ``seed + 1`` (a
        ``None`` seed stays ``None``).  The two legs draw from path-keyed
        streams, so one seed would hand baseline shot ``j`` and first-layer
        tree node ``j`` the same stream and correlate the landscapes
        compared in Figure 18.
    partitioner:
        Optional partitioning policy for the TQSim engine; defaults to DCP
        at its default copy cost.
    """
    if simulator not in ("baseline", "tqsim"):
        raise ValueError("simulator must be 'baseline' or 'tqsim'")
    gammas = np.linspace(-np.pi, np.pi, 5) if gammas is None else np.asarray(gammas)
    betas = np.linspace(-np.pi, np.pi, 5) if betas is None else np.asarray(betas)
    costs = np.zeros((len(gammas), len(betas)))
    total_cost = CostCounters()
    start = clock.perf_seconds()
    for i, gamma in enumerate(gammas):
        for j, beta in enumerate(betas):
            circuit = qaoa_maxcut_circuit(graph, betas=[float(beta)],
                                          gammas=[float(gamma)])
            if simulator == "baseline":
                engine = BaselineNoisySimulator(noise_model, seed=seed)
                result = engine.run(circuit, shots)
            else:
                engine = TQSimEngine(
                    noise_model, seed=None if seed is None else seed + 1
                )
                result = engine.run(circuit, shots, partitioner=partitioner)
            costs[i, j] = expected_cut_from_counts(graph, result.counts)
            total_cost = total_cost.merged_with(result.cost)
    wall = clock.perf_seconds() - start
    return LandscapeResult(
        graph_name=graph_name,
        gammas=gammas,
        betas=betas,
        costs=costs,
        simulator=simulator,
        cost_counters=total_cost,
        wall_time_seconds=wall,
    )


def compare_landscapes(baseline: LandscapeResult, tqsim: LandscapeResult,
                       copy_cost_in_gates: float = DEFAULT_COPY_COST_IN_GATES
                       ) -> dict[str, float]:
    """The Figure-18 table row: speedup and MSE between the two landscapes."""
    if baseline.costs.shape != tqsim.costs.shape:
        raise ValueError("landscapes were computed on different grids")
    mse = distribution_mse(baseline.costs.ravel(), tqsim.costs.ravel())
    cost_speedup = baseline.cost_counters.gate_equivalents(copy_cost_in_gates) / (
        tqsim.cost_counters.gate_equivalents(copy_cost_in_gates)
    )
    wall_speedup = (
        baseline.wall_time_seconds / tqsim.wall_time_seconds
        if tqsim.wall_time_seconds > 0
        else float("nan")
    )
    return {
        "graph": baseline.graph_name,
        "grid_points": baseline.grid_points,
        "mse": mse,
        "cost_speedup": cost_speedup,
        "wall_clock_speedup": wall_speedup,
    }
