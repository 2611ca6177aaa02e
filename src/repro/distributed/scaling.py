"""Strong and weak scaling studies on the modeled cluster (Figure 13)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.circuits.circuit import Circuit
from repro.core.partitioners import DynamicCircuitPartitioner
from repro.distributed.cluster import ClusterConfig, XEON_CLUSTER
from repro.distributed.partitioned import DistributedCostModel
from repro.noise.model import NoiseModel

__all__ = ["ScalingPoint", "strong_scaling", "weak_scaling"]


@dataclass(frozen=True)
class ScalingPoint:
    """One (circuit, node count) sample of a scaling study."""

    circuit_name: str
    num_qubits: int
    num_nodes: int
    baseline_seconds: float
    tqsim_seconds: float

    @property
    def tqsim_speedup(self) -> float:
        """TQSim speedup over the baseline at this node count."""
        return self.baseline_seconds / self.tqsim_seconds

    def parallel_speedup(self, single_node_seconds: float) -> float:
        """Strong-scaling speedup relative to the single-node time."""
        return single_node_seconds / self.tqsim_seconds


def _plan_for(circuit: Circuit, shots: int, noise_model: NoiseModel | None):
    return DynamicCircuitPartitioner().plan(circuit, shots, noise_model)


def strong_scaling(
    circuit: Circuit,
    shots: int,
    node_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
    noise_model: NoiseModel | None = None,
    cluster: ClusterConfig = XEON_CLUSTER,
) -> list[ScalingPoint]:
    """Fixed problem size, increasing node count (Figure 13a)."""
    model = DistributedCostModel(cluster)
    plan = _plan_for(circuit, shots, noise_model)
    noise_rate = 1.0 if noise_model is not None else 0.0
    points = []
    for num_nodes in node_counts:
        baseline = model.baseline_estimate(circuit, shots, num_nodes, noise_rate)
        tqsim = model.tqsim_estimate(plan, num_nodes, noise_rate)
        points.append(
            ScalingPoint(
                circuit_name=circuit.name or "circuit",
                num_qubits=circuit.num_qubits,
                num_nodes=num_nodes,
                baseline_seconds=baseline.total_seconds,
                tqsim_seconds=tqsim.total_seconds,
            )
        )
    return points


def weak_scaling(
    circuits: Sequence[Circuit],
    shots: int,
    node_counts: Sequence[int] | None = None,
    noise_model: NoiseModel | None = None,
    cluster: ClusterConfig = XEON_CLUSTER,
) -> list[ScalingPoint]:
    """Problem size grows with the node count (Figure 13b).

    By default circuit ``i`` runs on ``2**i`` nodes, matching the paper's
    24-to-29-qubit sweep over 1 to 32 nodes.
    """
    if node_counts is None:
        node_counts = [2**i for i in range(len(circuits))]
    if len(node_counts) != len(circuits):
        raise ValueError("need one node count per circuit")
    model = DistributedCostModel(cluster)
    noise_rate = 1.0 if noise_model is not None else 0.0
    points = []
    for circuit, num_nodes in zip(circuits, node_counts):
        plan = _plan_for(circuit, shots, noise_model)
        baseline = model.baseline_estimate(circuit, shots, num_nodes, noise_rate)
        tqsim = model.tqsim_estimate(plan, num_nodes, noise_rate)
        points.append(
            ScalingPoint(
                circuit_name=circuit.name or "circuit",
                num_qubits=circuit.num_qubits,
                num_nodes=num_nodes,
                baseline_seconds=baseline.total_seconds,
                tqsim_seconds=tqsim.total_seconds,
            )
        )
    return points
