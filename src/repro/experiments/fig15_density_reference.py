"""Figure 15: TQSim vs the exact density-matrix reference.

Paper result: across the feasible (small) circuits the normalized fidelity of
TQSim differs from the exact mixed-state result by 0.007 on average and at
most 0.015 — essentially the same as the baseline trajectory simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.library.suite import benchmark_suite
from repro.core.engine import TQSimEngine
from repro.core.partitioners import DynamicCircuitPartitioner
from repro.density.simulator import DensityMatrixSimulator
from repro.experiments.common import DEFAULT_CONFIG, ExperimentConfig
from repro.metrics.fidelity import normalized_fidelity
from repro.noise.sycamore import depolarizing_noise_model
from repro.statevector.simulator import StatevectorSimulator

__all__ = ["DensityReferenceRow", "DensityReferenceResult", "run"]

PAPER_AVERAGE_DIFFERENCE = 0.007
PAPER_MAX_DIFFERENCE = 0.015


@dataclass(frozen=True)
class DensityReferenceRow:
    """Fidelity of TQSim vs the exact density-matrix simulation."""

    name: str
    num_qubits: int
    num_gates: int
    density_normalized_fidelity: float
    tqsim_normalized_fidelity: float

    @property
    def difference(self) -> float:
        """|NF_density - NF_tqsim|."""
        return abs(self.density_normalized_fidelity - self.tqsim_normalized_fidelity)


@dataclass(frozen=True)
class DensityReferenceResult:
    """Per-circuit differences plus the headline statistics."""

    rows: list[DensityReferenceRow]

    @property
    def average_difference(self) -> float:
        """Mean difference across the feasible circuits."""
        return sum(row.difference for row in self.rows) / len(self.rows)

    @property
    def max_difference(self) -> float:
        """Worst-case difference."""
        return max(row.difference for row in self.rows)


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> DensityReferenceResult:
    """Compare TQSim with the exact density-matrix result on small circuits."""
    noise_model = depolarizing_noise_model()
    partitioner = DynamicCircuitPartitioner(
        copy_cost_in_gates=config.copy_cost_in_gates
    )
    width_limit = min(config.max_qubits, DensityMatrixSimulator.MAX_QUBITS, 9)
    rows: list[DensityReferenceRow] = []
    for spec, circuit in benchmark_suite(max_qubits=width_limit, seed=config.seed):
        ideal = StatevectorSimulator(seed=config.seed).probabilities(circuit)
        density = DensityMatrixSimulator(noise_model, seed=config.seed)
        density_nf = normalized_fidelity(ideal, density.probabilities(circuit))
        engine = TQSimEngine(noise_model, seed=config.seed + 1)
        tqsim_result = engine.run(circuit, config.shots, partitioner=partitioner)
        tqsim_nf = normalized_fidelity(ideal, tqsim_result.probabilities())
        rows.append(
            DensityReferenceRow(
                name=spec.name,
                num_qubits=circuit.num_qubits,
                num_gates=circuit.num_gates,
                density_normalized_fidelity=density_nf,
                tqsim_normalized_fidelity=tqsim_nf,
            )
        )
    if not rows:
        raise ValueError("no circuit small enough for the density-matrix reference")
    return DensityReferenceResult(rows=rows)
