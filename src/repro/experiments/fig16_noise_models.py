"""Figure 16: QPE under nine noise-model combinations.

Paper result: the 9-qubit QPE circuit is highly noise sensitive (especially to
DC, TR and AD), yet TQSim's normalized fidelity matches the baseline under all
nine models (DC, DCR, TR, TRR, AD, ADR, PD, PDR, ALL).  TQSim always derives
its tree from the depolarizing-channel parameters, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.library.qpe import qpe_circuit
from repro.core.baseline import BaselineNoisySimulator
from repro.core.engine import TQSimEngine
from repro.experiments.common import DEFAULT_CONFIG, ExperimentConfig
from repro.metrics.fidelity import normalized_fidelity
from repro.noise.sycamore import NOISE_MODEL_CODES, depolarizing_noise_model, noise_model_by_code
from repro.statevector.simulator import StatevectorSimulator

__all__ = ["NoiseModelRow", "NoiseModelSweepResult", "run"]

PAPER_QPE_QUBITS = 9


@dataclass(frozen=True)
class NoiseModelRow:
    """Baseline and TQSim normalized fidelity under one noise model."""

    code: str
    baseline_normalized_fidelity: float
    tqsim_normalized_fidelity: float

    @property
    def difference(self) -> float:
        """|NF_baseline - NF_tqsim| under this noise model."""
        return abs(self.baseline_normalized_fidelity - self.tqsim_normalized_fidelity)


@dataclass(frozen=True)
class NoiseModelSweepResult:
    """One row per noise-model code."""

    num_qubits: int
    shots: int
    rows: list[NoiseModelRow]

    @property
    def max_difference(self) -> float:
        """Worst-case baseline-vs-TQSim difference across the nine models."""
        return max(row.difference for row in self.rows)


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        codes: tuple[str, ...] = NOISE_MODEL_CODES) -> NoiseModelSweepResult:
    """Sweep the nine noise models on a QPE circuit."""
    num_qubits = min(config.max_qubits, PAPER_QPE_QUBITS)
    circuit = qpe_circuit(num_qubits)
    ideal = StatevectorSimulator(seed=config.seed).probabilities(circuit)

    # The paper derives the TQSim structure from the depolarizing parameters
    # and applies that same plan under every noise model.
    planning_model = depolarizing_noise_model()
    partitioner = config.dcp_partitioner()
    plan = partitioner.plan(circuit, config.shots, planning_model)

    rows: list[NoiseModelRow] = []
    for code in codes:
        noise_model = noise_model_by_code(code)
        baseline = BaselineNoisySimulator(noise_model, seed=config.seed)
        baseline_nf = normalized_fidelity(
            ideal, baseline.run(circuit, config.shots).probabilities()
        )
        engine = TQSimEngine(noise_model, seed=config.seed + 1)
        tqsim_nf = normalized_fidelity(
            ideal, engine.run(circuit, config.shots, plan=plan).probabilities()
        )
        rows.append(NoiseModelRow(code, baseline_nf, tqsim_nf))
    return NoiseModelSweepResult(num_qubits=num_qubits, shots=config.shots, rows=rows)
