"""Figure 17: accuracy–speedup trade-off across tree structures.

Paper result: on a 9-qubit, 120-gate QPE circuit with 1000 shots, DCP's
(250, 2, 2) tree keeps the fidelity difference negligible while alternative
structures (XCP (20,10,5), UCP (10,10,10), manual (5,10,20) and (2,2,250))
gain speed at a growing accuracy cost; the degenerate (250,1,1) tree that only
produces A0 outcomes deviates substantially.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.library.qpe import qpe_circuit
from repro.core.baseline import BaselineNoisySimulator
from repro.core.costmodel import get_cost_model
from repro.core.engine import TQSimEngine
from repro.core.partitioners import (
    DynamicCircuitPartitioner,
    ExponentialCircuitPartitioner,
    ManualPartitioner,
    UniformCircuitPartitioner,
)
from repro.experiments.common import DEFAULT_CONFIG, ExperimentConfig
from repro.metrics.fidelity import normalized_fidelity
from repro.noise.sycamore import depolarizing_noise_model
from repro.statevector.simulator import StatevectorSimulator

__all__ = [
    "CalibratedPick",
    "TradeoffRow",
    "TradeoffResult",
    "run",
    "paper_structures",
]

PAPER_SHOTS = 1000
PAPER_QPE_QUBITS = 9


@dataclass(frozen=True)
class TradeoffRow:
    """Speedup and fidelity difference for one tree structure."""

    label: str
    tree: str
    cost_speedup: float
    wall_clock_speedup: float
    fidelity_difference: float
    total_outcomes: int


@dataclass(frozen=True)
class CalibratedPick:
    """The analytic DCP plan vs the cost-model-picked plan, measured.

    Both plans execute on the batched engine with the same seed (best of
    ``repeats`` runs each, taking turns), so the ratio isolates the *plan
    choice* made by the calibrated search from everything else; when both
    are the same tree, one timing stands for both and the ratio is 1.
    """

    analytic_tree: str
    calibrated_tree: str
    analytic_seconds: float
    calibrated_seconds: float
    predicted_seconds: float

    @property
    def measured_speedup(self) -> float:
        """Analytic-plan wall time over calibrated-plan wall time."""
        return self.analytic_seconds / self.calibrated_seconds


@dataclass(frozen=True)
class TradeoffResult:
    """All evaluated structures, ordered as in the paper's figure."""

    num_qubits: int
    shots: int
    rows: list[TradeoffRow]
    calibrated: CalibratedPick | None = None

    def row(self, label: str) -> TradeoffRow:
        """Look a structure up by its label."""
        for candidate in self.rows:
            if candidate.label == label:
                return candidate
        raise KeyError(label)


def paper_structures(shots: int,
                     dcp: DynamicCircuitPartitioner | None = None
                     ) -> list[tuple[str, object]]:
    """The six structures of Figure 17, scaled to the requested shot count.

    The paper's labels assume 1000 shots; for other shot counts the same
    *shapes* are kept (DCP automatic, XCP, UCP, inverted-XCP, tail-heavy,
    and the degenerate first-layer-only tree).
    """
    scale = shots / PAPER_SHOTS
    a0 = max(2, round(250 * scale))
    return [
        ("dcp", dcp if dcp is not None else DynamicCircuitPartitioner()),
        ("xcp", ExponentialCircuitPartitioner(3)),
        ("ucp", UniformCircuitPartitioner(3)),
        ("manual_5_10_20", ManualPartitioner(_scaled((5, 10, 20), scale))),
        ("manual_2_2_250", ManualPartitioner(_scaled((2, 2, 250), scale))),
        ("degenerate_250_1_1", ManualPartitioner((a0, 1, 1))),
    ]


def _scaled(arities: tuple[int, ...], scale: float) -> tuple[int, ...]:
    """Scale a tree's total outcomes while preserving its shape."""
    if abs(scale - 1.0) < 1e-9:
        return arities
    factor = scale ** (1.0 / len(arities))
    return tuple(max(1, round(a * factor)) for a in arities)


def _measure_calibrated_pick(circuit, noise_model,
                             config: ExperimentConfig,
                             repeats: int = 2) -> CalibratedPick:
    """Time the analytic DCP plan against the calibrated pick, both batched.

    Plans with the same arities and subcircuit lengths are one tree: it is
    timed once and that reading stands for both.  Otherwise the two plans
    take turns within each repeat, so a slow spell of the machine does not
    fall on one of them only.
    """
    cost_model = get_cost_model("batched", circuit.num_qubits)
    analytic_plan = config.dcp_partitioner().plan(
        circuit, config.shots, noise_model
    )
    calibrated_plan = config.calibrated_dcp_partitioner(cost_model).plan(
        circuit, config.shots, noise_model
    )
    plans = [analytic_plan]
    if (calibrated_plan.tree.arities, calibrated_plan.subcircuit_lengths) != (
        analytic_plan.tree.arities, analytic_plan.subcircuit_lengths
    ):
        plans.append(calibrated_plan)
    best = [float("inf")] * len(plans)
    for _ in range(repeats):
        for index, plan in enumerate(plans):
            result = TQSimEngine(
                noise_model, seed=config.seed + 1, backend="batched"
            ).run(circuit, config.shots, plan=plan)
            best[index] = min(best[index], result.cost.wall_time_seconds)
    return CalibratedPick(
        analytic_tree=str(analytic_plan.tree),
        calibrated_tree=str(calibrated_plan.tree),
        analytic_seconds=best[0],
        calibrated_seconds=best[-1],
        predicted_seconds=calibrated_plan.parameters["predicted_seconds"],
    )


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> TradeoffResult:
    """Evaluate the six Figure-17 structures on a QPE circuit.

    Besides the paper's six analytic structures, the result carries the
    ``calibrated`` side-by-side: the analytic DCP plan vs the plan the
    microbenchmark-calibrated cost model picks, both measured on the
    batched engine.
    """
    num_qubits = min(config.max_qubits, PAPER_QPE_QUBITS)
    circuit = qpe_circuit(num_qubits)
    noise_model = depolarizing_noise_model()
    ideal = StatevectorSimulator(seed=config.seed).probabilities(circuit)

    baseline = BaselineNoisySimulator(noise_model, seed=config.seed)
    baseline_result = baseline.run(circuit, config.shots)
    baseline_nf = normalized_fidelity(ideal, baseline_result.probabilities())

    rows: list[TradeoffRow] = []
    for label, partitioner in paper_structures(config.shots,
                                               dcp=config.dcp_partitioner()):
        engine = TQSimEngine(noise_model, seed=config.seed + 1)
        result = engine.run(circuit, config.shots, partitioner=partitioner)
        fidelity = normalized_fidelity(ideal, result.probabilities())
        rows.append(
            TradeoffRow(
                label=label,
                tree=result.metadata["tree"],
                cost_speedup=result.speedup_over(
                    baseline_result, config.copy_cost_in_gates
                ),
                wall_clock_speedup=result.speedup_over(
                    baseline_result, use_wall_time=True
                ),
                fidelity_difference=abs(baseline_nf - fidelity),
                total_outcomes=result.total_outcomes,
            )
        )
    return TradeoffResult(
        num_qubits=num_qubits,
        shots=config.shots,
        rows=rows,
        calibrated=_measure_calibrated_pick(circuit, noise_model, config),
    )
