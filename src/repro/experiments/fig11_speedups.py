"""Figure 11 + Figure 14: TQSim speedup and fidelity across the benchmark suite.

Paper result: 1.59x–3.89x speedup over the noisy Qulacs baseline (average
2.51x) across 48 circuits from 8 classes, with the normalized-fidelity
difference staying below 0.016 (Figure 14).  Both figures come from the same
sweep, so this module produces the rows for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuits.library.suite import BenchmarkSpec, benchmark_suite
from repro.core.partitioners import UniformCircuitPartitioner
from repro.experiments.common import (
    BatchedTreeMeasurement,
    ComparisonRow,
    DEFAULT_CONFIG,
    ExperimentConfig,
    compare_simulators,
    fuse_for_noise_model,
    measure_batched_tree,
)
from repro.metrics.statistics import geometric_mean
from repro.noise.sycamore import depolarizing_noise_model

__all__ = ["SuiteSweepResult", "run"]

#: Per-class average speedups reported in Figure 11 (for side-by-side output).
PAPER_CLASS_SPEEDUPS = {
    "ADDER": 2.20,
    "BV": 1.77,
    "MUL": 2.62,
    "QAOA": 2.39,
    "QFT": 3.10,
    "QPE": 2.76,
    "QSC": 2.22,
    "QV": 2.98,
}
PAPER_AVERAGE_SPEEDUP = 2.51
PAPER_MAX_SPEEDUP = 3.89
PAPER_MAX_FIDELITY_DIFFERENCE = 0.016


@dataclass
class SuiteSweepResult:
    """Speedup and fidelity rows for every benchmark that was run."""

    rows: list[ComparisonRow] = field(default_factory=list)
    specs: list[BenchmarkSpec] = field(default_factory=list)
    batched_rows: list[BatchedTreeMeasurement] = field(default_factory=list)

    @property
    def class_speedups(self) -> dict[str, float]:
        """Average cost-based speedup per benchmark class."""
        grouped: dict[str, list[float]] = {}
        for spec, row in zip(self.specs, self.rows):
            grouped.setdefault(spec.benchmark_class, []).append(row.cost_speedup)
        return {cls: geometric_mean(vals) for cls, vals in grouped.items()}

    @property
    def average_speedup(self) -> float:
        """Average cost-based speedup across all circuits run."""
        return geometric_mean([row.cost_speedup for row in self.rows])

    @property
    def max_speedup(self) -> float:
        """Best cost-based speedup observed."""
        return max(row.cost_speedup for row in self.rows)

    @property
    def max_fidelity_difference(self) -> float:
        """Worst normalized-fidelity difference (the Figure-14 headline)."""
        return max(row.fidelity_difference for row in self.rows)

    @property
    def average_fidelity_difference(self) -> float:
        """Mean normalized-fidelity difference across the suite."""
        rows = self.rows
        return sum(row.fidelity_difference for row in rows) / len(rows)

    @property
    def average_batched_tree_speedup(self) -> float:
        """Mean measured speedup of the default chunk cap over cap 1."""
        return geometric_mean(
            [row.batched_tree_speedup for row in self.batched_rows]
        )

    @property
    def best_calibrated_vs_analytic_speedup(self) -> float:
        """Best measured wall-time win of the calibrated plan pick.

        Ratio of the analytic DCP plan's wall time over the calibrated
        plan's, both on the same engine — above 1.0 means the measured
        cost model picked a genuinely faster plan for at least one circuit.
        """
        return max(
            row.calibrated_vs_analytic_speedup
            for row in self.rows
            if row.calibrated_vs_analytic_speedup is not None
        )

    @property
    def calibrated_wins(self) -> int:
        """Circuits where the calibrated plan measured faster than analytic."""
        return sum(
            1
            for row in self.rows
            if row.calibrated_vs_analytic_speedup is not None
            and row.calibrated_vs_analytic_speedup > 1.0
        )

    @property
    def max_batched_tree_speedup(self) -> float:
        """Best measured speedup of the default chunk cap over cap 1."""
        return max(row.batched_tree_speedup for row in self.batched_rows)

    def table(self) -> list[dict]:
        """Flat rows annotated with the paper's class-average speedups."""
        return [
            {
                **row.as_dict(),
                "class": spec.benchmark_class,
                "paper_width": spec.paper_width,
                "paper_gates": spec.paper_gates,
                "paper_class_speedup": PAPER_CLASS_SPEEDUPS[spec.benchmark_class],
            }
            for spec, row in zip(self.specs, self.rows)
        ]


def _measure_high_arity(circuit, noise_model,
                        config: ExperimentConfig) -> BatchedTreeMeasurement:
    """Time chunk cap 1 against the default cap on one high-arity plan.

    A two-layer UCP plan puts arity ``~sqrt(shots)`` at the leaf layer, the
    regime where batching sibling subtrees pays the most: the whole second
    half of the circuit advances ``A_1`` trajectories per kernel call.
    """
    circuit = fuse_for_noise_model(circuit, noise_model)
    plan = UniformCircuitPartitioner(2).plan(circuit, config.shots, noise_model)
    return measure_batched_tree(circuit, noise_model, config, plan)


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> SuiteSweepResult:
    """Run baseline-vs-TQSim on every suite circuit within the width budget.

    Every row also carries the calibrated leg
    (``ComparisonRow.calibrated_*``) — the cost-model-priced plan search
    executed on the engine, with the measured analytic-vs-calibrated
    wall-time ratio — and ``batched_rows`` holds the dedicated high-arity
    measurement of the default chunk cap against cap 1.  Calibration runs at
    most once per circuit width (the per-process cost-model cache).
    """
    noise_model = depolarizing_noise_model()
    result = SuiteSweepResult()
    for spec, circuit in benchmark_suite(max_qubits=config.max_qubits,
                                         seed=config.seed):
        row = compare_simulators(circuit, noise_model, config,
                                 include_calibrated=True)
        result.specs.append(spec)
        result.rows.append(row)
        result.batched_rows.append(
            _measure_high_arity(circuit, noise_model, config)
        )
    if not result.rows:
        raise ValueError(
            f"no benchmark fits within max_qubits={config.max_qubits}"
        )
    return result
