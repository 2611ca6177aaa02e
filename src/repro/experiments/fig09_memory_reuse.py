"""Figure 9: TQSim's memory overhead and speedup on 22–30 qubit BV circuits.

Paper result: TQSim stores one intermediate state per subcircuit — far below
the node's memory limit — and converts that otherwise idle memory into a
~1.5x speedup for the BV circuits.  The memory side is analytic; the speedup
side is the DCP plan's cost model (BV circuits only ever split into two
subcircuits, capping the ideal speedup near 1.5x).

The tree engine's frontier chunks turn the same idle memory into
*throughput*: each
width also reports the largest ``max_batch`` whose ``sum_i min(frontier_i,
cap)`` pooled statevectors still fit half the node, i.e. how far each tree
layer can be batched before hitting the Figure-9 budget.  A small measured point
(at a width the harness can actually simulate) runs the identical plan shape
at chunk cap 1 and at the default cap to show the batching win is real, with
matching cost counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.memory import (
    XEON_NODE_MEMORY_BYTES,
    baseline_simulation_bytes,
    batched_tree_simulation_bytes,
    max_batch_for_budget,
    tqsim_simulation_bytes,
)
from repro.circuits.library.bv import bv_circuit
from repro.core.partitioners import ManualPartitioner
from repro.core.sampling_theory import minimum_sample_size
from repro.experiments.common import (
    BatchedTreeMeasurement,
    DEFAULT_CONFIG,
    ExperimentConfig,
    measure_batched_tree,
)
from repro.noise.sycamore import depolarizing_noise_model

__all__ = ["MemoryReusePoint", "MemoryReuseResult", "run"]

PAPER_WIDTHS = (22, 24, 26, 28, 30)
PAPER_SPEEDUP_RANGE = (1.50, 1.55)

#: Fraction of the node the batched pool may occupy (leaves headroom for the
#: working set, exactly like the paper's Figure-9 operating point).
BATCHED_POOL_BUDGET_FRACTION = 0.5


@dataclass(frozen=True)
class MemoryReusePoint:
    """One BV width of the Figure-9 sweep."""

    num_qubits: int
    baseline_memory_bytes: float
    tqsim_memory_bytes: float
    memory_fraction_of_node: float
    num_subcircuits: int
    modeled_speedup: float
    batched_max_batch: int
    batched_memory_bytes: float
    batched_memory_fraction_of_node: float


@dataclass(frozen=True)
class MemoryReuseResult:
    """Memory overhead and modeled speedup per BV width."""

    points: list[MemoryReusePoint]
    shots: int
    #: Cap 1 vs the default chunk cap on one feasible-width BV plan.
    measured: BatchedTreeMeasurement


def _bv_plan(width: int, shots: int, noise_model,
             config: ExperimentConfig):
    """The paper's two-subcircuit BV plan with an Eq.-5-sized first layer."""
    circuit = bv_circuit(width)
    first_half = circuit.num_gates // 2
    error_rate = noise_model.circuit_error_probability(
        circuit.subcircuit(0, first_half)
    )
    a0 = max(
        minimum_sample_size(error_rate, shots,
                            margin_of_error=config.effective_margin_of_error),
        shots // 8,
    )
    arity = -(-shots // a0)  # ceil division
    partitioner = ManualPartitioner(
        (a0, arity),
        subcircuit_lengths=[first_half, circuit.num_gates - first_half],
    )
    return circuit, partitioner.plan(circuit, shots, noise_model)


def _measure_tree_engines(noise_model,
                          config: ExperimentConfig) -> BatchedTreeMeasurement:
    """Run one feasible-width BV plan through both tree traversals."""
    width = min(config.max_qubits, 10)
    measured_shots = max(config.shots, 64)
    circuit, plan = _bv_plan(width, measured_shots, noise_model, config)
    return measure_batched_tree(circuit, noise_model, config, plan)


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> MemoryReuseResult:
    """Evaluate TQSim's memory overhead and cost-model speedup on wide BV."""
    noise_model = depolarizing_noise_model()
    shots = max(config.shots, 1024)
    budget = BATCHED_POOL_BUDGET_FRACTION * XEON_NODE_MEMORY_BYTES
    points = []
    for width in PAPER_WIDTHS:
        # The paper notes BV circuits only ever split into two subcircuits
        # (their width grows much faster than their length), which is what
        # caps the speedup near 1.5x; mirror that structure explicitly: two
        # equal halves, with the first layer sized by the Eq.-5 sample bound.
        _, plan = _bv_plan(width, shots, noise_model, config)
        tqsim_memory = tqsim_simulation_bytes(width, plan.tree.num_subcircuits)
        batched_cap = max_batch_for_budget(width, plan.tree.arities, budget)
        batched_memory = batched_tree_simulation_bytes(
            width, plan.tree.arities, batched_cap
        )
        points.append(
            MemoryReusePoint(
                num_qubits=width,
                baseline_memory_bytes=baseline_simulation_bytes(width),
                tqsim_memory_bytes=tqsim_memory,
                memory_fraction_of_node=tqsim_memory / XEON_NODE_MEMORY_BYTES,
                num_subcircuits=plan.tree.num_subcircuits,
                modeled_speedup=plan.theoretical_speedup(config.copy_cost_in_gates),
                batched_max_batch=batched_cap,
                batched_memory_bytes=batched_memory,
                batched_memory_fraction_of_node=(
                    batched_memory / XEON_NODE_MEMORY_BYTES
                ),
            )
        )
    measured = _measure_tree_engines(noise_model, config)
    return MemoryReuseResult(points=points, shots=shots, measured=measured)
