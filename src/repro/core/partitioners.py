"""Circuit partitioning policies: UCP, XCP and the paper's DCP (Section 3.2).

A partitioner turns ``(circuit, shots, noise_model)`` into a
:class:`PartitionPlan`: the ordered subcircuits plus the simulation-tree
arities.  The TQSim engine then executes the plan.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

from repro.circuits.circuit import Circuit
from repro.circuits.partition import (
    candidate_part_counts,
    split_by_lengths,
    split_equal_gates,
)
from repro.core.copycost import DEFAULT_COPY_COST_IN_GATES
from repro.core.costmodel import CostModel
from repro.core.sampling_theory import (
    DEFAULT_CONFIDENCE_Z,
    DEFAULT_MARGIN_OF_ERROR,
    minimum_sample_size,
)
from repro.core.tree import TreeStructure
from repro.noise.model import NoiseModel

__all__ = [
    "PartitionPlan",
    "CircuitPartitioner",
    "SingleShotPartitioner",
    "UniformCircuitPartitioner",
    "ExponentialCircuitPartitioner",
    "ManualPartitioner",
    "DynamicCircuitPartitioner",
]


@dataclass
class PartitionPlan:
    """A concrete execution plan: subcircuits plus the tree structure."""

    subcircuits: list[Circuit]
    tree: TreeStructure
    policy: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.subcircuits) != self.tree.num_subcircuits:
            raise ValueError(
                f"{len(self.subcircuits)} subcircuits but the tree has "
                f"{self.tree.num_subcircuits} layers"
            )
        if any(len(sub) == 0 for sub in self.subcircuits):
            raise ValueError("every subcircuit must contain at least one gate")

    @property
    def subcircuit_lengths(self) -> list[int]:
        """Gate counts of the subcircuits."""
        return [len(sub) for sub in self.subcircuits]

    @property
    def total_gates(self) -> int:
        """Gate count of the original circuit."""
        return sum(self.subcircuit_lengths)

    @property
    def total_outcomes(self) -> int:
        """Number of leaves (measurement outcomes) the plan produces."""
        return self.tree.total_outcomes

    def theoretical_speedup(self, copy_cost_in_gates: float = 0.0,
                            baseline_shots: int | None = None) -> float:
        """Analytic speedup over a baseline run producing the same outcomes."""
        return self.tree.speedup_versus_baseline(
            self.subcircuit_lengths, copy_cost_in_gates, baseline_shots
        )

    def describe(self) -> str:
        """One-line human-readable description."""
        lengths = ",".join(str(length) for length in self.subcircuit_lengths)
        return f"{self.policy}: tree {self.tree} over gate lengths ({lengths})"


class CircuitPartitioner(ABC):
    """Base class for partitioning policies."""

    name = "abstract"

    @abstractmethod
    def plan(self, circuit: Circuit, shots: int,
             noise_model: NoiseModel | None = None) -> PartitionPlan:
        """Build a partition plan for simulating ``circuit`` with ``shots``."""

    @staticmethod
    def _validate(circuit: Circuit, shots: int) -> None:
        if shots < 1:
            raise ValueError("shots must be >= 1")
        if circuit.num_gates < 1:
            raise ValueError("cannot partition an empty circuit")


class SingleShotPartitioner(CircuitPartitioner):
    """Degenerate policy: no partitioning at all (the baseline tree)."""

    name = "baseline"

    def plan(self, circuit: Circuit, shots: int,
             noise_model: NoiseModel | None = None) -> PartitionPlan:
        self._validate(circuit, shots)
        return PartitionPlan(
            subcircuits=[circuit.copy()],
            tree=TreeStructure((shots,)),
            policy=self.name,
        )


class UniformCircuitPartitioner(CircuitPartitioner):
    """UCP: equal-length subcircuits with identical arities (Section 3.2.1).

    With ``k`` subcircuits and ``N`` shots, every layer gets arity
    ``round(N ** (1/k))`` and the first layer is then raised so that at least
    ``N`` outcomes are produced.  UCP maximises reuse but simulates the
    crucial first subcircuit the fewest times, which is what hurts accuracy.
    """

    name = "ucp"

    def __init__(self, num_subcircuits: int) -> None:
        if num_subcircuits < 1:
            raise ValueError("num_subcircuits must be >= 1")
        self.num_subcircuits = num_subcircuits

    def plan(self, circuit: Circuit, shots: int,
             noise_model: NoiseModel | None = None) -> PartitionPlan:
        self._validate(circuit, shots)
        k = min(self.num_subcircuits, circuit.num_gates)
        arity = max(1, round(shots ** (1.0 / k)))
        arities = [arity] * k
        arities[0] = max(arities[0], math.ceil(shots / max(arity ** (k - 1), 1)))
        return PartitionPlan(
            subcircuits=split_equal_gates(circuit, k),
            tree=TreeStructure(arities),
            policy=self.name,
            parameters={"requested_subcircuits": self.num_subcircuits},
        )


class ExponentialCircuitPartitioner(CircuitPartitioner):
    """XCP: exponentially larger arities for earlier layers (Section 3.2.1).

    Layer ``i`` receives an arity proportional to ``2**(k-1-i)``, so the
    accuracy-critical early subcircuits are simulated far more often than the
    later ones, e.g. ``(20, 10, 5)`` for 1000 shots and three subcircuits.
    """

    name = "xcp"

    def __init__(self, num_subcircuits: int, ratio: float = 2.0) -> None:
        if num_subcircuits < 1:
            raise ValueError("num_subcircuits must be >= 1")
        if ratio <= 1.0:
            raise ValueError("ratio must be > 1")
        self.num_subcircuits = num_subcircuits
        self.ratio = float(ratio)

    def plan(self, circuit: Circuit, shots: int,
             noise_model: NoiseModel | None = None) -> PartitionPlan:
        self._validate(circuit, shots)
        k = min(self.num_subcircuits, circuit.num_gates)
        # Find base b so that prod_i b * ratio^(k-1-i) ~= shots.
        exponent_sum = self.ratio ** (k * (k - 1) / 2.0)
        base = (shots / exponent_sum) ** (1.0 / k)
        arities = [max(1, round(base * self.ratio ** (k - 1 - i))) for i in range(k)]
        # Raise the first layer until the plan produces enough outcomes.
        while math.prod(arities) < shots:
            arities[0] += 1
        return PartitionPlan(
            subcircuits=split_equal_gates(circuit, k),
            tree=TreeStructure(arities),
            policy=self.name,
            parameters={"ratio": self.ratio},
        )


class ManualPartitioner(CircuitPartitioner):
    """Run an explicitly chosen tree structure (used by the Fig. 17 study)."""

    name = "manual"

    def __init__(self, arities: Sequence[int],
                 subcircuit_lengths: Sequence[int] | None = None) -> None:
        self.arities = tuple(int(a) for a in arities)
        self.subcircuit_lengths = (
            None if subcircuit_lengths is None else list(subcircuit_lengths)
        )

    def plan(self, circuit: Circuit, shots: int,
             noise_model: NoiseModel | None = None) -> PartitionPlan:
        self._validate(circuit, shots)
        k = len(self.arities)
        if self.subcircuit_lengths is None:
            subcircuits = split_equal_gates(circuit, k)
        else:
            subcircuits = split_by_lengths(circuit, self.subcircuit_lengths)
        return PartitionPlan(
            subcircuits=subcircuits,
            tree=TreeStructure(self.arities),
            policy=self.name,
            parameters={"arities": self.arities},
        )


class DynamicCircuitPartitioner(CircuitPartitioner):
    """DCP — the paper's partitioning policy (Section 3.2.2–3.2.4).

    The plan is built in two phases:

    1. *First subcircuit.*  Its length is the state-copy cost expressed in
       gate executions (so reuse always beats copying), and its arity ``A0``
       is the statistical minimum sample size of Eq. 5 evaluated at the
       subcircuit's combined error rate (Eq. 4).
    2. *Remaining subcircuits.*  The rest of the circuit is split into ``k``
       equal pieces with a common arity ``A_r = floor((N/A0)^(1/k))`` (Eq. 6);
       ``k`` is the largest value keeping ``A_r >= 2`` and keeping every piece
       at least one state-copy-cost long.  Arities are then bumped one by one
       until the tree produces at least ``N`` outcomes.

    Calibrated search
    -----------------
    With a :class:`~repro.core.costmodel.CostModel` the partitioner stops
    trusting the single analytic ``k``: it sweeps every feasible remaining
    subcircuit count (see
    :func:`repro.circuits.partition.candidate_part_counts`), prices each
    candidate tree with :meth:`CostModel.plan_seconds` at the chunk cap a
    default engine runs the circuit at — the model knows about
    batched-kernel amortisation and chunking, not just gate counts — and
    returns the plan with the lowest predicted wall time.  The analytic plan
    is always among the candidates, so calibration can only match or beat
    it under the model.  ``copy_cost_in_gates`` left at ``None`` is filled
    from the model's measured ratio.
    """

    name = "dcp"

    def __init__(
        self,
        copy_cost_in_gates: float | None = None,
        confidence_z: float = DEFAULT_CONFIDENCE_Z,
        margin_of_error: float = DEFAULT_MARGIN_OF_ERROR,
        max_subcircuits: int | None = None,
        max_stored_states: int | None = None,
        min_first_layer_shots: int = 1,
        cost_model: CostModel | None = None,
        max_candidate_subcircuits: int = 12,
    ) -> None:
        if copy_cost_in_gates is None:
            copy_cost_in_gates = (
                cost_model.copy_cost_in_gates
                if cost_model is not None
                else DEFAULT_COPY_COST_IN_GATES
            )
        if copy_cost_in_gates < 0:
            raise ValueError("copy_cost_in_gates must be non-negative")
        if min_first_layer_shots < 1:
            raise ValueError("min_first_layer_shots must be >= 1")
        if max_candidate_subcircuits < 1:
            raise ValueError("max_candidate_subcircuits must be >= 1")
        self.copy_cost_in_gates = float(copy_cost_in_gates)
        self.cost_model = cost_model
        self.max_candidate_subcircuits = int(max_candidate_subcircuits)
        self.confidence_z = float(confidence_z)
        self.margin_of_error = float(margin_of_error)
        self.max_subcircuits = max_subcircuits
        self.max_stored_states = max_stored_states
        # Floor on A0.  The paper's Eq. 5 already keeps A0 large at its
        # 32 000-shot operating point; scaled-down harnesses (few hundred
        # shots) can use this floor to keep the first layer statistically
        # meaningful.
        self.min_first_layer_shots = int(min_first_layer_shots)

    # ------------------------------------------------------------------
    def plan(self, circuit: Circuit, shots: int,
             noise_model: NoiseModel | None = None) -> PartitionPlan:
        self._validate(circuit, shots)
        if self.cost_model is None:
            return self._plan_analytic(circuit, shots, noise_model)
        return self._plan_calibrated(circuit, shots, noise_model)

    def _plan_calibrated(self, circuit: Circuit, shots: int,
                         noise_model: NoiseModel | None) -> PartitionPlan:
        """Sweep feasible subcircuit counts, pick the cheapest predicted plan."""
        # The engine imports this module.
        from repro.core.engine import default_chunk_cap

        model = self.cost_model
        assert model is not None
        min_gates = max(1, int(math.ceil(self.copy_cost_in_gates)))
        first_length = min(min_gates, circuit.num_gates)
        remaining = circuit.num_gates - first_length
        force_ks: list[int | None] = [None, 0]
        if remaining >= 1:
            force_ks.extend(
                candidate_part_counts(
                    remaining, min_gates, self.max_candidate_subcircuits
                )
            )
        # Each candidate is priced at the cap a default engine runs it at,
        # which depends on the circuit's width, not the model's.
        cap = default_chunk_cap(circuit.num_qubits)
        best: PartitionPlan | None = None
        best_seconds = math.inf
        seen: set[tuple] = set()
        considered = 0
        for force_k in force_ks:
            plan = self._plan_analytic(
                circuit, shots, noise_model, force_k=force_k
            )
            signature = (
                tuple(plan.tree.arities),
                tuple(plan.subcircuit_lengths),
            )
            if signature in seen:
                continue
            seen.add(signature)
            considered += 1
            seconds = model.plan_seconds(
                plan.tree.arities, plan.subcircuit_lengths, max_batch=cap
            )
            if seconds < best_seconds:
                best, best_seconds = plan, seconds
        assert best is not None
        best.parameters.update(
            {
                "calibrated": True,
                "predicted_seconds": best_seconds,
                "candidate_plans": considered,
                "cost_model_backend": model.backend,
                "cost_model_num_qubits": model.num_qubits,
            }
        )
        return best

    def _plan_analytic(self, circuit: Circuit, shots: int,
                       noise_model: NoiseModel | None,
                       force_k: int | None = None) -> PartitionPlan:
        """The paper's two-phase construction, optionally at a forced ``k``."""
        total_gates = circuit.num_gates
        min_gates = max(1, int(math.ceil(self.copy_cost_in_gates)))

        # Degenerate case: the circuit is too short to amortise even one copy.
        if total_gates < 2 * min_gates or shots < 2:
            return PartitionPlan(
                subcircuits=[circuit.copy()],
                tree=TreeStructure((shots,)),
                policy=self.name,
                parameters={"reason": "circuit too short for reuse"},
            )

        # Phase 1: first subcircuit and its shot count A0.
        first_length = min_gates
        first_subcircuit = circuit.subcircuit(0, first_length)
        error_rate = (
            noise_model.circuit_error_probability(first_subcircuit)
            if noise_model is not None
            else 0.0
        )
        a0 = minimum_sample_size(
            error_rate, shots, self.confidence_z, self.margin_of_error
        )
        a0 = max(1, self.min_first_layer_shots, a0)
        a0 = min(a0, shots)

        # Phase 2: number of remaining subcircuits and their common arity.
        remaining_ratio = shots / a0
        k_from_shots = (
            int(math.floor(math.log2(remaining_ratio))) if remaining_ratio >= 2 else 0
        )
        k_from_gates = (total_gates - first_length) // min_gates
        if force_k is None:
            k = min(k_from_shots, k_from_gates)
        else:
            # Calibrated candidates may exceed the analytic Eq. 6 bound —
            # the cost model, not the >= 2 arity heuristic, judges them.
            k = min(force_k, k_from_gates)
        if self.max_subcircuits is not None:
            k = min(k, self.max_subcircuits - 1)
        if self.max_stored_states is not None:
            k = min(k, self.max_stored_states)
        if k < 1:
            return PartitionPlan(
                subcircuits=[circuit.copy()],
                tree=TreeStructure((shots,)),
                policy=self.name,
                parameters={
                    "reason": "no remaining subcircuit can keep arity >= 2",
                    "A0": a0,
                },
            )

        common_arity = max(2, int(math.floor(remaining_ratio ** (1.0 / k))))
        arities = [a0] + [common_arity] * k
        # Guarantee the requested number of outcomes by raising the first
        # layer: each extra first-layer node adds only prod(A_1..A_k) leaves,
        # so the overshoot stays below one reuse block.
        reuse_block = math.prod(arities[1:])
        if math.prod(arities) < shots:
            arities[0] = int(math.ceil(shots / reuse_block))

        remaining_circuit = circuit.subcircuit(first_length, total_gates)
        subcircuits = [first_subcircuit, *split_equal_gates(remaining_circuit, k)]
        return PartitionPlan(
            subcircuits=subcircuits,
            tree=TreeStructure(arities),
            policy=self.name,
            parameters={
                "A0": a0,
                "first_subcircuit_error_rate": error_rate,
                "copy_cost_in_gates": self.copy_cost_in_gates,
                "confidence_z": self.confidence_z,
                "margin_of_error": self.margin_of_error,
            },
        )
