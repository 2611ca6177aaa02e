"""Memory-footprint models (paper Figures 4, 5 and 9) and plan admission.

All sizes assume complex128 amplitudes (16 bytes), the format every simulator
in this package uses.  :func:`admit_plan` fits a plan's frontier-chunk cap to
a memory budget and reads memory only: the cost model never prices a larger
cap slower, so the largest cap that fits is also the cheapest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.engine import default_chunk_cap

__all__ = [
    "AdmissionDecision",
    "admit_plan",
    "statevector_bytes",
    "density_matrix_bytes",
    "baseline_simulation_bytes",
    "tqsim_simulation_bytes",
    "batched_tree_pool_states",
    "batched_tree_simulation_bytes",
    "max_batch_for_budget",
    "max_statevector_qubits",
    "max_density_matrix_qubits",
    "MemoryScalingPoint",
    "memory_scaling_table",
    "LAPTOP_MEMORY_BYTES",
    "EL_CAPITAN_MEMORY_BYTES",
    "XEON_NODE_MEMORY_BYTES",
]

#: Reference capacities used by Figure 4: a 16 GB laptop and El Capitan
#: (~5.4 PB of aggregate memory), plus the paper's Xeon evaluation node.
LAPTOP_MEMORY_BYTES = 16e9
EL_CAPITAN_MEMORY_BYTES = 5.4e15
XEON_NODE_MEMORY_BYTES = 192e9

_AMPLITUDE_BYTES = 16.0


def statevector_bytes(num_qubits: int) -> float:
    """Memory of one statevector: ``16 * 2**n`` bytes."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    return _AMPLITUDE_BYTES * (2.0**num_qubits)


def density_matrix_bytes(num_qubits: int) -> float:
    """Memory of one density matrix: ``16 * 4**n`` bytes."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    return _AMPLITUDE_BYTES * (4.0**num_qubits)


def baseline_simulation_bytes(num_qubits: int) -> float:
    """Peak memory of the baseline trajectory simulator (one working state)."""
    return statevector_bytes(num_qubits)


def tqsim_simulation_bytes(num_qubits: int, num_subcircuits: int) -> float:
    """Peak memory of TQSim: one stored state per non-leaf layer + working state.

    This is the Figure-9 overhead: linear in the number of subcircuits, never
    exponential, and therefore far below the node's memory limit for any
    realistic tree depth.
    """
    if num_subcircuits < 1:
        raise ValueError("num_subcircuits must be >= 1")
    stored_states = max(num_subcircuits - 1, 0) + 1
    return stored_states * statevector_bytes(num_qubits) + statevector_bytes(num_qubits)


def batched_tree_pool_states(arities, max_batch: int) -> int:
    """Pooled statevectors of the tree engine: ``sum_i min(frontier_i, cap)``.

    ``frontier_i = A_0 * ... * A_i`` is layer ``i``'s node count.  The
    traversal's frontier chunks span the children of several parents, so
    it holds one ``(min(frontier_i, max_batch), 2**n)`` buffer per layer
    (see :class:`~repro.core.engine.TQSimEngine`); this is their total row
    count — at most ``layers * cap`` states, and one state per layer at
    cap 1.  At the default cap
    (:func:`~repro.core.engine.default_chunk_cap`) that bound is
    ``layers * max(2**15, 2**n)`` amplitudes: a layer holds about 512 KiB
    below 15 qubits and one state from 15 qubits up.
    """
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    arities = tuple(int(a) for a in arities)
    if not arities or any(a < 1 for a in arities):
        raise ValueError("arities must be a non-empty sequence of >= 1")
    return sum(
        min(math.prod(arities[: i + 1]), max_batch) for i in range(len(arities))
    )


def batched_tree_simulation_bytes(num_qubits: int, arities,
                                  max_batch: int) -> float:
    """Peak memory of the tree engine's pool for the given plan and cap."""
    return batched_tree_pool_states(arities, max_batch) * statevector_bytes(
        num_qubits
    )


def max_batch_for_budget(num_qubits: int, arities,
                         memory_bytes: float) -> int:
    """Largest ``max_batch`` whose batched-tree pool fits the memory budget.

    This is the Figure-9 trade-off knob: a larger cap amortises more
    per-gate dispatch across trajectories, a smaller one shrinks the
    ``sum_i min(frontier_i, cap)`` statevector footprint toward one state
    per layer.  The pool grows with the cap up to the largest frontier (the
    leaf count), so the search bisects that range.  Returns at least 1
    (that footprint) even when the budget is smaller than that.
    """
    low, high = 1, math.prod(int(a) for a in arities)
    while low < high:
        middle = (low + high + 1) // 2
        if batched_tree_simulation_bytes(num_qubits, arities,
                                         middle) <= memory_bytes:
            low = middle
        else:
            high = middle - 1
    return low


def max_statevector_qubits(memory_bytes: float) -> int:
    """Largest width whose statevector fits in the given memory."""
    qubits = 0
    while statevector_bytes(qubits + 1) <= memory_bytes:
        qubits += 1
    return qubits


def max_density_matrix_qubits(memory_bytes: float) -> int:
    """Largest width whose density matrix fits in the given memory."""
    qubits = 0
    while density_matrix_bytes(qubits + 1) <= memory_bytes:
        qubits += 1
    return qubits


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of admitting one partition plan under a memory budget.

    ``max_batch`` is the admitted frontier-chunk cap of the engine's
    traversal (1 runs one node at a time, the one-state-per-layer
    footprint) and ``peak_bytes`` the pool size at that cap.
    """

    fits_memory: bool
    max_batch: int
    peak_bytes: float
    reason: str


def admit_plan(
    num_qubits: int,
    arities: Sequence[int],
    memory_bytes: float,
    max_batch: int | None = None,
    prefix_states: int = 0,
) -> AdmissionDecision:
    """Admit one plan under a memory budget and pick its chunk cap.

    The requested cap is ``max_batch``, or the engine's default cap at
    ``num_qubits`` (:func:`~repro.core.engine.default_chunk_cap`) when it
    is ``None``.  It is lowered (via :func:`max_batch_for_budget`) until
    the chunk pool fits, bottoming out at the one-state-per-layer
    footprint.  Admission reads memory only: under the cost model's one
    affine kernel price a larger cap is never priced slower
    (:meth:`~repro.core.costmodel.CostModel.plan_seconds`), so the largest
    cap that fits is also the cheapest.

    ``prefix_states`` is the number of *extra* resident statevectors the
    run keeps outside the traversal pool — memoised prefix states such as
    the serving layer's cross-request state cache.  Their bytes are
    charged against the budget before the batch cap is computed and
    reported as part of ``peak_bytes``, so a cache-warmed run cannot be
    admitted past what it will actually hold resident.
    """
    if max_batch is None:
        max_batch = default_chunk_cap(num_qubits)
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    if prefix_states < 0:
        raise ValueError("prefix_states must be >= 0")
    prefix_bytes = prefix_states * statevector_bytes(num_qubits)
    pool_budget = memory_bytes - prefix_bytes
    # No chunk is wider than the largest frontier, the plan's leaf count.
    requested = min(max_batch, math.prod(int(a) for a in arities))
    if batched_tree_simulation_bytes(num_qubits, arities, requested) <= pool_budget:
        cap = requested
        reason = "requested batch cap fits the budget"
    else:
        cap = max_batch_for_budget(num_qubits, arities, pool_budget)
        reason = (
            "batch cap lowered to fit the budget"
            if batched_tree_simulation_bytes(num_qubits, arities, cap)
            <= pool_budget
            else "even the one-state-per-layer pool exceeds the budget"
        )
    peak = batched_tree_simulation_bytes(num_qubits, arities, cap) + prefix_bytes
    return AdmissionDecision(
        fits_memory=peak <= memory_bytes,
        max_batch=cap,
        peak_bytes=peak,
        reason=reason,
    )


@dataclass(frozen=True)
class MemoryScalingPoint:
    """One row of the Figure-4 memory-scaling curve."""

    num_qubits: int
    statevector_bytes: float
    density_matrix_bytes: float


def memory_scaling_table(min_qubits: int = 10, max_qubits: int = 40
                         ) -> list[MemoryScalingPoint]:
    """The Figure-4 curves: statevector vs density-matrix memory by width."""
    if min_qubits < 1 or max_qubits < min_qubits:
        raise ValueError("invalid qubit range")
    return [
        MemoryScalingPoint(n, statevector_bytes(n), density_matrix_bytes(n))
        for n in range(min_qubits, max_qubits + 1)
    ]
