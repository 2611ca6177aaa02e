"""Cost accounting and result containers shared by all noisy simulators."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Sequence

import numpy as np

from repro.statevector.sampling import counts_to_probability_vector

__all__ = ["CostCounters", "SimulationResult", "merge_results", "merge_many"]


@dataclass
class CostCounters:
    """Operation counts accumulated during a noisy simulation.

    The paper's speedup comes from reducing ``gate_applications`` (plus the
    noise-operator applications) at the price of ``state_copies``; tracking
    the counts explicitly lets experiments report a backend-independent
    *computation reduction* next to the measured wall-clock speedup.
    """

    gate_applications: int = 0
    noise_applications: int = 0
    state_copies: int = 0
    leaf_samples: int = 0
    wall_time_seconds: float = 0.0

    def gate_equivalents(self, copy_cost_in_gates: float) -> float:
        """Total work in units of one gate application (paper Section 3.6)."""
        return (
            self.gate_applications
            + self.noise_applications
            + self.state_copies * copy_cost_in_gates
        )

    def matches(self, other: "CostCounters") -> bool:
        """True when every accounted counter equals ``other``'s.

        Wall time is excluded: two executions of the same plan (e.g. the
        tree traversal at two chunk caps) must do identical accounted work
        while taking different amounts of it.
        """
        return all(
            getattr(self, field_.name) == getattr(other, field_.name)
            for field_ in fields(self)
            if field_.name != "wall_time_seconds"
        )

    def merged_with(self, other: "CostCounters") -> "CostCounters":
        """Element-wise sum of two counters."""
        return CostCounters(
            gate_applications=self.gate_applications + other.gate_applications,
            noise_applications=self.noise_applications + other.noise_applications,
            state_copies=self.state_copies + other.state_copies,
            leaf_samples=self.leaf_samples + other.leaf_samples,
            wall_time_seconds=self.wall_time_seconds + other.wall_time_seconds,
        )


@dataclass
class SimulationResult:
    """The outcome of a multi-shot noisy simulation.

    Attributes
    ----------
    counts:
        Measurement outcomes keyed by bitstring (most-significant qubit
        first), with one entry per produced outcome.
    num_qubits:
        Circuit width.
    shots:
        Number of outcomes the simulation produced.  For TQSim trees whose
        arities over-shoot the request this is the leaf count, with the
        originally requested value kept under ``metadata["requested_shots"]``;
        the per-shot simulators produce exactly what was requested.
    cost:
        The :class:`CostCounters` accumulated while producing the result.
    metadata:
        Simulator-specific extras (tree structure, partition lengths, seeds).
    """

    counts: dict[str, int]
    num_qubits: int
    shots: int
    cost: CostCounters = field(default_factory=CostCounters)
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def total_outcomes(self) -> int:
        """Number of outcomes actually produced."""
        return sum(self.counts.values())

    def probabilities(self) -> np.ndarray:
        """Empirical outcome distribution as a dense vector."""
        return counts_to_probability_vector(self.counts, self.num_qubits)

    def probability_of(self, bitstring: str) -> float:
        """Empirical probability of a specific bitstring."""
        total = self.total_outcomes
        return self.counts.get(bitstring, 0) / total if total else 0.0

    def top_outcomes(self, k: int = 5) -> list[tuple[str, int]]:
        """The ``k`` most frequent outcomes."""
        return sorted(self.counts.items(), key=lambda item: -item[1])[:k]

    def speedup_over(self, baseline: "SimulationResult",
                     copy_cost_in_gates: float = 0.0,
                     use_wall_time: bool = False) -> float:
        """Speedup of this result relative to ``baseline``.

        By default the backend-independent gate-equivalent cost ratio is
        reported; pass ``use_wall_time=True`` for the measured ratio.
        """
        if use_wall_time:
            if self.cost.wall_time_seconds <= 0:
                raise ValueError("wall time was not recorded")
            if baseline.cost.wall_time_seconds <= 0:
                raise ValueError("baseline wall time was not recorded")
            return baseline.cost.wall_time_seconds / self.cost.wall_time_seconds
        own = self.cost.gate_equivalents(copy_cost_in_gates)
        if own <= 0:
            raise ValueError("cost counters are empty")
        return baseline.cost.gate_equivalents(copy_cost_in_gates) / own

    def summary(self) -> dict[str, Any]:
        """A flat dictionary for report tables."""
        return {
            "num_qubits": self.num_qubits,
            "shots": self.shots,
            "outcomes": self.total_outcomes,
            "gate_applications": self.cost.gate_applications,
            "noise_applications": self.cost.noise_applications,
            "state_copies": self.cost.state_copies,
            "wall_time_seconds": self.cost.wall_time_seconds,
            **{f"meta_{k}": v for k, v in self.metadata.items()},
        }


def _metadata_values_equal(first: Any, second: Any) -> bool:
    """Equality that tolerates array-valued metadata entries."""
    if isinstance(first, np.ndarray) or isinstance(second, np.ndarray):
        return bool(np.array_equal(first, second))
    try:
        return bool(first == second)
    except (TypeError, ValueError):
        return False


def _merge_metadata_many(metadatas: Sequence[dict[str, Any]]
                         ) -> dict[str, Any]:
    """Single-pass union of N metadata dicts that never drops a shard's values.

    Keys whose values agree across every input that carries them (and are
    not already sharded anywhere) stay at the top level.  Conflicting keys —
    N shards' ``tree`` / ``seed`` entries, for example — are recorded
    per input under ``metadata["shards"]``, in input order, so every shard's
    provenance survives the merge.  An input that already carries a
    ``shards`` list (a previously merged result) contributes those dicts
    unchanged; its remaining conflicting top-level keys are recorded into
    them, mirroring what a pairwise fold does.

    Each key is classified exactly once against all inputs, so merging N
    shard results is linear in the total metadata size — the old pairwise
    fold re-walked (and re-copied) the accumulated shard list on every
    step, quadratic in shard count, and padded shard-less sides with ``{}``
    placeholders that could leak empty dicts into ``metadata["shards"]``.
    A fresh per-input shard dict is created only when a conflicting key
    actually lands in it.
    """
    plains = [{k: v for k, v in m.items() if k != "shards"} for m in metadatas]
    shard_lists = [
        [dict(shard) for shard in m.get("shards", ())] for m in metadatas
    ]
    sharded_keys = {
        key for shards in shard_lists for shard in shards for key in shard
    }

    ordered_keys: list[str] = []
    seen: set[str] = set()
    for plain in plains:
        for key in plain:
            if key not in seen:
                seen.add(key)
                ordered_keys.append(key)

    merged: dict[str, Any] = {}
    fresh: list[dict[str, Any]] = [{} for _ in metadatas]
    for key in ordered_keys:
        holders = [i for i, plain in enumerate(plains) if key in plain]
        reference = plains[holders[0]][key]
        conflicted = key in sharded_keys or not all(
            _metadata_values_equal(reference, plains[i][key])
            for i in holders[1:]
        )
        if not conflicted:
            merged[key] = reference
            continue
        # The pushed value was uniform across that input's prior shards (it
        # sat at the top level), so record it in each of them; shards that
        # already carry the key keep their own value.
        for i in holders:
            if shard_lists[i]:
                for shard in shard_lists[i]:
                    shard.setdefault(key, plains[i][key])
            else:
                fresh[i].setdefault(key, plains[i][key])

    out_shards: list[dict[str, Any]] = []
    for i in range(len(metadatas)):
        out_shards.extend(shard_lists[i])
        if fresh[i]:
            out_shards.append(fresh[i])
    if out_shards:
        merged["shards"] = out_shards
    return merged


def merge_results(first: SimulationResult, second: SimulationResult
                  ) -> SimulationResult:
    """Merge two results of the same circuit (counts and costs are summed).

    Metadata keys on which the two results disagree are preserved per shard
    under ``metadata["shards"]`` (see :func:`_merge_metadata_many`) rather
    than silently clobbered by the second result.
    """
    if first.num_qubits != second.num_qubits:
        raise ValueError("cannot merge results of different widths")
    counts = dict(first.counts)
    for key, value in second.counts.items():
        counts[key] = counts.get(key, 0) + value
    return SimulationResult(
        counts=counts,
        num_qubits=first.num_qubits,
        shots=first.shots + second.shots,
        cost=first.cost.merged_with(second.cost),
        metadata=_merge_metadata_many([first.metadata, second.metadata]),
    )


def merge_many(results: Sequence[SimulationResult]) -> SimulationResult:
    """Merge any number of same-circuit results in one pass.

    Counts and cost counters are accumulated into a single dictionary /
    counter object (no per-step copies, unlike a pairwise
    :func:`merge_results` fold), which is how dispatchers fold an arbitrary
    number of shard results.  Counts, shots and costs are order-insensitive
    sums; metadata goes through the single-pass conflict-preserving
    :func:`_merge_metadata_many`, so per-shard values survive under
    ``metadata["shards"]`` in input order — linear in the shard count, with
    no placeholder dicts.  A single result merges to a detached copy of
    itself.
    """
    results = list(results)
    if not results:
        raise ValueError("merge_many needs at least one result")
    first = results[0]
    counts = dict(first.counts)
    shots = first.shots
    cost = CostCounters().merged_with(first.cost)
    for other in results[1:]:
        if other.num_qubits != first.num_qubits:
            raise ValueError("cannot merge results of different widths")
        for key, value in other.counts.items():
            counts[key] = counts.get(key, 0) + value
        shots += other.shots
        cost = cost.merged_with(other.cost)
    return SimulationResult(
        counts=counts,
        num_qubits=first.num_qubits,
        shots=shots,
        cost=cost,
        metadata=_merge_metadata_many([result.metadata for result in results]),
    )
