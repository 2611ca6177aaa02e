"""Shard planning: split one shot request into independent worker units.

Every subtree of the simulation tree is embarrassingly parallel: it owns an
independent random stream addressed by its path (see the seeding notes in
:mod:`repro.core.engine`) and contributes a disjoint block of leaves.  A
:class:`ShardSpec` is a picklable description of a contiguous range of one
layer's flattened frontier — the circuit, the full partition plan, the noise
model, the run key and ``(layer, start, stop)`` — that a worker process can
execute with no other context.

Classic sharding slices the first-layer arity ``A0`` (ranges of layer 0).
When ``A0 < num_shards`` the planner *descends*: it splits a deeper layer's
frontier instead, up to ``max_depth`` layers down, so a ``(2, 64)`` plan can
still feed 16 workers.  A shard below layer 0 also runs the ancestors of its
range (cheap by construction — the DCP plans put the short subcircuits
first), and the load-aware balancer prices what a range runs on every layer
(:func:`~repro.core.engine.frontier_windows`) when choosing shard
boundaries: in gate-equivalents (a state copy at
:data:`~repro.core.copycost.DEFAULT_COPY_COST_IN_GATES`) by default, and
with a calibrated :class:`~repro.core.costmodel.CostModel` as
:meth:`~repro.core.costmodel.CostModel.plan_seconds` of the range at the
shards' chunk cap, in measured nanoseconds.

Because every node's stream key derives statelessly from the run key
(:mod:`repro.core.pathrng`) and each ancestor's work is accounted by the
range holding its first descendant
(:func:`~repro.core.engine.frontier_windows`), the union of any partition of
a layer reproduces the single-process run bitwise: counts and cost counters
are identical whether one engine runs the full plan or ``W`` workers each
run a range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.core.copycost import DEFAULT_COPY_COST_IN_GATES
from repro.core.costmodel import CostModel
from repro.core.engine import default_chunk_cap, frontier_windows
from repro.core.partitioners import (
    CircuitPartitioner,
    DynamicCircuitPartitioner,
    PartitionPlan,
)
from repro.core.pathrng import run_root_key
from repro.noise.model import NoiseModel

__all__ = ["ShardSpec", "ShardPlanner", "split_shard_spec"]


@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker needs to simulate a slice of the tree.

    The spec is fully picklable: it crosses the process boundary once per
    shard, and the module-level :func:`repro.dispatch.worker.run_shard`
    entry point rebuilds a local engine from it.

    Attributes
    ----------
    index / num_shards:
        Position of this shard in the decomposition.
    plan:
        The *full* partition plan (identical across shards).
    run_key / layer / start / stop:
        The slice: nodes ``[start, stop)`` of layer ``layer``'s flattened
        frontier in the run keyed ``run_key``, with every subtree below
        them (:meth:`~repro.core.engine.TQSimEngine.run`'s ``shard``).
    max_batch:
        The worker engine's chunk cap; ``None`` resolves at construction
        to the engine's default cap at the circuit's width
        (:func:`~repro.core.engine.default_chunk_cap`), so a spec always
        carries the int its shard runs at.
    estimated_cost:
        The planner's load estimate for this shard — gate-equivalents
        (the gates and state copies, at the default copy cost, of every
        node the range runs) by default, and the calibrated cost model's
        :meth:`~repro.core.costmodel.CostModel.plan_seconds` of the range
        in nanoseconds when the planner was given one.  Recorded so
        dispatch metadata can expose the balance.
    """

    index: int
    num_shards: int
    circuit: Circuit
    plan: PartitionPlan
    run_key: int
    layer: int
    start: int
    stop: int
    noise_model: NoiseModel | None
    requested_shots: int
    backend: str = "optimized"
    max_batch: int | None = None
    estimated_cost: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        # Raises ValueError unless the range addresses the plan's tree.
        frontier_windows(
            self.plan.tree.arities, self.layer, self.start, self.stop
        )
        if self.max_batch is None:
            object.__setattr__(
                self, "max_batch", default_chunk_cap(self.circuit.num_qubits)
            )

    @property
    def replayed_prefix_gates(self) -> int:
        """Gates of the distinct ancestors above the range, which this shard
        executes to build its entry states (0 for a layer-0 range)."""
        windows = frontier_windows(
            self.plan.tree.arities, self.layer, self.start, self.stop
        )
        lengths = self.plan.subcircuit_lengths
        return sum(
            (hi - lo) * lengths[i]
            for i, (lo, hi, _) in enumerate(windows[: self.layer])
        )


class ShardPlanner:
    """Builds :class:`ShardSpec` lists from a shot request.

    The planner picks the shallowest split depth whose unit count covers
    ``num_shards`` (never deeper than ``max_depth`` layers) and partitions
    that layer's flattened frontier into contiguous ranges with a
    load-aware balancer: shard boundaries are chosen to minimise the
    maximum estimated shard cost in gate-equivalents, where a range is
    charged each distinct ancestor above it once.  Empty shards
    are never emitted — when even the deepest allowed layer has fewer units
    than ``num_shards`` the decomposition is rebalanced down to one unit per
    shard (or raises, with ``strict=True``).

    Parameters mirror :class:`~repro.core.engine.TQSimEngine` so a
    dispatcher built on this planner is a drop-in replacement for a single
    engine; ``max_depth`` is the one extra knob (how many tree layers the
    planner may descend: 1 reproduces classic first-layer sharding), and an
    optional calibrated ``cost_model`` switches the balancer from analytic
    gate-equivalents to the model's price of each range.
    """

    def __init__(
        self,
        noise_model: NoiseModel | None = None,
        backend: str = "optimized",
        max_batch: int | None = None,
        max_depth: int = 1,
        cost_model: CostModel | None = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.noise_model = noise_model
        self.backend = backend
        self.max_batch = None if max_batch is None else int(max_batch)
        self.max_depth = int(max_depth)
        self.cost_model = cost_model

    # ------------------------------------------------------------------
    def plan_shards(
        self,
        circuit: Circuit,
        shots: int,
        num_shards: int,
        seed: int | np.random.SeedSequence | None = None,
        partitioner: CircuitPartitioner | None = None,
        plan: PartitionPlan | None = None,
        max_depth: int | None = None,
        strict: bool = False,
    ) -> list[ShardSpec]:
        """Split a shot request into at most ``num_shards`` worker units.

        Planning (partitioning, depth selection and balancing) runs once,
        in the calling process; workers receive finished specs.  Every spec
        carries the run key ``TQSimEngine(seed=seed)`` derives for its
        first run of the same full plan, and the engine derives every node
        key below it exactly as a full run does, which is what makes the
        decomposition bitwise equivalent to the single-process run.

        With ``strict=True`` a request for more shards than the deepest
        allowed layer can supply raises instead of being rebalanced down.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if shots < 1:
            raise ValueError("shots must be >= 1")
        max_depth = self.max_depth if max_depth is None else int(max_depth)
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if plan is None:
            if partitioner is None:
                partitioner = DynamicCircuitPartitioner()
            plan = partitioner.plan(circuit, shots, self.noise_model)
        if plan.total_gates != circuit.num_gates:
            raise ValueError(
                "the plan's subcircuits do not cover the circuit "
                f"({plan.total_gates} vs {circuit.num_gates} gates)"
            )

        arities = plan.tree.arities
        depth_cap = min(max_depth, len(arities))
        # Shallowest split depth whose unit count covers the request: deeper
        # splits only add ancestor-prefix overhead once the pool is fed.
        depth = 0
        while (
            math.prod(arities[: depth + 1]) < num_shards
            and depth + 1 < depth_cap
        ):
            depth += 1
        units_total = math.prod(arities[: depth + 1])
        if num_shards > units_total:
            if strict:
                raise ValueError(
                    f"cannot build {num_shards} non-empty shards: the tree "
                    f"{plan.tree} offers only {units_total} subtrees within "
                    f"max_depth={max_depth}"
                )
            num_shards = units_total

        run_key = run_root_key(seed)
        lengths = plan.subcircuit_lengths
        cap = (
            default_chunk_cap(circuit.num_qubits)
            if self.max_batch is None
            else self.max_batch
        )

        def range_cost(start: int, stop: int) -> float:
            if self.cost_model is None:
                return _range_gate_equivalents(
                    arities, lengths, depth, start, stop
                )
            return 1e9 * self.cost_model.plan_seconds(
                arities, lengths, max_batch=cap,
                frontier_range=(depth, start, stop),
            )

        ranges = _balanced_unit_ranges(units_total, num_shards, range_cost)
        return [
            ShardSpec(
                index=index,
                num_shards=num_shards,
                circuit=circuit,
                plan=plan,
                run_key=run_key,
                layer=depth,
                start=start,
                stop=stop,
                noise_model=self.noise_model,
                requested_shots=shots,
                backend=self.backend,
                max_batch=cap,
                estimated_cost=range_cost(start, stop),
            )
            for index, (start, stop) in enumerate(ranges)
        ]


def split_shard_spec(spec: ShardSpec, parts: int) -> list[ShardSpec]:
    """Re-split one shard's range into ``parts`` contiguous sub-ranges.

    This is the speculative-re-shard primitive: when a shard straggles, the
    :class:`~repro.dispatch.dispatchers.PoolDispatcher` re-executes its
    range as several smaller shards on idle workers.  The split is
    *exact by construction* — the sub-ranges partition the original range
    of the same layer and run, every node draws from the same
    path-addressed stream whichever range holds it, and each ancestor is
    accounted by the sub-range holding its first descendant — so the union
    of the sub-specs' counts and counters is bitwise the original's.

    Sub-specs keep the parent's ``index``/``num_shards`` so their merged
    provenance stays attributable to the shard they replace.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    parts = min(parts, spec.stop - spec.start)
    if parts == 1:
        return [spec]
    bounds = _even_bounds(spec.start, spec.stop, parts)
    fraction = 1.0 / parts
    return [
        replace(
            spec, start=lo, stop=hi,
            estimated_cost=spec.estimated_cost * fraction,
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _even_bounds(start: int, stop: int, parts: int) -> list[int]:
    """Boundaries of ``parts`` near-equal contiguous ranges of
    ``[start, stop)``; the first ``(stop - start) mod parts`` take one extra
    unit."""
    base, extra = divmod(stop - start, parts)
    bounds = [start]
    for index in range(parts):
        bounds.append(bounds[-1] + base + (1 if index < extra else 0))
    return bounds


def _range_gate_equivalents(
    arities: Sequence[int],
    lengths: Sequence[int],
    layer: int,
    start: int,
    stop: int,
) -> float:
    """Gate-equivalents of a run over units ``[start, stop)`` of ``layer``.

    Every node of every window of
    :func:`~repro.core.engine.frontier_windows` — each distinct ancestor
    above the range once, the range, every subtree below it — runs its
    subcircuit, and below layer 0 costs one state copy at
    :data:`~repro.core.copycost.DEFAULT_COPY_COST_IN_GATES`.
    """
    windows = frontier_windows(arities, layer, start, stop)
    return sum(
        (hi - lo) * (length + (DEFAULT_COPY_COST_IN_GATES if i else 0.0))
        for i, ((lo, hi, _), length) in enumerate(zip(windows, lengths))
    )


def _balanced_unit_ranges(
    units_total: int,
    num_shards: int,
    score: Callable[[int, int], float],
) -> list[tuple[int, int]]:
    """Contiguous unit ranges minimising the maximum ``score(lo, hi)``.

    Starts from the near-equal split (the first ``units mod shards`` ranges
    take one extra unit) and then greedily shifts single boundaries while
    doing so lowers the estimated maximum — in practice this aligns
    boundaries with parent boundaries, trading one unit of imbalance for
    fewer ancestors whenever those are the more expensive of the two.
    Deterministic, and never produces an empty range.
    """
    bounds = _even_bounds(0, units_total, num_shards)
    improved = True
    sweeps = 0
    while improved and sweeps < 4 * num_shards:
        improved = False
        sweeps += 1
        for boundary in range(1, num_shards):
            lo, mid, hi = (
                bounds[boundary - 1],
                bounds[boundary],
                bounds[boundary + 1],
            )
            best, best_score = mid, max(score(lo, mid), score(mid, hi))
            for candidate in (mid - 1, mid + 1):
                if lo < candidate < hi:
                    candidate_score = max(
                        score(lo, candidate), score(candidate, hi)
                    )
                    if candidate_score < best_score - 1e-9:
                        best, best_score = candidate, candidate_score
            if best != mid:
                bounds[boundary] = best
                improved = True
    return [
        (bounds[index], bounds[index + 1]) for index in range(num_shards)
    ]
