"""Shard planning: split one shot request into independent worker units.

Every subtree of the simulation tree is embarrassingly parallel: it owns an
independent random stream addressed by its path (see the seeding notes in
:mod:`repro.core.engine`) and contributes a disjoint block of leaves.  A
:class:`ShardSpec` is a picklable description of a set of subtrees — the
circuit, the full partition plan, the noise model, and one
:class:`~repro.core.engine.SubtreeAssignment` per covered ``(path,
child-range)`` slice — that a worker process can execute with no other
context.

Classic sharding slices the first-layer arity ``A0`` (paths of length zero).
When ``A0 < num_shards`` the planner *descends*: it splits the children of
deeper reuse nodes instead, up to ``max_depth`` layers down, so a ``(2, 64)``
plan can still feed 16 workers.  Shards that split a node's children must
each replay that node's prefix subcircuits (cheap by construction — the DCP
plans put the short subcircuits first), and the load-aware balancer accounts
that replay in gate-equivalents (via the configured state-copy cost from
:mod:`repro.core.copycost`) when choosing shard boundaries.  When a
calibrated :class:`~repro.core.costmodel.CostModel` is supplied, the
balancer prices units and prefix replays in measured nanoseconds instead of
the analytic gate-equivalent ratio.

Because every node's stream key derives statelessly from the run key
(:mod:`repro.core.pathrng`), the union of any shard decomposition reproduces
the single-process run bitwise: counts and cost counters are identical
whether one engine runs the full plan or ``W`` workers each run a slice of
any layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.circuits.circuit import Circuit
from repro.core.copycost import DEFAULT_COPY_COST_IN_GATES
from repro.core.costmodel import CostModel
from repro.core.engine import (
    DEFAULT_MAX_TREE_BATCH,
    SubtreeAssignment,
)
from repro.core.partitioners import (
    CircuitPartitioner,
    DynamicCircuitPartitioner,
    PartitionPlan,
)
from repro.core.pathrng import child_key, child_keys, run_root_key
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
        The *full* partition plan (identical across shards); the
        assignments select which subtrees of it this shard executes.
    assignments:
        The ``(path, child-range)`` slices this shard covers, each with its
        pre-derived path keys and prefix-ownership flags.
    estimated_cost:
        The planner's load estimate for this shard — gate-equivalents
        (subtree gates + state copies at the configured copy cost + prefix
        replays) by default, measured nanoseconds when the planner was
        given a calibrated cost model.  Recorded so dispatch metadata can
        expose the balance.
    """

    index: int
    num_shards: int
    circuit: Circuit
    plan: PartitionPlan
    assignments: tuple[SubtreeAssignment, ...]
    noise_model: NoiseModel | None
    requested_shots: int
    backend: str = "optimized"
    copy_cost_in_gates: float = DEFAULT_COPY_COST_IN_GATES
    max_batch: int = DEFAULT_MAX_TREE_BATCH
    estimated_cost: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if not self.assignments:
            raise ValueError("a shard must cover at least one assignment")
        for assignment in self.assignments:
            assignment.validate_against(self.plan)

    @property
    def depth(self) -> int:
        """Deepest split layer of this shard's assignments."""
        return max(a.depth for a in self.assignments)

    @property
    def num_outcomes(self) -> int:
        """Leaves (measurement outcomes) this shard produces."""
        arities = self.plan.tree.arities
        return sum(a.outcomes(arities) for a in self.assignments)

    @property
    def covered_paths(self) -> tuple[tuple[tuple[int, ...], int, int], ...]:
        """Provenance triples ``(path, child_start, child_stop)``."""
        return tuple(
            (a.path, a.child_start, a.child_start + a.child_count)
            for a in self.assignments
        )

    @property
    def replayed_prefix_gates(self) -> int:
        """Prefix gates this shard re-executes to rebuild its entry states.

        The engine memoises replayed prefix states per run, so each distinct
        ancestor node is rebuilt once per shard even when several
        assignments share it.
        """
        lengths = self.plan.subcircuit_lengths
        nodes = {
            a.path[: layer + 1]
            for a in self.assignments
            for layer in range(a.depth)
        }
        return sum(lengths[len(node) - 1] for node in nodes)


class ShardPlanner:
    """Builds :class:`ShardSpec` lists from a shot request.

    The planner picks the shallowest split depth whose unit count covers
    ``num_shards`` (never deeper than ``max_depth`` layers), enumerates the
    split layer's subtrees in path order, and partitions them into
    contiguous ranges with a load-aware balancer: shard boundaries are
    chosen to minimise the maximum estimated shard cost in gate-equivalents,
    where splitting a node's children across shards charges each of them the
    prefix-replay cost.  Empty shards are never emitted — when even the
    deepest allowed layer has fewer units than ``num_shards`` the
    decomposition is rebalanced down to one unit per shard (or raises, with
    ``strict=True``).

    Parameters mirror :class:`~repro.core.engine.TQSimEngine` so a
    dispatcher built on this planner is a drop-in replacement for a single
    engine; ``max_depth`` is the one extra knob (how many tree layers the
    planner may descend: 1 reproduces classic first-layer sharding), and an
    optional calibrated ``cost_model`` switches the balancer from analytic
    gate-equivalents to measured per-gate / per-copy nanoseconds.
    """

    def __init__(
        self,
        noise_model: NoiseModel | None = None,
        backend: str = "optimized",
        copy_cost_in_gates: float = DEFAULT_COPY_COST_IN_GATES,
        max_batch: int = DEFAULT_MAX_TREE_BATCH,
        max_depth: int = 1,
        cost_model: CostModel | None = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.noise_model = noise_model
        self.backend = backend
        self.copy_cost_in_gates = float(copy_cost_in_gates)
        self.max_batch = int(max_batch)
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

        Planning (partitioning, depth selection, balancing and key
        derivation) runs once, in the calling process; workers receive
        finished specs.  The first-layer keys are exactly the streams
        ``TQSimEngine(seed=seed)`` derives for its first run of the same
        full plan, and deeper node keys follow the engine's stateless
        :func:`~repro.core.pathrng.child_key` chain, which is what makes
        the decomposition bitwise equivalent to the single-process run.

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
                partitioner = DynamicCircuitPartitioner(
                    copy_cost_in_gates=self.copy_cost_in_gates
                )
            plan = partitioner.plan(circuit, shots, self.noise_model)
        if plan.total_gates != circuit.num_gates:
            raise ValueError(
                "the plan's subcircuits do not cover the circuit "
                f"({plan.total_gates} vs {circuit.num_gates} gates)"
            )

        arities = plan.tree.arities
        depth_cap = min(max_depth, len(arities))
        # Shallowest split depth whose unit count covers the request: deeper
        # splits only add prefix-replay overhead once the pool is fed.
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
        subtree_keys = [int(k) for k in child_keys(run_key, 0, arities[0])]

        children_per_path = arities[depth]
        unit_cost, prefix_cost = self._load_estimates(plan, depth)
        ranges = _balanced_unit_ranges(
            units_total, children_per_path, num_shards, unit_cost, prefix_cost
        )

        specs: list[ShardSpec] = []
        for index, (start, stop) in enumerate(ranges):
            assignments = self._assignments_for_range(
                plan, depth, start, stop, subtree_keys
            )
            specs.append(
                ShardSpec(
                    index=index,
                    num_shards=num_shards,
                    circuit=circuit,
                    plan=plan,
                    assignments=tuple(assignments),
                    noise_model=self.noise_model,
                    requested_shots=shots,
                    backend=self.backend,
                    copy_cost_in_gates=self.copy_cost_in_gates,
                    max_batch=self.max_batch,
                    estimated_cost=_range_cost(
                        start, stop, children_per_path, unit_cost, prefix_cost
                    ),
                )
            )
        return specs

    # ------------------------------------------------------------------
    def _load_estimates(
        self, plan: PartitionPlan, depth: int
    ) -> tuple[float, float]:
        """Cost of one unit subtree and of one prefix replay.

        A *unit* is one child subtree hanging below the split layer: its
        cost is every subcircuit execution inside it plus its state copies
        at the configured copy cost (paper Section 3.6).  A shard touching a
        path additionally replays that path's prefix subcircuits once,
        which is the load the balancer trades off against unit counts.

        Without a calibrated model the unit is gate-equivalents (one gate =
        1.0, one copy = ``copy_cost_in_gates``); with one, both figures are
        measured nanoseconds (one gate = ``gate_ns``, one copy =
        ``copy_ns``).  Only the *ratio* steers the boundary search, so the
        two modes differ exactly where the analytic ratio mis-prices copies.
        """
        arities = plan.tree.arities
        lengths = plan.subcircuit_lengths
        num_layers = len(arities)
        if self.cost_model is not None:
            gate_unit = self.cost_model.gate_ns
            copy_unit = self.cost_model.copy_ns
        else:
            gate_unit = 1.0
            copy_unit = self.copy_cost_in_gates

        unit_gates = 0.0
        unit_copies = 0.0
        instances = 1
        for layer in range(depth, num_layers):
            if layer > depth:
                instances *= arities[layer]
            unit_gates += instances * lengths[layer]
            if layer >= 1:
                unit_copies += instances
        unit_cost = gate_unit * unit_gates + copy_unit * unit_copies

        prefix_cost = (
            gate_unit * sum(lengths[:depth]) + copy_unit * max(depth - 1, 0)
        )
        return unit_cost, prefix_cost

    def _assignments_for_range(
        self,
        plan: PartitionPlan,
        depth: int,
        start: int,
        stop: int,
        subtree_keys: list[int],
    ) -> list[SubtreeAssignment]:
        """Materialise the unit range ``[start, stop)`` as path assignments.

        Units are the split layer's subtrees in lexicographic path order;
        one assignment is emitted per reuse node whose children the range
        touches.  The assignment starting at a node's first child owns the
        accounting of every prefix node it is the lexicographically-first
        descendant of, so the merged cost counters match the single run.
        """
        arities = plan.tree.arities
        children_per_path = arities[depth]
        assignments: list[SubtreeAssignment] = []
        unit = start
        while unit < stop:
            path_index, child_lo = divmod(unit, children_per_path)
            child_hi = min(children_per_path, child_lo + (stop - unit))
            path = _decode_path(path_index, arities[:depth])
            if depth == 0:
                prefix_keys: tuple[int, ...] = ()
                keys = tuple(subtree_keys[child_lo:child_hi])
            else:
                chain = [subtree_keys[path[0]]]
                for node in path[1:]:
                    chain.append(child_key(chain[-1], node))
                prefix_keys = tuple(chain)
                keys = tuple(
                    int(k)
                    for k in child_keys(
                        chain[-1], child_lo, child_hi - child_lo
                    )
                )
            counted = tuple(
                child_lo == 0 and all(p == 0 for p in path[layer + 1 :])
                for layer in range(depth)
            )
            assignments.append(
                SubtreeAssignment(
                    path=path,
                    child_start=child_lo,
                    child_count=child_hi - child_lo,
                    prefix_keys=prefix_keys,
                    child_keys=keys,
                    counted_prefix_layers=counted,
                )
            )
            unit += child_hi - child_lo
        return assignments


def split_shard_spec(spec: ShardSpec, parts: int) -> list[ShardSpec]:
    """Re-split one shard's child-range into ``parts`` contiguous sub-specs.

    This is the speculative-re-shard primitive: when a shard straggles, the
    :class:`~repro.dispatch.resilient.ResilientPoolDispatcher` re-executes
    its assigned children as several smaller shards on idle workers.  The
    split is *exact by construction* — each sub-assignment keeps the
    original's path, prefix keys and the child-key slice it covers, so
    every child subtree draws from the same path-addressed streams it would
    have drawn from in the original shard, and the union of the sub-specs'
    counts is bitwise the original's.

    Prefix accounting must not double: only the sub-assignment that starts
    at the original assignment's first covered child inherits its
    ``counted_prefix_layers`` flags; every later slice re-replays the prefix
    (real work, reported via ``replayed_prefix_gates``) without accounting
    it, exactly like the planner's own boundary-splitting shards.

    Sub-specs keep the parent's ``index``/``num_shards`` so their merged
    provenance stays attributable to the shard they replace.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    total_children = sum(a.child_count for a in spec.assignments)
    parts = min(parts, total_children)
    if parts == 1:
        return [spec]

    base, extra = divmod(total_children, parts)
    sizes = [base + (1 if i < extra else 0) for i in range(parts)]

    pieces: list[list[SubtreeAssignment]] = [[]]
    need = sizes[0]
    for assignment in spec.assignments:
        offset = 0
        while offset < assignment.child_count:
            take = min(need, assignment.child_count - offset)
            counted = (
                assignment.counted_prefix_layers
                if offset == 0
                else (False,) * len(assignment.counted_prefix_layers)
            )
            pieces[-1].append(
                SubtreeAssignment(
                    path=assignment.path,
                    child_start=assignment.child_start + offset,
                    child_count=take,
                    prefix_keys=assignment.prefix_keys,
                    child_keys=assignment.child_keys[offset : offset + take],
                    counted_prefix_layers=counted,
                )
            )
            offset += take
            need -= take
            if need == 0 and len(pieces) < parts:
                pieces.append([])
                need = sizes[len(pieces) - 1]

    fraction = 1.0 / parts
    return [
        replace(
            spec,
            assignments=tuple(piece),
            estimated_cost=spec.estimated_cost * fraction,
        )
        for piece in pieces
        if piece
    ]


def _decode_path(path_index: int, arities: tuple[int, ...]) -> tuple[int, ...]:
    """Decode a lexicographic path index over the given layer arities."""
    path = []
    for arity in reversed(arities):
        path_index, component = divmod(path_index, arity)
        path.append(component)
    return tuple(reversed(path))


def _range_cost(
    start: int,
    stop: int,
    children_per_path: int,
    unit_cost: float,
    prefix_cost: float,
) -> float:
    """Estimated gate-equivalent cost of executing units ``[start, stop)``."""
    paths_touched = (stop - 1) // children_per_path - start // children_per_path + 1
    return (stop - start) * unit_cost + paths_touched * prefix_cost


def _balanced_unit_ranges(
    units_total: int,
    children_per_path: int,
    num_shards: int,
    unit_cost: float,
    prefix_cost: float,
) -> list[tuple[int, int]]:
    """Contiguous unit ranges minimising the maximum estimated shard cost.

    Starts from the near-equal split (the first ``units mod shards`` ranges
    take one extra unit) and then greedily shifts single boundaries while
    doing so lowers the estimated maximum — in practice this aligns
    boundaries with path boundaries, trading one unit of imbalance for one
    fewer prefix replay whenever the replay is the more expensive of the
    two.  Deterministic, and never produces an empty range.
    """
    base, extra = divmod(units_total, num_shards)
    bounds = [0]
    for index in range(num_shards):
        bounds.append(bounds[-1] + base + (1 if index < extra else 0))

    def score(lo: int, hi: int) -> float:
        return _range_cost(lo, hi, children_per_path, unit_cost, prefix_cost)

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
