"""The TQSim engine: tree-based noisy simulation with intermediate-state reuse.

Given a :class:`~repro.core.partitioners.PartitionPlan`, the engine walks the
simulation tree depth-first with an explicit, iterative traversal.  A node at
layer ``i`` copies its parent's intermediate state, applies subcircuit ``i``
with freshly sampled noise, and hands the resulting state to its ``A_{i+1}``
children; leaves sample one measurement outcome each.

One traversal implements that contract, over *frontier chunks*.  The
layer-``i+1`` nodes below a chunk of layer-``i`` nodes are the chunk's
flattened children (row ``r``'s child ``c`` is flat index
``r * A_{i+1} + c``), and they execute *together*, the next at most
``max_batch`` of them per chunk — so one chunk spans the children of
several parents, and layer ``i`` runs about ``ceil(frontier_i / cap)``
chunks, where ``frontier_i = A_0 * ... * A_i`` is its node count.  One row
gather copies every row's parent state into a ``(B, 2**n)`` block and the
child subcircuit runs once through the backend's batched kernels instead of
``B`` separate passes (the paper's Figure-8 argument: one small statevector
update does not fill the machine).  At the leaf layer all ``B`` outcomes are
drawn in one inverse-CDF pass.  The pool holds one
``(min(frontier_i, cap), 2**n)`` buffer per layer, so peak memory is
``sum_i min(frontier_i, cap)`` statevectors, at most ``layers * cap``;
``max_batch=1`` is the classic depth-first order with one statevector per
layer (the Figure-9 footprint).  Every backend runs this traversal — the
reference backend by looping its kernels over rows — and ``"batched"`` is
only a registry alias of the optimized backend.

Cost counters keep per-trajectory semantics at every chunk size
(``gate_applications``, ``state_copies``, ``leaf_samples``,
``noise_applications``): a kernel advancing ``B`` rows counts as ``B``
applications, and a gather into ``B`` rows counts as ``B`` reuse copies.

Seeding (contract v2)
---------------------
Every tree node owns an independent random stream addressed by its *path*
``(j, c1, c2, ...)`` — the child indices walked from the root.  A node's
stream is a :class:`~repro.core.pathrng.PathStream`: a 64-bit *path key*
plus a draw counter, where the key of first-layer node ``j`` is
``child_key(run_key, j)`` and every deeper node's key derives *statelessly*
from its parent's via :func:`~repro.core.pathrng.child_key`.  The run key
itself is ``child_key(root_key_from_seed(seed), run_index)``, so consecutive
``run`` calls on one engine still produce fresh, independent ensembles.  A
node's stream covers exactly its own draws: trajectory noise while applying
its subcircuit, and — at leaves — the outcome draw plus readout flips.

Two properties follow, and they are the engine's signature guarantees:

* **Chunking independence.**  Every noise event, mixed-unitary or general
  Kraus, consumes exactly one uniform per row, so a chunk pre-draws a whole
  subcircuit's noise in one vectorised block
  (:func:`~repro.core.pathrng.draw_block`); because the ``t``-th uniform of
  a stream is a pure function of ``(key, t)``, that block is bitwise the
  per-row draws.  Counts and counters are therefore *bitwise identical*
  across chunk sizes — with or without noise.
* **Sharding at any depth.**  A run over any set of disjoint subtrees — a
  slice of first-layer nodes, or a slice of the children of any deeper node
  (see :class:`SubtreeAssignment` and :mod:`repro.dispatch`) — reproduces
  exactly the outcomes the full run produces for those subtrees, because a
  subtree's draws depend only on its root path, never on which process or
  chunk executed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.backends import Backend, get_backend
from repro.circuits.circuit import Circuit
from repro.core.copycost import DEFAULT_COPY_COST_IN_GATES
from repro.core.partitioners import (
    CircuitPartitioner,
    DynamicCircuitPartitioner,
    PartitionPlan,
)
from repro.core.pathrng import (
    PathStream,
    child_key,
    child_keys,
    child_keys_multi,
    draw_block,
    root_key_from_seed,
)
from repro.core.results import CostCounters, SimulationResult
from repro.core.statecache import (
    DEFAULT_PREFIX_CACHE_BYTES,
    NamespacedStateCache,
    PrefixStateCache,
)
from repro.noise.model import NoiseEvent, NoiseModel
from repro.obs import clock
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, AnyTracer, get_tracer

__all__ = [
    "TQSimEngine",
    "SubtreeAssignment",
    "DEFAULT_MAX_TREE_BATCH",
]


def _path_label(path: Sequence[int]) -> str:
    """Span-attribute form of a tree path: ``"1/3"``; the root is ``""``."""
    return "/".join(str(component) for component in path)

#: Default ceiling on the frontier-chunk size of the traversal.  Each
#: layer's pooled buffer holds ``min(frontier_i, max_batch)`` statevectors,
#: so this bounds peak memory at ``num_layers * max_batch`` states
#: regardless of arity.
DEFAULT_MAX_TREE_BATCH = 64


@dataclass(frozen=True)
class SubtreeAssignment:
    """A contiguous slice of one tree node's children, ready to execute.

    ``path`` addresses a reuse node: ``()`` is the virtual root (whose
    children are the first-layer subtrees), ``(j,)`` is first-layer node
    ``j``, ``(j, c)`` its ``c``-th child, and so on.  The assignment covers
    children ``[child_start, child_start + child_count)`` of that node —
    each an independent subtree the engine traverses in full.

    Attributes
    ----------
    prefix_keys:
        The 64-bit path key of every node along ``path`` (``prefix_keys[i]``
        belongs to node ``path[:i+1]``).  The worker replays the prefix
        subcircuits through these streams to rebuild the node's intermediate
        state bitwise before descending.
    child_keys:
        One path key per covered child, in child order.  For a non-empty
        path these are ``child_key(prefix_keys[-1], c)``; for the root path
        they are the run key's first-layer children.  Plain ints, so specs
        pickle across process boundaries with no generator state attached.
    counted_prefix_layers:
        ``counted_prefix_layers[i]`` is True when *this* assignment accounts
        the prefix node ``path[:i+1]``'s work in the cost counters.  Shards
        splitting a node's children all replay the same prefix, so exactly
        one assignment per prefix node carries the flag — which is what
        keeps merged counters bitwise-identical to the single-engine run.
    """

    path: tuple[int, ...]
    child_start: int
    child_count: int
    prefix_keys: tuple[int, ...]
    child_keys: tuple[int, ...]
    counted_prefix_layers: tuple[bool, ...]

    def __post_init__(self) -> None:
        if self.child_count < 1:
            raise ValueError("an assignment must cover at least one child")
        if self.child_start < 0:
            raise ValueError("child_start must be >= 0")
        if len(self.prefix_keys) != len(self.path):
            raise ValueError(
                f"need one prefix key per path layer ({len(self.path)}), "
                f"got {len(self.prefix_keys)}"
            )
        if len(self.child_keys) != self.child_count:
            raise ValueError(
                f"need one key per covered child ({self.child_count}), "
                f"got {len(self.child_keys)}"
            )
        if len(self.counted_prefix_layers) != len(self.path):
            raise ValueError(
                "need one counted-prefix flag per path layer "
                f"({len(self.path)}), got {len(self.counted_prefix_layers)}"
            )

    @property
    def depth(self) -> int:
        """Layer of the covered children (``len(path)``)."""
        return len(self.path)

    def outcomes(self, arities: Sequence[int]) -> int:
        """Leaves this assignment produces under the given tree arities."""
        return self.child_count * math.prod(arities[self.depth + 1 :])

    def validate_against(self, plan: PartitionPlan) -> None:
        """Raise when the assignment does not address ``plan``'s tree."""
        arities = plan.tree.arities
        if self.depth >= len(arities):
            raise ValueError(
                f"path {self.path} is deeper than the {len(arities)}-layer tree"
            )
        for layer, node in enumerate(self.path):
            if not 0 <= node < arities[layer]:
                raise ValueError(
                    f"path component {node} out of range for layer {layer} "
                    f"(arity {arities[layer]})"
                )
        if self.child_start + self.child_count > arities[self.depth]:
            raise ValueError(
                f"children [{self.child_start}, "
                f"{self.child_start + self.child_count}) exceed layer "
                f"{self.depth}'s arity ({arities[self.depth]})"
            )

    def overlaps(self, other: "SubtreeAssignment") -> bool:
        """True when the two assignments cover a common subtree.

        Overlap is ancestry-aware: a slice of node ``(0,)``'s children
        collides with a slice of node ``(0, 3)``'s children whenever child 3
        lies inside the former's range, because the deeper slice re-executes
        leaves the shallower one already produces.
        """
        shallow, deep = (
            (self, other) if self.depth <= other.depth else (other, self)
        )
        if deep.path[: shallow.depth] != shallow.path:
            return False
        if shallow.depth == deep.depth:
            return (
                shallow.child_start < deep.child_start + deep.child_count
                and deep.child_start < shallow.child_start + shallow.child_count
            )
        covered_child = deep.path[shallow.depth]
        return (
            shallow.child_start
            <= covered_child
            < shallow.child_start + shallow.child_count
        )


class _LayerNoise(NamedTuple):
    """One subcircuit's noise events, matched once per run."""

    #: ``events_for_gate`` of each gate, in gate order.
    events: Sequence[Sequence[NoiseEvent]]
    #: Total events: the uniforms one row draws for the subcircuit.
    draws: int


class _Walk(NamedTuple):
    """What every chunk of one :meth:`TQSimEngine._run_tree` call shares."""

    plan: PartitionPlan
    noise: Sequence[_LayerNoise]
    #: ``pool[i]``: layer ``i``'s ``(min(frontier_i, cap), 2**n)`` buffer.
    pool: dict[int, np.ndarray]
    counts: dict[str, int]
    cost: CostCounters
    tracer: AnyTracer
    assignment: SubtreeAssignment


def _chunk_labels(walk: _Walk, layer: int, first: int) -> tuple[str, int]:
    """Span labels of a chunk: the path of its first row's parent, and that
    row's child index.  ``first`` is the row's index among ``layer``'s
    nodes under the traversed slice; both labels are exact at cap 1."""
    assignment = walk.assignment
    digits = []
    for arity in reversed(walk.plan.tree.arities[assignment.depth + 1 : layer + 1]):
        first, digit = divmod(first, arity)
        digits.append(digit)
    path = (*assignment.path, assignment.child_start + first, *reversed(digits))
    return _path_label(path[:-1]), path[-1]


class TQSimEngine:
    """Tree-based quantum circuit simulator (the paper's TQSim)."""

    def __init__(
        self,
        noise_model: NoiseModel | None = None,
        seed: int | np.random.SeedSequence | None = None,
        backend: str | Backend | None = None,
        copy_cost_in_gates: float = DEFAULT_COPY_COST_IN_GATES,
        max_batch: int = DEFAULT_MAX_TREE_BATCH,
        tracer: AnyTracer | None = None,
    ) -> None:
        """Configure the engine.

        Parameters
        ----------
        seed:
            Root seed, folded into a 64-bit root key
            (:func:`~repro.core.pathrng.root_key_from_seed`).  Each ``run``
            call derives a fresh run key from the root key and a per-engine
            run counter, and every tree node's stream key follows
            statelessly from the run key via
            :func:`~repro.core.pathrng.child_key` — so a fixed seed pins
            the whole trajectory ensemble while consecutive ``run`` calls
            still produce fresh, independent ensembles.  An explicit
            ``SeedSequence`` may be passed (shared-root dispatch); it is
            folded without being mutated.
        max_batch:
            Frontier-chunk cap: a chunk runs at most ``max_batch`` nodes of
            one layer, spanning the children of several parents, and the
            per-layer pooled buffers hold ``min(frontier_i, max_batch)``
            statevectors (``frontier_i`` is layer ``i``'s node count).
            Larger values amortise more Python dispatch per kernel call;
            ``1`` runs one node at a time with one statevector per layer.
            Counts never depend on it.
        tracer:
            Observability hook (see :mod:`repro.obs`).  ``None`` — the
            default — defers to the process-wide tracer from
            :func:`repro.obs.get_tracer` at each ``run`` call, which is a
            no-op ``NullTracer`` unless one was installed.  Tracing is
            inert by contract: it never changes counts, counters or RNG
            draws (all clock reads live in :mod:`repro.obs.clock`).
        """
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.noise_model = noise_model
        self.backend = get_backend(backend)
        self.copy_cost_in_gates = float(copy_cost_in_gates)
        self.max_batch = int(max_batch)
        self.tracer = tracer
        self._root_key = root_key_from_seed(seed)
        self._runs_started = 0

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        shots: int,
        partitioner: CircuitPartitioner | None = None,
        plan: PartitionPlan | None = None,
        subtree_keys: Sequence[int] | None = None,
        assignments: Sequence[SubtreeAssignment] | None = None,
        prefix_cache: PrefixStateCache | NamespacedStateCache | None = None,
    ) -> SimulationResult:
        """Simulate ``circuit`` with computation reuse.

        Parameters
        ----------
        circuit:
            The circuit to simulate.
        shots:
            Minimum number of measurement outcomes to produce.
        partitioner:
            Partitioning policy; defaults to the paper's DCP configured with
            this engine's state-copy cost.
        plan:
            A pre-built plan (overrides ``partitioner``).
        subtree_keys:
            One 64-bit path key per first-layer subtree of the plan,
            overriding the engine's own key derivation (the classic
            first-layer dispatch hook; shorthand for one root-path
            assignment covering the full first layer).
        assignments:
            Explicit :class:`SubtreeAssignment` slices to execute instead of
            the whole tree.  This is the deep-sharding hook: each assignment
            replays its path's prefix subcircuits through the recorded
            prefix streams (accounted only where the assignment owns the
            prefix node), then traverses exactly the covered children —
            reproducing bitwise the outcomes the full run produces for those
            subtrees.  Mutually exclusive with ``subtree_keys``.
        prefix_cache:
            Memo of replayed prefix states.  ``None`` (default) gives the
            run a private byte-bounded LRU
            (:class:`~repro.core.statecache.PrefixStateCache`), so deep
            splits replay each shared ancestor once without the memo
            growing past ``DEFAULT_PREFIX_CACHE_BYTES``.  Callers may pass
            a longer-lived cache (e.g. the serving layer's cross-request
            cache via a :class:`~repro.core.statecache.NamespacedStateCache`
            view); cached entries are never mutated, and eviction only
            costs a replay — counters and counts are unaffected either way.

        Returns
        -------
        SimulationResult
            ``result.shots`` records the outcomes actually produced (the
            plan's leaf count — or the assignments' — which may over-shoot
            the request); the requested value is kept under
            ``metadata["requested_shots"]``.
        """
        if shots < 1:
            raise ValueError("shots must be >= 1")
        if assignments is not None and subtree_keys is not None:
            raise ValueError(
                "pass either subtree_keys or assignments, not both"
            )
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
        # Drift comparisons only make sense for runs covering the whole
        # tree; explicit assignments execute a slice plus prefix replay,
        # which CostModel.plan_seconds does not model.
        full_tree = assignments is None
        if assignments is None:
            if subtree_keys is None:
                # Advancing the run index is what keeps repeated run() calls
                # statistically independent under one fixed seed.
                run_key = child_key(self._root_key, self._runs_started)
                self._runs_started += 1
                subtree_keys = [
                    int(k) for k in child_keys(run_key, 0, arities[0])
                ]
            elif len(subtree_keys) != arities[0]:
                raise ValueError(
                    f"need one subtree key per first-layer subtree "
                    f"({arities[0]}), got {len(subtree_keys)}"
                )
            assignments = [
                SubtreeAssignment(
                    path=(),
                    child_start=0,
                    child_count=arities[0],
                    prefix_keys=(),
                    child_keys=tuple(int(k) for k in subtree_keys),
                    counted_prefix_layers=(),
                )
            ]
        else:
            assignments = list(assignments)
            if not assignments:
                raise ValueError("assignments must not be empty")
            for assignment in assignments:
                assignment.validate_against(plan)
            for i, first in enumerate(assignments):
                for second in assignments[i + 1 :]:
                    if first.overlaps(second):
                        raise ValueError(
                            "assignments overlap: "
                            f"(path {first.path}, children "
                            f"[{first.child_start}, "
                            f"{first.child_start + first.child_count})) and "
                            f"(path {second.path}, children "
                            f"[{second.child_start}, "
                            f"{second.child_start + second.child_count})) "
                            "cover a common subtree, which would double-count "
                            "its outcomes"
                        )

        tracer = self.tracer if self.tracer is not None else get_tracer()
        counts: dict[str, int] = {}
        cost = CostCounters()
        produced = 0
        # Replayed prefix states, keyed by node path: assignments under the
        # same ancestor (deep splits) rebuild it once per run, not once each.
        # Byte-bounded so deep-sharded runs can't pin one state per path.
        if prefix_cache is None:
            prefix_cache = PrefixStateCache(DEFAULT_PREFIX_CACHE_BYTES)
        start = clock.perf_seconds()
        with (
            tracer.span(
                "engine.run",
                tree=str(plan.tree),
                arities=[int(a) for a in arities],
                lengths=[int(length) for length in plan.subcircuit_lengths],
                backend=self.backend.name,
                qubits=circuit.num_qubits,
                chunk_cap=self.max_batch,
                full_tree=full_tree,
                assignments=len(assignments),
            )
            if tracer.enabled
            else NULL_SPAN
        ) as run_span:
            noise = [self._match_noise(sub) for sub in plan.subcircuits]
            for assignment in assignments:
                produced += assignment.outcomes(arities)
                prefix_state = self._replay_prefix(
                    circuit, plan, noise, assignment, cost, prefix_cache,
                    tracer,
                )
                self._run_tree(
                    circuit, plan, noise, counts, cost, assignment,
                    prefix_state, tracer,
                )
            run_span.set(shots=produced)
        cost.wall_time_seconds = clock.perf_seconds() - start

        metadata = {
            "simulator": "tqsim",
            "backend": self.backend.name,
            "execution": "tree-batched",
            "policy": plan.policy,
            "tree": str(plan.tree),
            "subcircuit_lengths": plan.subcircuit_lengths,
            "requested_shots": shots,
            "seeding": "path-keyed-counter-v2",
            "theoretical_speedup": plan.theoretical_speedup(
                self.copy_cost_in_gates
            ),
            "noise_model": self.noise_model.name if self.noise_model else "ideal",
            "max_batch": self.max_batch,
        }
        return SimulationResult(
            counts=counts,
            num_qubits=circuit.num_qubits,
            shots=produced,
            cost=cost,
            metadata=metadata,
        )

    def _match_noise(self, subcircuit: Circuit) -> _LayerNoise:
        """Match every gate of one subcircuit to its noise events, once."""
        if self.noise_model is None:
            return _LayerNoise([()] * len(subcircuit), 0)
        events = [self.noise_model.events_for_gate(gate) for gate in subcircuit]
        return _LayerNoise(events, sum(len(matched) for matched in events))

    # ------------------------------------------------------------------
    def _replay_prefix(
        self,
        circuit: Circuit,
        plan: PartitionPlan,
        noise: Sequence[_LayerNoise],
        assignment: SubtreeAssignment,
        cost: CostCounters,
        cache: PrefixStateCache | NamespacedStateCache,
        tracer: AnyTracer = NULL_TRACER,
    ) -> np.ndarray | None:
        """Rebuild the intermediate state of the node at ``assignment.path``.

        The prefix subcircuits are replayed through the recorded per-node
        streams, so the resulting state is bitwise the one the full run hands
        to that node's children.  ``cache`` memoises every rebuilt node state
        by path: assignments sharing an ancestor (deep splits) replay it once
        and resume from the deepest cached prefix.  The cache is byte-bounded
        (and may outlive the run — see ``run``'s ``prefix_cache``), so an
        entry may have been evicted; a miss just replays the prefix, which
        cannot change counts or counters.

        Work is added to ``cost`` only for prefix layers this assignment owns
        (``counted_prefix_layers``): sibling shards replay the same prefix,
        and the merged counters must account each tree node exactly once,
        like the single-engine run.  Owned layers are accounted whether their
        state came from a replay or from the cache (accounting follows
        ownership, not execution).  Replayed but uncounted work is real
        wall-clock overhead — the planner's cost model and the dispatch
        metadata track it separately.
        """
        if not assignment.path:
            return None
        backend = self.backend
        depth = assignment.depth
        resume = 0
        state: np.ndarray | None = None
        for layer in range(depth, 0, -1):
            cached = cache.get(assignment.path[:layer])
            if cached is not None:
                state, resume = cached, layer
                break
        discard = CostCounters()
        for layer in range(depth):
            counted = assignment.counted_prefix_layers[layer]
            tally = cost if counted else discard
            if counted and layer >= 1:
                # The full run copies this node's parent state; the replay
                # evolves one buffer in place but must account identically.
                tally.state_copies += 1
            if layer < resume:
                # Cache hit: the state exists already, but an owned layer
                # still has to book the node's work exactly once.
                if counted:
                    tally.gate_applications += len(plan.subcircuits[layer])
                    tally.noise_applications += noise[layer].draws
                continue
            work = (
                backend.reset_state(backend.allocate_state(circuit.num_qubits))
                if state is None
                # Never evolve a cached entry in place — later assignments
                # resume from it.
                else backend.copy_state(state)
            )
            stream = PathStream(assignment.prefix_keys[layer])
            # A one-row subcircuit application consumes the stream exactly
            # as the node's row in a traversal chunk does.
            with (
                tracer.span(
                    "engine.prefix_replay",
                    path=_path_label(assignment.path[: layer + 1]),
                    layer=layer,
                    gates=len(plan.subcircuits[layer]),
                    counted=counted,
                )
                if tracer.enabled
                else NULL_SPAN
            ):
                state = self._apply_subcircuit(
                    work, plan.subcircuits[layer], noise[layer], tally,
                    [stream], tracer,
                )
            cache.put(assignment.path[: layer + 1], state)
        return state

    def _apply_subcircuit(
        self,
        state: np.ndarray,
        subcircuit: Circuit,
        noise: _LayerNoise,
        cost: CostCounters,
        row_rngs: Sequence[PathStream],
        tracer: AnyTracer = NULL_TRACER,
    ) -> np.ndarray:
        """Apply one subcircuit with freshly sampled trajectory noise.

        ``state`` is a ``(B, 2**n)`` chunk whose row ``i`` is the tree node
        streaming from ``row_rngs[i]`` (or one statevector with a single
        stream).  Every noise event, mixed-unitary or general Kraus,
        consumes exactly one uniform per row, so the chunk's whole noise
        budget is pre-drawn in *one* :func:`~repro.core.pathrng.draw_block`
        call: the row counters advance in lockstep and column ``j`` of the
        block is bitwise the ``j``-th per-event draw of each row's stream.
        Cost counters book ``B`` applications per gate and per event.
        """
        backend = self.backend
        rows = len(row_rngs)
        # Kernel-level spans sit behind the tracer's sampling knob; the
        # common (disabled) case costs one attribute lookup per subcircuit.
        kernel_interval = tracer.kernel_interval
        uniforms = None
        if noise.draws:
            with (
                tracer.span("engine.noise_predraw", rows=rows,
                            draws=noise.draws)
                if tracer.enabled
                else NULL_SPAN
            ):
                uniforms = draw_block(row_rngs, noise.draws)
        column = 0
        for gate, events in zip(subcircuit, noise.events):
            if kernel_interval:
                with tracer.kernel_span(
                    "backend.kernel", gate=gate.name, rows=rows
                ):
                    state = backend.apply_gate(state, gate)
            else:
                state = backend.apply_gate(state, gate)
            if events:
                width = len(events)
                state = backend.apply_noise_events_uniforms(
                    state, events, uniforms[:, column : column + width]
                )
                column += width
        cost.gate_applications += len(subcircuit) * rows
        cost.noise_applications += noise.draws * rows
        return state

    # ------------------------------------------------------------------
    def _run_tree(
        self,
        circuit: Circuit,
        plan: PartitionPlan,
        noise: Sequence[_LayerNoise],
        counts: dict[str, int],
        cost: CostCounters,
        assignment: SubtreeAssignment,
        parent_state: np.ndarray | None,
        tracer: AnyTracer = NULL_TRACER,
    ) -> None:
        """Depth-first traversal over frontier chunks.

        Runs the subtrees ``assignment`` covers (the whole tree for the root
        path).  The nodes of layer ``i`` below the live layer-``i-1`` chunk
        are that chunk's flattened children — row ``r``'s child ``c`` is
        flat index ``r * A_i + c`` — and each chunk takes the next at most
        ``max_batch`` of them, so one chunk spans the children of several
        parents and layer ``i`` runs about ``ceil(frontier_i / cap)``
        chunks, where ``frontier_i`` is the layer's node count.  ``pool[i]``
        is a ``(min(frontier_i, cap), 2**n)`` buffer.  A chunk runs one
        batched kernel call per gate; leaf chunks sample all their outcomes
        in one batched call, and interior chunks run all their children
        (:meth:`_run_chunk` recurses once per layer) before the next chunk
        overwrites the buffer.

        Random streams: every row of a chunk is its own tree node with its
        own :class:`~repro.core.pathrng.PathStream` (the assignment's child
        keys at the entry layer, :func:`~repro.core.pathrng.child_keys_multi`
        below), so a chunk draws all rows' uniforms in one block while the
        operator application stays vectorised.  Draws therefore depend only
        on a node's path — never on the chunk cap or how nodes were grouped
        into chunks — which is what makes both the chunking and any sharding
        of the tree bitwise reproducible.
        """
        start = assignment.depth
        cap = self.max_batch
        pool: dict[int, np.ndarray] = {}
        frontier = 1
        fanout = (assignment.child_count, *plan.tree.arities[start + 1 :])
        for layer, arity in enumerate(fanout, start):
            frontier *= arity
            pool[layer] = self.backend.allocate_batch(
                circuit.num_qubits, min(frontier, cap)
            )
        walk = _Walk(plan, noise, pool, counts, cost, tracer, assignment)
        keys = np.asarray(assignment.child_keys, dtype=np.uint64)
        for first in range(0, len(keys), cap):
            batch = pool[start][: min(cap, len(keys) - first)]
            if parent_state is None:
                # Root-path chunks start from |0...0> like the baseline;
                # resets are not reuse copies.
                self.backend.reset_state(batch)
            else:
                with (
                    tracer.span("engine.copy", path=_path_label(assignment.path),
                                layer=start, rows=len(batch))
                    if tracer.enabled
                    else NULL_SPAN
                ):
                    self.backend.broadcast_into(batch, parent_state)
                cost.state_copies += len(batch)
            self._run_chunk(
                walk, start, batch, keys[first : first + len(batch)], first
            )

    def _run_chunk(
        self,
        walk: _Walk,
        layer: int,
        batch: np.ndarray,
        keys: np.ndarray,
        first: int,
    ) -> None:
        """Apply subcircuit ``layer`` to one loaded chunk, then sample its
        leaves or run its children.  ``first`` is row 0's index among the
        layer's nodes under the traversed slice."""
        tracer = walk.tracer
        plan = walk.plan
        path, first_child = (
            _chunk_labels(walk, layer, first) if tracer.enabled else ("", 0)
        )
        row_rngs = [PathStream(key) for key in keys.tolist()]
        with (
            tracer.span(
                "engine.subcircuit", path=path, layer=layer,
                gates=len(plan.subcircuits[layer]), rows=len(batch),
                first_child=first_child,
            )
            if tracer.enabled
            else NULL_SPAN
        ):
            state = self._apply_subcircuit(
                batch, plan.subcircuits[layer], walk.noise[layer], walk.cost,
                row_rngs, tracer,
            )
        if state is not batch:
            # Honour the mutation contract for out-of-place backends:
            # leaves are sampled from, and children gathered out of, the
            # pooled buffer, so the result must land in it.
            np.copyto(batch, state)
        if layer + 1 == plan.tree.num_subcircuits:
            readout = self.noise_model.readout_error if self.noise_model else None
            with (
                tracer.span("engine.leaf_sample", path=path, rows=len(batch))
                if tracer.enabled
                else NULL_SPAN
            ):
                outcomes = self.backend.sample_outcomes_multi(
                    batch, row_rngs, readout
                )
            for bitstring in outcomes:
                walk.counts[bitstring] = walk.counts.get(bitstring, 0) + 1
            walk.cost.leaf_samples += len(batch)
            return
        # The children run in frontier chunks: one row gather copies each
        # chunk's parent rows in, and one vectorised hash derives its keys.
        layer += 1
        arity = plan.tree.arities[layer]
        buffer = walk.pool[layer]
        total = len(batch) * arity
        for begin in range(0, total, len(buffer)):
            rows, children = np.divmod(
                np.arange(begin, min(begin + len(buffer), total)), arity
            )
            child_first = first * arity + begin
            with (
                tracer.span("engine.copy", layer=layer, rows=len(rows),
                            path=_chunk_labels(walk, layer, child_first)[0])
                if tracer.enabled
                else NULL_SPAN
            ):
                self.backend.gather_into(buffer[: len(rows)], batch, rows)
            walk.cost.state_copies += len(rows)
            self._run_chunk(
                walk, layer, buffer[: len(rows)],
                child_keys_multi(keys[rows], children), child_first,
            )
