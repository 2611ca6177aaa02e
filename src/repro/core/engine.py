"""The TQSim engine: tree-based noisy simulation with intermediate-state reuse.

Given a :class:`~repro.core.partitioners.PartitionPlan`, the engine walks the
simulation tree depth-first with an explicit, iterative traversal.  A node at
layer ``i`` copies its parent's intermediate state, applies subcircuit ``i``
with freshly sampled noise, and hands the resulting state to its ``A_{i+1}``
children; leaves sample one measurement outcome each.

One traversal implements that contract, over *frontier chunks*.  The
layer-``i+1`` nodes below a chunk of layer-``i`` nodes are the chunk's
flattened children (node ``r``'s child ``c`` is flat index
``r * A_{i+1} + c``), and they execute *together*, the next at most
``cap`` of them per chunk — so one chunk spans the children of several
parents, and layer ``i`` runs about ``ceil(frontier_i / cap)`` chunks,
where ``frontier_i = A_0 * ... * A_i`` is its node count.  A chunk evolves
its *distinct states*, not its nodes (:class:`ChunkSlots`, the technique
Qiskit Aer calls shot branching): its ``S <= B`` slots are the first ``S``
rows of its layer's pooled buffer, and each of its ``B`` nodes holds one.
A layer-0 chunk starts as one slot reset to |0...0>, a child chunk
gathers each distinct parent slot once, and at a noise event the nodes of
a slot that drew different branches move to slots of their own, copied
before any slot is updated (:meth:`ChunkSlots.split`).  Under the paper's
error rates most nodes draw no error inside a subcircuit, so kernels,
copies and leaf lookups run on a fraction of the nodes.  Each gate runs
once through the backend's batched kernels on the ``S`` slots instead of
``B`` separate passes (the paper's Figure-8 argument: one small
statevector update does not fill the machine).  At the leaf layer all
``B`` outcomes are drawn in one inverse-CDF pass, each leaf from its own
slot with its own stream.  Plans without gate noise keep one slot per
node.  The cap is ``max_batch`` when one is given and otherwise
:func:`default_chunk_cap` of the circuit's width: as many rows as fit
:data:`DEFAULT_CHUNK_AMPLITUDES` amplitudes, so a chunk holds about the
same bytes at every width.  The pool holds one
``(min(frontier_i, cap), 2**n)`` buffer per layer, so peak memory is
``sum_i min(frontier_i, cap)`` statevectors, at most ``layers * cap``
(``layers * max(2**15, 2**n)`` amplitudes at the default cap), however
nodes share slots: a chunk never holds more slots than nodes.
``max_batch=1`` is the classic depth-first order with one statevector per
layer (the Figure-9 footprint).  Every backend runs this traversal — the
reference backend by looping its kernels over rows — and ``"batched"`` is
only a registry alias of the optimized backend.

Without gate noise every leaf holds the same pre-measurement state, the
circuit's final state.  :meth:`TQSimEngine.sample_leaves` samples every
leaf of a run from that one state with the traversal's own run key, child
keys and outcome lookup, so its counts equal the traversal's bitwise; the
serving layer's warm path is this call on a cached final state.

Cost counters keep per-trajectory semantics at every chunk size, however
nodes share slots (``gate_applications``, ``state_copies``,
``leaf_samples``, ``noise_applications``): a gate on a chunk of ``B``
nodes counts as ``B`` applications, and a chunk of ``B`` children as ``B``
reuse copies.  The rows the kernels actually advanced are the
``engine.subcircuit`` span's ``kernel_rows``.

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
  Kraus, consumes exactly one uniform per node, so a chunk pre-draws a
  whole subcircuit's noise in one vectorised block
  (:func:`~repro.core.pathrng.draw_block`); because the ``t``-th uniform of
  a stream is a pure function of ``(key, t)``, that block is bitwise the
  per-node draws.  A slot holds bitwise the state its nodes would hold in
  rows of their own: the kernels compute a row the same way in any block,
  a general-Kraus slot is priced the same alone as in any block, and a
  split copies a slot before any update.  So each node draws the branches
  and the outcome it would draw alone, and counts and counters are
  *bitwise identical* across chunk sizes and slot sharing — with or
  without noise.
* **Sharding at any depth.**  A shard is a contiguous range of one
  layer's flattened frontier (``run(shard=(run_key, layer, start, stop))``;
  see :func:`frontier_windows` and :mod:`repro.dispatch`).  It runs the
  range's ancestors and then the range with the full run's keys and chunks,
  so it reproduces exactly the outcomes the full run produces for those
  subtrees: a subtree's draws depend only on its root path, never on which
  process or chunk executed it.  Each ancestor's work is accounted by the
  shard holding its first descendant, so the counters of any partition of a
  layer add up to the full run's.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from repro.backends import Backend, get_backend
from repro.circuits.circuit import Circuit
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
    uniform_block,
)
from repro.core.results import CostCounters, SimulationResult
from repro.noise.channels import KrausChannel
from repro.noise.model import NoiseEvent, NoiseModel
from repro.obs import clock
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, AnyTracer, get_tracer
from repro.statevector.sampling import index_to_bitstring

__all__ = [
    "TQSimEngine",
    "DEFAULT_CHUNK_AMPLITUDES",
    "default_chunk_cap",
    "frontier_windows",
]


#: Amplitudes one frontier chunk holds by default: ``2**15`` complex128
#: amplitudes, 512 KiB.  A chunk of small states fills a kernel call with
#: many rows and a chunk of wide states with few, so the per-call dispatch
#: is amortised over about the same work at every width.
DEFAULT_CHUNK_AMPLITUDES = 2**15


def default_chunk_cap(num_qubits: int) -> int:
    """The frontier-chunk cap a run at ``num_qubits`` uses when no
    ``max_batch`` is given: the rows that fit
    :data:`DEFAULT_CHUNK_AMPLITUDES`, and at least one (2048 at 4 qubits,
    128 at 8, 32 at 10, 1 from 15 up)."""
    return max(1, DEFAULT_CHUNK_AMPLITUDES >> num_qubits)


def frontier_windows(
    arities: Sequence[int], layer: int, start: int, stop: int
) -> list[tuple[int, int, int]]:
    """What a run over nodes ``[start, stop)`` of layer ``layer`` executes.

    Returns one ``(lo, hi, booked)`` triple per tree layer: the run executes
    that layer's flat node range ``[lo, hi)`` and accounts the work of the
    nodes from ``booked`` on.  With ``p = A_{i+1} * ... * A_layer``, a layer
    ``i`` above the range holds the range's ancestors ``[start // p,
    ceil(stop / p))``; ancestor ``a`` is booked only by the range holding its
    first descendant (``a * p >= start``), so the ranges of a partition book
    every node exactly once and at most one row per layer goes unbooked.
    Below the range each window is the one above times the layer's arity.
    A full run is the range ``[0, A_0)`` of layer 0.

    Raises ``ValueError`` unless ``[start, stop)`` is a non-empty range of
    the layer's ``A_0 * ... * A_layer`` nodes.
    """
    if not 0 <= layer < len(arities):
        raise ValueError(
            f"layer {layer} is outside the {len(arities)}-layer tree"
        )
    frontier = math.prod(arities[: layer + 1])
    if not 0 <= start < stop <= frontier:
        raise ValueError(
            f"[{start}, {stop}) is not a non-empty range of layer {layer}'s "
            f"{frontier} nodes"
        )
    windows = []
    for i, arity in enumerate(arities):
        if i <= layer:
            span = math.prod(arities[i + 1 : layer + 1])
            lo, hi, booked = start // span, -(-stop // span), -(-start // span)
        else:
            lo, hi = lo * arity, hi * arity
            booked = lo
        windows.append((lo, hi, booked))
    return windows


class _LayerNoise(NamedTuple):
    """One subcircuit's noise events, matched once per run."""

    #: ``events_for_gate`` of each gate, in gate order.
    events: Sequence[Sequence[NoiseEvent]]
    #: Total events: the uniforms one node draws for the subcircuit.
    draws: int
    #: Per gate: whether any of its events is a mixture of unitaries.
    mixed: Sequence[bool]
    #: Each distinct mixed-unitary channel with the uniform-block columns
    #: of its events.
    mixtures: Sequence[tuple[KrausChannel, np.ndarray]]


def _mixture_hits(
    mixtures: Sequence[tuple[KrausChannel, np.ndarray]], uniforms: np.ndarray
) -> dict[int, tuple[list[int], list[int]]]:
    """The rows and branches of every mixture draw that applies an
    operator, keyed by uniform-block column; one pass per channel covers
    all of its columns."""
    hits: dict[int, tuple[list[int], list[int]]] = {}
    for channel, columns in mixtures:
        where, rows, branches = channel.mixture_hits(uniforms[:, columns])
        for column, row, branch in zip(
            columns[where].tolist(), rows.tolist(), branches.tolist()
        ):
            drawn = hits.setdefault(column, ([], []))
            drawn[0].append(row)
            drawn[1].append(branch)
    return hits


class ChunkSlots:
    """The distinct states of one frontier chunk.

    Rows ``[0, count)`` of ``buffer``, the layer's pooled buffer, are the
    chunk's slots, and node ``b`` holds slot ``owner[b]``; ``sizes[s]`` is
    the number of nodes holding slot ``s``.  Every slot belongs to at least
    one node, so ``count`` never exceeds the chunk's nodes nor the buffer's
    rows.  ``owner`` is None when every node holds its own slot in node
    order, as in plans without gate noise.
    """

    __slots__ = ("buffer", "owner", "sizes", "count")

    def __init__(
        self, buffer: np.ndarray, owner: np.ndarray | None, count: int
    ) -> None:
        self.buffer = buffer
        self.owner = owner
        self.sizes = (
            None if owner is None else np.bincount(owner, minlength=count).tolist()
        )
        self.count = count

    @property
    def block(self) -> np.ndarray:
        """The slots, rows ``[0, count)`` of the buffer."""
        return self.buffer[: self.count]

    def split(
        self,
        backend: Backend,
        rows: Sequence[int],
        branches: Sequence[int],
    ) -> tuple[list[int], list[int], Sequence[int]]:
        """Tell apart the nodes of a slot that one noise event sent down
        different branches: the one split rule of both noise kinds.

        Node ``rows[k]`` drew branch ``branches[k]`` and every other node
        drew the default branch (a mixture's identity, a general Kraus
        channel's branch 0).  Within a slot, nodes that drew the same
        branch form a group.  The nodes that drew the default keep the
        slot when there are any, and otherwise the group of the smallest
        branch does; every other group moves to a new slot, copied from
        the old one before any slot is updated.  Returns the slots whose
        branch is not the default with their branches, and the slot each
        slot's state was copied from (itself, for a slot that was not
        split).
        """
        owner, count, sizes = self.owner, self.count, self.sizes
        if owner is None:
            # One node per slot: nothing to group.
            return list(rows), list(branches), range(count)
        groups: dict[tuple[int, int], list[int]] = {}
        moved: dict[int, int] = {}
        for row, slot, branch in zip(rows, owner[rows].tolist(), branches):
            groups.setdefault((slot, branch), []).append(row)
            moved[slot] = moved.get(slot, 0) + 1
        # A slot none of whose nodes drew the default is kept by its first
        # group in (slot, branch) order.
        free = {slot for slot, drew in moved.items() if drew == sizes[slot]}
        targets: list[int] = []
        drawn: list[int] = []
        sources = list(range(count))
        for (slot, branch), members in sorted(groups.items()):
            if slot in free:
                free.discard(slot)
                targets.append(slot)
            else:
                targets.append(len(sources))
                owner[members] = len(sources)
                sources.append(slot)
                sizes[slot] -= len(members)
                sizes.append(len(members))
            drawn.append(branch)
        if len(sources) > count:
            backend.gather_into(
                self.buffer[count : len(sources)], self.block, sources[count:]
            )
            self.count = len(sources)
        return targets, drawn, sources


class _Walk(NamedTuple):
    """What every chunk of one :meth:`TQSimEngine._run_tree` call shares."""

    plan: PartitionPlan
    noise: Sequence[_LayerNoise]
    #: ``pool[i]``: layer ``i``'s ``(min(hi - lo, cap), 2**n)`` buffer.
    pool: list[np.ndarray]
    counts: dict[str, int]
    cost: CostCounters
    tracer: AnyTracer
    #: ``windows[i]``: layer ``i``'s ``(lo, hi, booked)`` from
    #: :func:`frontier_windows`.
    windows: Sequence[tuple[int, int, int]]
    #: Whether nodes may share slots: the plan has gate noise.
    share: bool


def _child_keys_below(
    keys: np.ndarray, offset: int, count: int, arity: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat children ``[offset, offset + count)`` of the layer below a chunk
    whose row ``r`` is keyed ``keys[r]``; row ``r``'s child ``c`` is flat
    index ``r * arity + c``.  Returns each child's parent row and its key,
    derived in one vectorised hash."""
    rows, children = np.divmod(np.arange(offset, offset + count), arity)
    return rows, child_keys_multi(keys[rows], children)


def _chunk_labels(
    arities: Sequence[int], layer: int, first: int
) -> tuple[str, int]:
    """Span labels of a chunk: the path of its first row's parent, and that
    row's child index, decoded from the row's flat index ``first`` in
    ``layer``'s frontier; both labels are exact at cap 1."""
    digits = []
    for arity in reversed(arities[1 : layer + 1]):
        first, digit = divmod(first, arity)
        digits.append(digit)
    path = (first, *reversed(digits))
    return "/".join(str(node) for node in path[:-1]), path[-1]


class TQSimEngine:
    """Tree-based quantum circuit simulator (the paper's TQSim)."""

    def __init__(
        self,
        noise_model: NoiseModel | None = None,
        seed: int | np.random.SeedSequence | None = None,
        backend: str | Backend | None = None,
        max_batch: int | None = None,
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
            ``None`` — the default — resolves each run to
            :func:`default_chunk_cap` of the circuit's width, a chunk of
            :data:`DEFAULT_CHUNK_AMPLITUDES` amplitudes; the resolved cap
            is recorded under ``metadata["max_batch"]``.  Counts never
            depend on it.
        tracer:
            Observability hook (see :mod:`repro.obs`).  ``None`` — the
            default — defers to the process-wide tracer from
            :func:`repro.obs.get_tracer` at each ``run`` call, which is a
            no-op ``NullTracer`` unless one was installed.  Tracing is
            inert by contract: it never changes counts, counters or RNG
            draws (all clock reads live in :mod:`repro.obs.clock`).
        """
        if max_batch is not None and max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.noise_model = noise_model
        self.backend = get_backend(backend)
        self.max_batch = None if max_batch is None else int(max_batch)
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
        shard: tuple[int, int, int, int] | None = None,
    ) -> SimulationResult:
        """Simulate ``circuit`` with computation reuse.

        Parameters
        ----------
        circuit:
            The circuit to simulate.
        shots:
            Minimum number of measurement outcomes to produce.
        partitioner:
            Partitioning policy; defaults to the paper's DCP at its default
            state-copy cost (the partitioner owns that cost).
        plan:
            A pre-built plan (overrides ``partitioner``).
        shard:
            ``(run_key, layer, start, stop)``: run only nodes ``[start,
            stop)`` of layer ``layer``'s flattened frontier (row ``r``'s
            child ``c`` is flat index ``r * A_{i+1} + c``) and every subtree
            below them, in the run keyed ``run_key``, instead of advancing
            this engine's own run counter.  This is the sharding hook: the
            traversal runs the range's ancestors (see
            :func:`frontier_windows`) and then the range, with the same
            keys and chunks a full run uses, so the outcomes are bitwise
            the full run's for those subtrees and the counters of a
            partition's shards add up to the full run's.

        Returns
        -------
        SimulationResult
            ``result.shots`` records the outcomes actually produced (the
            plan's leaf count — or the shard's — which may over-shoot the
            request); the requested value is kept under
            ``metadata["requested_shots"]``.
        """
        if shots < 1:
            raise ValueError("shots must be >= 1")
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
        if shard is None:
            run_key = self._next_run_key()
            layer, start, stop = 0, 0, arities[0]
        else:
            run_key, layer, start, stop = shard
        windows = frontier_windows(arities, layer, start, stop)
        produced = (stop - start) * math.prod(arities[layer + 1 :])
        cap = self._chunk_cap(circuit.num_qubits)

        tracer = self.tracer if self.tracer is not None else get_tracer()
        counts: dict[str, int] = {}
        cost = CostCounters()
        began = clock.perf_seconds()
        with (
            tracer.span(
                "engine.run",
                tree=str(plan.tree),
                arities=[int(a) for a in arities],
                lengths=[int(length) for length in plan.subcircuit_lengths],
                backend=self.backend.name,
                qubits=circuit.num_qubits,
                chunk_cap=cap,
                # obs.drift compares only runs covering the whole tree.
                full_tree=(layer, start, stop) == (0, 0, arities[0]),
                layer=layer,
                start=start,
                stop=stop,
                shots=produced,
            )
            if tracer.enabled
            else NULL_SPAN
        ):
            noise = [self._match_noise(sub) for sub in plan.subcircuits]
            self._run_tree(
                circuit, plan, noise, counts, cost, run_key, windows, cap,
                tracer,
            )
        cost.wall_time_seconds = clock.perf_seconds() - began

        return SimulationResult(
            counts=counts,
            num_qubits=circuit.num_qubits,
            shots=produced,
            cost=cost,
            metadata=self._metadata(plan, shots, "tree-batched", cap),
        )

    def sample_leaves(
        self, state: np.ndarray, plan: PartitionPlan
    ) -> SimulationResult:
        """Sample every leaf of this engine's next run from one state.

        Without gate noise every leaf of ``plan``'s tree holds the
        circuit's final state, so a caller that has it needs no traversal.
        Each leaf is drawn with the traversal's own code: the run key of
        :meth:`run` (advancing the same run counter), its child-key step
        folded over the layers, and the backend's outcome lookup on the
        first uniforms of the leaf's stream (the outcome draw, then any
        readout flips).  So for the state :meth:`run` reaches, counts and
        ``leaf_samples`` equal ``run(circuit, shots, plan=plan)`` bitwise;
        no other counter moves and no span is opened.

        Raises ``ValueError`` when a gate of ``plan`` matches a noise event
        (readout error is allowed), when ``state`` is not one ``(2**n,)``
        state of the plan's width, or when its probabilities are not finite
        and positive.
        """
        if any(self._match_noise(sub).draws for sub in plan.subcircuits):
            raise ValueError(
                "sample_leaves needs a plan without gate noise, whose leaves "
                "all hold one final state"
            )
        num_qubits = plan.subcircuits[0].num_qubits
        if state.shape != (2**num_qubits,):
            raise ValueError(
                f"sample_leaves needs one ({2**num_qubits},) state, "
                f"not {state.shape}"
            )
        began = clock.perf_seconds()
        arities = plan.tree.arities
        keys = child_keys(self._next_run_key(), 0, arities[0])
        for arity in arities[1:]:
            keys = _child_keys_below(keys, 0, len(keys) * arity, arity)[1]
        readout = self.noise_model.readout_error if self.noise_model else None
        count = 1 if readout is None else 1 + num_qubits
        outcomes = self.backend.outcomes_from_uniforms(
            state, uniform_block(keys, np.zeros_like(keys), count), readout
        )
        values, tallies = np.unique(outcomes, return_counts=True)
        cost = CostCounters(
            leaf_samples=len(keys),
            wall_time_seconds=clock.perf_seconds() - began,
        )
        return SimulationResult(
            counts={
                index_to_bitstring(value, num_qubits): tally
                for value, tally in zip(values.tolist(), tallies.tolist())
            },
            num_qubits=num_qubits,
            shots=len(keys),
            cost=cost,
            metadata=self._metadata(
                plan, plan.total_outcomes, "sample-leaves",
                self._chunk_cap(num_qubits),
            ),
        )

    def _next_run_key(self) -> int:
        """The next run's key: advancing the run index keeps repeated runs
        independent under one fixed seed."""
        run_key = child_key(self._root_key, self._runs_started)
        self._runs_started += 1
        return run_key

    def _chunk_cap(self, num_qubits: int) -> int:
        """The chunk cap of a run at ``num_qubits``: ``max_batch``, or
        :func:`default_chunk_cap` when none was given."""
        if self.max_batch is None:
            return default_chunk_cap(num_qubits)
        return self.max_batch

    def _metadata(
        self, plan: PartitionPlan, shots: int, execution: str, cap: int
    ) -> dict:
        """The metadata of a result produced from ``plan`` at chunk cap
        ``cap``."""
        return {
            "simulator": "tqsim",
            "backend": self.backend.name,
            "execution": execution,
            "policy": plan.policy,
            "tree": str(plan.tree),
            "subcircuit_lengths": plan.subcircuit_lengths,
            "requested_shots": shots,
            "seeding": "path-keyed-counter-v2",
            "noise_model": self.noise_model.name if self.noise_model else "ideal",
            "max_batch": cap,
        }

    def _match_noise(self, subcircuit: Circuit) -> _LayerNoise:
        """Match every gate of one subcircuit to its noise events, once."""
        if self.noise_model is None:
            return _LayerNoise(
                [()] * len(subcircuit), 0, [False] * len(subcircuit), ()
            )
        events = [self.noise_model.events_for_gate(gate) for gate in subcircuit]
        flat = [event for matched in events for event in matched]
        columns: dict[KrausChannel, list[int]] = {}
        for column, event in enumerate(flat):
            if event.channel.is_mixed_unitary:
                columns.setdefault(event.channel, []).append(column)
        return _LayerNoise(
            events,
            len(flat),
            [any(e.channel.is_mixed_unitary for e in matched)
             for matched in events],
            [(channel, np.array(cols)) for channel, cols in columns.items()],
        )

    def _apply_subcircuit(
        self,
        slots: ChunkSlots,
        subcircuit: Circuit,
        noise: _LayerNoise,
        row_rngs: Sequence[PathStream],
        tracer: AnyTracer = NULL_TRACER,
    ) -> int:
        """Apply one subcircuit with freshly sampled trajectory noise to a
        chunk's slots; returns the rows its gate calls advanced.

        Node ``b`` of the chunk holds slot ``slots.owner[b]`` and streams
        from ``row_rngs[b]``.  Every noise event, mixed-unitary or general
        Kraus, consumes exactly one uniform per node, so the chunk's whole
        noise budget is pre-drawn in *one*
        :func:`~repro.core.pathrng.draw_block` call: the node counters
        advance in lockstep and column ``j`` of the block is bitwise the
        ``j``-th per-event draw of each node's stream.

        Gates run on the slots; the returned count is ``slots.count``
        summed over the gates.  At an event, the nodes of a slot that drew
        different branches are told apart by :meth:`ChunkSlots.split`
        before any slot is updated.  Mixed-unitary branches do not depend
        on the state, so every mixture column of the block is mapped to
        branches up front, in one pass per channel (:meth:`~repro.noise.
        channels.KrausChannel.mixture_hits`), keeping only the draws that
        apply an operator: an event with no such draw costs one dictionary
        lookup, and each drawn branch is applied in place on its slot
        (:meth:`~repro.backends.base.Backend.apply_mixture_branches`).
        General-Kraus events go through :meth:`~repro.backends.base.
        Backend.apply_slot_noise` with the slots, one call per gate whose
        events are all general Kraus: it prices each slot once, draws each
        node's branch from its slot's weights and applies each slot's
        branch.  A chunk whose nodes each hold their own slot passes no
        slots, which is the per-row step.
        """
        backend = self.backend
        nodes = len(row_rngs)
        # Kernel-level spans sit behind the tracer's sampling knob; the
        # common (disabled) case costs one attribute lookup per subcircuit.
        kernel_interval = tracer.kernel_interval
        uniforms = None
        hits: dict[int, tuple[list[int], list[int]]] = {}
        if noise.draws:
            with (
                tracer.span("engine.noise_predraw", rows=nodes,
                            draws=noise.draws)
                if tracer.enabled
                else NULL_SPAN
            ):
                uniforms = draw_block(row_rngs, noise.draws)
            hits = _mixture_hits(noise.mixtures, uniforms)
        # A chunk whose nodes each hold their own slot runs the per-row step.
        shared = None if slots.owner is None else slots
        kernel_rows = 0
        column = 0
        block = slots.block
        for gate, events, mixed in zip(subcircuit, noise.events, noise.mixed):
            kernel_rows += len(block)
            if kernel_interval:
                with tracer.kernel_span(
                    "backend.kernel", gate=gate.name, rows=len(block)
                ):
                    out = backend.apply_gate(block, gate)
            else:
                out = backend.apply_gate(block, gate)
            if out is not block:
                # Out-of-place backends: the slots live in the pooled buffer.
                np.copyto(block, out)
            if not mixed:
                if events:
                    width = len(events)
                    block = backend.apply_slot_noise(
                        block, events, uniforms[:, column : column + width],
                        shared,
                    )
                    column += width
                continue
            for event in events:
                if event.channel.is_mixed_unitary:
                    drawn = hits.get(column)
                    if drawn is not None:
                        targets, branches, _ = slots.split(backend, *drawn)
                        block = slots.block
                        backend.apply_mixture_branches(
                            block, event, targets, branches
                        )
                else:
                    block = backend.apply_slot_noise(
                        block, (event,), uniforms[:, column : column + 1],
                        shared,
                    )
                column += 1
        return kernel_rows

    # ------------------------------------------------------------------
    def _run_tree(
        self,
        circuit: Circuit,
        plan: PartitionPlan,
        noise: Sequence[_LayerNoise],
        counts: dict[str, int],
        cost: CostCounters,
        run_key: int,
        windows: Sequence[tuple[int, int, int]],
        cap: int,
        tracer: AnyTracer = NULL_TRACER,
    ) -> None:
        """Depth-first traversal over frontier chunks of at most ``cap``
        nodes.

        Runs layer ``i``'s nodes ``[lo, hi)`` of ``windows[i]`` (every node
        for a full run).  The nodes of layer ``i`` below the live
        layer-``i-1`` chunk are that chunk's flattened children — node
        ``r``'s child ``c`` is flat index ``r * A_i + c`` — clamped to the
        layer's window, and each chunk takes the next at most ``cap`` of
        them, so one chunk spans the children of several parents and layer
        ``i`` runs about ``ceil((hi - lo) / cap)`` chunks.  ``pool[i]`` is a
        ``(min(hi - lo, cap), 2**n)`` buffer.  A chunk holds its distinct
        states, its *slots*, in the first rows of its layer's buffer
        (:class:`ChunkSlots`): a layer-0 chunk starts as one slot reset to
        |0...0>, a child chunk gathers each distinct parent slot once, and
        noise events split slots (:meth:`ChunkSlots.split`).  A chunk runs one
        batched kernel call per gate on its slots; leaf chunks sample all
        their outcomes in one batched call, and interior chunks run all
        their children (:meth:`_run_chunk` recurses once per layer) before
        the next chunk overwrites the buffer.  Plans without gate noise keep
        one slot per node.

        Random streams: every node of a chunk has its own
        :class:`~repro.core.pathrng.PathStream` (``child_keys(run_key,
        j)`` at layer 0, :func:`~repro.core.pathrng.child_keys_multi`
        below), so a chunk draws all nodes' uniforms in one block while the
        operator application stays vectorised.  Draws therefore depend only
        on a node's path — never on the chunk cap, how nodes were grouped
        into chunks or which nodes share a slot — which is what makes both
        the chunking and any sharding of the tree bitwise reproducible.
        """
        pool = [
            self.backend.allocate_batch(circuit.num_qubits, min(hi - lo, cap))
            for lo, hi, _ in windows
        ]
        # The predicate of ``sample_leaves``: without gate noise every node
        # keeps its own slot.
        share = any(layer.draws for layer in noise)
        walk = _Walk(plan, noise, pool, counts, cost, tracer, windows, share)
        lo, hi, _ = windows[0]
        for first in range(lo, hi, cap):
            nodes = min(cap, hi - first)
            slots = (
                ChunkSlots(pool[0], np.zeros(nodes, dtype=np.intp), 1)
                if share and nodes > 1
                else ChunkSlots(pool[0], None, nodes)
            )
            # Layer-0 chunks start from |0...0> like the baseline; resets are
            # not reuse copies.
            self.backend.reset_state(slots.block)
            self._run_chunk(
                walk, 0, slots, child_keys(run_key, first, nodes), first
            )

    def _run_chunk(
        self,
        walk: _Walk,
        layer: int,
        slots: ChunkSlots,
        keys: np.ndarray,
        first: int,
    ) -> None:
        """Apply subcircuit ``layer`` to one loaded chunk, then sample its
        leaves or run its children.  Node ``b`` is keyed ``keys[b]``, and
        ``first`` is node 0's flat index in the layer's frontier."""
        tracer = walk.tracer
        plan = walk.plan
        nodes = len(keys)
        path, first_child = (
            _chunk_labels(plan.tree.arities, layer, first)
            if tracer.enabled
            else ("", 0)
        )
        row_rngs = [PathStream(key) for key in keys.tolist()]
        with (
            tracer.span(
                "engine.subcircuit", path=path, layer=layer,
                gates=len(plan.subcircuits[layer]), rows=nodes,
                first_child=first_child,
            )
            if tracer.enabled
            else NULL_SPAN
        ) as span:
            kernel_rows = self._apply_subcircuit(
                slots, plan.subcircuits[layer], walk.noise[layer], row_rngs,
                tracer,
            )
            span.set(kernel_rows=kernel_rows)
        # Nodes before the window's ``booked`` node are ancestors another
        # shard accounts (at most one node per layer).
        booked = first + nodes - max(first, walk.windows[layer][2])
        cost = walk.cost
        cost.gate_applications += len(plan.subcircuits[layer]) * booked
        cost.noise_applications += walk.noise[layer].draws * booked
        if layer:
            cost.state_copies += booked
        if layer + 1 == plan.tree.num_subcircuits:
            readout = self.noise_model.readout_error if self.noise_model else None
            with (
                tracer.span("engine.leaf_sample", path=path, rows=nodes)
                if tracer.enabled
                else NULL_SPAN
            ):
                outcomes = self.backend.sample_slot_outcomes(
                    slots.block, row_rngs, readout, slots.owner
                )
            for bitstring in outcomes:
                walk.counts[bitstring] = walk.counts.get(bitstring, 0) + 1
            cost.leaf_samples += nodes
            return
        # The children run in frontier chunks: one row gather copies each
        # distinct parent slot in once, and one vectorised hash derives the
        # chunk's keys.
        layer += 1
        arity = plan.tree.arities[layer]
        buffer = walk.pool[layer]
        lo, hi, _ = walk.windows[layer]
        base = first * arity
        begin, end = max(base, lo), min(base + nodes * arity, hi)
        for child_first in range(begin, end, len(buffer)):
            rows, chunk_keys = _child_keys_below(
                keys, child_first - base, min(len(buffer), end - child_first),
                arity,
            )
            parents = rows if slots.owner is None else slots.owner[rows]
            owner = None
            if walk.share and len(rows) > 1:
                distinct, inverse = np.unique(parents, return_inverse=True)
                if len(distinct) < len(rows):
                    parents, owner = distinct, inverse
            with (
                tracer.span(
                    "engine.copy", layer=layer, rows=len(rows),
                    path=_chunk_labels(plan.tree.arities, layer, child_first)[0],
                )
                if tracer.enabled
                else NULL_SPAN
            ):
                self.backend.gather_into(
                    buffer[: len(parents)], slots.block, parents
                )
            self._run_chunk(
                walk, layer, ChunkSlots(buffer, owner, len(parents)), chunk_keys,
                child_first,
            )
