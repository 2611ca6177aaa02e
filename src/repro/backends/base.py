"""The :class:`Backend` abstraction every simulator executes on.

A backend owns the numerics of statevector simulation: allocating and copying
state buffers, applying unitaries and sampled noise, and drawing measurement
outcomes.  The TQSim engine, the per-shot baseline and the ideal statevector
simulator are all written against this interface, which is what makes the
paper's central claim — that tree-based trajectory reuse is backend
independent — testable: any registered backend can be swapped in via
:func:`repro.backends.get_backend`.

Mutation contract
-----------------
``apply_unitary`` / ``apply_gate`` / ``apply_noise`` *may* transform the state
in place and always return the array holding the result; callers must use the
returned array and must not assume the input was left intact.  The reference
:class:`~repro.backends.numpy_backend.NumpyBackend` is purely functional while
:class:`~repro.backends.optimized.OptimizedNumpyBackend` works in place, and
both honour this contract.

Batch axis
----------
Every state method also accepts a ``(B, 2**n)`` block whose rows are
independent trajectories — the frontier chunks of the engine's tree
traversal.  :meth:`Backend.allocate_batch` stores a block *row-inner*: it
is the transpose of a C-contiguous ``(2**n, B)`` buffer, so the ``B``
values of one amplitude index sit next to each other in memory while the
block keeps its ``(B, 2**n)`` shape and indexing.  The kernels of the
optimized backend view any state amplitude-major with the rows innermost,
so a gate on any target qubit runs inner loops over the whole chunk;
C-ordered blocks (fancy-indexed rows, user arrays) go through the same view
and give bitwise the same rows.  The reference backend loops over rows.
The batch helpers below (branch sampling, general-Kraus updates, outcome
sampling) are written once against ``apply_unitary`` on such blocks, so
every backend shares one implementation.  A general-Kraus update prices
every row's branches from the channel's effect operators ``K_i†K_i``
without applying any operator, then applies only the operators the rows
drew: the most-drawn one to the whole block in place, a diagonal one as a
multiply with no kernel call.  1-D single-state calls keep their scalar
paths.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.circuits.gate import Gate
from repro.noise.channels import KrausChannel, ReadoutError
from repro.noise.model import NoiseEvent, NoiseModel
from repro.statevector.apply import local_indices
from repro.statevector.sampling import (
    index_to_bitstring,
    inverse_cdf_index,
    inverse_cdf_rows,
)

if TYPE_CHECKING:
    from repro.core.pathrng import UniformStream

    #: Anything a backend may draw uniforms from: a numpy ``Generator`` (the
    #: baseline simulators) or a path-keyed counter stream (the engine's
    #: seeding contract).  Runtime code never imports this — annotations are
    #: strings under ``from __future__ import annotations`` — so the
    #: backends package stays import-cycle free.
    RandomStream = np.random.Generator | UniformStream

__all__ = ["Backend"]


class Backend(ABC):
    """Abstract execution backend for statevector simulation."""

    #: Registry key of the backend (subclasses override).
    name: str = "abstract"

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def allocate_state(self, num_qubits: int) -> np.ndarray:
        """Allocate an *uninitialised* state buffer (for buffer pools)."""
        return np.empty(2**num_qubits, dtype=complex)

    def allocate_batch(self, num_qubits: int, rows: int) -> np.ndarray:
        """Allocate an uninitialised ``(rows, 2**n)`` block of statevectors.

        The block is row-inner: the transpose of a C-contiguous
        ``(2**n, rows)`` buffer, so ``strides[0]`` is one item and a kernel
        that views it amplitude-major loops over all rows at once.  This is
        the one place that decides the layout of a trajectory block.
        """
        if rows < 1:
            raise ValueError("rows must be >= 1")
        return np.empty((2**num_qubits, rows), dtype=complex).T

    def initial_state(self, num_qubits: int) -> np.ndarray:
        """Allocate |0...0>."""
        return self.reset_state(self.allocate_state(num_qubits))

    def reset_state(self, state: np.ndarray) -> np.ndarray:
        """Overwrite ``state`` (every row of a block) with |0...0> in place."""
        state.fill(0.0)
        state[..., 0] = 1.0
        return state

    def copy_state(self, state: np.ndarray) -> np.ndarray:
        """Deep copy of a statevector (the operation TQSim pays for reuse)."""
        return state.copy()

    def broadcast_into(self, batch: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Copy one statevector into every row of a ``(B, 2**n)`` batch.

        The engine's reuse copy into a deep shard's entry chunk: the
        replayed prefix state fans out to ``B`` trajectories in one write.
        Each row is a full copy, so callers account ``B`` state copies.
        On a row-inner batch each amplitude is written to ``B`` adjacent
        slots; ``batch`` may have any layout.
        """
        np.copyto(batch, state.reshape(1, -1) if state.ndim == 1 else state)
        return batch

    def gather_into(
        self, batch: np.ndarray, parents: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Copy row ``rows[k]`` of ``parents`` into row ``k`` of ``batch``.

        The reuse copy of a frontier chunk whose rows span the children of
        several parents; callers account ``len(rows)`` state copies.  The
        gather runs along the rows of the amplitude-major transposes, which
        is a gather of adjacent items for row-inner blocks and works for any
        other layout.
        """
        # "clip" writes straight into a C-contiguous ``out`` (a whole
        # row-inner block); the default "raise" mode buffers the whole
        # gather first.  The rows are in range anyway.
        np.take(parents.T, rows, axis=1, out=batch.T, mode="clip")
        return batch

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    @abstractmethod
    def apply_unitary(
        self, state: np.ndarray, matrix: np.ndarray, targets: Sequence[int]
    ) -> np.ndarray:
        """Apply a ``2**k x 2**k`` matrix to the target qubits of ``state``.

        Returns the array holding the result (see the mutation contract in
        the module docstring).  The matrix is not required to be unitary —
        Kraus operators are applied through the same kernels.
        """

    def apply_gate(self, state: np.ndarray, gate: Gate) -> np.ndarray:
        """Apply one ideal gate."""
        return self.apply_unitary(state, gate.to_matrix(), gate.qubits)

    def apply_noise(
        self,
        state: np.ndarray,
        gate: Gate,
        noise_model: NoiseModel,
        rng: RandomStream,
    ) -> np.ndarray:
        """Sample and apply the noise events attached to ``gate``."""
        return self.apply_noise_events(
            state, noise_model.events_for_gate(gate), rng
        )

    def apply_noise_events(
        self,
        state: np.ndarray,
        events: Sequence[NoiseEvent],
        rng: RandomStream,
    ) -> np.ndarray:
        """Sample and apply already-matched noise events.

        Engines that need the event list anyway (for cost accounting) call
        this directly so ``events_for_gate`` matching runs once per gate.
        The rows of a ``(B, 2**n)`` block share ``rng``: each event draws
        one uniform per row, in row order.
        """
        if state.ndim == 2:
            uniforms = np.asarray(rng.random((len(events), state.shape[0])))
            return self.apply_noise_events_uniforms(state, events, uniforms.T)
        from repro.noise.trajectory import apply_noise_events

        return apply_noise_events(state, events, rng, backend=self)

    def apply_noise_events_multi(
        self,
        state: np.ndarray,
        events: Sequence[NoiseEvent],
        rngs: Sequence[RandomStream],
    ) -> np.ndarray:
        """Apply noise events to a batch where row ``i`` draws from ``rngs[i]``.

        Per-row independent streams are what make sharded execution bitwise
        reproducible: a trajectory's noise depends only on its own stream —
        a :class:`numpy.random.Generator` or a path-keyed
        :class:`~repro.core.pathrng.PathStream` — never on how trajectories
        were grouped into batches.  Every event consumes exactly one uniform
        per row, so this draws one per event and hands them to
        :meth:`apply_noise_events_uniforms`.
        """
        _check_rows(state, rngs)
        return self.apply_noise_events_uniforms(
            state, events, _row_uniforms(rngs, len(events))
        )

    def apply_noise_events_uniforms(
        self,
        state: np.ndarray,
        events: Sequence[NoiseEvent],
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """Apply noise events from pre-drawn per-row uniforms.

        ``uniforms`` is a ``(B, len(events))`` block whose column ``j``
        holds each row's uniform for ``events[j]``.  Mixed-unitary events map
        it to a mixture branch and apply each branch to the rows that drew
        it; general Kraus events price each row's branches from the
        channel's effect operators and apply only the drawn operators
        (:meth:`_apply_kraus_from_uniforms`).  Either way the branch is the
        one the per-state path (:func:`~repro.noise.trajectory.
        sample_channel_on_state`) picks from the same uniform, which is
        what lets the engine pre-draw a whole subcircuit's noise in one
        :func:`~repro.core.pathrng.draw_block` call.
        """
        batched = state if state.ndim == 2 else state.reshape(1, -1)
        if uniforms.shape != (batched.shape[0], len(events)):
            raise ValueError("uniforms must be one column per event, "
                             "one row per trajectory")
        for j, event in enumerate(events):
            channel = event.channel
            if channel.is_mixed_unitary:
                indices = channel.mixture_indices_from_uniforms(uniforms[:, j])
                # sorted(set(...)) beats np.unique at chunk sizes and keeps
                # branch order deterministic.
                for branch in sorted(set(indices.tolist())):
                    if branch == 0 and channel.mixture_identity_first:
                        continue
                    self._apply_to_rows(
                        batched, channel.mixture_unitary(branch),
                        event.qubits, indices == branch,
                    )
            else:
                self._apply_kraus_from_uniforms(batched, event, uniforms[:, j])
        return state

    def _apply_to_rows(
        self,
        batched: np.ndarray,
        matrix: np.ndarray,
        qubits: Sequence[int],
        mask: np.ndarray,
    ) -> None:
        """Apply ``matrix`` to the rows of ``batched`` selected by ``mask``."""
        if mask.all():
            out = self.apply_unitary(batched, matrix, qubits)
            if out is not batched:
                np.copyto(batched, out)
        else:
            rows = np.flatnonzero(mask)
            # Fancy indexing copies the rows out and back.
            batched[rows] = self.apply_unitary(batched[rows], matrix, qubits)

    def _apply_kraus_from_uniforms(
        self, batched: np.ndarray, event: NoiseEvent, uniforms: np.ndarray
    ) -> np.ndarray:
        """One quantum-trajectory step of a general Kraus channel per row.

        Row ``b``'s branch weights ``||K_i psi_b||^2 = <psi_b|E_i|psi_b>``
        come from the channel's effect operators ``E_i = K_i†K_i`` in one
        read of the block, and an inverse-CDF lookup of ``uniforms[b]``
        picks its branch (:meth:`~repro.noise.channels.KrausChannel.
        sample_branches`); a row whose weights are not finite and positive
        raises before ``batched`` is written.  The most-drawn branch is then
        applied to the whole block in place and every other branch only to
        the rows that drew it, copied out before that write.  Each row ends
        as ``K_i psi_b / sqrt(w_bi)``, computed row by row the same way
        whichever rows share its block.  Returns the branch index of every
        row.
        """
        channel = event.channel
        weights, indices = channel.sample_branches(
            batched, event.qubits, uniforms
        )
        chosen = weights[np.arange(len(indices)), indices]
        scales = (1.0 / np.sqrt(chosen))[:, None]
        counts = np.bincount(indices)
        major = int(counts.argmax())
        # The rows of every other drawn branch are copied out before the
        # in-place write below.
        others: list[tuple[int, np.ndarray, np.ndarray]] = []
        for branch in np.flatnonzero(counts).tolist():
            if branch != major:
                rows = np.flatnonzero(indices == branch)
                others.append((branch, rows, batched[rows]))
        out = self._apply_branch(batched, channel, major, event.qubits, scales)
        if out is not batched:
            np.copyto(batched, out)
        for branch, rows, saved in others:
            batched[rows] = self._apply_branch(
                saved, channel, branch, event.qubits, scales[rows]
            )
        return indices

    def _apply_branch(
        self,
        block: np.ndarray,
        channel: KrausChannel,
        branch: int,
        qubits: Sequence[int],
        scales: np.ndarray,
    ) -> np.ndarray:
        """Apply Kraus operator ``branch`` to ``block``, row ``b`` scaled by
        ``scales[b]`` (a ``(B, 1)`` column).

        A diagonal operator is one in-place multiply of the block by each
        row's scaled diagonal, spread over the row by local index into an
        amplitude-major factor table (the layout of an allocated block);
        any other goes through :meth:`apply_unitary`.  Returns the array
        holding the result.
        """
        diagonal = channel.operator_diagonals[branch]
        if diagonal is None:
            out = self.apply_unitary(
                block, channel.kraus_operators[branch], qubits
            )
            out *= scales
            return out
        local = local_indices(tuple(qubits), _num_qubits(block))
        block *= np.take(diagonal[:, None] * scales.T, local, axis=0).T
        return block

    def sample_outcomes(
        self,
        state: np.ndarray,
        rng: RandomStream,
        readout_error: ReadoutError | None = None,
    ) -> list[str]:
        """Sample one outcome per row, every row drawing from ``rng``.

        The outcome uniforms of all rows come first, then the readout flips
        row by row.
        """
        batched = state if state.ndim == 2 else state.reshape(1, -1)
        draws = np.asarray(rng.random(batched.shape[0]))
        flips = (
            None
            if readout_error is None
            else np.asarray(rng.random((batched.shape[0], _num_qubits(batched))))
        )
        return self._outcomes_from_uniforms(batched, draws, readout_error,
                                            flips)

    def sample_outcomes_multi(
        self,
        state: np.ndarray,
        rngs: Sequence[RandomStream],
        readout_error: ReadoutError | None = None,
    ) -> list[str]:
        """Sample one outcome per batch row, row ``i`` drawing from ``rngs[i]``.

        Row ``i`` consumes ``rngs[i]`` exactly as :meth:`sample_outcome` would
        on a single state — one uniform for the outcome, then the readout
        flips — so results are independent of batch grouping.
        """
        batched = _check_rows(state, rngs)
        if len(rngs) == 1:
            # The scalar sampler consumes the same uniforms, with fewer calls.
            return [self.sample_outcome(batched[0], rngs[0], readout_error)]
        count = 1 if readout_error is None else 1 + _num_qubits(batched)
        uniforms = _row_uniforms(rngs, count)
        return self._outcomes_from_uniforms(
            batched, uniforms[:, 0], readout_error, uniforms[:, 1:]
        )

    def _outcomes_from_uniforms(
        self,
        batched: np.ndarray,
        draws: np.ndarray,
        readout_error: ReadoutError | None,
        flips: np.ndarray | None,
    ) -> list[str]:
        """Vectorised inverse-CDF pass over pre-drawn uniforms.

        :func:`~repro.statevector.sampling.inverse_cdf_rows` draws, per
        row, the outcome :meth:`sample_outcome` draws from the same
        uniform, and rejects rows whose probabilities are not finite and
        positive.
        """
        outcomes = inverse_cdf_rows(
            self.probabilities(batched).cumsum(axis=1), draws
        )
        num_qubits = _num_qubits(batched)
        if readout_error is not None and flips is not None:
            outcomes = self._readout_flips_from_uniforms(
                outcomes, num_qubits, readout_error, flips
            )
        return [index_to_bitstring(int(o), num_qubits) for o in outcomes]

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def probabilities(self, state: np.ndarray) -> np.ndarray:
        """Born-rule probabilities of ``state`` (not normalised)."""
        return np.square(state.real) + np.square(state.imag)

    def sample_outcome(
        self,
        state: np.ndarray,
        rng: RandomStream,
        readout_error: ReadoutError | None = None,
    ) -> str:
        """Sample one measurement outcome, including optional readout error.

        Uses an inverse-CDF draw (``cumsum`` + ``searchsorted``) instead of
        ``rng.choice(p=...)``, and vectorised per-bit readout flips.  This is
        the single shared implementation behind every trajectory simulator.
        A block of one row is sampled as that row; larger blocks need
        :meth:`sample_outcomes`.
        """
        if state.ndim == 2:
            if state.shape[0] != 1:
                raise ValueError("sample_outcome on a batched state is "
                                 "ambiguous; use sample_outcomes")
            state = state[0]
        cumulative = np.cumsum(self.probabilities(state))
        outcome = inverse_cdf_index(cumulative, rng)
        num_qubits = int(cumulative.size).bit_length() - 1
        if readout_error is not None:
            outcome = int(
                self._apply_readout_flips(
                    np.array([outcome]), num_qubits, readout_error, rng
                )[0]
            )
        return index_to_bitstring(outcome, num_qubits)

    @staticmethod
    def _readout_flips_from_uniforms(
        outcomes: np.ndarray,
        num_qubits: int,
        readout_error: ReadoutError,
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """Flip each measured bit of each outcome given pre-drawn uniforms.

        ``uniforms`` is ``(outcomes.size, num_qubits)``, row ``i`` holding
        outcome ``i``'s per-bit draws in bit order.  Splitting the draw from
        the flip lets batched callers supply one vectorised block of
        uniforms for many per-row streams while remaining bitwise identical
        to the per-outcome path.
        """
        positions = np.arange(num_qubits)
        bits = (outcomes[:, None] >> positions[None, :]) & 1
        flip_probability = np.where(
            bits == 1, readout_error.p0_given_1, readout_error.p1_given_0
        )
        bits ^= uniforms < flip_probability
        return bits @ (1 << positions)

    @staticmethod
    def _apply_readout_flips(
        outcomes: np.ndarray,
        num_qubits: int,
        readout_error: ReadoutError,
        rng: RandomStream,
    ) -> np.ndarray:
        """Flip each measured bit of each outcome index with its error rate.

        Vectorised over a batch of outcome indices — the single readout
        implementation behind both per-shot and batched sampling, consuming
        ``num_qubits`` uniforms per outcome in outcome order.
        """
        return Backend._readout_flips_from_uniforms(
            outcomes,
            num_qubits,
            readout_error,
            rng.random((outcomes.size, num_qubits)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def _num_qubits(batched: np.ndarray) -> int:
    return int(batched.shape[-1]).bit_length() - 1


def _check_rows(state: np.ndarray, rngs: Sequence[RandomStream]) -> np.ndarray:
    """``state`` as a block, checked to hold one row per stream."""
    batched = state if state.ndim == 2 else state.reshape(1, -1)
    if batched.shape[0] != len(rngs):
        raise ValueError("need exactly one generator per batch row")
    return batched


def _row_uniforms(rngs: Sequence[RandomStream], count: int) -> np.ndarray:
    """The next ``count`` uniforms of every row's stream, as ``(B, count)``.

    Path-keyed streams draw the whole block in one vectorised call; other
    generators draw row by row.  Both advance each stream by ``count``.
    """
    from repro.core.pathrng import all_path_streams, draw_block

    if all_path_streams(rngs):
        return draw_block(rngs, count)  # type: ignore[arg-type]
    return np.array([rng.random(count) for rng in rngs]).reshape(
        len(rngs), count
    )
