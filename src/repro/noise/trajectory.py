"""Monte-Carlo wave-function (quantum trajectory) noise sampling.

Each noisy *shot* evolves a pure state: after every gate the attached error
channels are sampled.  Mixed-unitary channels (Pauli / depolarizing) use the
state-independent fast path: the branch comes from the probabilities alone
and is applied as a phased permutation
(:meth:`~repro.noise.channels.KrausChannel.apply_mixture_branch`), the same
row primitive the backends' block step and the realization replay use.
General Kraus channels sample the operator index with probability
``||K_i |psi>||^2`` and renormalise — the standard quantum trajectories
method (Dalibard et al. 1992; Mølmer & Castin 1996) that the paper relies
on.  The weights come from the channel's effect operators,
``||K_i |psi>||^2 = <psi|K_i†K_i|psi>``, so only the drawn operator is
applied; the backend's block step uses the same weights and lookup.

Every simulator samples trajectory noise through the backends' block step
(:meth:`~repro.backends.base.Backend.apply_noise_events_uniforms`, and
:meth:`~repro.backends.base.Backend.apply_mixture_branches` for the
mixture draws the engine maps up front) on pre-drawn path-keyed uniforms.
:func:`sample_channel_on_state` is the per-state reference of that step:
from the same uniform it picks the same branch, which is what the block
step is tested against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.circuits.gate import Gate
from repro.noise.channels import KrausChannel
from repro.noise.model import NoiseModel
from repro.statevector.apply import apply_unitary

if TYPE_CHECKING:
    from repro.core.pathrng import UniformStream

__all__ = [
    "sample_channel_on_state",
    "NoiseRealization",
    "sample_noise_realization",
    "apply_noise_realization_event",
]


def sample_channel_on_state(
    state: np.ndarray,
    channel: KrausChannel,
    qubits: tuple[int, ...],
    rng: UniformStream,
    backend=None,
) -> tuple[np.ndarray, int]:
    """Sample one Kraus branch of ``channel`` and apply it to ``state``.

    Returns the new statevector and the index of the sampled operator (the
    mixture index for mixed-unitary channels, the Kraus index otherwise).

    A mixture branch is applied as a phased permutation
    (:meth:`~repro.noise.channels.KrausChannel.apply_mixture_branch`, the
    backends' block step applies the same one to each row); a general Kraus
    operator goes through the backend's kernels.  When a
    :class:`~repro.backends.base.Backend` is supplied, the backend's mutation
    contract applies (``state`` may be transformed in place).  Without one,
    the application is purely functional.
    """
    if channel.is_mixed_unitary:
        index = channel.sample_mixture_index(rng)
        if index == 0 and channel.mixture_identity_first:
            return state, index
        if backend is None:
            state = np.array(state, dtype=complex)
        channel.apply_mixture_branch(state, index, qubits)
        return state, index

    # General Kraus channel: the effect operators price every branch from
    # the state itself, with the block step's weight helper and lookup, so
    # only the drawn operator is applied.
    weights, indices = channel.sample_branches(
        state.reshape(1, -1), qubits, rng.random()
    )
    index = int(indices[0])
    operator = channel.kraus_operators[index]
    if backend is None:
        chosen = apply_unitary(state, operator, qubits)
    else:
        chosen = backend.apply_unitary(state, operator, qubits)
    chosen *= 1.0 / np.sqrt(weights[0, index])
    return chosen, index


class NoiseRealization:
    """A concrete draw of noise-operator choices for one shot of a circuit.

    The realization records, for every (gate index, event index), which
    mixture/Kraus branch was selected.  It is what the redundancy-elimination
    comparator (:mod:`repro.redunelim`) deduplicates across shots, and it lets
    tests replay a trajectory deterministically.

    ``identity_first`` records, position by position, whether the sampled
    channel's mixture branch 0 is the identity.  Branch 0 of a mixture is
    *not* guaranteed to be the identity operator (only channels constructed
    identity-first have that property), so replay and identity checks must
    not treat a 0 entry as "no error" unconditionally.
    """

    __slots__ = ("choices", "identity_first")

    def __init__(
        self,
        choices: list[list[int]],
        identity_first: list[list[bool]] | None = None,
    ) -> None:
        self.choices = choices
        self.identity_first = identity_first

    def __len__(self) -> int:
        return len(self.choices)

    def branch(self, gate_index: int, event_index: int) -> int:
        """The branch chosen for the given gate/event position."""
        return self.choices[gate_index][event_index]

    def prefix_key(self, num_gates: int) -> tuple:
        """Hashable key of the realization restricted to the first gates."""
        return tuple(tuple(row) for row in self.choices[:num_gates])

    def is_identity(self) -> bool:
        """True when no non-trivial operator was chosen anywhere.

        A branch-0 entry only counts as trivial when that channel's first
        mixture operator is the identity; realizations sampled without the
        ``identity_first`` record fall back to the branch-0 convention.
        """
        if self.identity_first is None:
            return all(branch == 0 for row in self.choices for branch in row)
        return all(
            branch == 0 and first_is_identity
            for row, flags in zip(self.choices, self.identity_first)
            for branch, first_is_identity in zip(row, flags)
        )


def sample_noise_realization(
    circuit, noise_model: NoiseModel, rng: np.random.Generator
) -> NoiseRealization:
    """Pre-sample the mixture branches of every *mixed-unitary* noise event.

    Only valid for noise models whose channels are all mixtures of unitaries
    (branch probabilities do not depend on the state); general Kraus channels
    raise, because their branch statistics cannot be drawn ahead of time.
    """
    choices: list[list[int]] = []
    identity_first: list[list[bool]] = []
    for gate in circuit:
        row: list[int] = []
        flags: list[bool] = []
        for event in noise_model.events_for_gate(gate):
            probabilities, _ = event.channel.mixture()
            row.append(int(rng.choice(len(probabilities), p=probabilities)))
            flags.append(event.channel.mixture_identity_first)
        choices.append(row)
        identity_first.append(flags)
    return NoiseRealization(choices, identity_first)


def apply_noise_realization_event(
    state: np.ndarray,
    gate: Gate,
    noise_model: NoiseModel,
    realization: NoiseRealization,
    gate_index: int,
) -> np.ndarray:
    """Apply the pre-sampled branches for one gate of a realization.

    Returns a new array; ``state`` is left intact.
    """
    state = np.array(state, dtype=complex)
    for event_index, event in enumerate(noise_model.events_for_gate(gate)):
        branch = realization.branch(gate_index, event_index)
        # Branch 0 is only a no-op for channels whose first mixture operator
        # is the identity; other mixtures carry a real operator at index 0.
        if branch == 0 and event.channel.mixture_identity_first:
            continue
        event.channel.apply_mixture_branch(state, branch, event.qubits)
    return state
