"""Quantum error channels in Kraus form.

Every channel used by the paper's evaluation (Section 4.3) is implemented:

* depolarizing (single- and two-qubit),
* general Pauli channels,
* amplitude damping,
* phase damping,
* thermal relaxation (built from T1, T2 and the gate time),
* readout error (a classical bit-flip channel applied to measured bits).

Channels expose their Kraus operators, and, when the channel is a
probabilistic mixture of unitaries, the (probability, unitary) decomposition
that the trajectory sampler can use as a fast path.  Every channel also
holds its *effect operators* ``E_i = K_i† K_i``, whose expectation value on a
state is the weight of Kraus branch ``i``: the trajectory samplers price all
branches from them and apply only the operator a trajectory draws.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from repro.circuits import stdgates
from repro.statevector.apply import local_indices
from repro.statevector.sampling import inverse_cdf_index, inverse_cdf_rows

__all__ = [
    "KrausChannel",
    "PauliChannel",
    "DepolarizingChannel",
    "AmplitudeDampingChannel",
    "PhaseDampingChannel",
    "ThermalRelaxationChannel",
    "ReadoutError",
    "compose_channels",
]


class KrausChannel:
    """A completely-positive trace-preserving map given by Kraus operators.

    Parameters
    ----------
    kraus_operators:
        Sequence of ``2**k x 2**k`` matrices with ``sum_i K_i† K_i = I``.
    name:
        Human-readable channel name.
    error_probability:
        Best-effort scalar "error rate" of the channel, used by the DCP
        partitioner (paper Eq. 4).  When omitted, it defaults to
        ``1 - |tr(K_0)/d|^2`` clipped to ``[0, 1]`` — the probability that the
        dominant (closest-to-identity) Kraus operator is *not* applied to a
        maximally mixed input, which reduces to the usual error probability
        for mixed-unitary channels whose first operator is the identity.
    """

    def __init__(
        self,
        kraus_operators: Sequence[np.ndarray],
        name: str = "kraus",
        error_probability: float | None = None,
        mixture: tuple[np.ndarray, Sequence[np.ndarray]] | None = None,
    ) -> None:
        operators = [np.asarray(k, dtype=complex) for k in kraus_operators]
        if not operators:
            raise ValueError("a channel needs at least one Kraus operator")
        dim = operators[0].shape[0]
        num_qubits = int(dim).bit_length() - 1
        if 2**num_qubits != dim:
            raise ValueError("Kraus operators must have power-of-two dimension")
        for operator in operators:
            if operator.shape != (dim, dim):
                raise ValueError("all Kraus operators must share the same shape")
        stack = np.array(operators)
        effects = stack.conj().transpose(0, 2, 1) @ stack
        if not np.allclose(effects.sum(axis=0), np.eye(dim), atol=1e-8):
            raise ValueError("Kraus operators do not satisfy sum K†K = I")
        off_diagonal = ~np.eye(dim, dtype=bool)
        self._kraus = operators
        self._effects = effects
        # Diagonal effects (every damping channel and their products) weigh
        # a branch as a sum of basis probabilities; see branch_weights.
        self._effect_diagonals: np.ndarray | None = (
            None
            if effects[:, off_diagonal].any()
            else np.ascontiguousarray(effects.diagonal(axis1=1, axis2=2).real)
        )
        # A diagonal operator is applied as one multiply, with no kernel call.
        is_diagonal = ~stack[:, off_diagonal].any(axis=1)
        self._operator_diagonals = tuple(
            diagonal if flag else None
            for diagonal, flag in zip(
                stack.diagonal(axis1=1, axis2=2), is_diagonal.tolist()
            )
        )
        self.name = name
        self.num_qubits = num_qubits
        self._mixture = mixture
        # Lazily built sampling caches (see sample_mixture_index).
        self._mixture_cumulative: np.ndarray | None = None
        self._mixture_unitaries: list[np.ndarray] | None = None
        self._mixture_identity_first: bool | None = None
        if error_probability is None:
            overlap = abs(np.trace(operators[0]) / dim) ** 2
            error_probability = float(min(max(1.0 - overlap, 0.0), 1.0))
        self.error_probability = float(error_probability)

    # ------------------------------------------------------------------
    @property
    def kraus_operators(self) -> list[np.ndarray]:
        """The Kraus operators of the channel."""
        return list(self._kraus)

    @property
    def num_kraus(self) -> int:
        """Number of Kraus operators."""
        return len(self._kraus)

    @property
    def operator_diagonals(self) -> tuple[np.ndarray | None, ...]:
        """The diagonal of each Kraus operator, or None where it has
        off-diagonal entries."""
        return self._operator_diagonals

    def branch_weights(
        self, states: np.ndarray, qubits: Sequence[int]
    ) -> np.ndarray:
        """Weight ``||K_i psi_b||^2 = <psi_b|E_i|psi_b>`` of every branch.

        ``states`` is a ``(B, 2**n)`` block and ``qubits`` the operands of
        the event; returns ``(B, num_kraus)`` weights clamped at zero.  With
        diagonal effects a weight is a sum of the row's basis probabilities
        weighted by ``E_i`` at each amplitude's local index; otherwise it is
        ``Re tr(E_i rho_b)`` of the row's reduced density matrix on
        ``qubits``.  Either way each row is reduced on its own, so its
        weights are bitwise the same in any block.  The diagonal case
        reduces a C-ordered copy of the probabilities: on a row-inner block
        (:meth:`~repro.backends.base.Backend.allocate_batch`) the reduction
        would run in a different order for a 64-row block than for a
        one-row block, which can change the last bit of a weight.
        """
        local = local_indices(tuple(qubits), int(states.shape[-1]).bit_length() - 1)
        if self._effect_diagonals is not None:
            probabilities = np.square(states.real)
            probabilities += np.square(states.imag)
            table = np.take(self._effect_diagonals, local, axis=1)
            weights = np.einsum(
                "bj,kj->bk", np.ascontiguousarray(probabilities), table
            )
        else:
            # Amplitudes grouped by local index: positions[l] lists the
            # basis states whose operand bits read l, in ascending order.
            positions = np.argsort(local, kind="stable").reshape(
                self._effects.shape[1], -1
            )
            weights = np.empty((states.shape[0], self.num_kraus))
            for row, state in zip(weights, states):
                amplitudes = state[positions]
                rho = np.einsum("lr,mr->lm", amplitudes, amplitudes.conj())
                row[:] = np.einsum("klm,ml->k", self._effects, rho).real
            # Rounding can leave -1e-17 on an empty branch.
            np.maximum(weights, 0.0, out=weights)
        return weights

    def sample_branches(
        self,
        states: np.ndarray,
        qubits: Sequence[int],
        uniforms: np.ndarray | float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each row's branch weights and the branch ``uniforms[b]`` draws.

        The draw is the inverse-CDF lookup of
        :func:`~repro.statevector.sampling.inverse_cdf_rows`.  Raises
        ``ValueError`` when a row's weights are not finite and positive (a
        state the channel annihilates, or one holding NaN or inf).
        """
        weights = self.branch_weights(states, qubits)
        try:
            indices = inverse_cdf_rows(weights.cumsum(axis=1), uniforms)
        except ValueError as error:
            raise ValueError(
                f"channel {self.name!r} annihilated the state: branch {error}"
            ) from None
        return weights, indices

    @property
    def is_mixed_unitary(self) -> bool:
        """True when a (probabilities, unitaries) decomposition is available."""
        return self._mixture is not None

    def mixture(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Return the (probabilities, unitaries) decomposition.

        Raises ``ValueError`` when the channel was not constructed as a
        mixture of unitaries.
        """
        if self._mixture is None:
            raise ValueError(f"channel {self.name!r} is not a mixture of unitaries")
        probabilities, unitaries = self._mixture
        return np.asarray(probabilities, dtype=float), list(unitaries)

    def _build_mixture_caches(self) -> None:
        probabilities, unitaries = self.mixture()
        self._mixture_cumulative = np.cumsum(probabilities)
        self._mixture_unitaries = unitaries
        self._mixture_identity_first = bool(
            np.allclose(unitaries[0], np.eye(unitaries[0].shape[0]))
        )

    def sample_mixture_index(self, rng: np.random.Generator) -> int:
        """Draw one mixture branch index via an inverse-CDF lookup.

        Equivalent in distribution to ``rng.choice(len(p), p=p)`` but far
        cheaper per draw: the cumulative probabilities are cached on the
        channel, so each sample costs one uniform draw plus a binary search.
        """
        if self._mixture_cumulative is None:
            self._build_mixture_caches()
        return inverse_cdf_index(self._mixture_cumulative, rng)

    def sample_mixture_indices(
        self, rng: np.random.Generator, size: int
    ) -> np.ndarray:
        """Draw ``size`` independent mixture branch indices in one call.

        The vectorised counterpart of :meth:`sample_mixture_index`, used by
        the batched-trajectory backend to sample one branch per trajectory
        with a single uniform draw and a single ``searchsorted``.
        """
        if self._mixture_cumulative is None:
            self._build_mixture_caches()
        return self.mixture_indices_from_uniforms(rng.random(size))

    def mixture_indices_from_uniforms(
        self, uniforms: np.ndarray
    ) -> np.ndarray:
        """Map pre-drawn uniforms in [0, 1) to mixture branch indices.

        One vectorised inverse-CDF lookup, bitwise identical to feeding the
        same uniforms through :meth:`sample_mixture_index` one at a time —
        which is what lets batched engines draw a whole block of per-row
        counter-stream uniforms at once without changing any outcome.
        """
        if self._mixture_cumulative is None:
            self._build_mixture_caches()
        cumulative = self._mixture_cumulative
        draws = np.asarray(uniforms, dtype=float) * cumulative[-1]
        indices = np.searchsorted(cumulative, draws, side="right")
        return np.minimum(indices, cumulative.size - 1)

    @property
    def mixture_identity_first(self) -> bool:
        """True when mixture branch 0 is the identity (checked once, cached)."""
        if self._mixture_identity_first is None:
            self._build_mixture_caches()
        return self._mixture_identity_first

    def mixture_unitary(self, index: int) -> np.ndarray:
        """The unitary of one mixture branch (from the cached decomposition)."""
        if self._mixture_unitaries is None:
            self._build_mixture_caches()
        return self._mixture_unitaries[index]

    def to_superoperator(self) -> np.ndarray:
        """Column-stacking superoperator sum_i conj(K_i) ⊗ K_i (for tests)."""
        dim = 2**self.num_qubits
        result = np.zeros((dim * dim, dim * dim), dtype=complex)
        for operator in self._kraus:
            result += np.kron(operator.conj(), operator)
        return result

    def apply_to_density(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel to a density matrix of matching dimension."""
        return sum(k @ rho @ k.conj().T for k in self._kraus)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.name!r}: {self.num_qubits} qubit(s), "
            f"{self.num_kraus} Kraus, p_err={self.error_probability:.4g}>"
        )


class PauliChannel(KrausChannel):
    """A probabilistic Pauli channel on one or more qubits.

    Parameters
    ----------
    probabilities:
        Mapping from Pauli labels (e.g. ``"X"`` or ``"XY"``) to probabilities.
        The identity label may be omitted; its probability is inferred so the
        total is one.
    """

    def __init__(self, probabilities: dict[str, float]) -> None:
        if not probabilities:
            raise ValueError("a Pauli channel needs at least one term")
        widths = {len(label) for label in probabilities}
        if len(widths) != 1:
            raise ValueError("all Pauli labels must have the same length")
        num_qubits = widths.pop()
        total_non_identity = 0.0
        terms: dict[str, float] = {}
        for label, probability in probabilities.items():
            label = label.upper()
            if any(c not in "IXYZ" for c in label):
                raise ValueError(f"invalid Pauli label {label!r}")
            if probability < -1e-12:
                raise ValueError("Pauli probabilities must be non-negative")
            terms[label] = terms.get(label, 0.0) + max(float(probability), 0.0)
        identity_label = "I" * num_qubits
        total_non_identity = sum(
            p for lbl, p in terms.items() if lbl != identity_label
        )
        if total_non_identity > 1.0 + 1e-9:
            raise ValueError("Pauli error probabilities sum to more than one")
        terms[identity_label] = max(1.0 - total_non_identity, 0.0)
        labels = sorted(terms, key=lambda lbl: (lbl != identity_label, lbl))
        probs = np.array([terms[lbl] for lbl in labels], dtype=float)
        unitaries = [_pauli_matrix(label) for label in labels]
        kraus = [math.sqrt(p) * u for p, u in zip(probs, unitaries) if p > 0]
        # Keep the same filtering for the mixture arrays.
        keep = probs > 0
        super().__init__(
            kraus,
            name=f"pauli_{num_qubits}q",
            error_probability=float(total_non_identity),
            mixture=(probs[keep], [u for u, k in zip(unitaries, keep) if k]),
        )
        self.pauli_probabilities = {lbl: float(terms[lbl]) for lbl in labels}


class DepolarizingChannel(PauliChannel):
    """Depolarizing channel with *error probability* ``probability``.

    With probability ``1 - probability`` the state is untouched; otherwise one
    of the ``4**n - 1`` non-identity Pauli operators is applied uniformly at
    random.  This matches the "gate error rate" convention the paper uses for
    the Sycamore-derived rates (0.1% for one-qubit gates, 1.5% for two-qubit
    gates).
    """

    def __init__(self, probability: float, num_qubits: int = 1) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("depolarizing probability must be in [0, 1]")
        if num_qubits not in (1, 2):
            raise ValueError("only 1- and 2-qubit depolarizing channels are supported")
        labels = [
            "".join(term)
            for term in itertools.product("IXYZ", repeat=num_qubits)
        ]
        non_identity = [label for label in labels if set(label) != {"I"}]
        per_term = probability / len(non_identity)
        probabilities = {label: per_term for label in non_identity}
        probabilities["I" * num_qubits] = 1.0 - probability
        super().__init__(probabilities)
        self.name = f"depolarizing_{num_qubits}q"
        self.probability = float(probability)
        self.error_probability = float(probability)


class AmplitudeDampingChannel(KrausChannel):
    """Amplitude damping (energy relaxation) with damping ratio ``gamma``."""

    def __init__(self, gamma: float) -> None:
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
        k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
        super().__init__([k0, k1], name="amplitude_damping",
                         error_probability=float(gamma))
        self.gamma = float(gamma)


class PhaseDampingChannel(KrausChannel):
    """Phase damping (pure dephasing) with damping ratio ``lambda``."""

    def __init__(self, lam: float) -> None:
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")
        k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex)
        k1 = np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex)
        super().__init__([k0, k1], name="phase_damping", error_probability=float(lam))
        self.lam = float(lam)


class ThermalRelaxationChannel(KrausChannel):
    """Thermal relaxation built from T1, T2 and the gate duration.

    The channel is the composition of amplitude damping with
    ``gamma = 1 - exp(-t/T1)`` and pure dephasing chosen so that the total
    off-diagonal decay equals ``exp(-t/T2)``.  This construction requires
    ``T2 <= 2*T1`` (the physical constraint).
    """

    def __init__(self, t1: float, t2: float, gate_time: float) -> None:
        if t1 <= 0 or t2 <= 0 or gate_time < 0:
            raise ValueError("T1, T2 must be positive and gate_time non-negative")
        if t2 > 2.0 * t1 + 1e-12:
            raise ValueError("thermal relaxation requires T2 <= 2*T1")
        gamma = 1.0 - math.exp(-gate_time / t1)
        # Residual dephasing after accounting for the dephasing caused by
        # amplitude damping itself (off-diagonals shrink by sqrt(1-gamma)).
        residual = math.exp(-gate_time / t2) / math.exp(-gate_time / (2.0 * t1))
        residual = min(residual, 1.0)
        lam = 1.0 - residual**2
        damping = AmplitudeDampingChannel(gamma)
        dephasing = PhaseDampingChannel(lam)
        composed = compose_channels(dephasing, damping)
        error_probability = 1.0 - (1.0 - gamma) * (1.0 - lam)
        super().__init__(
            composed.kraus_operators,
            name="thermal_relaxation",
            error_probability=error_probability,
        )
        self.t1 = float(t1)
        self.t2 = float(t2)
        self.gate_time = float(gate_time)
        self.gamma = gamma
        self.lam = lam


class ReadoutError:
    """Classical readout error: each measured bit flips with a probability.

    Parameters
    ----------
    p0_given_1:
        Probability of reading 0 when the true value is 1.
    p1_given_0:
        Probability of reading 1 when the true value is 0.  Defaults to
        ``p0_given_1`` (symmetric error), which is how the paper describes the
        readout channel.
    """

    def __init__(self, p0_given_1: float, p1_given_0: float | None = None) -> None:
        p1_given_0 = p0_given_1 if p1_given_0 is None else p1_given_0
        for value in (p0_given_1, p1_given_0):
            if not 0.0 <= value <= 1.0:
                raise ValueError("readout flip probabilities must be in [0, 1]")
        self.p0_given_1 = float(p0_given_1)
        self.p1_given_0 = float(p1_given_0)

    @property
    def is_symmetric(self) -> bool:
        """True when both flip directions have the same probability."""
        return abs(self.p0_given_1 - self.p1_given_0) < 1e-15

    def assignment_matrix(self) -> np.ndarray:
        """2x2 column-stochastic matrix P[measured | true]."""
        return np.array(
            [
                [1.0 - self.p1_given_0, self.p0_given_1],
                [self.p1_given_0, 1.0 - self.p0_given_1],
            ]
        )

    def sample_flip(self, true_bit: int, rng: np.random.Generator) -> int:
        """Sample the measured value of a single bit."""
        flip_probability = self.p0_given_1 if true_bit else self.p1_given_0
        return true_bit ^ int(rng.random() < flip_probability)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ReadoutError p(0|1)={self.p0_given_1:.4g} "
            f"p(1|0)={self.p1_given_0:.4g}>"
        )


def compose_channels(second: KrausChannel, first: KrausChannel) -> KrausChannel:
    """Return the channel applying ``first`` then ``second``.

    The Kraus operators of the composition are all products ``S_i F_j``.
    """
    if second.num_qubits != first.num_qubits:
        raise ValueError("cannot compose channels of different widths")
    operators = [
        s @ f for s in second.kraus_operators for f in first.kraus_operators
    ]
    error_probability = 1.0 - (1.0 - second.error_probability) * (
        1.0 - first.error_probability
    )
    return KrausChannel(
        operators,
        name=f"{second.name}∘{first.name}",
        error_probability=error_probability,
    )


def _pauli_matrix(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis for a label like ``"XZ"``.

    The first character of the label corresponds to the *first* operand qubit
    (least significant local bit), matching the gate-matrix convention.
    """
    matrix = np.array([[1.0]], dtype=complex)
    for character in label:
        matrix = np.kron(stdgates.PAULI_MATRICES[character], matrix)
    return matrix
