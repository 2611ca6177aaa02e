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
that the trajectory samplers use as a fast path: a branch is drawn from the
probabilities alone, without reading the state.  A mixture is validated at
construction (probabilities summing to one, one phased permutation per
probability, the same superoperator as the Kraus operators), and each
branch is held as the source index and phase of every output local index,
so applying it to a state copies each plane from its source plane, times
its phase.  Every channel also holds
its *effect operators* ``E_i = K_i† K_i``, whose expectation value on a
state is the weight of Kraus branch ``i``: for general Kraus channels the
trajectory samplers price all branches from them and apply only the
operator a trajectory draws.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.circuits import stdgates
from repro.statevector.apply import (
    apply_phased_permutation,
    local_indices,
    operand_planes,
)
from repro.statevector.sampling import inverse_cdf_index, inverse_cdf_rows

if TYPE_CHECKING:
    from repro.core.pathrng import UniformStream

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


class _Mixture(NamedTuple):
    """A validated mixture of unitaries, as sampled and applied."""

    probabilities: np.ndarray
    unitaries: list[np.ndarray]
    cumulative: np.ndarray
    #: Per branch: the source local index and the phase of each output
    #: local index (the operator as a phased permutation).
    branches: tuple[tuple[tuple[int, ...], tuple[complex, ...]], ...]
    identity_first: bool
    #: The smallest scaled draw ``u * cumulative[-1]`` whose branch is not
    #: an identity branch 0.
    hit_threshold: float


#: ``mixture_hits`` of a block whose draws all stay on an identity branch 0.
_NO_HITS = (np.empty(0, dtype=np.intp),) * 3


@lru_cache(maxsize=64)
def _population_split(
    qubits: tuple[int, ...], num_qubits: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """How to sum an amplitude-major float view plane by plane.

    The amplitude axis splits as in
    :func:`~repro.statevector.apply.operand_planes`, each run of
    non-operand qubits further into its part in the upper half of all
    non-operand qubits and the rest, and a column axis follows.  Returns
    that shape, the upper axes, then the lower axes as numbered once the
    upper ones are summed away: summed in that order, each plane sums in
    one order per column whatever the column count, and the axes below
    each reduction keep its inner loops long on one row as on many (one
    reduction over every non-operand axis would loop over two floats at a
    time on a one-row block).  Last, the position of each local index's
    plane among the planes left, from ``operand_planes``.  Cached like
    ``operand_planes``.
    """
    shape, _, positions = operand_planes(qubits, num_qubits)
    upper_bits = (num_qubits - len(qubits) + 1) // 2
    split: list[int] = []
    upper: list[int] = []
    lower: list[int] = []
    for axis, size in enumerate(shape):
        if axis % 2:  # an operand qubit
            split.append(size)
            continue
        high = min(size.bit_length() - 1, upper_bits)
        upper_bits -= high
        for part, axes in ((1 << high, upper), (size >> high, lower)):
            if part > 1:
                axes.append(len(split))
                split.append(part)
    # Every upper axis lies above every lower one.
    lower = [axis - len(upper) for axis in lower]
    return tuple(split) + (-1,), tuple(upper), tuple(lower), positions


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
    mixture:
        Optional ``(probabilities, unitaries)`` decomposition of the same
        channel into phased permutations (Pauli channels build one).  It is
        validated here, and the trajectory samplers then draw a branch from
        the probabilities alone and apply it plane by plane with its phases.
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
        # a branch from the populations of the local indices; see
        # branch_weights.  Row l holds E_i[l, l] of every branch i.
        self._effect_diagonals: np.ndarray | None = (
            None
            if effects[:, off_diagonal].any()
            else effects.diagonal(axis1=1, axis2=2).real.T.copy()
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
        self._mixture: _Mixture | None = None
        if mixture is not None:
            self._set_mixture(*mixture)
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
        diagonal effects a weight is ``sum_l E_i[l, l] p_bl`` over the local
        indices ``l`` in order, where ``p_bl`` is row ``b``'s population of
        ``l``: the block viewed amplitude-major as ``2B`` float columns (re
        and im of each row, no copy when the rows are adjacent in memory, as
        in :meth:`~repro.backends.base.Backend.allocate_batch` blocks),
        squared, summed over the plane of ``l`` by two reductions over outer
        axes (:func:`_population_split`), then re and im added.  The columns
        stay the inner axis, two even for one row, so each column sums in
        one order whatever the row count: a row's weights are bitwise the
        same alone as in any block and layout.  A one-row block takes the
        last additions and the products on Python floats, which cost less
        than numpy calls on arrays that small.  Otherwise a weight is
        ``Re tr(E_i rho_b)`` of the row's reduced density matrix on
        ``qubits``, computed row by row.
        """
        num_qubits = int(states.shape[-1]).bit_length() - 1
        effects = self._effect_diagonals
        if effects is None:
            # Amplitudes grouped by local index: positions[l] lists the
            # basis states whose operand bits read l, in ascending order.
            positions = np.argsort(
                local_indices(tuple(qubits), num_qubits), kind="stable"
            ).reshape(self._effects.shape[1], -1)
            weights = np.empty((states.shape[0], self.num_kraus))
            for row, state in zip(weights, states):
                amplitudes = state[positions]
                rho = np.einsum("lr,mr->lm", amplitudes, amplitudes.conj())
                row[:] = np.einsum("klm,ml->k", self._effects, rho).real
            # Rounding can leave -1e-17 on an empty branch.
            np.maximum(weights, 0.0, out=weights)
            return weights
        split, upper, lower, planes = _population_split(
            tuple(qubits), num_qubits
        )
        amplitudes = states.T
        if len(states) > 1 and states.strides[0] != states.itemsize:
            # Rows that are not adjacent (a C-ordered block) cannot be
            # viewed as float columns: copy them amplitude-major.
            amplitudes = np.ascontiguousarray(amplitudes)
        sums = np.square(amplitudes.view(np.float64)).reshape(split)
        sums = np.add.reduce(np.add.reduce(sums, axis=upper), axis=lower)
        if len(states) == 1:
            # The same additions and products on Python floats, which cost
            # less than numpy calls on arrays this small.
            flat = sums.ravel().tolist()
            alone: list[float] | None = None
            for plane, factors in zip(planes, effects.tolist()):
                population = flat[2 * plane] + flat[2 * plane + 1]
                alone = (
                    [f * population for f in factors] if alone is None
                    else [w + f * population for w, f in zip(alone, factors)]
                )
            return np.array([alone])
        sums = sums.reshape(len(planes), -1)
        populations = sums[:, 0::2] + sums[:, 1::2]
        # Branch-major, so every product runs along the rows.
        weights = effects[0][:, None] * populations[planes[0]]
        for local in range(1, len(planes)):
            weights += effects[local][:, None] * populations[planes[local]]
        return weights.T

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

    def _set_mixture(
        self, probabilities: Sequence[float], unitaries: Sequence[np.ndarray]
    ) -> None:
        """Validate a ``(probabilities, unitaries)`` decomposition and store
        each branch as the source index and phase of every output local
        index.

        Raises ``ValueError`` unless the probabilities are finite,
        non-negative and sum to one, there is one ``(dim, dim)`` unitary per
        probability, every unitary is a phased permutation (one
        unit-modulus entry per row and column) and ``sum_i p_i conj(U_i) ⊗
        U_i`` is the channel's superoperator.
        """
        dim = 2**self.num_qubits
        weights = np.asarray(probabilities, dtype=float)
        if (
            weights.ndim != 1
            or not np.isfinite(weights).all()
            or (weights < 0).any()
            or not math.isclose(weights.sum(), 1.0, abs_tol=1e-8)
        ):
            raise ValueError(
                f"channel {self.name!r}: mixture probabilities must be "
                "finite, non-negative and sum to 1"
            )
        operators = [np.asarray(u, dtype=complex) for u in unitaries]
        if len(operators) != weights.size or any(
            u.shape != (dim, dim) for u in operators
        ):
            raise ValueError(
                f"channel {self.name!r}: a mixture needs one ({dim}, {dim}) "
                "unitary per probability"
            )
        branches = []
        for unitary in operators:
            nonzero = unitary != 0
            if not (
                (nonzero.sum(axis=0) == 1).all()
                and (nonzero.sum(axis=1) == 1).all()
                and np.allclose(np.abs(unitary[nonzero]), 1.0)
            ):
                raise ValueError(
                    f"channel {self.name!r}: mixture branches must be phased "
                    "permutations (one unit-modulus entry per row and "
                    "column); drop mixture= and the general-Kraus path "
                    "samples the channel from its Kraus operators"
                )
            sources = nonzero.argmax(axis=1)
            branches.append((
                tuple(sources.tolist()),
                tuple(unitary[np.arange(dim), sources].tolist()),
            ))
        superoperator = sum(
            p * np.kron(u.conj(), u) for p, u in zip(weights, operators)
        )
        if not np.allclose(superoperator, self.to_superoperator(), atol=1e-8):
            raise ValueError(
                f"channel {self.name!r}: the mixture is not the channel of "
                "its Kraus operators (sum_i p_i conj(U_i) ⊗ U_i differs from "
                "the superoperator)"
            )
        cumulative = np.cumsum(weights)
        identity_first = bool(np.allclose(operators[0], np.eye(dim)))
        if not identity_first:
            threshold = 0.0
        elif weights.size == 1:  # the identity channel
            threshold = math.inf
        else:
            threshold = float(cumulative[0])
        self._mixture = _Mixture(
            weights, operators, cumulative, tuple(branches), identity_first,
            threshold,
        )

    def _checked_mixture(self) -> _Mixture:
        if self._mixture is None:
            raise ValueError(f"channel {self.name!r} is not a mixture of unitaries")
        return self._mixture

    @property
    def is_mixed_unitary(self) -> bool:
        """True when the channel holds a validated mixture of unitaries."""
        return self._mixture is not None

    def mixture(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Return the (probabilities, unitaries) decomposition.

        Raises ``ValueError`` when the channel was not constructed as a
        mixture of unitaries.
        """
        mixture = self._checked_mixture()
        return mixture.probabilities, list(mixture.unitaries)

    def sample_mixture_index(self, rng: UniformStream) -> int:
        """Draw one mixture branch index from one uniform of ``rng``.

        Equivalent in distribution to ``rng.choice(len(p), p=p)`` but far
        cheaper per draw, and bitwise the branch
        :meth:`mixture_indices_from_uniforms` maps the same uniform to: a
        draw that stays on an identity branch 0 costs one comparison, any
        other goes through that lookup.
        """
        mixture = self._checked_mixture()
        uniform = rng.random()
        if uniform * mixture.cumulative[-1] < mixture.hit_threshold:
            return 0
        return int(self.mixture_indices_from_uniforms(uniform))

    def mixture_indices_from_uniforms(
        self, uniforms: np.ndarray
    ) -> np.ndarray:
        """Map pre-drawn uniforms in [0, 1) to mixture branch indices.

        One vectorised inverse-CDF lookup
        (:func:`~repro.statevector.sampling.inverse_cdf_index`) over an
        array of any shape, bitwise identical to feeding the same uniforms
        through :meth:`sample_mixture_index` one at a time — which is what
        lets batched engines draw a whole block of per-row counter-stream
        uniforms at once without changing any outcome.
        """
        return inverse_cdf_index(self._checked_mixture().cumulative, uniforms)

    def mixture_hits(
        self, uniforms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The draws of a ``(B, m)`` uniform block that apply an operator.

        Returns ``(columns, rows, branches)`` of every draw except an
        identity branch 0, ordered by column and then row; one
        :meth:`mixture_indices_from_uniforms` lookup maps those draws to
        branches, and a block without any makes none.
        """
        mixture = self._checked_mixture()
        # The lookup scales a uniform by the total and draws branch 0
        # exactly below ``cumulative[0]``, so only the other draws go
        # through it.
        drawn = uniforms.T * mixture.cumulative[-1] >= mixture.hit_threshold
        if not np.count_nonzero(drawn):
            return _NO_HITS
        columns, rows = np.nonzero(drawn)
        return columns, rows, self.mixture_indices_from_uniforms(
            uniforms.T[columns, rows]
        )

    @property
    def mixture_identity_first(self) -> bool:
        """True when mixture branch 0 is the identity."""
        return self._checked_mixture().identity_first

    def mixture_unitary(self, index: int) -> np.ndarray:
        """The unitary of one mixture branch."""
        return self._checked_mixture().unitaries[index]

    def apply_mixture_branch(
        self, state: np.ndarray, index: int, qubits: Sequence[int]
    ) -> None:
        """Apply mixture branch ``index`` on ``qubits`` to ``state`` in place.

        ``state`` is one statevector, possibly a strided view such as a row
        of a block; see :func:`~repro.statevector.apply.
        apply_phased_permutation`.
        """
        sources, phases = self._checked_mixture().branches[index]
        apply_phased_permutation(state, sources, phases, tuple(qubits))

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
