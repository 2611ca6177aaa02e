"""Measurement-outcome sampling utilities shared by every simulator.

Two inverse-CDF lookups serve every trajectory draw in the library, and
both draw the same index from the same uniform.  :func:`inverse_cdf_index`
searches one cumulative array once per uniform: the outcomes of one state
(every leaf of a noiseless tree measures the same final state) and mixture
branches.  :func:`inverse_cdf_rows` gives each row of a cumulative block
its own uniform: the outcomes of a trajectory block and general-Kraus
branches.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

__all__ = [
    "inverse_cdf_index",
    "inverse_cdf_rows",
    "sample_from_probabilities",
    "counts_to_probability_vector",
    "merge_counts",
    "apply_readout_error_to_counts",
    "index_to_bitstring",
    "bitstring_to_index",
]


def inverse_cdf_index(
    cumulative: np.ndarray, uniforms: np.ndarray | float
) -> np.ndarray:
    """Draw one index per uniform from one (unnormalised) cumulative array.

    Equivalent in distribution to ``rng.choice(len(p), p=p)`` per uniform,
    but costs one binary search each: an index is the number of interior
    bounds (every entry but the total) at or below ``uniform * total``.
    ``uniforms`` is an array of any shape or a scalar, which gives a
    scalar.  This is the lookup behind outcome sampling from one state and
    mixture-branch selection; :func:`inverse_cdf_rows` is its form for a
    block of cumulative rows.  Raises ``ValueError`` when the total is not
    finite and positive.
    """
    total = float(cumulative[-1])
    # Written so NaN fails too: every comparison with NaN is false.
    if not 0.0 < total < math.inf:
        raise ValueError("weights are not finite and positive")
    return np.searchsorted(cumulative[:-1], uniforms * total, side="right")


def inverse_cdf_rows(
    cumulative: np.ndarray, uniforms: np.ndarray | float
) -> np.ndarray:
    """Draw one index per row of a ``(B, K)`` cumulative weight block.

    Row ``b`` takes the number of its interior bounds at or below
    ``uniforms[b] * total_b``, so each row draws the index
    :func:`inverse_cdf_index` draws from the same uniform.  Raises ``ValueError`` when a row's total
    is not finite and positive.
    """
    totals = cumulative[:, -1]
    if not (totals.min() > 0 and totals.max() < np.inf):
        raise ValueError("weights are not finite and positive")
    return (cumulative[:, :-1] <= (uniforms * totals)[:, None]).sum(axis=1)


def index_to_bitstring(index: int, num_qubits: int) -> str:
    """Format a basis-state index as a bitstring (qubit ``n-1`` first)."""
    return format(index, f"0{num_qubits}b")


def bitstring_to_index(bitstring: str) -> int:
    """Inverse of :func:`index_to_bitstring`."""
    return int(bitstring, 2)


def sample_from_probabilities(
    probabilities: np.ndarray,
    shots: int,
    num_qubits: int,
    rng: np.random.Generator | None = None,
) -> dict[str, int]:
    """Draw ``shots`` outcomes from a probability vector.

    Uses a multinomial draw, which is equivalent to, and much faster than,
    per-shot categorical sampling.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    rng = rng if rng is not None else np.random.default_rng()
    probabilities = np.asarray(probabilities, dtype=float)
    probabilities = np.clip(probabilities, 0.0, None)
    total = probabilities.sum()
    if not 0 < total < np.inf:
        raise ValueError("probabilities are not finite and positive")
    probabilities = probabilities / total
    draws = rng.multinomial(shots, probabilities)
    counts: dict[str, int] = {}
    for index in np.nonzero(draws)[0]:
        counts[index_to_bitstring(int(index), num_qubits)] = int(draws[index])
    return counts


def counts_to_probability_vector(
    counts: Mapping[str, int], num_qubits: int
) -> np.ndarray:
    """Convert bitstring counts to a dense probability vector."""
    vector = np.zeros(2**num_qubits, dtype=float)
    total = 0
    for bitstring, count in counts.items():
        if len(bitstring) != num_qubits:
            raise ValueError(
                f"bitstring {bitstring!r} does not have {num_qubits} bits"
            )
        vector[bitstring_to_index(bitstring)] += count
        total += count
    if total <= 0:
        raise ValueError("counts are empty")
    return vector / total


def merge_counts(*count_dicts: Mapping[str, int]) -> dict[str, int]:
    """Merge several counts dictionaries by summing per-bitstring counts."""
    merged: dict[str, int] = {}
    for counts in count_dicts:
        for bitstring, count in counts.items():
            merged[bitstring] = merged.get(bitstring, 0) + int(count)
    return merged


def apply_readout_error_to_counts(
    counts: Mapping[str, int],
    flip_probability: float,
    rng: np.random.Generator | None = None,
) -> dict[str, int]:
    """Flip each classical bit of each sampled shot with the given probability.

    This models the readout (measurement) error channel described in the
    paper's Section 4.3 without touching the quantum state.
    """
    if not 0.0 <= flip_probability <= 1.0:
        raise ValueError("flip probability must be in [0, 1]")
    if flip_probability == 0.0:
        return dict(counts)
    rng = rng if rng is not None else np.random.default_rng()
    noisy: dict[str, int] = {}
    for bitstring, count in counts.items():
        num_bits = len(bitstring)
        bits = np.frombuffer(bitstring.encode("ascii"), dtype=np.uint8) - ord("0")
        flips = rng.random((count, num_bits)) < flip_probability
        flipped = np.bitwise_xor(bits[None, :].astype(np.int64), flips)
        # bitstring[0] is the most significant bit, so fold each row into a
        # basis-state index and aggregate with one unique() pass per key.
        weights = 1 << np.arange(num_bits - 1, -1, -1, dtype=np.int64)
        indices, flipped_counts = np.unique(flipped @ weights, return_counts=True)
        for index, flipped_count in zip(indices, flipped_counts):
            key = index_to_bitstring(int(index), num_bits)
            noisy[key] = noisy.get(key, 0) + int(flipped_count)
    return noisy
