"""The reference NumPy backend: functional tensordot-based gate application.

This backend applies every gate through the fully general (and fully
validated) :func:`repro.statevector.apply.apply_unitary` contraction.  It
never mutates its inputs, which makes it the ground truth the optimized
in-place backend is tested against.  A ``(B, 2**n)`` block is contracted
row by row.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backends.base import Backend
from repro.statevector.apply import apply_unitary

__all__ = ["NumpyBackend"]


class NumpyBackend(Backend):
    """Reference statevector backend (out-of-place tensordot contractions)."""

    name = "numpy"

    def apply_unitary(
        self, state: np.ndarray, matrix: np.ndarray, targets: Sequence[int]
    ) -> np.ndarray:
        """Apply a matrix to the target qubits, returning a new array."""
        if state.ndim == 1:
            return apply_unitary(state, matrix, targets)
        return np.array([apply_unitary(row, matrix, targets) for row in state])
