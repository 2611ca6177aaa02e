"""The default optimized NumPy backend: in-place slice-based gate kernels.

The reference backend pays for full generality on every gate: a reshape to an
``n``-axis tensor, a ``tensordot``, a ``moveaxis`` and an
``ascontiguousarray`` — three full-size temporaries per gate.  Almost every
gate in the benchmark circuits acts on one or two qubits, so this backend
specialises those cases the way mature simulators do:

* a 1-qubit gate on target ``t`` views the state as ``(-1, 2, 2**t)`` and
  updates the two amplitude planes in place;
* a 2-qubit gate views the state as ``(-1, 2, 2**gap, 2, 2**low)`` and
  updates the four planes in place, skipping zero matrix entries (so
  controlled gates and other sparse unitaries only touch the planes they
  move) and identity rows;
* diagonal and anti-diagonal matrices (Z/S/T/RZ/phase, X/Y, CZ/CP/RZZ, ...)
  take scale-only fast paths;
* all temporaries live in a preallocated scratch buffer that is reused across
  gates, so steady-state gate application allocates nothing.

Gates on three or more qubits fall back to the reference contraction, with
the result written back into the caller's buffer.

Every kernel also advances a ``(B, 2**n)`` block of trajectories in one
call: the slice views address qubit ``t`` through a trailing
``(..., 2, 2**t)`` reshape whose leading axis absorbs the batch dimension,
so each row evolves bit for bit like a single state.  That is the batch
axis the engine's frontier-chunk traversal runs on (Figure 8: one small
statevector update does not fill the machine, so trajectories advance
together).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backends.base import Backend
from repro.statevector.apply import apply_unitary

__all__ = ["OptimizedNumpyBackend"]

#: Mask selecting the off-diagonal entries of a 4x4 matrix.
_OFF_DIAGONAL_4X4 = ~np.eye(4, dtype=bool)


class OptimizedNumpyBackend(Backend):
    """In-place statevector backend with specialised 1q/2q kernels."""

    name = "optimized"

    def __init__(self) -> None:
        # Full-size scratch (holds copies of the input planes) plus a
        # quarter-size accumulator for the 2-qubit kernel; both grow on
        # demand and are reused for every subsequent gate.
        self._scratch: np.ndarray | None = None
        self._accumulator: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _scratch_for(self, size: int) -> np.ndarray:
        if self._scratch is None or self._scratch.size < size:
            self._scratch = np.empty(size, dtype=complex)
        return self._scratch

    def _accumulator_for(self, size: int) -> np.ndarray:
        if self._accumulator is None or self._accumulator.size < size:
            self._accumulator = np.empty(size, dtype=complex)
        return self._accumulator

    # ------------------------------------------------------------------
    def apply_unitary(
        self, state: np.ndarray, matrix: np.ndarray, targets: Sequence[int]
    ) -> np.ndarray:
        """Apply a matrix to the target qubits of ``state`` in place.

        ``state`` is one statevector or a ``(B, 2**n)`` block; the 1q/2q
        kernels' leading view axis absorbs the block's rows.
        """
        dim = int(state.shape[-1])
        num_qubits = dim.bit_length() - 1
        k = len(targets)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2**k, 2**k):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {k} target qubits"
            )
        for target in targets:
            if not 0 <= target < num_qubits:
                raise ValueError(f"target qubit {target} out of range")
        if k == 1:
            self._apply_1q(state, matrix, targets[0])
        elif k == 2:
            if targets[0] == targets[1]:
                raise ValueError("target qubits must be distinct")
            self._apply_2q(state, matrix, targets[0], targets[1])
        else:
            # Rare wide gates (ccx, cswap, ...) reuse the reference
            # contraction row by row; only the destination write is in place.
            for row in state.reshape(-1, dim):
                row[...] = apply_unitary(row, matrix, targets)
        return state

    # ------------------------------------------------------------------
    def _apply_1q(self, state: np.ndarray, matrix: np.ndarray, target: int) -> None:
        view = state.reshape(-1, 2, 1 << target)
        plane0 = view[:, 0, :]
        plane1 = view[:, 1, :]
        m00, m01 = matrix[0, 0], matrix[0, 1]
        m10, m11 = matrix[1, 0], matrix[1, 1]
        if m01 == 0 and m10 == 0:  # diagonal: Z, S, T, RZ, phase, ...
            if m00 != 1:
                plane0 *= m00
            if m11 != 1:
                plane1 *= m11
            return
        half = state.size >> 1
        scratch = self._scratch_for(state.size)
        saved0 = scratch[:half].reshape(plane0.shape)
        if m00 == 0 and m11 == 0:  # anti-diagonal: X, Y, ...
            np.copyto(saved0, plane0)
            if m01 == 1:
                np.copyto(plane0, plane1)
            else:
                np.multiply(plane1, m01, out=plane0)
            if m10 == 1:
                np.copyto(plane1, saved0)
            else:
                np.multiply(saved0, m10, out=plane1)
            return
        # General dense 2x2 (H, SX, RX, RY, U, ...).
        temp = scratch[half : 2 * half].reshape(plane0.shape)
        np.copyto(saved0, plane0)
        np.multiply(plane0, m00, out=plane0)
        np.multiply(plane1, m01, out=temp)
        plane0 += temp
        np.multiply(plane1, m11, out=plane1)
        np.multiply(saved0, m10, out=saved0)
        plane1 += saved0

    # ------------------------------------------------------------------
    def _apply_2q(
        self, state: np.ndarray, matrix: np.ndarray, target0: int, target1: int
    ) -> None:
        low, high = (target0, target1) if target0 < target1 else (target1, target0)
        view = state.reshape(-1, 2, 1 << (high - low - 1), 2, 1 << low)
        # Local basis index j = bit(target0) + 2 * bit(target1); view axis 1
        # carries the high qubit's bit and axis 3 the low qubit's bit.
        planes = []
        for j in range(4):
            bit0, bit1 = j & 1, j >> 1
            bit_low, bit_high = (
                (bit0, bit1) if target0 == low else (bit1, bit0)
            )
            planes.append(view[:, bit_high, :, bit_low, :])

        if not matrix[_OFF_DIAGONAL_4X4].any():  # diagonal: CZ, CP, RZZ, ...
            for j in range(4):
                if matrix[j, j] != 1:
                    planes[j] *= matrix[j, j]
            return

        quarter = state.size >> 2
        scratch = self._scratch_for(state.size)
        saved = [
            scratch[j * quarter : (j + 1) * quarter].reshape(planes[0].shape)
            for j in range(4)
        ]
        temp = self._accumulator_for(quarter)[:quarter].reshape(planes[0].shape)
        identity_rows = [
            matrix[j, j] == 1
            and all(matrix[j, column] == 0 for column in range(4) if column != j)
            for j in range(4)
        ]
        # Snapshot only the planes that rewritten rows read, so sparse
        # unitaries (controlled gates, permutations) copy two planes, not
        # the whole statevector.
        for column in range(4):
            if any(
                matrix[j, column] != 0
                for j in range(4)
                if not identity_rows[j]
            ):
                np.copyto(saved[column], planes[column])
        for j in range(4):
            if identity_rows[j]:
                continue  # plane already holds the result
            row = matrix[j]
            out = planes[j]
            written = False
            for column in range(4):
                coefficient = row[column]
                if coefficient == 0:
                    continue
                if not written:
                    if coefficient == 1:
                        np.copyto(out, saved[column])
                    else:
                        np.multiply(saved[column], coefficient, out=out)
                    written = True
                elif coefficient == 1:
                    out += saved[column]
                else:
                    np.multiply(saved[column], coefficient, out=temp)
                    out += temp
            if not written:
                out[...] = 0.0
