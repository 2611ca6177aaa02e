"""The default optimized NumPy backend: in-place slice-based gate kernels.

The reference backend pays for full generality on every gate: a reshape to an
``n``-axis tensor, a ``tensordot``, a ``moveaxis`` and an
``ascontiguousarray`` — three full-size temporaries per gate.  Almost every
gate in the benchmark circuits acts on one or two qubits, so this backend
specialises those cases the way mature simulators do:

* a 1-qubit gate on target ``t`` views the state as ``(-1, 2, 2**t, R)`` and
  updates the two amplitude planes in place; a dense gate on a plane of
  many short runs (a low target) copies both planes through contiguous
  scratch instead, a cache-sized tile at a time, because numpy would copy
  them once per ufunc call;
* a 2-qubit gate views the state as ``(-1, 2, 2**gap, 2, 2**low, R)`` and
  updates the four planes in place, skipping zero matrix entries (so
  controlled gates and other sparse unitaries only touch the planes they
  move) and identity rows;
* diagonal and anti-diagonal matrices (Z/S/T/RZ/phase, X/Y, CZ/CP/RZZ, ...)
  take scale-only fast paths;
* all temporaries live in a preallocated scratch buffer that is reused across
  gates, so steady-state gate application allocates nothing.

Which path a gate takes depends on the matrix, the target, the state's
layout and numpy's buffer size (``np.getbufsize()``) only, never on an
option of this package.

Gates on three or more qubits fall back to the reference contraction, with
the result written back into the caller's buffer.

Every kernel also advances a ``(B, 2**n)`` block of trajectories in one
call.  The views are amplitude-major: ``state.T`` (a 1-D state is one
column, ``R = 1``) split into ``(..., 2, 2**t, R)`` with the ``R`` rows
innermost.  Splitting one axis is always a view, so the kernels write the
caller's array whatever its layout, and on a row-inner block from
:meth:`~repro.backends.base.Backend.allocate_batch` every target qubit gets
inner loops of at least ``R`` adjacent elements.  The elementwise
operations are the same for every layout, block size and path (staged or
in place: the same products and sums in the same order), so each row
evolves bit for bit like a single state.  That is the batch axis the
engine's frontier-chunk traversal runs on (Figure 8: one small statevector
update does not fill the machine, so trajectories advance together).
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
        # Scratch (copies of the input planes, at least a full state, or
        # the staged 1q kernel's four tiles of up to ``np.getbufsize()``
        # elements each) plus a quarter-size accumulator for the 2-qubit
        # kernel; both grow on demand and are reused for every subsequent
        # gate.
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

        ``state`` is one statevector or a ``(B, 2**n)`` block of any
        layout; the 1q/2q kernels' innermost view axis holds the block's
        rows.
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
        rows = state.size >> num_qubits
        if k == 1:
            self._apply_1q(state, matrix, targets[0], rows)
        elif k == 2:
            if targets[0] == targets[1]:
                raise ValueError("target qubits must be distinct")
            self._apply_2q(state, matrix, targets[0], targets[1], rows)
        else:
            # Rare wide gates (ccx, cswap, ...) reuse the reference
            # contraction row by row; only the destination write is in place.
            for row in state.reshape(-1, dim):
                row[...] = apply_unitary(row, matrix, targets)
        return state

    # ------------------------------------------------------------------
    def _apply_1q(
        self, state: np.ndarray, matrix: np.ndarray, target: int, rows: int
    ) -> None:
        # Amplitude-major with the rows innermost; splitting the first
        # axis of ``state.T`` is always a view (see the module docstring).
        view = state.T.reshape(-1, 2, 1 << target, rows)
        plane0 = view[:, 0]
        plane1 = view[:, 1]
        # Python complex entries: the same values as the matrix's, compared
        # and passed to the ufuncs without a numpy scalar per access.
        (m00, m01), (m10, m11) = matrix.tolist()
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
        # General dense 2x2 (H, SX, RX, RY, U, ...): both products are
        # taken before either plane is overwritten.  A plane is
        # ``len(view)`` runs of ``rows << target`` adjacent elements when
        # the rows are adjacent (a 1-D state or a row-inner block).  numpy's
        # buffered iterator copies a plane operand whose runs fill at most
        # half its buffer, or a third when the plane is also the output,
        # once per ufunc call (numpy 2.4).  Where that holds for all six
        # calls the planes are staged instead, unless the plane is one
        # strided loop (runs of one element) or at most two runs: measured,
        # those run faster in place.
        run = rows << target
        if run > 1 and state.strides[0] == state.itemsize and len(view) > 2:
            bufsize = np.getbufsize()
            if 3 * run <= bufsize:
                self._apply_dense_staged(view, m00, m01, m10, m11, run, bufsize)
                return
        temp = scratch[half : 2 * half].reshape(plane0.shape)
        np.multiply(plane0, m10, out=saved0)
        np.multiply(plane1, m01, out=temp)
        np.multiply(plane0, m00, out=plane0)
        plane0 += temp
        np.multiply(plane1, m11, out=plane1)
        plane1 += saved0

    def _apply_dense_staged(
        self,
        view: np.ndarray,
        m00: complex,
        m01: complex,
        m10: complex,
        m11: complex,
        run: int,
        bufsize: int,
    ) -> None:
        """The dense 1q update of ``view``'s two planes through contiguous
        scratch, a tile of at most ``bufsize`` elements per plane at a time.

        Each tile is copied out in one call (plane 0 then plane 1), takes
        the in-place path's four products and two sums on contiguous
        arrays, and is copied back in one call, so every row ends with the
        in-place path's bytes.  The tile keeps the scratch cache-sized
        whatever the width; the last tile is partial when the number of
        runs per tile does not divide ``len(view)``.
        """
        runs = min(bufsize // run, len(view))
        size = runs * run
        scratch = self._scratch_for(4 * size)
        work = scratch[: 2 * size].reshape(2, runs, *view.shape[2:])
        products = scratch[2 * size : 4 * size].reshape(work.shape)
        for start in range(0, len(view), runs):
            planes = view[start : start + runs].swapaxes(0, 1)
            if planes.shape[1] < runs:
                work = work[:, : planes.shape[1]]
                products = products[:, : planes.shape[1]]
            np.copyto(work, planes)
            # products[k] is what the in-place path adds to plane k.
            np.multiply(work[1], m01, out=products[0])
            np.multiply(work[0], m10, out=products[1])
            np.multiply(work[0], m00, out=work[0])
            np.multiply(work[1], m11, out=work[1])
            work += products
            np.copyto(planes, work)

    # ------------------------------------------------------------------
    def _apply_2q(
        self,
        state: np.ndarray,
        matrix: np.ndarray,
        target0: int,
        target1: int,
        rows: int,
    ) -> None:
        low, high = (target0, target1) if target0 < target1 else (target1, target0)
        view = state.T.reshape(-1, 2, 1 << (high - low - 1), 2, 1 << low, rows)
        # Local basis index j = bit(target0) + 2 * bit(target1); view axis 1
        # carries the high qubit's bit and axis 3 the low qubit's bit.
        planes = []
        for j in range(4):
            bit0, bit1 = j & 1, j >> 1
            bit_low, bit_high = (
                (bit0, bit1) if target0 == low else (bit1, bit0)
            )
            planes.append(view[:, bit_high, :, bit_low])

        entries = matrix.tolist()
        if not matrix[_OFF_DIAGONAL_4X4].any():  # diagonal: CZ, CP, RZZ, ...
            for j in range(4):
                if entries[j][j] != 1:
                    planes[j] *= entries[j][j]
            return

        quarter = state.size >> 2
        scratch = self._scratch_for(state.size)
        saved = [
            scratch[j * quarter : (j + 1) * quarter].reshape(planes[0].shape)
            for j in range(4)
        ]
        temp = self._accumulator_for(quarter)[:quarter].reshape(planes[0].shape)
        identity_rows = [
            entries[j][j] == 1
            and all(entries[j][column] == 0 for column in range(4) if column != j)
            for j in range(4)
        ]
        # Snapshot only the planes that rewritten rows read, so sparse
        # unitaries (controlled gates, permutations) copy two planes, not
        # the whole statevector.
        for column in range(4):
            if any(
                entries[j][column] != 0
                for j in range(4)
                if not identity_rows[j]
            ):
                np.copyto(saved[column], planes[column])
        for j in range(4):
            if identity_rows[j]:
                continue  # plane already holds the result
            row = entries[j]
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
