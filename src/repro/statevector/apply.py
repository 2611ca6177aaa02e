"""Gate-application kernels for statevectors and density matrices.

The statevector of an ``n``-qubit register is stored as a 1-D complex array of
length ``2**n`` using little-endian ordering: the amplitude at index ``b``
corresponds to the basis state whose qubit ``q`` holds bit ``(b >> q) & 1``.

Gate matrices use the matching local convention (see
:mod:`repro.circuits.stdgates`): the first operand qubit is the least
significant bit of the gate's local index space.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "apply_unitary",
    "apply_matrix_inplace_view",
    "apply_gate",
    "apply_unitary_to_density",
    "apply_kraus_to_density",
    "local_indices",
    "operand_planes",
    "apply_phased_permutation",
]


def apply_unitary(
    state: np.ndarray, matrix: np.ndarray, targets: Sequence[int]
) -> np.ndarray:
    """Apply a ``k``-qubit unitary to the given target qubits of ``state``.

    Parameters
    ----------
    state:
        Statevector of length ``2**n`` (not modified).
    matrix:
        ``2**k x 2**k`` unitary in the local little-endian basis of
        ``targets`` (``targets[0]`` is the least significant local bit).
    targets:
        Distinct qubit indices the gate acts on.

    Returns
    -------
    numpy.ndarray
        The transformed statevector (a new array).
    """
    state = np.asarray(state)
    num_amplitudes = state.shape[0]
    num_qubits = int(num_amplitudes).bit_length() - 1
    if 2**num_qubits != num_amplitudes:
        raise ValueError("statevector length is not a power of two")
    k = len(targets)
    if matrix.shape != (2**k, 2**k):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {k} target qubits"
        )
    if len(set(targets)) != k:
        raise ValueError("target qubits must be distinct")
    for target in targets:
        if not 0 <= target < num_qubits:
            raise ValueError(f"target qubit {target} out of range")

    tensor = state.reshape((2,) * num_qubits)
    matrix_tensor = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * k))
    # Axis of the state tensor holding qubit q (C-order: axis 0 = qubit n-1).
    state_axes = [num_qubits - 1 - q for q in targets]
    # Input axes of the matrix tensor for each operand j: the column index is
    # laid out with operand k-1 as its most significant bit, i.e. axis k.
    matrix_in_axes = [k + (k - 1 - j) for j in range(k)]
    contracted = np.tensordot(matrix_tensor, tensor, axes=(matrix_in_axes, state_axes))
    # Output axes 0..k-1 of ``contracted`` correspond to operands k-1..0.
    destinations = [num_qubits - 1 - targets[k - 1 - i] for i in range(k)]
    result = np.moveaxis(contracted, list(range(k)), destinations)
    return np.ascontiguousarray(result).reshape(num_amplitudes)


@lru_cache(maxsize=64)
def local_indices(qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """The local index on ``qubits`` of every basis state of ``num_qubits``.

    Entry ``b`` is ``sum_m ((b >> qubits[m]) & 1) << m``: the row or column
    of a gate matrix on ``qubits`` that amplitude ``b`` meets.  The table
    depends only on its arguments, so it is cached (bounded, in the
    smallest integer type that holds ``2**len(qubits) - 1``) and shared
    read-only.
    """
    basis = np.arange(2**num_qubits)
    local = sum(((basis >> qubit) & 1) << m for m, qubit in enumerate(qubits))
    table = np.asarray(local, dtype=np.min_scalar_type(2 ** len(qubits) - 1))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def operand_planes(
    qubits: tuple[int, ...], num_qubits: int
) -> tuple[
    tuple[int, ...], tuple[tuple[int | slice, ...], ...], tuple[int, ...]
]:
    """How to view a statevector as planes of one local index on ``qubits``.

    Returns a shape that splits the amplitude axis at every operand qubit
    (highest first); per local index ``l``, the index of its plane in that
    view: the amplitudes whose operand bits read ``l``; and per ``l``, the
    position of that plane among the ``2**len(qubits)`` operand planes in C
    order, as they lie once the other axes are summed away.  Cached and
    shared like :func:`local_indices`, and a few tuples in size.
    """
    order = sorted(range(len(qubits)), key=lambda m: -qubits[m])
    shape, top = [], num_qubits
    for m in order:
        shape += [1 << (top - qubits[m] - 1), 2]
        top = qubits[m]
    shape.append(1 << top)
    planes, positions = [], []
    for local in range(1 << len(qubits)):
        bits = [(local >> m) & 1 for m in order]
        index: list[int | slice] = [slice(None)] * len(shape)
        index[1::2] = bits
        planes.append(tuple(index))
        positions.append(
            sum(bit << rank for rank, bit in enumerate(reversed(bits)))
        )
    return tuple(shape), tuple(planes), tuple(positions)


def apply_phased_permutation(
    state: np.ndarray,
    sources: tuple[int, ...],
    phases: tuple[complex, ...],
    qubits: tuple[int, ...],
) -> None:
    """Apply a phased permutation on ``qubits`` to ``state`` in place.

    The operator maps local basis state ``sources[l]`` to ``l`` with phase
    ``phases[l]`` (one nonzero per row and column, a Pauli for instance).
    ``state`` is one statevector and may be any 1-D view, such as a row of
    a row-inner block.  Each plane of local index ``l`` is written once: a
    copy of plane ``sources[l]`` as it was, multiplied by its phase only
    where that is not 1 — the copies and scalar multiplies the gate kernels
    make for such a matrix, so the bytes are theirs (a multiply by 1 could
    flip the sign of a zero).
    """
    shape, planes, _ = operand_planes(
        qubits, int(state.shape[-1]).bit_length() - 1
    )
    view = state.reshape(shape)
    before = None
    for local, (source, phase) in enumerate(zip(sources, phases)):
        if source == local:
            if phase != 1:
                view[planes[local]] *= phase
            continue
        if before is None:
            before = np.array(view)
        if phase == 1:
            np.copyto(view[planes[local]], before[planes[source]])
        else:
            np.multiply(before[planes[source]], phase, out=view[planes[local]])


def apply_gate(state: np.ndarray, gate) -> np.ndarray:
    """Apply a :class:`~repro.circuits.gate.Gate` to a statevector."""
    return apply_unitary(state, gate.to_matrix(), gate.qubits)


def apply_matrix_inplace_view(
    state: np.ndarray, matrix: np.ndarray, targets: Sequence[int]
) -> np.ndarray:
    """Like :func:`apply_unitary` but writes the result back into ``state``.

    Returns ``state`` for convenience.  A temporary of the same size is still
    allocated by the contraction; "in place" refers to the destination buffer.
    """
    state[...] = apply_unitary(state, matrix, targets)
    return state


def apply_unitary_to_density(
    rho: np.ndarray, matrix: np.ndarray, targets: Sequence[int], backend=None
) -> np.ndarray:
    """Apply ``U rho U†`` on the given target qubits of a density matrix.

    When a :class:`~repro.backends.base.Backend` is supplied, its kernels
    drive the numerics and its mutation contract applies (``rho`` may be
    transformed in place); otherwise the application is purely functional.
    """
    dim = rho.shape[0]
    num_qubits = int(dim).bit_length() - 1
    if rho.shape != (dim, dim) or 2**num_qubits != dim:
        raise ValueError("density matrix must be square with power-of-two dimension")
    # Treat rho as a vector over (row ⊗ column) and apply U to the row index
    # and U* to the column index.  Row index is the most significant part of
    # the flattened index flat[r * dim + c], so in little-endian terms the
    # column qubits occupy bits 0..n-1 and row qubits bits n..2n-1.
    flat = rho.reshape(-1)
    matrix = np.asarray(matrix, dtype=complex)
    row_targets = [t + num_qubits for t in targets]
    col_targets = list(targets)
    apply = apply_unitary if backend is None else backend.apply_unitary
    flat = apply(flat, matrix, row_targets)
    flat = apply(flat, matrix.conj(), col_targets)
    return flat.reshape(dim, dim)


def apply_kraus_to_density(
    rho: np.ndarray,
    kraus_operators: Sequence[np.ndarray],
    targets: Sequence[int],
    backend=None,
) -> np.ndarray:
    """Apply a CPTP map ``rho -> sum_i K_i rho K_i†`` on the target qubits.

    The optional ``backend`` routes every operator application through its
    kernels; the Kraus sum itself always lands in a fresh array.
    """
    dim = rho.shape[0]
    num_qubits = int(dim).bit_length() - 1
    row_targets = [t + num_qubits for t in targets]
    col_targets = list(targets)
    flat = rho.reshape(-1)
    total = np.zeros_like(flat)
    for kraus in kraus_operators:
        kraus = np.asarray(kraus, dtype=complex)
        if backend is None:
            term = apply_unitary(flat, kraus, row_targets)
            term = apply_unitary(term, kraus.conj(), col_targets)
        else:
            term = backend.apply_unitary(
                backend.copy_state(flat), kraus, row_targets
            )
            term = backend.apply_unitary(term, kraus.conj(), col_targets)
        total += term
    return total.reshape(dim, dim)
