"""Path-keyed counter-based random streams for the simulation tree.

Seeding contract v2.  Every tree node owns an independent uniform stream
addressed by a single 64-bit *path key* instead of a
``numpy.random.SeedSequence`` chain.  The key of the node at path
``(j, c1, ..., cd)`` is derived statelessly — ``child_key`` applied along the
path from the run's root key — and the node's ``t``-th uniform is a pure
function of ``(key, t)``:

    ``u(key, t) = (splitmix64(key + (t + 1) * GOLDEN) >> 11) * 2**-53``

which is exactly the splitmix64 output sequence seeded at ``key`` (Steele,
Lea & Flood 2014 — the generator ``java.util.SplittableRandom`` uses to seed
its splits, and the one the PCG and xoshiro families recommend for state
initialisation).  Two properties carry the whole design:

* **Statelessness.**  Any process can recompute any node's draws from the
  root key and the path alone — no spawn counters, no pickled generator
  state.  That is what lets shards at any tree depth reproduce the full
  run's outcomes bitwise (see :mod:`repro.dispatch`).
* **Vectorisation.**  Because a draw is a pure function of ``(key, counter)``,
  a batched kernel can produce the next uniform of *B* different node
  streams in one array expression (:func:`draw_block`) instead of looping
  over per-row ``Generator`` objects — the scalar-draw loops were what cost
  the batched traversal its 4.8x speedup in v5.

:class:`PathStream` wraps one ``(key, counter)`` pair behind the
``Generator.random(size)`` signature, so the per-state consumers
(``Backend.sample_outcome`` with its readout flips, ``sample_mixture_index``,
``sample_channel_on_state``) draw from it directly.  The engine's frontier
chunks draw one block over their rows' streams (:func:`draw_block`), and
its ``sample_leaves`` draws every leaf of a noiseless run at counter 0
straight from the leaf key array.  All three reduce to
:func:`uniform_block`, so scalar and block draws are bitwise identical by
construction.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence

import numpy as np

__all__ = [
    "GOLDEN",
    "PathStream",
    "UniformStream",
    "child_key",
    "child_keys",
    "child_keys_multi",
    "draw_block",
    "root_key_from_seed",
    "run_root_key",
    "uniform_block",
]


class UniformStream(Protocol):
    """The draw interface the per-state sampling helpers consume.

    Structural type of the ``Generator.random`` subset those helpers use:
    one scalar uniform, or a shaped block of uniforms.  Every trajectory
    draws from a :class:`PathStream`, which satisfies it.  The per-state
    helpers (``sample_mixture_index``, ``sample_channel_on_state``,
    :meth:`~repro.backends.base.Backend.sample_outcome`) call nothing else
    on a stream, so code outside the trajectory path (the cost model's
    calibration, for one) may also hand them a
    :class:`numpy.random.Generator`.  Vectorised draws over many rows
    (:func:`draw_block`, :func:`uniform_block`) need the ``(key, counter)``
    pairs themselves.
    """

    def random(
        self, size: int | tuple[int, ...] | None = None
    ) -> float | np.ndarray: ...

#: 2**64 / phi, the splitmix64 stream increment ("Weyl constant").
GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
#: Scales a 53-bit integer into [0, 1) exactly like numpy's double path.
_TO_DOUBLE = 2.0**-53

#: Up to this many outputs the pure-Python scalar path beats the fixed cost
#: of the vectorised one (both are bitwise identical); the tree traversal's
#: one-row chunks and leaf draws live below it.
_SCALAR_CUTOFF = 16

_U64 = np.uint64
_GOLDEN_U64 = _U64(GOLDEN)
_MIX_1_U64 = _U64(_MIX_1)
_MIX_2_U64 = _U64(_MIX_2)
_ONE_U64 = _U64(1)
_SHIFT_11 = _U64(11)
_SHIFT_27 = _U64(27)
_SHIFT_30 = _U64(30)
_SHIFT_31 = _U64(31)


def _mix64_int(x: int) -> int:
    """splitmix64 finalizer on a Python int (mod 2**64).

    Bitwise identical to :func:`_mix64_array`; the scalar paths use this to
    avoid per-draw numpy array construction overhead.
    """
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX_1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX_2) & _MASK
    return x ^ (x >> 31)


def _mix64_raw(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 arrays; caller holds the errstate."""
    x = (x ^ (x >> _SHIFT_30)) * _MIX_1_U64
    x = (x ^ (x >> _SHIFT_27)) * _MIX_2_U64
    return x ^ (x >> _SHIFT_31)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorised over a uint64 array."""
    with np.errstate(over="ignore"):
        return _mix64_raw(x)


def _uniform_int(key: int, counter: int) -> float:
    """The ``counter``-th uniform of the stream at ``key`` (scalar path)."""
    bits = _mix64_int(key + (counter + 1) * GOLDEN)
    return (bits >> 11) * _TO_DOUBLE


def uniform_block(
    keys: np.ndarray | Sequence[int],
    counters: np.ndarray | Sequence[int],
    count: int,
) -> np.ndarray:
    """Uniforms ``counters[i] .. counters[i]+count-1`` of every stream.

    Returns a ``(len(keys), count)`` float64 array; row ``i`` holds the next
    ``count`` uniforms of the stream at ``keys[i]``, bitwise identical to
    ``count`` scalar :meth:`PathStream.random` calls on that stream.
    """
    if len(keys) * count <= _SCALAR_CUTOFF:
        return np.array(
            [
                [_uniform_int(int(key), int(counter) + t) for t in range(count)]
                for key, counter in zip(keys, counters)
            ],
            dtype=np.float64,
        ).reshape(len(keys), count)
    keys = np.asarray(keys, dtype=_U64)
    counters = np.asarray(counters, dtype=_U64)
    with np.errstate(over="ignore"):
        if count == 1:
            # Fast path — the per-event single draw the batched noise and
            # outcome samplers make; skips the 2-D broadcast machinery.
            bits = _mix64_raw(keys + (counters + _ONE_U64) * _GOLDEN_U64)
            return ((bits >> _SHIFT_11) * _TO_DOUBLE).reshape(-1, 1)
        offsets = np.arange(1, count + 1, dtype=_U64)[None, :]
        bits = _mix64_raw(
            keys.reshape(-1, 1) + (counters.reshape(-1, 1) + offsets) * _GOLDEN_U64
        )
        return (bits >> _SHIFT_11) * _TO_DOUBLE


def root_key_from_seed(
    seed: int | np.random.SeedSequence | None,
) -> int:
    """Fold a user seed into the engine's 64-bit root key.

    Accepts the same seed types :class:`numpy.random.default_rng` does for
    its common cases (``int``, ``None``, ``SeedSequence``) and runs them
    through ``SeedSequence.generate_state`` so closely spaced integer seeds
    still land on well-separated keys.  A ``SeedSequence`` is *not* mutated
    (no spawning), so planner and engine can both derive from a shared one.
    """
    sequence = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    low, high = sequence.generate_state(2, np.uint32)
    return (int(high) << 32) | int(low)


def child_key(parent_key: int, index: int) -> int:
    """Key of the ``index``-th child of the node keyed ``parent_key``.

    A stateless hash chain: mixing the child position through the finalizer
    before combining decorrelates sibling keys (and their whole subtrees)
    even though positions are small consecutive integers.
    """
    return _mix64_int(parent_key ^ _mix64_int(index * GOLDEN + _MIX_2))


def child_keys(parent_key: int, start: int, count: int) -> np.ndarray:
    """Keys of children ``start .. start+count-1``, as one uint64 array.

    ``child_keys(p, s, c)[i] == child_key(p, s + i)`` bitwise.
    """
    return child_keys_multi(
        np.full(count, parent_key & _MASK, dtype=_U64),
        np.arange(start, start + count, dtype=_U64),
    )


def child_keys_multi(
    parent_keys: np.ndarray | Sequence[int],
    indices: np.ndarray | Sequence[int],
) -> np.ndarray:
    """Keys of child ``indices[k]`` of the node keyed ``parent_keys[k]``.

    Vectorised form of :func:`child_key` for the tree traversal's frontier
    chunks, whose rows span the children of several parents:
    ``child_keys_multi(p, c)[k] == child_key(p[k], c[k])`` bitwise.
    """
    parents = np.asarray(parent_keys, dtype=_U64)
    positions = np.asarray(indices, dtype=_U64)
    if positions.size <= _SCALAR_CUTOFF:
        return np.array(
            [
                child_key(parent, index)
                for parent, index in zip(parents.tolist(), positions.tolist())
            ],
            dtype=_U64,
        )
    with np.errstate(over="ignore"):
        mixed = _mix64_raw(positions * _GOLDEN_U64 + _MIX_2_U64)
        return _mix64_raw(parents ^ mixed)


def run_root_key(
    seed: int | np.random.SeedSequence | None, run_index: int = 0
) -> int:
    """Root key of the ``run_index``-th ``run()`` call of a fresh engine.

    Consecutive runs of one engine draw fresh ensembles by advancing the run
    index; shard planners always target run 0, mirroring how dispatchers
    rebuild their engines per call.
    """
    return child_key(root_key_from_seed(seed), run_index)


class PathStream:
    """One tree node's uniform stream: a ``(key, counter)`` pair.

    Duck-types the subset of :class:`numpy.random.Generator` the trajectory
    samplers consume — ``random()`` for scalar inverse-CDF draws and
    ``random(shape)`` for readout-flip blocks — so it passes through every
    existing sampling helper unchanged.  Scalar draws, shaped draws and
    :func:`draw_block` all advance the counter identically, which is what
    keeps every chunk size of the tree traversal bitwise interchangeable.
    """

    __slots__ = ("key", "counter")

    def __init__(self, key: int, counter: int = 0) -> None:
        self.key = int(key) & _MASK
        self.counter = int(counter)

    def random(
        self, size: int | tuple[int, ...] | None = None
    ) -> float | np.ndarray:
        """Next uniform(s) in [0, 1), matching ``Generator.random``."""
        if size is None:
            value = _uniform_int(self.key, self.counter)
            self.counter += 1
            return value
        shape = (size,) if isinstance(size, int) else tuple(size)
        count = int(np.prod(shape)) if shape else 1
        block = uniform_block([self.key], [self.counter], count)
        self.counter += count
        return block.reshape(shape)

    def child(self, index: int) -> "PathStream":
        """A fresh stream for the ``index``-th child node."""
        return PathStream(child_key(self.key, index))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PathStream(key={self.key:#018x}, counter={self.counter})"


def draw_block(streams: Iterable[PathStream], count: int = 1) -> np.ndarray:
    """Next ``count`` uniforms of every stream, in one vectorised draw.

    Returns a ``(B, count)`` array where row ``i`` is what ``count``
    successive ``streams[i].random()`` calls would have returned, and
    advances every stream's counter by ``count``.  This is the batched
    kernels' replacement for per-row scalar draw loops.
    """
    streams = list(streams)
    block = uniform_block(
        [s.key for s in streams], [s.counter for s in streams], count
    )
    for stream in streams:
        stream.counter += count
    return block
