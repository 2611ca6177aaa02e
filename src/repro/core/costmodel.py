"""Microbenchmark-calibrated execution cost model.

The analytic planner prices a state copy at the paper-era scalar
``DEFAULT_COPY_COST_IN_GATES`` — right for the systems of Figure 10, but
wrong whenever the substrate changes the economics: batched kernels
amortise per-gate Python dispatch across ``B`` rows (so copies get
*relatively* more expensive per kernel call but cheaper per trajectory), and
any future torch/GPU backend will shift the ratio again.  Following the
measure-then-plan structure of QTensor's cost analyses, this module times
the primitives on the *active backend at the target width* and hands the
planners a :class:`CostModel` instead of a guess:

* ``batch_overhead_ns`` / ``batch_row_ns`` — the affine cost
  ``t(B) = overhead + B * row`` of one kernel call on a ``B``-row block,
  solved from measurements at ``B = 1`` and ``B = CALIBRATION_BATCH_ROWS``;
  ``t(1)`` is the price of one gate on one node (cap 1);
* ``copy_ns`` — one statevector copy (the price of reuse);
* ``sample_ns`` — one leaf outcome draw from a
  :class:`~repro.core.pathrng.PathStream`.

:meth:`CostModel.plan_seconds` is the one price of a run: the wall time of
any frontier range of a partition plan (a full run is the range ``[0,
A_0)`` of layer 0) at a chunk cap.  The DCP search compares candidate
plans with it and the shard balancer prices each shard's range with it, in
measured nanoseconds rather than gate-equivalents.  Models are cached per
``(backend, num_qubits)`` in memory and optionally persisted to a JSON
artifact so CI can diff calibration drift across commits.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from repro.backends import Backend, get_backend
from repro.circuits.stdgates import cx_matrix, h_matrix
from repro.core.pathrng import PathStream
from repro.obs import clock

__all__ = [
    "CostModel",
    "calibrate_cost_model",
    "estimate_shard_seconds",
    "get_cost_model",
    "load_cost_model_cache",
    "save_cost_model_cache",
    "clear_cost_model_memory_cache",
    "DEFAULT_ASSUMED_GATE_NS",
    "DEFAULT_CALIBRATION_QUBITS",
]

#: Width the CLI and experiments calibrate at when none is given.
DEFAULT_CALIBRATION_QUBITS = 10

#: Assumed nanoseconds per gate-equivalent when no calibrated model exists.
#: Deliberately generous (an order of magnitude above the measured batched
#: kernels on this substrate): an uncalibrated time estimate feeds *timeout*
#: and straggler thresholds, where overestimating costs a little patience
#: and underestimating kills healthy shards.
DEFAULT_ASSUMED_GATE_NS = 20_000.0

#: Larger batch point of the affine batched-kernel fit.
CALIBRATION_BATCH_ROWS = 16

_CACHE_VERSION = 1
_MEMORY_CACHE: dict[tuple[str, int], "CostModel"] = {}


@dataclass(frozen=True)
class CostModel:
    """Measured per-primitive costs of one backend at one circuit width."""

    backend: str
    num_qubits: int
    copy_ns: float
    batch_overhead_ns: float
    batch_row_ns: float
    sample_ns: float

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        for name in ("copy_ns", "batch_row_ns", "sample_ns"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.batch_overhead_ns < 0:
            raise ValueError("batch_overhead_ns must be non-negative")

    # ------------------------------------------------------------------
    @property
    def one_node_gate_ns(self) -> float:
        """One gate on one node: the affine kernel fit at ``B = 1``."""
        return self.batch_overhead_ns + self.batch_row_ns

    @property
    def copy_cost_in_gates(self) -> float:
        """The measured counterpart of ``DEFAULT_COPY_COST_IN_GATES``.

        How many one-node gate executions one reuse copy is worth on this
        backend — the scalar the analytic DCP consumes, now grounded in
        measurement.
        """
        return self.copy_ns / self.one_node_gate_ns

    # ------------------------------------------------------------------
    def plan_seconds(
        self,
        arities: Sequence[int],
        subcircuit_lengths: Sequence[int],
        max_batch: int | None = None,
        frontier_range: tuple[int, int, int] | None = None,
    ) -> float:
        """Predicted wall seconds of a run over one frontier range of the plan.

        ``frontier_range`` is ``(layer, start, stop)``, the nodes ``[start,
        stop)`` of layer ``layer``'s flattened frontier that a shard runs;
        ``None`` is the full run, the range ``[0, A_0)`` of layer 0.  The
        run executes the range's window on every layer
        (:func:`~repro.core.engine.frontier_windows`: its ancestors above,
        the range itself, every subtree below) in ``ceil(window /
        max_batch)`` frontier chunks, each gate one kernel call per chunk
        at the affine rate ``batch_overhead_ns + rows * batch_row_ns``.
        Each node below layer 0 adds one copy and each leaf one outcome
        draw.  ``max_batch=None`` prices the cap the engine runs by default
        at this model's width (:func:`~repro.core.engine.default_chunk_cap`);
        ``max_batch=1`` prices one node at a time.  A larger cap is never
        priced slower.
        """
        # The engine imports this module through the partitioners.
        from repro.core.engine import default_chunk_cap, frontier_windows

        arities = [int(a) for a in arities]
        lengths = [int(length) for length in subcircuit_lengths]
        if len(arities) != len(lengths):
            raise ValueError("need one arity per subcircuit")
        if max_batch is None:
            max_batch = default_chunk_cap(self.num_qubits)
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        windows = frontier_windows(
            arities, *(frontier_range or (0, 0, arities[0]))
        )
        total_ns = 0.0
        for i, ((lo, hi, _), length) in enumerate(zip(windows, lengths)):
            nodes = hi - lo
            chunks = -(-nodes // max_batch)
            total_ns += length * (
                chunks * self.batch_overhead_ns + nodes * self.batch_row_ns
            )
            if i >= 1:
                total_ns += nodes * self.copy_ns
        total_ns += nodes * self.sample_ns
        return total_ns * 1e-9

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CostModel":
        """Inverse of :meth:`as_dict`."""
        return cls(
            backend=str(data["backend"]),
            num_qubits=int(data["num_qubits"]),
            copy_ns=float(data["copy_ns"]),
            batch_overhead_ns=float(data["batch_overhead_ns"]),
            batch_row_ns=float(data["batch_row_ns"]),
            sample_ns=float(data["sample_ns"]),
        )


def estimate_shard_seconds(
    estimated_cost: float, cost_model: CostModel | None = None
) -> float:
    """Wall-seconds estimate for one shard's planner cost figure.

    The shard planner prices a :class:`~repro.dispatch.planner.ShardSpec`
    in measured nanoseconds (:meth:`CostModel.plan_seconds` of its range)
    when it was given a calibrated model and in analytic gate-equivalents
    otherwise; this helper collapses both into seconds so timeout and
    straggler thresholds can be derived uniformly.
    Uncalibrated estimates use the deliberately conservative
    :data:`DEFAULT_ASSUMED_GATE_NS` rate.
    """
    cost = max(float(estimated_cost), 0.0)
    if cost_model is not None:
        return cost * 1e-9
    return cost * DEFAULT_ASSUMED_GATE_NS * 1e-9


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def _best_ns_per_call(fn, repeats: int, rounds: int) -> float:
    """Minimum per-call nanoseconds over ``rounds`` timed bursts.

    The minimum (not the mean) is the standard microbenchmark estimator on
    a shared machine: every source of interference only ever adds time.
    """
    best = math.inf
    for _ in range(rounds):
        start = clock.perf_ns()
        for _ in range(repeats):
            fn()
        best = min(best, (clock.perf_ns() - start) / repeats)
    return max(best, 1.0)


def _random_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    amplitudes = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(
        2**num_qubits
    )
    return amplitudes / np.linalg.norm(amplitudes)


def calibrate_cost_model(
    backend: str | Backend = "optimized",
    num_qubits: int = DEFAULT_CALIBRATION_QUBITS,
    repeats: int = 48,
    rounds: int = 3,
) -> CostModel:
    """Measure one backend's primitive costs at the given width.

    Times the kernels (an H / CX mix, unitary so the state stays normalised
    across repeats) on an ``allocate_batch`` block of 1 and
    ``CALIBRATION_BATCH_ROWS`` rows to solve the affine per-call model, the
    state copy, and the leaf outcome draw from a
    :class:`~repro.core.pathrng.PathStream`.
    """
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    if repeats < 1 or rounds < 1:
        raise ValueError("repeats and rounds must be >= 1")
    resolved = get_backend(backend)
    rng = np.random.default_rng(2024)
    h = h_matrix()
    cx = cx_matrix()
    far = max(num_qubits - 1, 0)

    state = resolved.copy_state(
        np.ascontiguousarray(_random_state(num_qubits, rng))
    )
    copy_ns = _best_ns_per_call(
        lambda: resolved.copy_state(state), max(repeats * 4, 64), rounds
    )
    stream = PathStream(2025)
    sample_ns = _best_ns_per_call(
        lambda: resolved.sample_outcome(state, stream), repeats, rounds
    )

    calls_per_burst = 2 if far else 1
    per_call: dict[int, float] = {}
    for rows in (1, CALIBRATION_BATCH_ROWS):
        batch = resolved.allocate_batch(num_qubits, rows)
        resolved.broadcast_into(batch, state)

        def one_batched_gate() -> None:
            resolved.apply_unitary(batch, h, (0,))
            if far:
                resolved.apply_unitary(batch, cx, (0, far))

        per_call[rows] = (
            _best_ns_per_call(one_batched_gate, repeats, rounds)
            / calls_per_burst
        )
    span = CALIBRATION_BATCH_ROWS - 1
    batch_row_ns = max(
        (per_call[CALIBRATION_BATCH_ROWS] - per_call[1]) / span, 1.0
    )
    batch_overhead_ns = max(per_call[1] - batch_row_ns, 0.0)

    return CostModel(
        backend=resolved.name,
        num_qubits=int(num_qubits),
        copy_ns=copy_ns,
        batch_overhead_ns=batch_overhead_ns,
        batch_row_ns=batch_row_ns,
        sample_ns=sample_ns,
    )


# ----------------------------------------------------------------------
# Caching (per-process memory cache + JSON artifact)
# ----------------------------------------------------------------------
def load_cost_model_cache(path: str) -> dict[tuple[str, int], CostModel]:
    """Read a calibration artifact; missing or unreadable files give ``{}``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return {}
    models = {}
    for entry in payload.get("models", []):
        try:
            model = CostModel.from_dict(entry)
        except (KeyError, TypeError, ValueError):
            continue
        models[(model.backend, model.num_qubits)] = model
    return models


def save_cost_model_cache(
    models: dict[tuple[str, int], CostModel], path: str
) -> None:
    """Write a calibration artifact (the CI-diffable JSON form)."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    payload = {
        "version": _CACHE_VERSION,
        "models": [
            models[key].as_dict() for key in sorted(models.keys())
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def clear_cost_model_memory_cache() -> None:
    """Forget every in-memory model (test isolation hook)."""
    _MEMORY_CACHE.clear()


def get_cost_model(
    backend: str | Backend = "optimized",
    num_qubits: int = DEFAULT_CALIBRATION_QUBITS,
    cache_path: str | None = None,
    refresh: bool = False,
    repeats: int = 48,
    rounds: int = 3,
) -> CostModel:
    """Fetch the ``(backend, num_qubits)`` model, calibrating at most once.

    Resolution order: the per-process memory cache, then the JSON artifact
    at ``cache_path`` (when given), then a fresh calibration — whose result
    is stored back into both.  ``refresh=True`` forces re-measurement.
    """
    name = get_backend(backend).name
    key = (name, int(num_qubits))
    if not refresh:
        cached = _MEMORY_CACHE.get(key)
        if cached is not None:
            return cached
        if cache_path is not None:
            from_disk = load_cost_model_cache(cache_path).get(key)
            if from_disk is not None:
                _MEMORY_CACHE[key] = from_disk
                return from_disk
    model = calibrate_cost_model(
        backend, num_qubits, repeats=repeats, rounds=rounds
    )
    _MEMORY_CACHE[key] = model
    if cache_path is not None:
        on_disk = load_cost_model_cache(cache_path)
        on_disk[key] = model
        save_cost_model_cache(on_disk, cache_path)
    return model
