"""Dispatchers: run shard plans serially or across worker processes.

Both dispatchers are drop-in replacements for a single
:class:`~repro.core.engine.TQSimEngine`: construct with the same knobs, call
``run(circuit, shots)``, get one merged
:class:`~repro.core.results.SimulationResult` back.  The merged counts are
bitwise identical to the single-engine run with the same root seed — for the
:class:`SerialDispatcher` *and* the :class:`PoolDispatcher`, for any shard
count, any split depth and any ``max_batch`` — because every tree node draws
from its own path-addressed stream (see :mod:`repro.dispatch.planner` and the
seeding notes in :mod:`repro.core.engine`).  Every shard runs the engine's
one chunked traversal; ``max_batch=1`` only changes the chunking.  What
changes between the two dispatchers is only where the shards execute and
therefore the wall-clock time.

``max_depth`` controls how far the shard planner may descend when the
first-layer arity is smaller than the worker pool: at the default 1 the
planner slices only the first layer (at most ``A0`` shards); at depth ``d``
it may split the frontier of layer ``d - 1``, keeping every worker busy on
plans like ``(2, 64)`` at the price of running the short shared prefix once
per shard.

Supervision
-----------
:class:`PoolDispatcher` runs each worker in a single-worker pool of its own
(a *slot*) and hands the next shard attempt to whichever slot is idle:

* **Timeouts** — every shard attempt gets a deadline derived from the
  planner's cost estimate (:data:`TIMEOUT_FACTOR` ``×`` the estimated
  seconds, clamped to a configurable floor/ceiling), counted from the moment
  a worker takes it.  A timed-out attempt is *abandoned*: its worker is
  terminated and replaced at once, and the shard is retried.
* **Retries with deterministic backoff** — failed and timed-out attempts
  requeue with exponential backoff whose jitter is drawn from a
  :mod:`repro.core.pathrng` stream keyed by ``(shard, attempt)``: no
  wall-clock entropy, so a fault scenario schedules identically on every
  run and the determinism lint stays green.  ``max_retries=0`` fails fast:
  the first failed attempt raises.
* **Pool rebuilds** — a :class:`BrokenProcessPool` (worker crash/OOM)
  breaks only the slot of the attempt that crashed: that worker is
  replaced and that shard requeued, while the attempts on the other
  workers run on.  A crash is therefore charged to the shard that caused
  it, and the telemetry of a fault schedule does not depend on timing.
* **Speculative re-shard** — a shard that runs past ``straggler_factor ×``
  its estimate while workers sit idle is re-split over the idle capacity
  via :func:`~repro.dispatch.planner.split_shard_spec`.  First full
  coverage wins (the original result, or the merged sub-results); the
  loser is cancelled or abandoned.  The path-keyed seeding contract makes
  the re-split bitwise exact, so the winner's counts are identical either
  way.
* **Graceful degradation** — after ``max_pool_rebuilds`` the dispatcher
  stops burning processes and finishes the remaining shards *in-process*
  (serially, without the fault injector), recording the downgrade in
  telemetry instead of raising.

Whatever the fault schedule, the merged counts and cost counters are
bitwise identical to :class:`SerialDispatcher` with the same root seed:
every retry, re-split and re-execution draws from the same path-addressed
streams (see :mod:`repro.core.pathrng`).

Result accounting
-----------------
``result.cost`` sums the shard counters, with ``wall_time_seconds`` replaced
by the dispatcher's *elapsed* wall time (what a caller comparing end-to-end
latency should see).  ``result.metadata["dispatch"]`` keeps the bookkeeping:
per-shard wall times, their sum (the compute actually burned across
workers), worker/shard counts and the executor mode.  A pool run adds
``resilience``: the supervision telemetry, accumulated in an obs
:class:`~repro.obs.tracer.MetricSet` under the ``dispatch.resilience.*``
names of :mod:`repro.obs.schema` (merged into the active tracer's metrics
when tracing is on) and rebuilt as a dict by
:func:`~repro.obs.schema.resilience_view`: ``attempts`` (submissions per
shard), ``timeouts``, ``retries``, ``failures`` (one record per fault:
shard, attempt, kind, error), ``pool_rebuilds``, ``speculative``
(launched/won/lost), ``degraded`` (+ ``degraded_shards``),
``backoff_seconds_total`` and the derived ``timeout_seconds`` budget per
shard.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import weakref
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_for_sentinels
from typing import Any

import numpy as np

from repro.circuits.circuit import Circuit
from repro.core.costmodel import CostModel, estimate_shard_seconds
from repro.core.partitioners import CircuitPartitioner, PartitionPlan
from repro.core.pathrng import PathStream, child_key, run_root_key
from repro.core.results import SimulationResult, merge_many
from repro.dispatch.faults import (
    FaultInjector,
    ShardRetryExhaustedError,
    ShardTimeoutError,
)
from repro.dispatch.planner import ShardPlanner, ShardSpec, split_shard_spec
from repro.dispatch.worker import run_shard
from repro.noise.model import NoiseModel
from repro.obs import clock
from repro.obs.schema import (
    REPLAYED_PREFIX_GATES,
    RESILIENCE_DEGRADED,
    RESILIENCE_PREFIX,
    replayed_prefix_gates_view,
    resilience_view,
)
from repro.obs.tracer import (
    NULL_SPAN,
    AnyTracer,
    MetricSet,
    SpanBuffer,
    get_tracer,
)

__all__ = ["Dispatcher", "SerialDispatcher", "PoolDispatcher"]

#: Start method of the worker slots: ``fork`` where available (workers
#: inherit the parent's imported modules, so warm-up cost is a fraction of
#: a ``spawn`` interpreter boot), else the platform default.
MP_CONTEXT = "fork" if "fork" in multiprocessing.get_all_start_methods() else None

#: An attempt's deadline is this many times its estimated seconds, clamped
#: to ``[min_timeout_seconds, max_timeout_seconds]``.
TIMEOUT_FACTOR = 10.0

#: Retry ``n`` waits ``backoff_base_seconds × BACKOFF_FACTOR**(n-1)``,
#: capped at ``backoff_max_seconds``, before jitter.
BACKOFF_FACTOR = 2.0

#: Re-split a straggling shard over idle workers and race the copies.
SPECULATE = True

#: Domain separator for the backoff-jitter key chain: keeps retry jitter
#: draws disjoint from every tree node's trajectory stream.
_JITTER_SALT = 0x52455349  # "RESI"

#: Ceiling of one supervision-loop wait (seconds); deadline and backoff
#: events always wake the loop earlier when they are nearer.
_MAX_POLL_SECONDS = 0.5


def _default_worker_count() -> int:
    """Conservative default: every core, but at least one."""
    return max(os.cpu_count() or 1, 1)


def _reap_executor_processes(
    pool: ProcessPoolExecutor, grace_seconds: float = 2.0
) -> None:
    """Shut ``pool`` down and terminate (then kill) its live workers.

    ``shutdown(wait=False, cancel_futures=True)`` only cancels *queued*
    futures: a worker stuck inside a running shard (a hang, a wedged kernel)
    keeps running — and keeps its memory — long after the dispatcher has
    timed it out and moved on.  This reaps such orphans for real: SIGTERM
    each live worker, give the batch ``grace_seconds`` to exit, then SIGKILL
    whatever ignored it, and ``join`` so no zombie survives.  The worker
    table must be snapshotted *before* shutdown (which drops the pool's
    ``_processes`` reference), so this helper owns the shutdown call too.
    Workers that already exited are skipped; races with the executor's own
    cleanup (process gone, handle closed) are tolerated.

    The pool's manager thread is joined last.  A failed run's pool can
    outlive the run as cyclic garbage (an exception traceback holds it);
    if a process forked later collects that garbage, the pool's weakref
    callback takes the pool's shutdown lock in the child.  A manager thread
    that held the lock at the fork would leave the child blocked forever.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        with suppress(OSError, ValueError, AttributeError):
            if process.is_alive():
                process.terminate()
    deadline = clock.monotonic_seconds() + grace_seconds
    for process in processes:
        with suppress(OSError, ValueError, AttributeError):
            remaining = deadline - clock.monotonic_seconds()
            process.join(timeout=max(remaining, 0.0))
            if process.is_alive():
                process.kill()
                process.join()
    if manager is not None:
        manager.join(timeout=grace_seconds)


def _slot_worker_exited(pool: ProcessPoolExecutor) -> bool:
    """Whether a kept slot's worker has died: the executor already noticed
    (its ``_broken`` flag), or the process has exited (its sentinel is
    ready) before the executor's manager thread saw it."""
    if getattr(pool, "_broken", False):
        return True
    processes = (getattr(pool, "_processes", None) or {}).values()
    sentinels = [process.sentinel for process in processes]
    return bool(sentinels) and bool(wait_for_sentinels(sentinels, timeout=0))


def _shutdown_slots(slots: list[ProcessPoolExecutor | None]) -> None:
    """Shut every kept slot down, waiting for its worker to exit."""
    for pool in slots:
        if pool is not None:
            pool.shutdown()
    slots.clear()


class Dispatcher(ABC):
    """Shared shard-plan-then-merge skeleton of every dispatcher."""

    #: Mode tag recorded under ``metadata["dispatch"]["mode"]``.
    mode = "abstract"

    def __init__(
        self,
        noise_model: NoiseModel | None = None,
        seed: int | np.random.SeedSequence | None = None,
        num_shards: int | None = None,
        backend: str = "optimized",
        max_batch: int | None = None,
        max_depth: int = 1,
        cost_model: CostModel | None = None,
        tracer: AnyTracer | None = None,
    ) -> None:
        self.tracer = tracer
        self._planner = ShardPlanner(
            noise_model=noise_model,
            backend=backend,
            max_batch=max_batch,
            max_depth=max_depth,
            cost_model=cost_model,
        )
        self.seed = seed
        if num_shards is not None and num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards

    # ------------------------------------------------------------------
    @property
    def noise_model(self) -> NoiseModel | None:
        """The noise model every shard engine is built with."""
        return self._planner.noise_model

    @property
    def backend(self) -> str:
        """Registry name of the backend every shard engine runs on."""
        return self._planner.backend

    @property
    def max_depth(self) -> int:
        """Tree layers the shard planner may descend (1 = first layer only)."""
        return self._planner.max_depth

    def _effective_num_shards(self) -> int:
        if self.num_shards is not None:
            return self.num_shards
        return _default_worker_count()

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        shots: int,
        partitioner: CircuitPartitioner | None = None,
        plan: PartitionPlan | None = None,
    ) -> SimulationResult:
        """Plan, shard, execute and merge one simulation request.

        Raises :class:`ValueError` up front for ``shots < 1``: an empty
        request has no shards, and everything downstream (`max` over shard
        depths, :func:`~repro.core.results.merge_many`) correctly assumes a
        non-empty decomposition.
        """
        if shots < 1:
            raise ValueError("shots must be >= 1")
        tracer = self.tracer if self.tracer is not None else get_tracer()
        shards = self._planner.plan_shards(
            circuit,
            shots,
            self._effective_num_shards(),
            seed=self.seed,
            partitioner=partitioner,
            plan=plan,
        )
        start = clock.perf_seconds()
        with (
            tracer.span(
                "dispatch.execute",
                mode=self.mode,
                shards=len(shards),
                workers=self._num_workers_used(len(shards)),
            )
            if tracer.enabled
            else NULL_SPAN
        ):
            shard_results, telemetry = self._execute(shards, tracer)
        elapsed = clock.perf_seconds() - start
        self._absorb_shard_buffers(tracer, shard_results)
        merged = merge_many(shard_results)
        run_metrics = MetricSet()
        run_metrics.count(
            REPLAYED_PREFIX_GATES,
            sum(spec.replayed_prefix_gates for spec in shards),
        )
        if tracer.enabled:
            tracer.metrics.merge(run_metrics.counters, run_metrics.gauges)
        shard_seconds = [
            result.cost.wall_time_seconds for result in shard_results
        ]
        merged.metadata["dispatch"] = {
            "mode": self.mode,
            "num_shards": len(shards),
            "num_workers": self._num_workers_used(len(shards)),
            "max_depth": self.max_depth,
            "shard_depth": max(spec.layer for spec in shards),
            "wall_time_seconds": elapsed,
            "shard_wall_times": shard_seconds,
            "shard_seconds_total": sum(shard_seconds),
            "shard_estimated_costs": [spec.estimated_cost for spec in shards],
            "shard_estimated_seconds": [
                estimate_shard_seconds(
                    spec.estimated_cost, self._planner.cost_model
                )
                for spec in shards
            ],
            "replayed_prefix_gates": replayed_prefix_gates_view(run_metrics),
            **telemetry,
        }
        merged.cost.wall_time_seconds = elapsed
        return merged

    # ------------------------------------------------------------------
    @staticmethod
    def _absorb_shard_buffers(
        tracer: AnyTracer, shard_results: list[SimulationResult]
    ) -> None:
        """Merge worker span buffers into the dispatcher's timeline.

        Buffers are *popped* unconditionally so they never leak into the
        merged metadata (``merge_many`` keeps per-shard metadata verbatim);
        absorbing preserves shard order, and retry attempts land on their
        own labelled track so a recovered run shows the failed and the
        successful attempt side by side.
        """
        for result in shard_results:
            buffer = result.metadata.pop("obs", None)
            if buffer is None or not tracer.enabled:
                continue
            if not isinstance(buffer, SpanBuffer):
                continue
            attempt = int(result.metadata.get("shard_attempt", 0))
            track = buffer.track
            if attempt:
                track = f"{track} (attempt {attempt})"
            tracer.absorb(
                buffer,
                track=track,
                shard=result.metadata.get("shard_index"),
                attempt=attempt,
            )

    # ------------------------------------------------------------------
    @abstractmethod
    def _execute(
        self, shards: list[ShardSpec], tracer: AnyTracer
    ) -> tuple[list[SimulationResult], dict[str, Any]]:
        """Run every shard, returning results in shard order.

        Shard order — not completion order — keeps the merged metadata's
        per-shard provenance deterministic regardless of scheduling.
        ``tracer.enabled`` tells the executor whether workers should build
        local tracers and ship span buffers back.  The second item holds
        the executor's own entries for ``metadata["dispatch"]``.
        """

    def _num_workers_used(self, num_shards: int) -> int:
        """Concurrency actually employed (1 for in-process execution)."""
        return 1


class SerialDispatcher(Dispatcher):
    """Runs every shard in the calling process, in shard order.

    This is the reference decomposition: same shard specs, same worker entry
    point, no processes.  Its merged counts and cost counters are bitwise
    identical to both the single-engine run and the pooled run with the same
    root seed, which makes it the equivalence anchor the tests (and any
    debugging session) compare against.
    """

    mode = "serial"

    def _execute(
        self, shards: list[ShardSpec], tracer: AnyTracer
    ) -> tuple[list[SimulationResult], dict[str, Any]]:
        return [run_shard(spec, 0, None, tracer.enabled) for spec in shards], {}


@dataclass
class _Flight:
    """One shard attempt (primary or speculative part) and its worker."""

    shard: int
    attempt: int
    spec: ShardSpec
    speculative: bool = False
    part: int = -1
    slot: int = -1
    submitted_at: float = 0.0
    deadline: float = 0.0


@dataclass
class _SpeculationGroup:
    """The speculative re-shard racing one straggling primary attempt."""

    parts: int
    results: dict[int, SimulationResult] = field(default_factory=dict)


class PoolDispatcher(Dispatcher):
    """Runs shards across worker processes under a supervision loop that
    survives crashes, hangs and stragglers (see the module notes).

    Parameters
    ----------
    num_workers:
        Worker process count; defaults to ``os.cpu_count()``.
    num_shards:
        Shard count; defaults to ``num_workers`` (one shard per worker keeps
        the per-shard pickling/IPC overhead minimal; more shards than
        workers gives finer load balancing at slightly higher overhead).
    fault_injector:
        Deterministic fault schedule threaded into every
        :func:`~repro.dispatch.worker.run_shard` call (see
        :mod:`repro.dispatch.faults`).  ``None`` — the default — is inert;
        this knob exists for fault-injection tests and benchmarks.
    max_retries:
        Failed/timed-out attempts allowed per shard before
        :class:`~repro.dispatch.faults.ShardRetryExhaustedError`; 0 raises
        on the first failed attempt.
    min_timeout_seconds / max_timeout_seconds:
        Per-shard deadline = ``clamp(TIMEOUT_FACTOR × estimated_seconds,
        floor, ceiling)``.  The floor absorbs estimate error on tiny shards;
        the ceiling bounds how long a hung worker can stall the run.
    backoff_base_seconds / backoff_max_seconds:
        Retry ``n`` waits ``min(base × BACKOFF_FACTOR**(n-1), max)`` scaled
        by a deterministic jitter in ``[0.5, 1.5)`` drawn from a pathrng
        stream keyed by ``(shard, attempt)``.
    straggler_factor / straggler_min_seconds:
        A primary attempt running past ``max(factor × estimated_seconds,
        min_seconds)`` with idle workers available triggers one speculative
        re-shard of its range.
    max_pool_rebuilds:
        Crash recoveries (slots rebuilt after a worker died mid-run) per
        run before degrading to in-process serial execution of the
        remaining shards.
    tracer:
        Explicit :class:`~repro.obs.tracer.Tracer`; the default ``None``
        resolves the ambient tracer (:func:`~repro.obs.tracer.get_tracer`)
        per run.  When tracing is enabled every worker ships its span
        buffer back and the dispatcher merges them into one timeline.

    The worker slots outlive a run, so a repeated run with the same worker
    count pays no process start-up or teardown.  A slot whose worker died
    between runs is replaced when the next run starts, charged to no run;
    a run that raises reaps every slot.  ``close()``, leaving a ``with``
    block or dropping the dispatcher shuts the workers down.  Runs on one
    dispatcher take turns.
    """

    mode = "pool"

    def __init__(
        self,
        noise_model: NoiseModel | None = None,
        seed: int | np.random.SeedSequence | None = None,
        num_workers: int | None = None,
        num_shards: int | None = None,
        backend: str = "optimized",
        max_batch: int | None = None,
        max_depth: int = 1,
        cost_model: CostModel | None = None,
        fault_injector: FaultInjector | None = None,
        max_retries: int = 3,
        min_timeout_seconds: float = 5.0,
        max_timeout_seconds: float = 300.0,
        backoff_base_seconds: float = 0.05,
        backoff_max_seconds: float = 2.0,
        straggler_factor: float = 4.0,
        straggler_min_seconds: float = 1.0,
        max_pool_rebuilds: int = 2,
        tracer: AnyTracer | None = None,
    ) -> None:
        if num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if min_timeout_seconds <= 0 or max_timeout_seconds < min_timeout_seconds:
            raise ValueError(
                "need 0 < min_timeout_seconds <= max_timeout_seconds"
            )
        if backoff_base_seconds < 0 or backoff_max_seconds < 0:
            raise ValueError("backoff seconds must be non-negative")
        if straggler_factor <= 0 or straggler_min_seconds < 0:
            raise ValueError(
                "straggler_factor must be positive and "
                "straggler_min_seconds non-negative"
            )
        if max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        self.num_workers = num_workers
        self.fault_injector = fault_injector
        self.max_retries = int(max_retries)
        self.min_timeout_seconds = float(min_timeout_seconds)
        self.max_timeout_seconds = float(max_timeout_seconds)
        self.backoff_base_seconds = float(backoff_base_seconds)
        self.backoff_max_seconds = float(backoff_max_seconds)
        self.straggler_factor = float(straggler_factor)
        self.straggler_min_seconds = float(straggler_min_seconds)
        self.max_pool_rebuilds = int(max_pool_rebuilds)
        #: One single-worker pool per worker slot, kept between runs.
        self._slots: list[ProcessPoolExecutor | None] = []
        self._lock = threading.Lock()
        # Shut the workers down when the dispatcher is dropped; the callback
        # holds the slot list, never the dispatcher.
        weakref.finalize(self, _shutdown_slots, self._slots)
        super().__init__(
            noise_model=noise_model,
            seed=seed,
            num_shards=num_shards,
            backend=backend,
            max_batch=max_batch,
            max_depth=max_depth,
            cost_model=cost_model,
            tracer=tracer,
        )

    def _effective_num_shards(self) -> int:
        if self.num_shards is not None:
            return self.num_shards
        if self.num_workers is not None:
            return self.num_workers
        return _default_worker_count()

    def _num_workers_used(self, num_shards: int) -> int:
        workers = self.num_workers
        if workers is None:
            workers = _default_worker_count()
        return max(1, min(workers, num_shards))

    def _make_slot(self) -> ProcessPoolExecutor:
        """A fresh single-worker pool under :data:`MP_CONTEXT`."""
        return ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context(MP_CONTEXT)
        )

    def close(self) -> None:
        """Shut down the workers kept between runs."""
        with self._lock:
            _shutdown_slots(self._slots)

    def __enter__(self) -> PoolDispatcher:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _timeout_for(self, spec: ShardSpec) -> float:
        """Deadline budget of one attempt at ``spec`` (seconds)."""
        estimated = estimate_shard_seconds(
            spec.estimated_cost, self._planner.cost_model
        )
        return min(
            max(TIMEOUT_FACTOR * estimated, self.min_timeout_seconds),
            self.max_timeout_seconds,
        )

    def _straggler_threshold(self, spec: ShardSpec) -> float:
        """Runtime past which an attempt at ``spec`` counts as straggling."""
        estimated = estimate_shard_seconds(
            spec.estimated_cost, self._planner.cost_model
        )
        return max(
            self.straggler_factor * estimated, self.straggler_min_seconds
        )

    def _backoff_seconds(self, shard: int, attempt: int) -> float:
        """Deterministic backoff before retry ``attempt`` of ``shard``.

        Exponential in the attempt number, scaled by a jitter factor in
        ``[0.5, 1.5)`` drawn from a pathrng stream keyed by the dispatcher
        seed, a domain salt, the shard and the attempt — a pure function of
        the configuration, so scheduling is reproducible and two shards
        failing together do not retry in lockstep.
        """
        if attempt < 1 or self.backoff_base_seconds == 0.0:
            return 0.0
        base = min(
            self.backoff_base_seconds * BACKOFF_FACTOR ** (attempt - 1),
            self.backoff_max_seconds,
        )
        jitter_key = child_key(
            child_key(
                child_key(run_root_key(self.seed), _JITTER_SALT), shard
            ),
            attempt,
        )
        jitter = 0.5 + float(PathStream(jitter_key).random())
        return base * jitter

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Circuit,
        shots: int,
        partitioner: CircuitPartitioner | None = None,
        plan: PartitionPlan | None = None,
    ) -> SimulationResult:
        """Plan, execute under supervision and merge one request.

        The worker slots are shared by every run, so runs take turns.
        """
        with self._lock:
            return super().run(
                circuit, shots, partitioner=partitioner, plan=plan
            )

    def _execute(
        self, shards: list[ShardSpec], tracer: AnyTracer
    ) -> tuple[list[SimulationResult], dict[str, Any]]:
        num_workers = self._num_workers_used(len(shards))
        trace = tracer.enabled
        timeouts = [self._timeout_for(spec) for spec in shards]
        straggler_after = [self._straggler_threshold(s) for s in shards]
        #: Scalar telemetry accumulates under the shared obs schema; the
        #: structured event logs below stay plain Python and both feed
        #: :func:`~repro.obs.schema.resilience_view` at the end.
        metrics = MetricSet()
        attempts_made = [0] * len(shards)
        failures: list[dict[str, Any]] = []
        degraded_shards: list[int] = []
        pool_rebuilds = 0

        results: dict[int, SimulationResult] = {}
        #: Next attempt index per shard (== failed attempts so far).
        attempts = [0] * len(shards)
        #: shard -> monotonic instant it may (re)submit.
        pending: dict[int, float] = {}
        #: Speculative parts waiting for an idle worker, in launch order.
        queued_parts: list[_Flight] = []
        flights: dict[Future, _Flight] = {}
        #: One single-worker pool per worker slot: a crash breaks only the
        #: pool of the attempt that crashed, never the attempts beside it.
        #: The slots are the dispatcher's own, kept from the last run.
        slots = self._slots
        if len(slots) != num_workers:
            _shutdown_slots(slots)
            slots.extend([None] * num_workers)
        for slot, kept in enumerate(slots):
            if kept is None or _slot_worker_exited(kept):
                # Not started yet, stopped by the last run, or its worker
                # died idle: a fresh worker, charged to no run.
                if kept is not None:
                    kept.shutdown()
                slots[slot] = self._make_slot()
        groups: dict[int, _SpeculationGroup] = {}
        speculated: set[int] = set()

        # -- helpers (closures over the supervision state) ---------------
        def stop_slot(slot: int, reap: bool) -> None:
            pool, slots[slot] = slots[slot], None
            if pool is None:
                return
            if reap:
                # A running attempt keeps its worker past shutdown; reap
                # for real (TERM → join → KILL → join) so a hung worker
                # can't outlive the dispatcher holding a statevector.
                _reap_executor_processes(pool)
            else:
                pool.shutdown(wait=False, cancel_futures=True)

        def rebuild(replaced: list[int]) -> bool:
            """Replace crashed workers' pools; False = budget gone."""
            nonlocal pool_rebuilds
            for slot in replaced:
                stop_slot(slot, reap=False)
            if pool_rebuilds >= self.max_pool_rebuilds:
                return False
            pool_rebuilds += 1
            metrics.count(RESILIENCE_PREFIX + "pool_rebuilds")
            for slot in replaced:
                slots[slot] = self._make_slot()
            return True

        def record_failure(
            shard: int, attempt: int, kind: str, error: BaseException | None
        ) -> None:
            failures.append(
                {
                    "shard": shard,
                    "attempt": attempt,
                    "kind": kind,
                    "error": "" if error is None else str(error),
                }
            )

        def abandon(future: Future) -> None:
            """Drop a future we no longer want.  A running attempt cannot be
            cancelled, so its worker is terminated and replaced."""
            flight = flights.pop(future)
            if not future.cancel() and not future.done():
                stop_slot(flight.slot, reap=True)
                slots[flight.slot] = self._make_slot()

        def discard_group(shard: int, won: bool) -> None:
            group = groups.pop(shard, None)
            if group is None:
                return
            queued_parts[:] = [f for f in queued_parts if f.shard != shard]
            for future, flight in list(flights.items()):
                if flight.speculative and flight.shard == shard:
                    abandon(future)
            if not won:
                metrics.count(RESILIENCE_PREFIX + "speculative.lost")

        def launch(flight: _Flight, slot: int) -> None:
            pool = slots[slot]
            assert pool is not None
            future = pool.submit(
                run_shard, flight.spec, flight.attempt, self.fault_injector,
                trace,
            )
            flight.slot = slot
            flight.submitted_at = clock.monotonic_seconds()
            flight.deadline = flight.submitted_at + (
                self._timeout_for(flight.spec)
                if flight.speculative
                else timeouts[flight.shard]
            )
            flights[future] = flight
            if not flight.speculative:
                attempts_made[flight.shard] += 1

        def schedule_retry(
            shard: int, kind: str, error: BaseException | None
        ) -> None:
            if shard in results or shard in pending:
                return
            if attempts[shard] > self.max_retries:
                raise ShardRetryExhaustedError(
                    shard,
                    attempts[shard],
                    str(error) if error is not None else kind,
                )
            delay = self._backoff_seconds(shard, attempts[shard])
            metrics.count(RESILIENCE_PREFIX + "backoff_seconds_total", delay)
            metrics.count(RESILIENCE_PREFIX + "retries")
            pending[shard] = clock.monotonic_seconds() + delay

        def handle_failure(
            flight: _Flight, kind: str, error: BaseException | None
        ) -> None:
            if flight.speculative:
                # One failed part invalidates the whole speculative copy;
                # the primary attempt is still racing, so nothing retries.
                record_failure(
                    flight.shard, flight.attempt, f"speculative-{kind}", error
                )
                discard_group(flight.shard, won=False)
                return
            record_failure(flight.shard, flight.attempt, kind, error)
            if kind == "timeout":
                metrics.count(RESILIENCE_PREFIX + "timeouts")
            attempts[flight.shard] = max(
                attempts[flight.shard], flight.attempt + 1
            )
            if kind == "pool-broken":
                # A crash is paid for by the rebuild budget, not by retries.
                if flight.shard not in results:
                    pending.setdefault(flight.shard, clock.monotonic_seconds())
                return
            schedule_retry(flight.shard, kind, error)

        def handle_success(flight: _Flight, result: SimulationResult) -> None:
            if flight.shard in results:
                return  # a racing copy already finished this shard
            if flight.speculative:
                group = groups.get(flight.shard)
                if group is None:
                    return
                group.results[flight.part] = result
                if len(group.results) < group.parts:
                    return
                part_results = [group.results[i] for i in range(group.parts)]
                # Pop span buffers before merging: the merged result keeps
                # only the winning coverage, and each part's timeline gets
                # its own labelled track.
                for part_index, part_result in enumerate(part_results):
                    buffer = part_result.metadata.pop("obs", None)
                    if buffer is not None and trace:
                        tracer.absorb(
                            buffer,
                            track=(
                                f"{buffer.track} (attempt "
                                f"{flight.attempt} part {part_index})"
                            ),
                            shard=flight.shard,
                            attempt=flight.attempt,
                            part=part_index,
                        )
                merged = merge_many(part_results)
                groups.pop(flight.shard, None)
                metrics.count(RESILIENCE_PREFIX + "speculative.won")
                for future, other in list(flights.items()):
                    if other.shard == flight.shard and not other.speculative:
                        abandon(future)
                results[flight.shard] = merged
                pending.pop(flight.shard, None)
                return
            discard_group(flight.shard, won=False)
            results[flight.shard] = result
            pending.pop(flight.shard, None)

        def next_work(now: float) -> _Flight | None:
            """The next attempt for an idle worker: a queued speculative
            part first, else the lowest released shard."""
            if queued_parts:
                return queued_parts.pop(0)
            ready = [s for s, at in pending.items() if at <= now]
            if not ready:
                return None
            shard = min(ready)
            del pending[shard]
            return _Flight(shard, attempts[shard], shards[shard])

        def degrade() -> None:
            """Finish the remaining shards in-process, serially.

            The fault injector is deliberately *not* threaded through: an
            injected crash or hang in-process would take the supervising
            process down with it, and degraded mode exists to terminate.
            """
            for shard in list(groups):
                discard_group(shard, won=False)
            for slot in range(num_workers):
                stop_slot(slot, reap=True)
            flights.clear()
            metrics.gauge(RESILIENCE_DEGRADED, 1)
            for shard in range(len(shards)):
                if shard in results:
                    continue
                degraded_shards.append(shard)
                attempts_made[shard] += 1
                results[shard] = run_shard(
                    shards[shard], attempts[shard], None, trace
                )
                pending.pop(shard, None)

        # -- supervision loop --------------------------------------------
        try:
            now = clock.monotonic_seconds()
            for shard in range(len(shards)):
                pending[shard] = now

            while len(results) < len(shards):
                # Launch whatever is ready onto the idle workers.
                now = clock.monotonic_seconds()
                running = {flight.slot for flight in flights.values()}
                broken_slot = -1
                for slot in range(num_workers):
                    if slot in running:
                        continue
                    flight = next_work(now)
                    if flight is None:
                        break
                    try:
                        launch(flight, slot)
                    except BrokenProcessPool as error:
                        # The idle worker died before this submit: requeue
                        # and replace its pool.
                        if flight.speculative:
                            queued_parts.insert(0, flight)
                        else:
                            pending[flight.shard] = now
                        record_failure(-1, -1, "pool-rebuild", error)
                        broken_slot = slot
                        break
                if broken_slot >= 0:
                    if not rebuild([broken_slot]):
                        degrade()
                        break
                    continue

                if not flights:
                    if pending:
                        wake = min(pending.values()) - clock.monotonic_seconds()
                        if wake > 0:
                            time.sleep(min(wake, _MAX_POLL_SECONDS))
                        continue
                    # Nothing running, nothing queued, shards incomplete:
                    # unreachable by construction, but degrade beats hanging.
                    degrade()
                    break

                # Sleep until the nearest event: a completion (wait() wakes
                # early), a deadline, a straggler threshold or a retry.
                now = clock.monotonic_seconds()
                events = [flight.deadline for flight in flights.values()]
                events.extend(
                    flight.submitted_at + straggler_after[flight.shard]
                    for flight in flights.values()
                    if not flight.speculative
                    and flight.shard not in speculated
                )
                events.extend(pending.values())
                poll = min(
                    max(min(events) - now, 0.01), _MAX_POLL_SECONDS
                )
                done, _ = wait(
                    list(flights), timeout=poll, return_when=FIRST_COMPLETED
                )

                crashed: list[int] = []
                crash: BaseException | None = None
                for future in done:
                    flight = flights.pop(future, None)
                    if flight is None:
                        continue
                    try:
                        result = future.result()
                    except BrokenProcessPool as error:
                        # The pool held this attempt alone: the crash is its
                        # own, and no other attempt is lost with it.
                        handle_failure(flight, "pool-broken", error)
                        crashed.append(flight.slot)
                        crash = error
                    except Exception as error:
                        handle_failure(flight, "error", error)
                    else:
                        handle_success(flight, result)
                if crashed:
                    record_failure(-1, -1, "pool-rebuild", crash)
                    if not rebuild(crashed):
                        degrade()
                        break

                # Deadlines: abandon and retry timed-out attempts.
                now = clock.monotonic_seconds()
                for future, flight in list(flights.items()):
                    if now < flight.deadline:
                        continue
                    abandon(future)
                    handle_failure(
                        flight,
                        "timeout",
                        ShardTimeoutError(
                            flight.shard,
                            flight.attempt,
                            timeouts[flight.shard],
                        ),
                    )

                # Stragglers: re-shard over idle capacity, race the primary.
                idle = num_workers - len(flights) - len(queued_parts)
                if not SPECULATE or idle < 1:
                    continue
                now = clock.monotonic_seconds()
                for flight in list(flights.values()):
                    if idle < 1:
                        break
                    if (
                        flight.speculative
                        or flight.shard in speculated
                        or now - flight.submitted_at
                        < straggler_after[flight.shard]
                    ):
                        continue
                    speculated.add(flight.shard)
                    parts = split_shard_spec(flight.spec, idle + 1)
                    if len(parts) < 2:
                        continue  # unsplittable
                    groups[flight.shard] = _SpeculationGroup(parts=len(parts))
                    queued_parts.extend(
                        _Flight(
                            flight.shard,
                            flight.attempt + 1,
                            part,
                            speculative=True,
                            part=part_index,
                        )
                        for part_index, part in enumerate(parts)
                    )
                    metrics.count(RESILIENCE_PREFIX + "speculative.launched")
                    idle -= len(parts)
        except BaseException:
            # A failed run discards its slots: cancellation never stops an
            # already-running shard, so reap every worker (and join each
            # pool's manager thread).  The next run starts fresh ones.
            for slot in range(len(slots)):
                stop_slot(slot, reap=True)
            slots.clear()
            raise
        finally:
            if trace:
                tracer.metrics.merge(metrics.counters, metrics.gauges)

        # A run that returns has no attempt in flight and keeps its slots.
        resilience = resilience_view(
            metrics,
            attempts=attempts_made,
            failures=failures,
            degraded_shards=degraded_shards,
            timeout_seconds=timeouts,
        )
        ordered = [results[index] for index in range(len(shards))]
        return ordered, {"resilience": resilience}
