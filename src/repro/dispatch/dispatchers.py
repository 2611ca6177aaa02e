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

Result accounting
-----------------
``result.cost`` sums the shard counters, with ``wall_time_seconds`` replaced
by the dispatcher's *elapsed* wall time (what a caller comparing end-to-end
latency should see).  ``result.metadata["dispatch"]`` keeps the bookkeeping:
per-shard wall times, their sum (the compute actually burned across
workers), worker/shard counts and the executor mode.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import weakref
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress

import numpy as np

from repro.circuits.circuit import Circuit
from repro.core.copycost import DEFAULT_COPY_COST_IN_GATES
from repro.core.costmodel import CostModel, estimate_shard_seconds
from repro.core.engine import DEFAULT_MAX_TREE_BATCH
from repro.core.partitioners import CircuitPartitioner, PartitionPlan
from repro.core.results import SimulationResult, merge_many
from repro.dispatch.faults import (
    DispatchError,
    FaultInjector,
    PoolBrokenError,
    ShardExecutionError,
)
from repro.dispatch.planner import ShardPlanner, ShardSpec
from repro.dispatch.worker import run_shard
from repro.noise.model import NoiseModel
from repro.obs import clock
from repro.obs.schema import REPLAYED_PREFIX_GATES, replayed_prefix_gates_view
from repro.obs.tracer import (
    NULL_SPAN,
    AnyTracer,
    MetricSet,
    SpanBuffer,
    get_tracer,
)

__all__ = ["Dispatcher", "SerialDispatcher", "PoolDispatcher"]


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
        copy_cost_in_gates: float = DEFAULT_COPY_COST_IN_GATES,
        max_batch: int = DEFAULT_MAX_TREE_BATCH,
        max_depth: int = 1,
        cost_model: CostModel | None = None,
        tracer: AnyTracer | None = None,
    ) -> None:
        self.tracer = tracer
        self._planner = ShardPlanner(
            noise_model=noise_model,
            backend=backend,
            copy_cost_in_gates=copy_cost_in_gates,
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
            shard_results = self._execute(shards, tracer)
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
    ) -> list[SimulationResult]:
        """Run every shard, returning results in shard order.

        Shard order — not completion order — keeps the merged metadata's
        per-shard provenance deterministic regardless of scheduling.
        ``tracer.enabled`` tells the executor whether workers should build
        local tracers and ship span buffers back.
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
    ) -> list[SimulationResult]:
        return [run_shard(spec, 0, None, tracer.enabled) for spec in shards]


class PoolDispatcher(Dispatcher):
    """Runs shards across a ``ProcessPoolExecutor``.

    Parameters
    ----------
    num_workers:
        Worker process count; defaults to ``os.cpu_count()``.
    num_shards:
        Shard count; defaults to ``num_workers`` (one shard per worker keeps
        the per-shard pickling/IPC overhead minimal; more shards than
        workers gives finer load balancing at slightly higher overhead).
    mp_context:
        Multiprocessing start method.  Defaults to ``"fork"`` where
        available (workers inherit the parent's imported modules, so warm-up
        cost is a fraction of a ``spawn`` interpreter boot); pass ``"spawn"``
        explicitly to exercise the cold path.
    fault_injector:
        Deterministic fault schedule threaded into every
        :func:`~repro.dispatch.worker.run_shard` call (see
        :mod:`repro.dispatch.faults`).  ``None`` — the default — is inert;
        this knob exists for fault-injection tests and benchmarks.
    tracer:
        Explicit :class:`~repro.obs.tracer.Tracer`; the default ``None``
        resolves the ambient tracer (:func:`~repro.obs.tracer.get_tracer`)
        per run.  When tracing is enabled every worker ships its span
        buffer back and the dispatcher merges them into one timeline.

    The worker pool outlives a run, so a repeated run with the same worker
    count pays no process start-up or teardown; a failed run discards it.
    ``close()``, leaving a ``with`` block or dropping the dispatcher shuts
    the workers down.  Runs on one dispatcher take turns.
    """

    mode = "pool"

    def __init__(
        self,
        noise_model: NoiseModel | None = None,
        seed: int | np.random.SeedSequence | None = None,
        num_workers: int | None = None,
        num_shards: int | None = None,
        backend: str = "optimized",
        copy_cost_in_gates: float = DEFAULT_COPY_COST_IN_GATES,
        max_batch: int = DEFAULT_MAX_TREE_BATCH,
        max_depth: int = 1,
        cost_model: CostModel | None = None,
        mp_context: str | None = None,
        fault_injector: FaultInjector | None = None,
        tracer: AnyTracer | None = None,
    ) -> None:
        if num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else None
        self.mp_context = mp_context
        self.fault_injector = fault_injector
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0
        self._pool_shutdown: weakref.finalize | None = None
        self._pool_lock = threading.RLock()
        super().__init__(
            noise_model=noise_model,
            seed=seed,
            num_shards=num_shards,
            backend=backend,
            copy_cost_in_gates=copy_cost_in_gates,
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

    def _make_pool(self, num_workers: int) -> ProcessPoolExecutor:
        """A fresh worker pool under this dispatcher's start method."""
        context = (
            multiprocessing.get_context(self.mp_context)
            if self.mp_context is not None
            else None
        )
        return ProcessPoolExecutor(max_workers=num_workers, mp_context=context)

    def close(self) -> None:
        """Shut down the workers kept between runs."""
        with self._pool_lock:
            if self._pool_shutdown is not None:
                self._pool_shutdown()
            self._pool = self._pool_shutdown = None

    def __enter__(self) -> PoolDispatcher:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _execute(
        self, shards: list[ShardSpec], tracer: AnyTracer
    ) -> list[SimulationResult]:
        num_workers = self._num_workers_used(len(shards))
        with self._pool_lock:
            pool = self._pool
            if (
                pool is None
                or self._pool_workers != num_workers
                or getattr(pool, "_broken", False)  # a worker died idle
            ):
                self.close()
                pool = self._pool = self._make_pool(num_workers)
                self._pool_workers = num_workers
                # Shut the workers down when the dispatcher is dropped; the
                # callback holds the pool, never the dispatcher.
                self._pool_shutdown = weakref.finalize(self, pool.shutdown)
            futures = [
                pool.submit(
                    run_shard, spec, 0, self.fault_injector, tracer.enabled
                )
                for spec in shards
            ]
            try:
                # Collect in submission (shard) order; completion order is
                # scheduler-dependent and must not influence the merged
                # result.
                return [future.result() for future in futures]
            except BaseException as error:
                # Cancel everything still queued: cancellation never stops
                # an already-running shard, so reap the workers too —
                # otherwise a hung shard outlives the dispatcher as an
                # orphaned process.  The next run starts a fresh pool.
                _reap_executor_processes(pool)
                self.close()
                if isinstance(error, BrokenProcessPool):
                    raise PoolBrokenError(
                        "a worker process died mid-run; "
                        "ResilientPoolDispatcher recovers from this"
                    ) from error
                if isinstance(error, DispatchError) or not isinstance(
                    error, Exception
                ):
                    raise
                shard = next(
                    (
                        index
                        for index, future in enumerate(futures)
                        if future.done()
                        and not future.cancelled()
                        and future.exception() is not None
                    ),
                    -1,
                )
                raise ShardExecutionError(
                    shard,
                    0,
                    f"shard {shard} raised "
                    f"{type(error).__name__}: {error}",
                ) from error
