"""Simulation-as-a-service: an asyncio front end over the dispatch stack.

:class:`SimulationServer` accepts :class:`SimulationRequest`\\ s — a circuit
(or its QASM text), a noise model, a shot count and a memory budget — and
returns merged counts plus per-request telemetry.  Each request runs
through one synchronous pipeline (on an executor thread, so the asyncio
event loop stays free to accept work):

1. **parse** — QASM text becomes a :class:`~repro.circuits.circuit.Circuit`;
2. **transpile** — single-qubit runs are fused, memoised by circuit hash;
3. **plan** — the DCP partition search runs once per ``(circuit, shots,
   noise, backend)`` and is cached;
4. **admit** — :func:`~repro.analysis.memory.admit_plan` checks the plan's
   pooled buffers *plus*, for a noiseless request, the one final state it
   keeps resident against the request's memory budget, lowering the batch
   cap or rejecting outright;
5. **execute** — a warm noiseless request samples its leaves directly from
   the circuit's cached final state through
   :meth:`~repro.core.engine.TQSimEngine.sample_leaves` (no tree traversal
   at all); everything else runs through a fresh
   :class:`~repro.core.engine.TQSimEngine` or a
   :class:`~repro.dispatch.dispatchers.PoolDispatcher`, bitwise identical
   either way by the path-keyed seeding contract.  After a cold noiseless
   run the final state is evolved once and cached under the fused
   circuit's hash.

Determinism: request IDs derive from a :mod:`repro.core.pathrng` key
chain (no uuid/entropy), all clock reads go through
:mod:`repro.obs.clock`, and a request's counts depend only on
``(circuit, noise, shots, seed)`` — never on cache state, concurrency or
arrival order.  The warm fast path is *bitwise* identical in counts to
the cold run because, under trivial noise, every leaf's pre-measurement
state equals the cached final state, and the engine samples the leaves
with the same run key, leaf keys and outcome lookup its traversal uses —
serve holds no copy of that logic.

Latency telemetry is counter-backed: each request's wall time lands in
the cumulative ``serve.latency.le_*`` histogram buckets
(:mod:`repro.obs.schema`), from which :meth:`SimulationServer.percentiles`
reads p50/p99 without storing per-request samples.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.analysis.memory import (
    XEON_NODE_MEMORY_BYTES,
    AdmissionDecision,
    admit_plan,
    statevector_bytes,
)
from repro.backends import DEFAULT_BACKEND_NAME
from repro.circuits.circuit import Circuit
from repro.circuits.qasm import from_qasm
from repro.circuits.transpile import fuse_single_qubit_runs
from repro.core.costmodel import CostModel
from repro.core.engine import TQSimEngine
from repro.core.partitioners import DynamicCircuitPartitioner, PartitionPlan
from repro.core.pathrng import child_key, run_root_key
from repro.core.results import SimulationResult
from repro.core.statecache import PrefixStateCache
from repro.dispatch.dispatchers import PoolDispatcher
from repro.noise.model import NoiseModel
from repro.noise.sycamore import noise_model_by_code
from repro.obs import clock
from repro.obs.schema import (
    SERVE_CACHE_PREFIX,
    SERVE_PREFIX,
    latency_percentiles_ms,
    record_latency,
)
from repro.obs.tracer import AnyTracer, MetricSet, NullTracer, Tracer
from repro.serve.cache import DEFAULT_STATE_CACHE_BYTES, LRUCache, ServeCaches
from repro.statevector.simulator import StatevectorSimulator

__all__ = [
    "SimulationRequest",
    "SimulationResponse",
    "SimulationServer",
    "serve_forever",
]

#: Domain separator of the request-ID key chain: keeps the IDs' pathrng
#: stream disjoint from every simulation stream.
_REQUEST_ID_SALT = 0x53525645  # "SRVE"


@dataclass
class SimulationRequest:
    """One simulation job: circuit (or QASM), noise, shots and budget."""

    circuit: Circuit | None = None
    qasm: str | None = None
    #: ``None``/``"ideal"`` for noiseless, a Figure-16 code (``"DC"``,
    #: ``"ADR"``, ...) resolved via
    #: :func:`~repro.noise.sycamore.noise_model_by_code`, or a
    #: :class:`~repro.noise.model.NoiseModel` instance.
    noise: str | NoiseModel | None = None
    shots: int = 1024
    #: Memory budget the request is admitted against (pool + prefix states).
    memory_bytes: float = XEON_NODE_MEMORY_BYTES
    #: Root seed of the trajectory ensemble; responses are a pure function
    #: of ``(circuit, noise, shots, seed)``.
    seed: int = 0
    #: Backend registry name; ``None`` runs the registry default.
    backend: str | None = None

    def resolve_circuit(self) -> Circuit:
        if (self.circuit is None) == (self.qasm is None):
            raise ValueError("provide exactly one of circuit or qasm")
        if self.circuit is not None:
            return self.circuit
        return from_qasm(self.qasm or "")

    def resolve_noise(self) -> NoiseModel | None:
        if self.noise is None or isinstance(self.noise, NoiseModel):
            return self.noise
        if self.noise.lower() == "ideal":
            return None
        return noise_model_by_code(self.noise)


@dataclass
class SimulationResponse:
    """The merged outcome of one request, plus serving telemetry."""

    request_id: str
    status: str  # "ok" | "rejected" | "error"
    counts: dict[str, int] = field(default_factory=dict)
    shots: int = 0
    num_qubits: int = 0
    elapsed_seconds: float = 0.0
    #: True when the warm sampling-only fast path served the request.
    cached: bool = False
    error: str = ""
    admission: dict[str, Any] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict[str, Any]:
        """Wire form for the JSON-lines front end (no numpy scalars)."""
        return {
            "request_id": self.request_id,
            "status": self.status,
            "counts": {k: int(v) for k, v in self.counts.items()},
            "shots": int(self.shots),
            "num_qubits": int(self.num_qubits),
            "elapsed_seconds": float(self.elapsed_seconds),
            "cached": bool(self.cached),
            "error": self.error,
            "admission": self.admission,
        }


def _admission_dict(decision: AdmissionDecision) -> dict[str, Any]:
    return {
        "fits_memory": decision.fits_memory,
        "max_batch": decision.max_batch,
        "peak_bytes": decision.peak_bytes,
        "reason": decision.reason,
    }


class SimulationServer:
    """Admission-controlled, cache-accelerated simulation service.

    Parameters
    ----------
    workers:
        Worker processes per cold request: 1 (default) runs in-process on
        a fresh engine; >1 fans out through a
        :class:`~repro.dispatch.dispatchers.PoolDispatcher`.  Counts are
        bitwise identical either way.
    executor_threads:
        Concurrent requests in flight; further submissions queue in the
        executor (the job queue).  Simulation releases the GIL poorly, so
        this mainly overlaps planning/transpile with execution — scale-out
        belongs to worker processes, not threads.
    max_batch:
        Frontier-chunk cap admission requests; ``None`` — the default —
        requests the engine's default cap at each request's width
        (:func:`~repro.core.engine.default_chunk_cap`).  Admission may
        lower it, and the admitted cap is what the engine runs.
    state_cache_bytes / plan_cache_entries / transpile_cache_entries:
        Budgets of the three cross-request caches; out-of-range budgets
        raise ``ValueError`` (``state_cache_bytes=0`` caches no state, and
        ``None`` leaves the state cache unbounded).
    cost_model:
        Calibrated :class:`~repro.core.costmodel.CostModel` for the DCP
        plan search, which then plans at the model's copy/gate ratio, and
        for the pool's shard sizing.  Admission reads memory only.
    tracer:
        When given (and enabled), each request records spans into its own
        :class:`~repro.obs.tracer.Tracer` (tracers are not thread-safe)
        which is absorbed under the server lock onto a per-request track.
    """

    def __init__(
        self,
        workers: int = 1,
        executor_threads: int = 4,
        memory_bytes: float = XEON_NODE_MEMORY_BYTES,
        max_batch: int | None = None,
        cost_model: CostModel | None = None,
        state_cache_bytes: int = DEFAULT_STATE_CACHE_BYTES,
        plan_cache_entries: int = 256,
        transpile_cache_entries: int = 256,
        server_seed: int = 0,
        tracer: AnyTracer | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if executor_threads < 1:
            raise ValueError("executor_threads must be >= 1")
        self.workers = workers
        self.default_memory_bytes = memory_bytes
        self.max_batch = max_batch
        self.cost_model = cost_model
        self.tracer: AnyTracer = tracer if tracer is not None else NullTracer()
        self.caches = ServeCaches(
            plan=LRUCache(plan_cache_entries),
            transpile=LRUCache(transpile_cache_entries),
            prefix=PrefixStateCache(state_cache_bytes),
        )
        #: Server-level counters (requests, cache stats, latency histogram);
        #: guarded by ``_lock`` — MetricSet is not thread-safe.
        self.metrics = MetricSet()
        self._lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads, thread_name_prefix="repro-serve"
        )
        self._id_key = child_key(
            run_root_key(server_seed), _REQUEST_ID_SALT
        )
        self._sequence = 0
        self._partitioner = DynamicCircuitPartitioner(cost_model=cost_model)

    # -- job queue ------------------------------------------------------
    async def submit(self, request: SimulationRequest) -> SimulationResponse:
        """Queue one request; resolves when its pipeline completes.

        The synchronous pipeline runs on the server's thread pool, so the
        event loop keeps accepting submissions while simulations run;
        queued jobs start in submission order as threads free up.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, self.handle, request)

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "SimulationServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- telemetry ------------------------------------------------------
    def percentiles(
        self, percentiles: Sequence[float] = (50.0, 99.0)
    ) -> dict[float, float]:
        """Counter-backed request-latency percentiles, in milliseconds."""
        with self._lock:
            return latency_percentiles_ms(self.metrics, percentiles)

    def counters(self) -> dict[str, float]:
        """Snapshot of the server's ``serve.*`` counters."""
        with self._lock:
            return dict(self.metrics.counters)

    def _next_request_id(self) -> str:
        with self._lock:
            sequence = self._sequence
            self._sequence += 1
        return f"req-{child_key(self._id_key, sequence):016x}"

    def _finish(
        self,
        response: SimulationResponse,
        started: float,
        tracer: AnyTracer,
        outcome: str,
    ) -> SimulationResponse:
        response.elapsed_seconds = clock.perf_seconds() - started
        with self._lock:
            self.metrics.count(SERVE_PREFIX + "requests")
            self.metrics.count(SERVE_PREFIX + f"requests.{outcome}")
            record_latency(self.metrics, response.elapsed_seconds)
            for cache, delta in self.caches.stat_deltas().items():
                for stat, value in delta.items():
                    self.metrics.count(
                        f"{SERVE_CACHE_PREFIX}{cache}.{stat}", value
                    )
            if tracer.enabled and isinstance(tracer, Tracer):
                self.tracer.absorb(
                    tracer.buffer(),
                    track=response.request_id,
                    request=response.request_id,
                )
        return response

    # -- the pipeline ---------------------------------------------------
    def handle(self, request: SimulationRequest) -> SimulationResponse:
        """Run one request synchronously (thread-safe)."""
        request_id = self._next_request_id()
        started = clock.perf_seconds()
        tracer: AnyTracer = (
            Tracer(track=request_id) if self.tracer.enabled else NullTracer()
        )
        response = SimulationResponse(request_id=request_id, status="error")
        try:
            with tracer.span("serve.request", id=request_id):
                self._handle_inner(request, response, tracer)
        except Exception as error:  # noqa: BLE001 - the service boundary
            response.status = "error"
            response.error = f"{type(error).__name__}: {error}"
        outcome = response.status if response.status != "ok" else (
            "warm" if response.cached else "cold"
        )
        return self._finish(response, started, tracer, outcome)

    def _handle_inner(
        self,
        request: SimulationRequest,
        response: SimulationResponse,
        tracer: AnyTracer,
    ) -> None:
        if request.shots < 1:
            raise ValueError("shots must be >= 1")
        circuit = request.resolve_circuit()
        noise_model = request.resolve_noise()
        noiseless = noise_model is None or noise_model.is_trivial
        response.num_qubits = circuit.num_qubits

        # Transpile (cached): fusion is pure, and both the cold and the
        # warm path simulate the *fused* circuit, so caching cannot change
        # what a request observes.  The entry keeps the fused circuit's
        # hash, so a warm request hashes only the circuit it sent.
        raw_hash = circuit.content_hash()
        transpiled = self.caches.transpile.get(raw_hash)
        if transpiled is None:
            with tracer.span("serve.transpile", gates=circuit.num_gates):
                fused = fuse_single_qubit_runs(circuit)
            transpiled = (fused, fused.content_hash())
            self.caches.transpile.put(raw_hash, transpiled)
        fused, fused_hash = transpiled

        # Plan (cached): the DCP search depends on the fused circuit, the
        # shot count and the noise model (error-rate-aware depth choice).
        noise_key = noise_model.name if noise_model is not None else "ideal"
        plan_key = (fused_hash, request.shots, noise_key, request.backend)
        plan = self.caches.plan.get(plan_key)
        if plan is None:
            with tracer.span("serve.plan", shots=request.shots):
                plan = self._partitioner.plan(
                    fused, request.shots, noise_model
                )
            self.caches.plan.put(plan_key, plan)

        # Admission: the pooled traversal buffers plus the final state a
        # noiseless request keeps resident must fit the request's budget.
        decision = admit_plan(
            fused.num_qubits,
            plan.tree.arities,
            memory_bytes=min(request.memory_bytes, self.default_memory_bytes),
            max_batch=self.max_batch,
            prefix_states=1 if noiseless else 0,
        )
        response.admission = _admission_dict(decision)
        if not decision.fits_memory:
            response.status = "rejected"
            response.error = decision.reason
            return
        backend_name = request.backend or DEFAULT_BACKEND_NAME

        result: SimulationResult | None = None
        if noiseless:
            result = self._try_warm(
                request, plan, fused_hash, backend_name, tracer
            )
            response.cached = result is not None
        if result is None:
            with tracer.span(
                "serve.execute", backend=backend_name, workers=self.workers
            ):
                result = self._run_cold(
                    request, fused, plan, noise_model, backend_name,
                    decision, tracer,
                )
            if noiseless:
                self._cache_final_state(fused_hash, fused)
        response.status = "ok"
        response.counts = dict(result.counts)
        response.shots = result.shots
        response.metadata = dict(result.metadata)
        response.metadata["serve"] = {
            "request_id": response.request_id,
            "cached": response.cached,
            "backend": backend_name,
            "fused_hash": fused_hash,
        }

    # -- cold execution -------------------------------------------------
    def _run_cold(
        self,
        request: SimulationRequest,
        fused: Circuit,
        plan: PartitionPlan,
        noise_model: NoiseModel | None,
        backend_name: str,
        decision: AdmissionDecision,
        tracer: AnyTracer,
    ) -> SimulationResult:
        if self.workers > 1:
            with PoolDispatcher(
                noise_model=noise_model,
                seed=request.seed,
                num_workers=self.workers,
                backend=backend_name,
                max_batch=decision.max_batch,
                cost_model=self.cost_model,
                tracer=tracer,
            ) as dispatcher:
                return dispatcher.run(fused, request.shots, plan=plan)
        engine = TQSimEngine(
            noise_model=noise_model,
            seed=request.seed,
            backend=backend_name,
            max_batch=decision.max_batch,
            tracer=tracer,
        )
        return engine.run(fused, request.shots, plan=plan)

    # -- the warm fast path ---------------------------------------------
    def _try_warm(
        self,
        request: SimulationRequest,
        plan: PartitionPlan,
        fused_hash: str,
        backend_name: str,
        tracer: AnyTracer,
    ) -> SimulationResult | None:
        """Serve a noiseless request from the cached final state, or None.

        Under trivial noise every leaf's pre-measurement state is the
        circuit's final state, whatever the partition, so the engine a cold
        run would build samples every leaf of its first run from the cached
        state (:meth:`~repro.core.engine.TQSimEngine.sample_leaves`) with
        the traversal's own keys and lookup: the counts are the cold run's,
        bitwise, and only the cost counters differ (no copies or gate
        applications happen).
        """
        state = self.caches.prefix.get(fused_hash)
        if state is None:
            return None
        engine = TQSimEngine(seed=request.seed, backend=backend_name)
        with tracer.span("serve.warm_sample", leaves=plan.total_outcomes):
            try:
                result = engine.sample_leaves(state, plan)
            except ValueError:
                # Probabilities not finite and positive: the cold run
                # reports the state.
                return None
        result.metadata.update(
            execution="serve-cached", requested_shots=request.shots
        )
        return result

    def _cache_final_state(self, fused_hash: str, fused: Circuit) -> None:
        """Evolve |0..0> through the fused circuit once and cache the final
        state under its hash.

        One noiseless trajectory funds warm service of *every* future
        request for this circuit, whatever its shots, seed or plan.  The
        state is evolved on the ``"optimized"`` kernels; the cross-backend
        bitwise contract (see ``tests/test_differential_harness.py``) makes
        the resulting counts identical no matter which backend a cold run
        would have used.  A state the cache would reject is never evolved.
        """
        cache = self.caches.prefix
        if fused_hash in cache:
            return
        if (cache.max_bytes is not None
                and statevector_bytes(fused.num_qubits) > cache.max_bytes):
            return
        cache.put(
            fused_hash, StatevectorSimulator(backend="optimized").run(fused).data
        )


# ---------------------------------------------------------------------------
# JSON-lines TCP front end
# ---------------------------------------------------------------------------
async def _handle_connection(
    server: SimulationServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: JSON request per line, JSON response per line."""
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            try:
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    raise TypeError("a request must be a JSON object")
                request = SimulationRequest(
                    qasm=payload.get("qasm"),
                    noise=payload.get("noise"),
                    shots=int(payload.get("shots", 1024)),
                    memory_bytes=float(
                        payload.get("memory_bytes",
                                    server.default_memory_bytes)
                    ),
                    seed=int(payload.get("seed", 0)),
                    backend=payload.get("backend"),
                )
            # OverflowError: int() of a number beyond the float range
            # (JSON "1e400" parses as inf).
            except (ValueError, TypeError, OverflowError) as error:
                writer.write(
                    (json.dumps({"status": "error",
                                 "error": str(error)}) + "\n").encode()
                )
                await writer.drain()
                continue
            response = await server.submit(request)
            writer.write((json.dumps(response.to_json()) + "\n").encode())
            await writer.drain()
    finally:
        writer.close()


async def serve_forever(
    server: SimulationServer, host: str = "127.0.0.1", port: int = 8753
) -> None:
    """Run the JSON-lines TCP front end until cancelled."""
    tcp = await asyncio.start_server(
        lambda r, w: _handle_connection(server, r, w), host, port
    )
    async with tcp:
        await tcp.serve_forever()
