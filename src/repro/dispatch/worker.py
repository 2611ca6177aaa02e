"""The per-process shard entry point.

``run_shard`` is deliberately a *module-level function of picklable
arguments*: ``ProcessPoolExecutor`` ships it to workers by reference under
every start method (fork and spawn alike), and the same function body serves
the in-process :class:`~repro.dispatch.dispatchers.SerialDispatcher`, so the
serial and pooled paths execute byte-for-byte the same code.
"""

from __future__ import annotations

from repro.core.engine import TQSimEngine
from repro.core.results import SimulationResult
from repro.dispatch.faults import FaultInjector
from repro.dispatch.planner import ShardSpec
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, Tracer

__all__ = ["run_shard"]


def run_shard(
    spec: ShardSpec,
    attempt: int = 0,
    fault_injector: FaultInjector | None = None,
    trace: bool = False,
) -> SimulationResult:
    """Execute one shard with a locally built engine and tag its provenance.

    The engine's own root seed is irrelevant here: every random draw comes
    from streams keyed below the spec's run key, so the result depends only
    on the spec — not on which process, in which order, or on which
    *attempt* it ran.  That attempt-independence is what makes retries and
    speculative re-execution exact: re-running a shard (or any re-split of
    its range) reproduces its counts bitwise.  A range below layer 0 first
    runs its ancestors with the full run's keys (each accounted only by the
    shard holding its first descendant; see
    :func:`~repro.core.engine.frontier_windows`), then the range itself.

    ``fault_injector`` is the deterministic test hook from
    :mod:`repro.dispatch.faults`; it is ``None`` in production and fires at
    entry, before any simulation state exists, keyed by
    ``(spec.index, attempt)``.  Non-aborting injected faults (hangs that
    return, slow-downs) are recorded under
    ``result.metadata["injected_faults"]``.

    With ``trace=True`` the shard runs under a local :class:`Tracer` whose
    picklable buffer ships back in ``result.metadata["obs"]`` for the
    dispatcher to absorb into one cross-process timeline.  Workers always
    build their own tracer (or the explicit ``NULL_TRACER``) rather than
    consulting the process-global default, so a fork-inherited parent
    tracer can never double-record shard spans.
    """
    injected: tuple[str, ...] = ()
    if fault_injector is not None:
        injected = fault_injector.fire(spec.index, attempt)
    tracer = Tracer(track=f"shard-{spec.index}") if trace else NULL_TRACER
    engine = TQSimEngine(
        noise_model=spec.noise_model,
        backend=spec.backend,
        max_batch=spec.max_batch,
        tracer=tracer,
    )
    with (
        tracer.span("worker.run_shard", shard=spec.index, attempt=attempt)
        if trace
        else NULL_SPAN
    ):
        result = engine.run(
            spec.circuit,
            spec.requested_shots,
            plan=spec.plan,
            shard=(spec.run_key, spec.layer, spec.start, spec.stop),
        )
    result.metadata["shard_index"] = spec.index
    result.metadata["shard_range"] = (spec.layer, spec.start, spec.stop)
    result.metadata["shard_depth"] = spec.layer
    result.metadata["shard_estimated_cost"] = spec.estimated_cost
    result.metadata["shard_replayed_prefix_gates"] = spec.replayed_prefix_gates
    result.metadata["num_shards"] = spec.num_shards
    result.metadata["shard_attempt"] = attempt
    if injected:
        result.metadata["injected_faults"] = injected
    if trace:
        result.metadata["obs"] = tracer.buffer()
    return result
