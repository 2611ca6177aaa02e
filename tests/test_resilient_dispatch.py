"""Fault-tolerant dispatch: every failure mode, bitwise-checked.

The load-bearing claim of the pool dispatcher's supervision loop: whatever
faults strike — worker crashes, hangs past the timeout, transient exceptions,
stragglers racing a speculative re-shard, even a full degrade to in-process
execution — the merged counts *and* cost counters are bitwise identical to
the :class:`~repro.dispatch.SerialDispatcher` with the same root seed.  The
deterministic :class:`~repro.dispatch.FaultInjector` makes each scenario a
plain assertion instead of a flaky stress test, and the telemetry under
``metadata["dispatch"]["resilience"]`` must record every injected fault.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait as wait_for_sentinels

import pytest

from repro.core import ManualPartitioner
from repro.dispatch import (
    DispatchError,
    FaultInjector,
    InjectedFaultError,
    PoolDispatcher,
    SerialDispatcher,
    ShardPlanner,
    ShardRetryExhaustedError,
    ShardTimeoutError,
    split_shard_spec,
)
from repro.dispatch.dispatchers import MP_CONTEXT
from repro.noise import ReadoutError, depolarizing_noise_model

SHOTS = 180
SEED = 11
PARTITIONER = ManualPartitioner((12, 5, 3))
WORKER_COUNTS = (1, 2, 4)

#: Fast-failure knobs shared by the fault scenarios: short timeouts and
#: near-zero backoff keep each test well under a second of pure waiting.
FAST = dict(
    backoff_base_seconds=0.01,
    backoff_max_seconds=0.05,
    min_timeout_seconds=20.0,
)


def _noise():
    model = depolarizing_noise_model()
    model.readout_error = ReadoutError(0.02)
    return model


def _serial(qft5, partitioner=PARTITIONER):
    return SerialDispatcher(
        _noise(), seed=SEED, num_shards=3
    ).run(qft5, SHOTS, partitioner=partitioner)


def _pool(qft5, workers, injector=None, **kwargs):
    options = {**FAST, **kwargs}
    dispatcher = PoolDispatcher(
        _noise(), seed=SEED, num_shards=3, num_workers=workers,
        fault_injector=injector, **options,
    )
    return dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)


def _assert_bitwise(result, reference):
    assert result.counts == reference.counts
    assert result.cost.matches(reference.cost)


def _telemetry(result):
    return result.metadata["dispatch"]["resilience"]


def _assert_no_orphans(pre_existing, deadline_seconds=5.0):
    """No worker process outlives its dispatcher.

    Polls briefly because a reaped worker needs a moment to be joined;
    the bound is far below the injected 30 s hang, so a leaked (still
    sleeping) worker cannot pass.
    """
    deadline = time.monotonic() + deadline_seconds
    leaked = []
    while time.monotonic() < deadline:
        leaked = [
            process for process in multiprocessing.active_children()
            if process not in pre_existing
        ]
        if not leaked:
            return
        time.sleep(0.05)
    assert not leaked, f"orphaned worker processes: {leaked}"


# ---------------------------------------------------------------------------
# Fault-free path
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fault_free_bitwise_identical_to_serial(qft5, workers):
    reference = _serial(qft5)
    result = _pool(qft5, workers)
    _assert_bitwise(result, reference)
    telemetry = _telemetry(result)
    assert telemetry["attempts"] == [1, 1, 1]
    assert telemetry["timeouts"] == 0
    assert telemetry["retries"] == 0
    assert telemetry["failures"] == []
    assert telemetry["pool_rebuilds"] == 0
    assert telemetry["degraded"] is False
    assert result.metadata["dispatch"]["mode"] == "pool"
    # The timeout budget is derived per shard from the cost estimate.
    assert len(telemetry["timeout_seconds"]) == 3
    assert all(t > 0 for t in telemetry["timeout_seconds"])


# ---------------------------------------------------------------------------
# Worker crash (BrokenProcessPool -> pool rebuild)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_worker_crash_recovers_bitwise(qft5, workers):
    reference = _serial(qft5)
    injector = FaultInjector(crashes=((1, 0),))
    result = _pool(qft5, workers, injector)
    _assert_bitwise(result, reference)
    telemetry = _telemetry(result)
    assert telemetry["pool_rebuilds"] >= 1
    assert telemetry["degraded"] is False
    # The crash is recorded against shard 1's first attempt.
    assert any(
        f["kind"] == "pool-broken" and f["shard"] == 1 and f["attempt"] == 0
        for f in telemetry["failures"]
    )
    assert telemetry["attempts"][1] >= 2


def test_crash_before_next_submit_recovers_bitwise(qft5, monkeypatch):
    """A worker that dies before the next shard is submitted breaks the pool
    inside ``submit``; the shard is requeued and the pool rebuilt."""

    class SubmitsAfterPreviousFinished(ProcessPoolExecutor):
        last = None

        def submit(self, fn, /, *args, **kwargs):
            if self.last is not None:
                wait([self.last])
            self.last = super().submit(fn, *args, **kwargs)
            return self.last

    def make_slot(self):
        context = multiprocessing.get_context(MP_CONTEXT)
        return SubmitsAfterPreviousFinished(1, mp_context=context)

    monkeypatch.setattr(PoolDispatcher, "_make_slot", make_slot)
    result = _pool(qft5, 2, FaultInjector(crashes=((0, 0),)))
    _assert_bitwise(result, _serial(qft5))
    telemetry = _telemetry(result)
    assert telemetry["pool_rebuilds"] == 1
    assert any(
        f["kind"] == "pool-broken" and f["shard"] == 0 and f["attempt"] == 0
        for f in telemetry["failures"]
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_crash_is_charged_to_the_crashed_shard_alone(qft5, workers):
    """Each worker runs in a pool of its own, so a crash loses no attempt
    beside it: the telemetry of a fault schedule is exact, whatever the
    timing.  Shard 2's fault on attempt 1 never fires, because the crash
    of shard 1 does not cost shard 2 its first attempt."""
    injector = FaultInjector(crashes=((1, 0),), raises=((2, 1),))
    result = _pool(qft5, workers, injector)
    _assert_bitwise(result, _serial(qft5))
    telemetry = _telemetry(result)
    assert telemetry["attempts"] == [1, 2, 1]
    assert telemetry["pool_rebuilds"] == 1
    assert telemetry["retries"] == 0
    assert [
        (f["shard"], f["attempt"], f["kind"]) for f in telemetry["failures"]
    ] == [(1, 0, "pool-broken"), (-1, -1, "pool-rebuild")]


def test_worker_death_while_idle_recovers_without_charging_a_shard(
    qft5, monkeypatch
):
    """A worker that died while idle breaks its pool inside ``submit``:
    nothing ran, so no attempt is charged; the pool is rebuilt and the
    shard runs on the fresh one."""
    submits = []

    class BreaksOnSecondSubmit(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submits.append(args[0].index)
            if len(submits) == 2:
                raise BrokenProcessPool("worker died while idle")
            return super().submit(fn, *args, **kwargs)

    def make_slot(self):
        context = multiprocessing.get_context(MP_CONTEXT)
        return BreaksOnSecondSubmit(1, mp_context=context)

    monkeypatch.setattr(PoolDispatcher, "_make_slot", make_slot)
    result = _pool(qft5, 1)
    _assert_bitwise(result, _serial(qft5))
    telemetry = _telemetry(result)
    assert submits == [0, 1, 1, 2]
    assert telemetry["attempts"] == [1, 1, 1]
    assert telemetry["pool_rebuilds"] == 1
    assert [f["kind"] for f in telemetry["failures"]] == ["pool-rebuild"]


# ---------------------------------------------------------------------------
# Hang past the per-shard timeout
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_hang_times_out_and_retries_bitwise(qft5, workers):
    reference = _serial(qft5)
    pre_existing = set(multiprocessing.active_children())
    injector = FaultInjector(hangs=((0, 0),), hang_seconds=30.0)
    result = _pool(
        qft5, workers, injector,
        min_timeout_seconds=0.4, max_timeout_seconds=0.4,
    )
    _assert_bitwise(result, reference)
    telemetry = _telemetry(result)
    assert telemetry["timeouts"] >= 1
    assert any(
        f["kind"] == "timeout" and f["shard"] == 0
        for f in telemetry["failures"]
    )
    assert telemetry["attempts"][0] >= 2
    # The hung worker is still inside its 30 s sleep when the pool is torn
    # down; the force-stop must terminate and join it rather than leave it
    # orphaned behind the cancelled executor.
    _assert_no_orphans(pre_existing)


# ---------------------------------------------------------------------------
# Transient failure, then success on retry
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_transient_failure_retries_bitwise(qft5, workers):
    reference = _serial(qft5)
    injector = FaultInjector(raises=((2, 0),))
    result = _pool(qft5, workers, injector)
    _assert_bitwise(result, reference)
    telemetry = _telemetry(result)
    assert telemetry["retries"] >= 1
    assert telemetry["attempts"][2] == 2
    record = next(
        f for f in telemetry["failures"]
        if f["shard"] == 2 and f["attempt"] == 0
    )
    assert record["kind"] == "error"
    assert "injected" in record["error"]


def test_retries_exhausted_raises_typed_error(qft5):
    # Shard 2 fails on every attempt it is allowed: initial + 1 retry.
    injector = FaultInjector(raises=((2, 0), (2, 1)))
    dispatcher = PoolDispatcher(
        _noise(), seed=SEED, num_shards=3, num_workers=2,
        fault_injector=injector, max_retries=1, **FAST,
    )
    with pytest.raises(ShardRetryExhaustedError) as excinfo:
        dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
    assert excinfo.value.shard == 2
    assert isinstance(excinfo.value, DispatchError)


# ---------------------------------------------------------------------------
# Straggler -> speculative re-shard
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workers", [2, 4])
def test_straggler_speculation_wins_bitwise(qft5, workers):
    reference = _serial(qft5)
    # Shard 1's first attempt sleeps far past the straggler threshold while
    # the other workers go idle; the speculative re-shard must win the race
    # and merge to the same bits.
    injector = FaultInjector(slowdowns=((1, 0, 8.0),))
    result = _pool(
        qft5, workers, injector,
        straggler_min_seconds=0.3, straggler_factor=1.0,
    )
    _assert_bitwise(result, reference)
    telemetry = _telemetry(result)
    assert telemetry["speculative"]["launched"] >= 1
    assert telemetry["speculative"]["won"] >= 1
    assert telemetry["degraded"] is False


def test_straggler_speculation_loses_gracefully(qft5):
    reference = _serial(qft5)
    # Tiny slowdown: the primary finishes long before any speculative part
    # could (speculation itself is also slowed by the injected delay on
    # higher attempts being absent — the primary simply wins).
    injector = FaultInjector(slowdowns=((1, 0, 0.4),))
    result = _pool(
        qft5, 2, injector,
        straggler_min_seconds=0.1, straggler_factor=1.0,
    )
    _assert_bitwise(result, reference)
    telemetry = _telemetry(result)
    # Whichever side won the race, the counts are the serial counts and the
    # accounting is consistent.
    speculative = telemetry["speculative"]
    assert speculative["launched"] >= 1
    assert speculative["won"] + speculative["lost"] == speculative["launched"]


# ---------------------------------------------------------------------------
# Degraded mode: pool-rebuild budget exhausted
# ---------------------------------------------------------------------------
def test_degrades_to_in_process_after_rebuild_budget(qft5):
    reference = _serial(qft5)
    # Shard 0 crashes every pooled attempt; after max_pool_rebuilds the
    # dispatcher must finish in-process (injector not threaded there) and
    # record the downgrade instead of raising.
    injector = FaultInjector(
        crashes=((0, 0), (0, 1), (0, 2), (0, 3), (0, 4))
    )
    result = _pool(
        qft5, 2, injector, max_pool_rebuilds=2, max_retries=10,
    )
    _assert_bitwise(result, reference)
    telemetry = _telemetry(result)
    assert telemetry["degraded"] is True
    assert telemetry["pool_rebuilds"] == 2
    assert 0 in telemetry["degraded_shards"]


# ---------------------------------------------------------------------------
# Determinism of the whole fault pipeline
# ---------------------------------------------------------------------------
def test_faulty_run_is_run_to_run_deterministic(qft5):
    injector = FaultInjector(crashes=((1, 0),), raises=((2, 1),))
    first = _pool(qft5, 2, injector)
    second = _pool(qft5, 2, injector)
    _assert_bitwise(first, second)
    assert _telemetry(first)["attempts"] == _telemetry(second)["attempts"]


def test_backoff_jitter_is_deterministic(qft5):
    dispatcher = PoolDispatcher(_noise(), seed=SEED, num_workers=2)
    delays = [dispatcher._backoff_seconds(3, a) for a in (1, 2, 3)]
    again = [dispatcher._backoff_seconds(3, a) for a in (1, 2, 3)]
    assert delays == again
    assert all(d > 0 for d in delays)
    # Different (shard, attempt) keys draw different jitter.
    assert dispatcher._backoff_seconds(4, 1) != delays[0]


# ---------------------------------------------------------------------------
# Fail fast: max_retries=0 raises on the first failed attempt
# ---------------------------------------------------------------------------
def test_pool_dispatcher_cancels_pending_on_failure(qft5):
    # One worker, three shards: shard 0 raises immediately, shards 1 and 2
    # are slowed by 2 s each and still waiting for the worker when it does.
    # A failed run must not wait them out (~4 s).
    injector = FaultInjector(
        raises=((0, 0),), slowdowns=((1, 0, 2.0), (2, 0, 2.0))
    )
    dispatcher = PoolDispatcher(
        _noise(), seed=SEED, num_shards=3, num_workers=1,
        fault_injector=injector, max_retries=0,
    )
    start = time.monotonic()
    with pytest.raises(ShardRetryExhaustedError):
        dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
    elapsed = time.monotonic() - start
    assert elapsed < 1.5, "pending shards were not cancelled on failure"


def test_failed_pool_run_leaves_no_pool_thread_behind(qft5):
    """A failed run's pool can outlive the run as cyclic garbage (the
    exception's traceback holds it).  A pool thread still running could
    then hold the lock that a later forked worker takes when its garbage
    collector frees that pool, and the worker would block forever."""
    injector = FaultInjector(
        raises=((0, 0),), slowdowns=((1, 0, 2.0), (2, 0, 2.0))
    )
    dispatcher = PoolDispatcher(
        _noise(), seed=SEED, num_shards=3, num_workers=1,
        fault_injector=injector, max_retries=0,
    )
    before = set(threading.enumerate())
    with pytest.raises(ShardRetryExhaustedError):
        dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
    assert set(threading.enumerate()) <= before


# ---------------------------------------------------------------------------
# Worker slots kept between runs
# ---------------------------------------------------------------------------
def _slot_pids(dispatcher):
    """Each kept slot's worker pid (None before the slot's first attempt)."""
    return [
        next(iter(pool._processes or {}), None) for pool in dispatcher._slots
    ]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_two_runs_reuse_the_same_worker_pids(qft5, workers):
    reference = _serial(qft5)
    with PoolDispatcher(
        _noise(), seed=SEED, num_shards=3, num_workers=workers, **FAST
    ) as dispatcher:
        first = dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
        pids = _slot_pids(dispatcher)
        second = dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
        assert _slot_pids(dispatcher) == pids
    assert None not in pids
    for result in (first, second):
        _assert_bitwise(result, reference)


def test_recovered_crash_replaces_only_the_crashed_worker(qft5):
    with PoolDispatcher(
        _noise(), seed=SEED, num_shards=3, num_workers=3, **FAST
    ) as dispatcher:
        dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
        before = _slot_pids(dispatcher)
        dispatcher.fault_injector = FaultInjector(crashes=((1, 0),))
        result = dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
        after = _slot_pids(dispatcher)
    _assert_bitwise(result, _serial(qft5))
    assert _telemetry(result)["pool_rebuilds"] == 1
    # Shard s starts on slot s, so the crash of shard 1 costs slot 1 alone.
    assert (after[0], after[2]) == (before[0], before[2])
    assert after[1] != before[1]


def test_worker_killed_between_runs_is_replaced_free_of_charge(qft5):
    with PoolDispatcher(
        _noise(), seed=SEED, num_shards=3, num_workers=2, **FAST
    ) as dispatcher:
        dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
        pids = _slot_pids(dispatcher)
        victim = dispatcher._slots[1]
        os.kill(pids[1], signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while not getattr(victim, "_broken", False):
            assert time.monotonic() < deadline, "the dead worker went unseen"
            time.sleep(0.01)
        result = dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
        assert dispatcher._slots[1] is not victim
        assert _slot_pids(dispatcher)[0] == pids[0]
    _assert_bitwise(result, _serial(qft5))
    telemetry = _telemetry(result)
    assert telemetry["pool_rebuilds"] == 0
    assert telemetry["failures"] == []
    assert telemetry["attempts"] == [1, 1, 1]


def test_worker_killed_just_before_a_run_is_replaced_free_of_charge(qft5):
    """A run started as soon as the worker is gone, before the executor's
    manager thread has flagged the slot broken, still replaces it first."""
    with PoolDispatcher(
        _noise(), seed=SEED, num_shards=3, num_workers=2, **FAST
    ) as dispatcher:
        dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
        pids = _slot_pids(dispatcher)
        victim = dispatcher._slots[1]
        process = victim._processes[pids[1]]
        os.kill(pids[1], signal.SIGKILL)
        assert wait_for_sentinels([process.sentinel], timeout=5.0)
        result = dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
        assert dispatcher._slots[1] is not victim
        assert _slot_pids(dispatcher)[0] == pids[0]
    _assert_bitwise(result, _serial(qft5))
    telemetry = _telemetry(result)
    assert telemetry["pool_rebuilds"] == 0
    assert telemetry["failures"] == []
    assert telemetry["attempts"] == [1, 1, 1]


def test_threads_sharing_a_dispatcher_take_turns(qft5):
    """Runs share the dispatcher's slots, so they take turns: each merges
    to its own serial bits and reports its own telemetry."""
    partitioners = {3: PARTITIONER, 2: ManualPartitioner((2, 90))}
    dispatcher = PoolDispatcher(
        _noise(), seed=SEED, num_shards=3, num_workers=2, **FAST
    )
    results = {shards: [] for shards in partitioners}

    def client(shards):
        for _ in range(3):
            results[shards].append(dispatcher.run(
                qft5, SHOTS, partitioner=partitioners[shards]
            ))

    threads = [
        threading.Thread(target=client, args=(shards,))
        for shards in partitioners
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
        dispatcher.close()
    assert not any(thread.is_alive() for thread in threads)
    for shards, partitioner in partitioners.items():
        reference = _serial(qft5, partitioner)
        assert len(results[shards]) == 3
        for result in results[shards]:
            _assert_bitwise(result, reference)
            assert result.metadata["dispatch"]["num_shards"] == shards
            assert _telemetry(result)["attempts"] == [1] * shards


# ---------------------------------------------------------------------------
# Satellite 2: shots validation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("shots", [0, -1])
@pytest.mark.parametrize(
    "dispatcher_class",
    [SerialDispatcher, PoolDispatcher],
)
def test_dispatchers_reject_non_positive_shots(qft5, dispatcher_class, shots):
    dispatcher = dispatcher_class(_noise(), seed=SEED, num_shards=2)
    with pytest.raises(ValueError, match="shots must be >= 1"):
        dispatcher.run(qft5, shots, partitioner=PARTITIONER)


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "arities, max_depth, num_shards, expected",
    [
        ((12, 5, 3), 1, 2, [(0, 0, 2), (0, 2, 4), (0, 4, 6)]),
        # Layer 1 of (2, 9): every part runs first-layer node 0, and only
        # the first part accounts it.
        ((2, 9), 2, 4, [(1, 0, 2), (1, 2, 4), (1, 4, 5)]),
    ],
)
def test_split_shard_spec_union_is_bitwise_exact(
    qft5, arities, max_depth, num_shards, expected
):
    from repro.core.results import merge_many
    from repro.dispatch import run_shard

    plan = ManualPartitioner(arities).plan(qft5, 18, _noise())
    planner = ShardPlanner(noise_model=_noise(), max_depth=max_depth)
    shards = planner.plan_shards(qft5, 18, num_shards, seed=SEED, plan=plan)
    whole = run_shard(shards[0])
    parts = split_shard_spec(shards[0], 3)
    merged = merge_many([run_shard(part) for part in parts])
    assert merged.counts == whole.counts
    assert merged.cost.matches(whole.cost)
    # The sub-ranges tile the original range in order.
    assert [(p.layer, p.start, p.stop) for p in parts] == expected


def test_split_shard_spec_validates_and_caps(qft5):
    shards = ShardPlanner().plan_shards(
        qft5, SHOTS, 4, seed=SEED, partitioner=PARTITIONER
    )
    with pytest.raises(ValueError):
        split_shard_spec(shards[0], 0)
    assert split_shard_spec(shards[0], 1) == [shards[0]]
    # More parts than nodes: capped, never empty sub-specs.
    many = split_shard_spec(shards[0], 999)
    assert [(part.start, part.stop) for part in many] == [
        (0, 1), (1, 2), (2, 3),
    ]


def test_fault_injector_is_picklable_and_inert_by_default():
    injector = FaultInjector(
        crashes=((0, 0),), raises=((1, 2),), hangs=((2, 0),),
        slowdowns=((3, 1, 0.5),), hang_seconds=9.0,
    )
    clone = pickle.loads(pickle.dumps(injector))
    assert clone == injector
    assert FaultInjector().empty
    assert not injector.empty
    # A non-matching (shard, attempt) does nothing.
    assert injector.fire(7, 7) == ()


def test_dispatch_errors_pickle_round_trip():
    errors = [
        ShardTimeoutError(2, 0, 1.5),
        ShardRetryExhaustedError(1, 4, "last"),
        InjectedFaultError("injected"),
    ]
    for error in errors:
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is type(error)
        assert str(clone) == str(error)
        assert isinstance(clone, DispatchError)
    clone = pickle.loads(pickle.dumps(errors[1]))
    assert (clone.shard, clone.attempts) == (1, 4)


def test_injector_faults_recorded_in_worker_metadata(qft5):
    from repro.dispatch import run_shard

    shards = ShardPlanner(noise_model=_noise()).plan_shards(
        qft5, SHOTS, 2, seed=SEED, partitioner=PARTITIONER
    )
    injector = FaultInjector(slowdowns=((0, 0, 0.01),))
    result = run_shard(shards[0], 0, injector)
    assert result.metadata["injected_faults"] == ("slowdown",)
    assert result.metadata["shard_attempt"] == 0
    # Attempt-independence: a retry produces the same bits.
    retry = run_shard(shards[0], 1, injector)
    assert retry.counts == result.counts
    assert retry.cost.matches(result.cost)
    assert "injected_faults" not in retry.metadata
