"""Typed dispatch failures and the deterministic fault-injection hook.

Two things live here, both deliberately free of any engine dependency so the
whole dispatch layer can import them without cycles:

* The :class:`DispatchError` hierarchy — every failure the dispatchers can
  surface is a typed subclass carrying the shard index and attempt number
  that produced it, so callers (and telemetry) never have to parse message
  strings.  ``repro lint``'s ``mp-silent-except`` rule enforces the flip
  side: dispatch code may not swallow exceptions silently; it converts them
  into these types or records them in telemetry.
* :class:`FaultInjector` — a picklable, *deterministic* fault hook threaded
  through :func:`repro.dispatch.worker.run_shard`.  Faults are keyed by
  ``(shard index, attempt)`` pairs, so an injected crash on attempt 0 does
  not re-fire on the retry; the injector carries no state and draws no
  entropy, which keeps every fault scenario exactly reproducible.  It is
  ``None`` by default and inert in production: the worker entry point only
  consults it when one is explicitly supplied.

Exceptions here are plain classes (not dataclasses) on purpose: pickled
exceptions rebuild from their reduction, and the multi-argument subclasses
override ``__reduce__`` to reconstruct from their real constructor
signature — worker-raised errors cross the process boundary with their
shard/attempt attributes intact.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

__all__ = [
    "DispatchError",
    "ShardTimeoutError",
    "ShardRetryExhaustedError",
    "InjectedFaultError",
    "FaultInjector",
]

#: Exit status of an injected worker crash (recognisable in process tables).
CRASH_EXIT_CODE = 87

#: How long an injected hang sleeps when no duration is configured.  Long
#: enough that any sane per-shard timeout fires first, short enough that a
#: leaked worker process still exits on its own eventually.
DEFAULT_HANG_SECONDS = 3600.0


class DispatchError(RuntimeError):
    """Base of every typed failure the dispatch layer raises or records."""


class ShardTimeoutError(DispatchError):
    """A shard attempt exceeded its cost-model-derived deadline."""

    def __init__(
        self, shard: int, attempt: int, timeout_seconds: float
    ) -> None:
        self.shard = shard
        self.attempt = attempt
        self.timeout_seconds = timeout_seconds
        super().__init__(
            f"shard {shard} attempt {attempt} exceeded its "
            f"{timeout_seconds:.3g}s deadline"
        )

    def __reduce__(self) -> tuple:
        return (type(self), (self.shard, self.attempt, self.timeout_seconds))


class ShardRetryExhaustedError(DispatchError):
    """A shard kept failing past ``max_retries`` attempts."""

    def __init__(self, shard: int, attempts: int, last_error: str = "") -> None:
        self.shard = shard
        self.attempts = attempts
        self.last_error = last_error
        suffix = f" (last: {last_error})" if last_error else ""
        super().__init__(
            f"shard {shard} failed {attempts} attempt(s), retry budget "
            f"exhausted{suffix}"
        )

    def __reduce__(self) -> tuple:
        return (type(self), (self.shard, self.attempts, self.last_error))


class InjectedFaultError(DispatchError):
    """The error an injected ``raise`` fault throws inside the worker."""


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic, picklable fault schedule keyed by ``(shard, attempt)``.

    Every field is a tuple of ``(shard index, attempt)`` pairs (plain data,
    so the injector pickles into worker processes under fork and spawn
    alike).  :meth:`fire` is called once at worker entry; matching faults
    apply in severity order — crash, raise, hang, slow-down — and the
    non-aborting kinds are returned so the shard result can record them.

    Off by default everywhere: dispatchers thread ``None`` unless a test or
    benchmark supplies an injector, and an empty injector never fires.
    """

    #: Hard-kill the worker process (``os._exit``): the pool breaks.
    crashes: tuple[tuple[int, int], ...] = ()
    #: Raise :class:`InjectedFaultError` from the worker (transient error).
    raises: tuple[tuple[int, int], ...] = ()
    #: Sleep ``hang_seconds`` before running (exceeds any sane timeout).
    hangs: tuple[tuple[int, int], ...] = ()
    #: ``(shard, attempt, seconds)``: sleep, then run normally (straggler).
    slowdowns: tuple[tuple[int, int, float], ...] = field(default=())
    #: Duration of an injected hang.
    hang_seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        for shard, attempt, seconds in self.slowdowns:
            if seconds < 0:
                raise ValueError(
                    f"slowdown for shard {shard} attempt {attempt} must be "
                    "non-negative"
                )

    @property
    def empty(self) -> bool:
        """True when no fault is scheduled at all."""
        return not (self.crashes or self.raises or self.hangs or self.slowdowns)

    def fire(self, shard: int, attempt: int) -> tuple[str, ...]:
        """Apply the faults scheduled for ``(shard, attempt)``.

        Crashes terminate the process and raises propagate; hangs and
        slow-downs sleep and return their kind tags so the worker can stamp
        them into the shard result's metadata.
        """
        key = (shard, attempt)
        if key in self.crashes:
            os._exit(CRASH_EXIT_CODE)
        if key in self.raises:
            raise InjectedFaultError(
                f"injected failure for shard {shard} attempt {attempt}"
            )
        applied: list[str] = []
        if key in self.hangs:
            time.sleep(self.hang_seconds)
            applied.append("hang")
        for slow_shard, slow_attempt, seconds in self.slowdowns:
            if (slow_shard, slow_attempt) == key:
                time.sleep(seconds)
                applied.append("slowdown")
        return tuple(applied)
