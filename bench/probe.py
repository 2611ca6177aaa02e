"""Reference seconds: one-core work timed against a speed probe run inside it.

On shared hardware the speed of a core changes by up to 2x, from tens of
milliseconds to minutes, and a quiet and a busy minute differ more than any
bound worth having.  Work that runs on one core is therefore reported in
*reference seconds*: its wall time, less the time spent probing, scaled by
``PROBE_REFERENCE_S`` over the mean probe time measured *while the work
ran*.  A timer signal interrupts the work every ``SAMPLE_INTERVAL_S`` and
runs the probe in the handler, so the probe sees the same slow and fast
spells as the work, not only the moments before and after it.  Work that a
probe inside would disturb — a server whose threads wait on the interpreter
lock while the handler holds it — is probed just before and just after.

The probe is 200 single-qubit updates of an 8-qubit state in plain NumPy,
written here, so no change to the simulator can move it.  It must run on the
core the work runs on: the measuring process pins itself to one CPU before
it imports the simulator, and every thread it starts inherits the pin.  Work
on two cores, whose speeds change independently, runs under
:meth:`SpeedProbe.all_cores` and keeps wall seconds.

This module needs only NumPy, so a process can start probing before it
imports the simulator and set-up is timed the same way.
"""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

#: Mean time of one probe on the reference machine; it sets the unit only.
PROBE_REFERENCE_S = 1.5e-3
#: Seconds between two probes inside timed work (about 6% of the time).
SAMPLE_INTERVAL_S = 0.025
#: Probes just before and just after a block that is not probed inside.
PROBES_AROUND = 8


@dataclass
class Timing:
    """A timed block: its ``perf_counter`` span and the probes inside it."""

    start: float = 0.0
    end: float = 0.0
    #: Reference seconds per wall second of work (1.0 for wall-clock blocks).
    scale: float = 1.0
    #: ``(start, end)`` of every probe that ran inside the block.
    probes: list[tuple[float, float]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start

    def work(self, start: float, end: float) -> float:
        """Wall seconds within ``[start, end]`` not spent probing."""
        overlap = sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.probes)
        return end - start - overlap

    @property
    def reference(self) -> float:
        """The whole block's work in reference seconds."""
        return self.work(self.start, self.end) * self.scale


class SpeedProbe:
    """A fixed one-thread NumPy workload, sampled inside every timed block."""

    QUBITS = 8

    def __init__(self, cpus: set[int]) -> None:
        """``cpus``: every CPU the process may use before it was pinned."""
        self._cpus = cpus
        self._pinned = os.sched_getaffinity(0)
        rng = np.random.default_rng(8)
        self._gates = []
        for qubit in rng.integers(0, self.QUBITS, 200):
            matrix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            self._gates.append((np.linalg.qr(matrix)[0], int(qubit)))
        #: Every probe time measured so far.
        self.samples: list[float] = []
        self._spans: list[tuple[float, float]] = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        # Restart interrupted system calls instead of failing them.
        signal.siginterrupt(signal.SIGALRM, False)

    def _once(self) -> float:
        state = np.zeros(2**self.QUBITS, dtype=complex)
        state[0] = 1.0
        start = time.perf_counter()
        for matrix, qubit in self._gates:
            view = state.reshape(-1, 2, 2**qubit)
            low, high = view[:, 0, :].copy(), view[:, 1, :].copy()
            view[:, 0, :] = matrix[0, 0] * low + matrix[0, 1] * high
            view[:, 1, :] = matrix[1, 0] * low + matrix[1, 1] * high
        return time.perf_counter() - start

    def _on_alarm(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        self.samples.append(self._once())
        self._spans.append((start, time.perf_counter()))

    def _probe(self, count: int) -> None:
        self.samples.extend(self._once() for _ in range(count))

    @contextlib.contextmanager
    def timing(self, since: float | None = None, inside: bool = True
               ) -> Iterator[Timing]:
        """Time the block on this core, probing inside it.

        ``since``: a ``perf_counter`` reading to count the block from, when
        it began before the probe existed.  A block shorter than one
        interval is probed once just after it.  ``inside=False`` probes
        ``PROBES_AROUND`` times just before and just after the block
        instead, for work a probe inside would disturb: a server's threads
        wait on the interpreter lock while the handler holds it.
        """
        timing = Timing()
        first = len(self.samples)
        if not inside:
            self._probe(PROBES_AROUND)
        self._spans = timing.probes
        timing.start = time.perf_counter() if since is None else since
        if inside:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            timing.end = time.perf_counter()
        if not inside:
            self._probe(PROBES_AROUND)
        elif len(self.samples) == first:
            self._probe(1)
        timing.scale = PROBE_REFERENCE_S / statistics.fmean(self.samples[first:])

    @contextlib.contextmanager
    def all_cores(self) -> Iterator[Timing]:
        """Unpin, so the processes and threads started inside use every CPU;
        the block keeps wall seconds."""
        timing = Timing()
        os.sched_setaffinity(0, self._cpus)
        timing.start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.end = time.perf_counter()
            os.sched_setaffinity(0, self._pinned)

    def summary(self) -> dict[str, float]:
        return {"probe_ms": 1e3 * statistics.median(self.samples),
                "probe_reference_ms": 1e3 * PROBE_REFERENCE_S}
