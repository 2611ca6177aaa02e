"""Batched per-shot trajectory simulator (the measured side of Figure 8).

Semantically this is the per-shot baseline: every shot is an independent
noisy trajectory from |0...0> contributing one measurement outcome.  The
difference is purely in execution — shots run B at a time as the rows of one
``(B, 2**n)`` array, so each gate (and each noise event, and the final
measurement) is one vectorised call instead of B Python dispatches.  That
amortisation of per-gate overhead across the batch is exactly the effect the
paper measures on an A100 in Figure 8.
"""

from __future__ import annotations


import numpy as np

from repro.backends import Backend, get_backend
from repro.circuits.circuit import Circuit
from repro.core.results import CostCounters, SimulationResult
from repro.noise.model import NoiseModel
from repro.obs import clock

__all__ = ["BatchedTrajectorySimulator"]


class BatchedTrajectorySimulator:
    """Per-shot Monte-Carlo trajectory simulator, B trajectories per pass."""

    def __init__(
        self,
        noise_model: NoiseModel | None = None,
        seed: int | None = None,
        batch_size: int = 16,
        backend: str | Backend | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.noise_model = noise_model
        self.batch_size = int(batch_size)
        self.backend = get_backend(backend)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def run(self, circuit: Circuit, shots: int) -> SimulationResult:
        """Simulate ``shots`` independent trajectories, batched per pass.

        Cost counters keep per-shot semantics: a batched kernel advancing B
        trajectories counts as B gate applications, so the counters stay
        comparable with the sequential simulators'.
        """
        if shots < 1:
            raise ValueError("shots must be >= 1")
        backend = self.backend
        noise_model = self.noise_model
        counts: dict[str, int] = {}
        cost = CostCounters()
        readout = noise_model.readout_error if noise_model else None
        passes = 0
        start = clock.perf_seconds()
        buffer = backend.allocate_batch(circuit.num_qubits, self.batch_size)
        remaining = shots
        while remaining > 0:
            batch = min(self.batch_size, remaining)
            # The final partial pass runs on a leading view of the pool.
            state = backend.reset_state(buffer[:batch])
            for gate in circuit:
                state = backend.apply_gate(state, gate)
                cost.gate_applications += batch
                if noise_model is not None:
                    events = noise_model.events_for_gate(gate)
                    if events:
                        state = backend.apply_noise_events(
                            state, events, self._rng
                        )
                        cost.noise_applications += len(events) * batch
            for bitstring in backend.sample_outcomes(state, self._rng, readout):
                counts[bitstring] = counts.get(bitstring, 0) + 1
            cost.leaf_samples += batch
            passes += 1
            remaining -= batch
        cost.wall_time_seconds = clock.perf_seconds() - start
        return SimulationResult(
            counts=counts,
            num_qubits=circuit.num_qubits,
            shots=shots,
            cost=cost,
            metadata={
                "simulator": "batched",
                "backend": backend.name,
                "batch_size": self.batch_size,
                "passes": passes,
                "noise_model": noise_model.name if noise_model else "ideal",
            },
        )
