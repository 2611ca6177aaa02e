"""Batched per-shot trajectory simulator (the measured side of Figure 8).

Semantically this is the per-shot baseline: every shot is an independent
noisy trajectory from |0...0> contributing one measurement outcome.  The
difference is purely in execution — shots run B at a time as the rows of one
``(B, 2**n)`` block, so each gate (and each noise event, and the final
measurement) is one vectorised call instead of B Python dispatches.  That
amortisation of per-gate overhead across the batch is exactly the effect the
paper measures on an A100 in Figure 8.

It is the baseline's one-layer plan run at the engine's frontier-chunk cap
``batch_size`` instead of 1.  Counts never depend on the cap, so for a fixed
seed every batch size gives bitwise the baseline's counts and counters.
"""

from __future__ import annotations

from repro.backends import Backend
from repro.circuits.circuit import Circuit
from repro.core.baseline import BaselineNoisySimulator
from repro.core.engine import TQSimEngine
from repro.core.results import SimulationResult
from repro.noise.model import NoiseModel

__all__ = ["BatchedTrajectorySimulator"]


class BatchedTrajectorySimulator(BaselineNoisySimulator):
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
        self.batch_size = int(batch_size)
        self._engine = TQSimEngine(
            noise_model, seed=seed, backend=backend, max_batch=self.batch_size
        )

    def run(self, circuit: Circuit, shots: int) -> SimulationResult:
        """Simulate ``shots`` independent trajectories, ``batch_size`` per
        pass (the last pass may be partial)."""
        result = super().run(circuit, shots)
        result.metadata.update(
            simulator="batched",
            batch_size=self.batch_size,
            passes=-(-shots // self.batch_size),
        )
        return result
