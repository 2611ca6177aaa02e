"""The baseline noisy simulator: one full trajectory per shot (Section 2.4).

This plays the role of the noisy Qulacs / Qiskit Aer baseline in the paper:
every shot starts from |0...0>, applies every gate followed by freshly sampled
noise operators, and contributes exactly one measurement outcome.  That is
the degenerate simulation tree — one layer of ``shots`` nodes, no reuse —
which :class:`~repro.core.partitioners.SingleShotPartitioner` plans, so the
simulator runs that plan on a :class:`~repro.core.engine.TQSimEngine` one
node at a time (``max_batch=1``).  The baseline therefore shares the tree
engine's kernels, noise step, path-keyed streams and counters: shot ``j``
draws from the stream of first-layer node ``j``, and
``BaselineNoisySimulator(noise, seed=s, backend=b).run(c, n)`` equals
``TQSimEngine(noise, seed=s, backend=b, max_batch=1).run(c, n,
partitioner=SingleShotPartitioner())`` bitwise.  First-layer nodes are reset
to |0...0>, not copied, so ``state_copies`` stays 0 and the other counters
count per shot.
"""

from __future__ import annotations

from repro.backends import Backend
from repro.circuits.circuit import Circuit
from repro.core.engine import TQSimEngine
from repro.core.partitioners import SingleShotPartitioner
from repro.core.results import SimulationResult
from repro.noise.model import NoiseModel

__all__ = ["BaselineNoisySimulator"]


class BaselineNoisySimulator:
    """Per-shot Monte-Carlo trajectory simulator (no computation reuse)."""

    def __init__(
        self,
        noise_model: NoiseModel | None = None,
        seed: int | None = None,
        backend: str | Backend | None = None,
    ) -> None:
        self._engine = TQSimEngine(
            noise_model, seed=seed, backend=backend, max_batch=1
        )

    @property
    def noise_model(self) -> NoiseModel | None:
        """The noise model every trajectory samples (``None``: ideal)."""
        return self._engine.noise_model

    @property
    def backend(self) -> Backend:
        """The backend the engine's kernels run on."""
        return self._engine.backend

    # ------------------------------------------------------------------
    def run(self, circuit: Circuit, shots: int) -> SimulationResult:
        """Simulate ``shots`` independent noisy trajectories of ``circuit``.

        Raises ``ValueError`` when ``shots < 1`` or the circuit is empty.
        """
        result = self._engine.run(
            circuit, shots, partitioner=SingleShotPartitioner()
        )
        result.metadata["simulator"] = "baseline"
        return result
