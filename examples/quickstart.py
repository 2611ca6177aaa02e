"""Quickstart: simulate a noisy circuit with and without computation reuse.

Run with ``python examples/quickstart.py``.  The script builds a small QFT
benchmark circuit, attaches the paper's Sycamore-derived depolarizing noise
model, runs the baseline per-shot Monte-Carlo simulator and the TQSim reuse
engine, and compares their output distributions and costs.
"""

from __future__ import annotations

from repro.circuits.library import qft_circuit
from repro.core import BaselineNoisySimulator, DynamicCircuitPartitioner, TQSimEngine
from repro.metrics import normalized_fidelity
from repro.noise import depolarizing_noise_model
from repro.statevector import StatevectorSimulator


def main() -> None:
    shots = 500
    copy_cost = 10.0

    circuit = qft_circuit(8)
    noise_model = depolarizing_noise_model()
    print(f"circuit: {circuit!r}")
    print(f"noise model: {noise_model!r}\n")

    # Reference: the ideal (noise-free) output distribution.
    ideal = StatevectorSimulator(seed=0).probabilities(circuit)

    # 1. Baseline: one full trajectory per shot.
    baseline = BaselineNoisySimulator(noise_model, seed=1).run(circuit, shots)
    print("baseline:")
    print(f"  gate applications : {baseline.cost.gate_applications}")
    print(f"  wall time         : {baseline.cost.wall_time_seconds:.2f} s")

    # 2. TQSim: partition the circuit with DCP and reuse intermediate states.
    # The state-copy cost is a partitioning decision: DCP sizes the first
    # subcircuit and the minimum piece by it.
    partitioner = DynamicCircuitPartitioner(copy_cost_in_gates=copy_cost,
                                            margin_of_error=0.15,
                                            min_first_layer_shots=64)
    engine = TQSimEngine(noise_model, seed=2)
    tqsim = engine.run(circuit, shots, partitioner=partitioner)
    print("tqsim:")
    print(f"  simulation tree   : {tqsim.metadata['tree']}")
    print(f"  gate applications : {tqsim.cost.gate_applications}")
    print(f"  state copies      : {tqsim.cost.state_copies}")
    print(f"  wall time         : {tqsim.cost.wall_time_seconds:.2f} s")

    # 3. Compare.
    print("\ncomparison:")
    print(f"  computation speedup : "
          f"{tqsim.speedup_over(baseline, copy_cost):.2f}x")
    print(f"  wall-clock speedup  : "
          f"{tqsim.speedup_over(baseline, use_wall_time=True):.2f}x")
    nf_baseline = normalized_fidelity(ideal, baseline.probabilities())
    nf_tqsim = normalized_fidelity(ideal, tqsim.probabilities())
    print(f"  normalized fidelity : baseline {nf_baseline:.3f}, "
          f"tqsim {nf_tqsim:.3f} (difference {abs(nf_baseline - nf_tqsim):.3f})")


if __name__ == "__main__":
    main()
