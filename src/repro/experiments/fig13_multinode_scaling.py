"""Figure 13: strong and weak scaling on the (modeled) CPU cluster.

Paper result: small circuits scale poorly (communication dominated), larger
circuits scale better, TQSim's scaling tracks the qHiPSTER baseline, and
TQSim beats the baseline at every node count in the weak-scaling sweep.

Alongside the analytic cluster model this experiment now *measures* real
multi-core scaling on the host: the :mod:`repro.dispatch` subsystem shards a
high-arity DCP-style tree across worker processes (one shard of first-layer
subtrees per worker) and times the pooled execution against the serial
dispatcher.  The merged counts are bitwise identical at every worker count
— the sweep isolates pure execution placement — while the speedups are
honest wall-clock numbers and therefore bounded by the machine's physical
core count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.library.bv import bv_circuit
from repro.circuits.library.qft import qft_circuit
from repro.core.partitioners import ManualPartitioner
from repro.distributed.scaling import ScalingPoint, strong_scaling, weak_scaling
from repro.experiments.common import (
    DEFAULT_CONFIG,
    DispatchScalingMeasurement,
    ExperimentConfig,
    FaultyDispatchMeasurement,
    measure_dispatch_scaling,
    measure_faulty_dispatch,
)
from repro.noise.sycamore import depolarizing_noise_model

__all__ = [
    "MultiNodeResult",
    "measured_dispatch_scaling",
    "measured_deep_dispatch_scaling",
    "measured_faulty_dispatch_scaling",
    "run",
]

PAPER_NODE_COUNTS = (1, 2, 4, 8, 16, 32)

#: Tree shape of the measured multiprocess leg: a high first-layer arity
#: gives the shard planner plenty of subtrees to split evenly across
#: workers, mirroring how the paper distributes the first layer over nodes.
MEASURED_TREE_ARITIES = (16, 16)

#: Tree shape of the deep-sharding leg: a first-layer arity *below* the
#: worker counts, so classic first-layer sharding starves the pool at 2
#: shards and only the path-based planner (``max_depth=2``) can split the
#: 64-way second layer across more workers.
MEASURED_DEEP_TREE_ARITIES = (2, 64)

#: Split depth of the deep-sharding leg.
MEASURED_DEEP_MAX_DEPTH = 2


@dataclass(frozen=True)
class MultiNodeResult:
    """Strong- and weak-scaling points for the BV and QFT families.

    ``measured`` holds the real multiprocess sweep (serial dispatcher vs
    process pool on one shared plan); ``measured_deep`` repeats it on a
    low-first-layer-arity plan where only deep (path-based) sharding can
    feed the pool.  ``measured_faulty`` runs the fault-tolerance leg: the
    pool healthy and with one injected worker crash (recovery cost), both
    bitwise-checked against serial — the single-host analogue of a cluster
    losing a node mid-run.  The modeled
    points keep the paper's cluster story at widths the NumPy substrate
    cannot time directly.
    """

    strong: dict[str, list[ScalingPoint]]
    weak: dict[str, list[ScalingPoint]]
    measured: DispatchScalingMeasurement | None = None
    measured_deep: DispatchScalingMeasurement | None = None
    measured_faulty: FaultyDispatchMeasurement | None = None

    def strong_scaling_speedups(self, name: str) -> list[float]:
        """Speedup vs the single-node time for one strong-scaling series."""
        series = self.strong[name]
        single_node = series[0].tqsim_seconds
        return [point.parallel_speedup(single_node) for point in series]


def measured_dispatch_scaling(
    config: ExperimentConfig = DEFAULT_CONFIG,
    worker_counts: tuple[int, ...] | None = None,
) -> DispatchScalingMeasurement:
    """Measure multiprocess shot dispatch on a high-arity QFT plan.

    Worker counts default to :func:`~repro.experiments.common.dispatch_worker_counts`
    (``(1, 2, 4)`` capped at the host's cores; overridable through
    ``config.extra``), so the sweep reports genuine parallelism where the
    hardware offers it and stays honest where it does not.
    """
    noise_model = depolarizing_noise_model()
    width = min(config.max_qubits, 10)
    circuit = qft_circuit(width)
    plan = ManualPartitioner(MEASURED_TREE_ARITIES).plan(
        circuit, config.shots, noise_model
    )
    return measure_dispatch_scaling(
        circuit, noise_model, config, plan, worker_counts=worker_counts
    )


def measured_deep_dispatch_scaling(
    config: ExperimentConfig = DEFAULT_CONFIG,
    worker_counts: tuple[int, ...] | None = None,
) -> DispatchScalingMeasurement:
    """Measure deep sharding on a plan whose first layer starves the pool.

    The ``(2, 64)`` tree offers only two first-layer subtrees; the sweep
    runs with ``max_depth=2`` (overridable through
    ``config.extra["max_depth"]``) so the planner splits the 64-way second
    layer across the workers instead — the merged counts stay bitwise the
    serial dispatcher's while the per-point ``shard_depth`` shows where the
    planner had to descend.
    """
    noise_model = depolarizing_noise_model()
    width = min(config.max_qubits, 10)
    circuit = qft_circuit(width)
    shots = MEASURED_DEEP_TREE_ARITIES[0] * MEASURED_DEEP_TREE_ARITIES[1]
    plan = ManualPartitioner(MEASURED_DEEP_TREE_ARITIES).plan(
        circuit, shots, noise_model
    )
    max_depth = int(config.extra.get("max_depth", MEASURED_DEEP_MAX_DEPTH))
    return measure_dispatch_scaling(
        circuit, noise_model, config.scaled(shots=shots), plan,
        worker_counts=worker_counts, max_depth=max_depth,
    )


def measured_faulty_dispatch_scaling(
    config: ExperimentConfig = DEFAULT_CONFIG,
    num_workers: int = 2,
) -> FaultyDispatchMeasurement:
    """Measure fault-tolerant dispatch on the high-arity QFT plan.

    Two legs on the ``measured`` sweep's plan: the healthy pool, and the
    pool with shard 0's first attempt killed by a real ``os._exit`` in the
    worker (the delta over the healthy leg is the detect-rebuild-rerun
    recovery cost).
    """
    noise_model = depolarizing_noise_model()
    width = min(config.max_qubits, 10)
    circuit = qft_circuit(width)
    plan = ManualPartitioner(MEASURED_TREE_ARITIES).plan(
        circuit, config.shots, noise_model
    )
    return measure_faulty_dispatch(
        circuit, noise_model, config, plan, num_workers=num_workers
    )


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> MultiNodeResult:
    """Model strong and weak scaling, plus the measured multiprocess sweep."""
    noise_model = depolarizing_noise_model()
    shots = max(config.shots, 1024)
    strong_widths = config.extra.get("strong_widths", (16, 20, 24))
    weak_widths = config.extra.get("weak_widths", (20, 21, 22, 23, 24, 25))

    strong: dict[str, list[ScalingPoint]] = {}
    for width in strong_widths:
        for family, builder in (("bv", bv_circuit), ("qft", qft_circuit)):
            circuit = builder(width)
            strong[f"{family}_{width}"] = strong_scaling(
                circuit, shots, PAPER_NODE_COUNTS, noise_model
            )

    weak: dict[str, list[ScalingPoint]] = {}
    node_counts = [2**i for i in range(len(weak_widths))]
    for family, builder in (("bv", bv_circuit), ("qft", qft_circuit)):
        circuits = [builder(width) for width in weak_widths]
        weak[family] = weak_scaling(circuits, shots, node_counts, noise_model)
    return MultiNodeResult(
        strong=strong,
        weak=weak,
        measured=measured_dispatch_scaling(config),
        measured_deep=measured_deep_dispatch_scaling(config),
        measured_faulty=measured_faulty_dispatch_scaling(config),
    )
