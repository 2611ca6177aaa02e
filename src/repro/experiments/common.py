"""Shared configuration and runners for the paper-reproduction experiments.

Every ``figXX_*`` / ``tableX_*`` module exposes a ``run(config)`` function
returning a plain-data result object.  The default :class:`ExperimentConfig`
is scaled down from the paper (shots and widths) so the whole harness runs on
a laptop-class CPU in minutes; the paper-scale parameters are documented in
each module and can be requested explicitly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Any

from repro.circuits.circuit import Circuit
from repro.circuits.transpile import DEFAULT_FUSION_SKIP_NAMES, fuse_single_qubit_runs
from repro.core.baseline import BaselineNoisySimulator
from repro.core.costmodel import CostModel, get_cost_model
from repro.core.engine import TQSimEngine
from repro.core.partitioners import CircuitPartitioner, DynamicCircuitPartitioner
from repro.core.results import SimulationResult
from repro.core.sampling_theory import DEFAULT_MARGIN_OF_ERROR
from repro.metrics.fidelity import normalized_fidelity
from repro.noise.model import NoiseModel
from repro.obs.tracer import AnyTracer
from repro.statevector.simulator import StatevectorSimulator

__all__ = [
    "ExperimentConfig",
    "ComparisonRow",
    "BatchedTreeMeasurement",
    "DispatchPoint",
    "DispatchScalingMeasurement",
    "FaultyDispatchMeasurement",
    "compare_simulators",
    "fuse_for_noise_model",
    "measure_batched_tree",
    "measure_dispatch_scaling",
    "measure_faulty_dispatch",
    "dispatch_worker_counts",
    "DEFAULT_CONFIG",
    "PAPER_SHOTS",
]

#: Shot count the paper's evaluation uses (Section 4.3).
PAPER_SHOTS = 32_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the experiment harness.

    Attributes
    ----------
    shots:
        Outcomes per simulation (the paper uses 32 000; the scaled-down
        default keeps wall-clock reasonable on the NumPy substrate).
    max_qubits:
        Benchmarks wider than this are skipped.
    seed:
        Base RNG seed for reproducibility.
    copy_cost_in_gates:
        State-copy cost (in gate executions) handed to DCP and used when
        converting cost counters to gate-equivalents.
    margin_of_error:
        DCP's sample-size margin of error (paper Eq. 5).  When ``None`` it is
        scaled from the paper's value so that the *fraction* ``A0 / shots``
        stays at the paper's operating point even though the scaled-down
        harness uses far fewer than 32 000 shots; pass an explicit value to
        use the formula verbatim.
    backend:
        Name of the execution backend (see :mod:`repro.backends`) every
        simulator in the harness runs on.
    """

    shots: int = 256
    max_qubits: int = 10
    seed: int = 7
    copy_cost_in_gates: float = 10.0
    margin_of_error: float | None = None
    backend: str = "optimized"
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def effective_margin_of_error(self) -> float:
        """Margin of error actually handed to DCP (see ``margin_of_error``)."""
        if self.margin_of_error is not None:
            return self.margin_of_error
        return DEFAULT_MARGIN_OF_ERROR * math.sqrt(PAPER_SHOTS / self.shots)

    def dcp_partitioner(self) -> DynamicCircuitPartitioner:
        """A DCP partitioner configured consistently with this config.

        Besides the scaled margin of error, a floor is placed on ``A0`` so
        the accuracy-critical first layer keeps a statistically meaningful
        sample even at the harness's reduced shot counts.
        """
        return DynamicCircuitPartitioner(
            copy_cost_in_gates=self.copy_cost_in_gates,
            margin_of_error=self.effective_margin_of_error,
            min_first_layer_shots=max(16, self.shots // 8),
        )

    def calibrated_dcp_partitioner(
        self, cost_model: CostModel
    ) -> DynamicCircuitPartitioner:
        """A DCP whose plan search is priced by a measured cost model.

        Same statistical knobs as :meth:`dcp_partitioner`; only the cost
        side changes — the copy cost comes from the model's measured ratio
        and the candidate sweep is judged on predicted wall time.
        """
        return DynamicCircuitPartitioner(
            margin_of_error=self.effective_margin_of_error,
            min_first_layer_shots=max(16, self.shots // 8),
            cost_model=cost_model,
        )

    def scaled(self, **overrides) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


#: Default scaled-down configuration used by the benchmark harness.
DEFAULT_CONFIG = ExperimentConfig()


@dataclass
class ComparisonRow:
    """Baseline-vs-TQSim comparison for one circuit."""

    name: str
    num_qubits: int
    num_gates: int
    shots: int
    baseline: SimulationResult
    tqsim: SimulationResult
    baseline_normalized_fidelity: float
    tqsim_normalized_fidelity: float
    cost_speedup: float
    wall_clock_speedup: float
    tree: str
    tqsim_calibrated: SimulationResult | None = None
    calibrated_tree: str | None = None
    calibrated_wall_clock_speedup: float | None = None
    calibrated_vs_analytic_speedup: float | None = None
    calibrated_predicted_seconds: float | None = None

    @property
    def fidelity_difference(self) -> float:
        """|NF_baseline - NF_tqsim| (the Figure-14 metric)."""
        return abs(self.baseline_normalized_fidelity - self.tqsim_normalized_fidelity)

    def as_dict(self) -> dict[str, Any]:
        """Flat representation for report tables."""
        row = {
            "name": self.name,
            "qubits": self.num_qubits,
            "gates": self.num_gates,
            "shots": self.shots,
            "tree": self.tree,
            "cost_speedup": self.cost_speedup,
            "wall_clock_speedup": self.wall_clock_speedup,
            "baseline_nf": self.baseline_normalized_fidelity,
            "tqsim_nf": self.tqsim_normalized_fidelity,
            "fidelity_difference": self.fidelity_difference,
        }
        if self.tqsim_calibrated is not None:
            row["calibrated_tree"] = self.calibrated_tree
            row["calibrated_wall_clock_speedup"] = (
                self.calibrated_wall_clock_speedup
            )
            row["calibrated_vs_analytic_speedup"] = (
                self.calibrated_vs_analytic_speedup
            )
            row["calibrated_predicted_seconds"] = (
                self.calibrated_predicted_seconds
            )
        return row


def fuse_for_noise_model(circuit: Circuit,
                         noise_model: NoiseModel | None) -> Circuit:
    """Run the fusion peephole without disturbing name-keyed noise semantics.

    Gate names the model treats specially (noiseless marks, per-name channel
    overrides) are excluded from fusion: a run that absorbed an ``id`` or an
    overridden gate would fall back to the default per-arity channels and
    change the physics, not just the event count.
    """
    skip_names = DEFAULT_FUSION_SKIP_NAMES
    if noise_model is not None:
        skip_names = skip_names | noise_model.name_sensitive_gates
    return fuse_single_qubit_runs(circuit, skip_names=skip_names)


@dataclass(frozen=True)
class BatchedTreeMeasurement:
    """Measured chunked vs one-node-at-a-time execution of one plan.

    Both runs execute the *same* plan with the same seed, one at chunk cap
    1 (the classic depth-first order) and one at the default cap, so their
    counts are bitwise equal and their cost counters identical; the
    speedup is pure execution efficiency from running whole frontier chunks
    through the batched kernels.
    """

    name: str
    num_qubits: int
    tree: str
    sequential_seconds: float
    batched_seconds: float
    counters_match: bool

    @property
    def batched_tree_speedup(self) -> float:
        """Measured wall-clock ratio: cap 1 over the default cap."""
        return self.sequential_seconds / self.batched_seconds


def measure_batched_tree(
    circuit: Circuit,
    noise_model: NoiseModel | None,
    config: ExperimentConfig,
    plan,
) -> BatchedTreeMeasurement:
    """Time the engine at chunk cap 1 and at the default cap on one plan.

    The caller picks the plan shape (high-arity plans show the largest
    batching wins); this helper owns the timing methodology so every figure
    measures the chunking the same way.
    """
    sequential = TQSimEngine(
        noise_model, seed=config.seed + 1, backend=config.backend, max_batch=1
    ).run(circuit, config.shots, plan=plan)
    batched = TQSimEngine(
        noise_model, seed=config.seed + 1, backend=config.backend
    ).run(circuit, config.shots, plan=plan)
    return BatchedTreeMeasurement(
        name=circuit.name or "circuit",
        num_qubits=circuit.num_qubits,
        tree=str(plan.tree),
        sequential_seconds=sequential.cost.wall_time_seconds,
        batched_seconds=batched.cost.wall_time_seconds,
        counters_match=sequential.cost.matches(batched.cost),
    )


@dataclass(frozen=True)
class DispatchPoint:
    """One measured worker count of a multiprocess dispatch sweep.

    ``shard_depth`` records how deep the planner actually split (0 = the
    first layer, the classic decomposition; >0 = deep shards that also run
    their ancestors) so low-arity sweeps expose whether the pool was starved
    or fed.
    """

    num_workers: int
    num_shards: int
    wall_seconds: float
    shard_seconds_total: float
    shard_depth: int = 0

    def speedup_over(self, serial_seconds: float) -> float:
        """Measured end-to-end speedup over the serial dispatcher."""
        return serial_seconds / self.wall_seconds


@dataclass(frozen=True)
class DispatchScalingMeasurement:
    """Measured multiprocess scaling of one plan (next to the analytic model).

    All points execute the *same* shard decomposition seeds, so
    ``counts_match_serial`` must be True on every machine: the pooled counts
    are bitwise the serial counts, whatever the scheduling.  The speedups,
    by contrast, are honest wall-clock measurements and depend on how many
    physical cores the host actually has.
    """

    name: str
    num_qubits: int
    tree: str
    serial_seconds: float
    points: list[DispatchPoint]
    counts_match_serial: bool

    @property
    def speedups(self) -> dict[int, float]:
        """Measured speedup over serial dispatch, keyed by worker count."""
        return {
            point.num_workers: point.speedup_over(self.serial_seconds)
            for point in self.points
        }

    def as_rows(self) -> list[dict[str, Any]]:
        """Flat rows for report tables."""
        return [
            {
                "workers": point.num_workers,
                "shards": point.num_shards,
                "depth": point.shard_depth,
                "wall_seconds": point.wall_seconds,
                "worker_seconds_total": point.shard_seconds_total,
                "speedup_vs_serial": point.speedup_over(self.serial_seconds),
            }
            for point in self.points
        ]


def dispatch_worker_counts(
    config: ExperimentConfig,
    default: tuple[int, ...] = (1, 2, 4),
) -> tuple[int, ...]:
    """Worker counts for the measured dispatch sweeps.

    Explicit requests win unmodified: ``config.extra["worker_counts"]`` is a
    full sweep, and ``config.extra["workers"]`` (the CLI's ``--workers``)
    expands to ``(1, workers)``.  The *default* sweep is capped at the
    host's core count — an oversubscribed default would just measure
    scheduler thrash and report it as (non-)scaling.
    """
    explicit = config.extra.get("worker_counts")
    if explicit:
        return tuple(int(count) for count in explicit)
    workers = config.extra.get("workers")
    if workers:
        return tuple(sorted({1, int(workers)}))
    cores = os.cpu_count() or 1
    capped = tuple(count for count in default if count <= cores)
    return capped or (1,)


def measure_dispatch_scaling(
    circuit: Circuit,
    noise_model: NoiseModel | None,
    config: ExperimentConfig,
    plan,
    worker_counts: tuple[int, ...] | None = None,
    repeats: int = 2,
    max_depth: int | None = None,
    tracer: AnyTracer | None = None,
) -> DispatchScalingMeasurement:
    """Time serial vs multiprocess dispatch of one shared plan.

    The serial reference is the :class:`~repro.dispatch.SerialDispatcher`
    with a single shard — the same code path as a plain engine run — timed
    as the best of ``repeats``.  Each worker count then runs a
    :class:`~repro.dispatch.PoolDispatcher` with one shard per worker and
    the same root seed, so every point produces bitwise-identical counts
    and the comparison isolates pure execution-placement effects.

    ``max_depth`` (default from ``config.extra["max_depth"]``, else 1) lets
    the shard planner split layers below the first when the plan's ``A0`` is
    smaller than the worker count — the low-arity sweeps would otherwise
    starve the pool at ``A0`` shards.

    ``tracer`` (default: the ambient tracer) is handed to every dispatcher,
    so a traced sweep collects one merged cross-process timeline; tracing
    is inert, so the bitwise contracts above are unaffected.
    """
    from repro.dispatch import PoolDispatcher, SerialDispatcher

    if worker_counts is None:
        worker_counts = dispatch_worker_counts(config)
    if max_depth is None:
        max_depth = int(config.extra.get("max_depth", 1))
    seed = config.seed + 2
    serial_seconds = math.inf
    serial_result = None
    for _ in range(repeats):
        dispatcher = SerialDispatcher(
            noise_model, seed=seed, num_shards=1, tracer=tracer
        )
        candidate = dispatcher.run(circuit, config.shots, plan=plan)
        if candidate.cost.wall_time_seconds < serial_seconds:
            serial_seconds = candidate.cost.wall_time_seconds
            serial_result = candidate

    points: list[DispatchPoint] = []
    counts_match = True
    for workers in worker_counts:
        dispatcher = PoolDispatcher(
            noise_model, seed=seed, num_workers=workers, num_shards=workers,
            max_depth=max_depth, tracer=tracer,
        )
        best = None
        for _ in range(repeats):
            candidate = dispatcher.run(circuit, config.shots, plan=plan)
            if best is None or (
                candidate.metadata["dispatch"]["wall_time_seconds"]
                < best.metadata["dispatch"]["wall_time_seconds"]
            ):
                best = candidate
        counts_match = counts_match and best.counts == serial_result.counts
        dispatch = best.metadata["dispatch"]
        points.append(
            DispatchPoint(
                num_workers=dispatch["num_workers"],
                num_shards=dispatch["num_shards"],
                wall_seconds=dispatch["wall_time_seconds"],
                shard_seconds_total=dispatch["shard_seconds_total"],
                shard_depth=dispatch["shard_depth"],
            )
        )
    return DispatchScalingMeasurement(
        name=circuit.name or "circuit",
        num_qubits=circuit.num_qubits,
        tree=str(plan.tree),
        serial_seconds=serial_seconds,
        points=points,
        counts_match_serial=counts_match,
    )


@dataclass(frozen=True)
class FaultyDispatchMeasurement:
    """Measured pool dispatch of one plan, healthy and under fire.

    Two legs share one seed and one shard decomposition: the healthy pool
    (``pool_seconds``) and the pool with one injected worker crash
    (``faulty_seconds`` — the recovery leg).  ``counts_match_serial``
    asserts the load-bearing claim: both produce counts bitwise identical
    to serial dispatch, crash or no crash.
    """

    name: str
    num_qubits: int
    num_workers: int
    pool_seconds: float
    faulty_seconds: float
    counts_match_serial: bool
    pool_rebuilds: int

    @property
    def recovery_overhead_seconds(self) -> float:
        """Extra wall time the injected crash cost (detect + rerun)."""
        return self.faulty_seconds - self.pool_seconds


def measure_faulty_dispatch(
    circuit: Circuit,
    noise_model: NoiseModel | None,
    config: ExperimentConfig,
    plan,
    num_workers: int = 2,
    repeats: int = 2,
    tracer: AnyTracer | None = None,
) -> FaultyDispatchMeasurement:
    """Measure pool dispatch and its crash recovery on one plan.

    The injected fault crashes shard 0's first attempt (``os._exit`` in the
    worker — a real process death, not an exception), which forces the full
    recovery path: broken-pool detection, worker rebuild and shard re-run.
    Timing legs are best-of-``repeats``.  A crashed attempt is requeued
    at once, with no retry backoff, so the crash leg times detection and
    re-execution.  ``tracer`` is threaded to all three dispatchers, so a
    traced measurement yields one timeline covering the healthy leg and
    the recovery.
    """
    from repro.dispatch import FaultInjector, PoolDispatcher, SerialDispatcher

    seed = config.seed + 2
    serial = SerialDispatcher(
        noise_model, seed=seed, num_shards=1, tracer=tracer
    ).run(circuit, config.shots, plan=plan)

    def best_run(dispatcher) -> Any:
        best = None
        for _ in range(repeats):
            candidate = dispatcher.run(circuit, config.shots, plan=plan)
            if best is None or (
                candidate.metadata["dispatch"]["wall_time_seconds"]
                < best.metadata["dispatch"]["wall_time_seconds"]
            ):
                best = candidate
        return best

    pool = best_run(PoolDispatcher(
        noise_model, seed=seed, num_workers=num_workers,
        num_shards=num_workers, tracer=tracer,
    ))
    faulty = best_run(PoolDispatcher(
        noise_model, seed=seed, num_workers=num_workers,
        num_shards=num_workers,
        fault_injector=FaultInjector(crashes=((0, 0),)),
        tracer=tracer,
    ))

    counts_match = (
        pool.counts == serial.counts and faulty.counts == serial.counts
    )
    return FaultyDispatchMeasurement(
        name=circuit.name or "circuit",
        num_qubits=circuit.num_qubits,
        num_workers=num_workers,
        pool_seconds=pool.metadata["dispatch"]["wall_time_seconds"],
        faulty_seconds=faulty.metadata["dispatch"]["wall_time_seconds"],
        counts_match_serial=counts_match,
        pool_rebuilds=faulty.metadata["dispatch"]["resilience"][
            "pool_rebuilds"
        ],
    )


def compare_simulators(
    circuit: Circuit,
    noise_model: NoiseModel | None,
    config: ExperimentConfig = DEFAULT_CONFIG,
    partitioner: CircuitPartitioner | None = None,
    include_calibrated: bool = False,
    cost_model: CostModel | None = None,
) -> ComparisonRow:
    """Run the baseline and TQSim on one circuit and compare them.

    The circuit is first run through the gate-fusion peephole
    (:func:`fuse_for_noise_model`), so every simulator — and the noise
    model — sees the same fused gate sequence.
    The ideal (noise-free) output distribution is computed exactly once and
    used as the reference for both normalized-fidelity values, mirroring the
    paper's methodology (Section 4.1).

    With ``include_calibrated=True`` a further leg plans the circuit with the
    cost-model-priced DCP search (see
    :meth:`ExperimentConfig.calibrated_dcp_partitioner`) and executes the
    winning plan on the engine.  ``calibrated_vs_analytic_speedup`` is the
    measured wall-time ratio of the analytic plan (the ``tqsim`` leg) over
    the calibrated plan on the same backend, so it isolates the plan
    choice from the kernel family.
    ``cost_model`` defaults to :func:`~repro.core.costmodel.get_cost_model`
    for the default backend at the circuit's width.
    """
    circuit = fuse_for_noise_model(circuit, noise_model)
    ideal = StatevectorSimulator(
        seed=config.seed, backend=config.backend
    ).probabilities(circuit)

    baseline = BaselineNoisySimulator(
        noise_model, seed=config.seed, backend=config.backend
    )
    baseline_result = baseline.run(circuit, config.shots)

    engine = TQSimEngine(
        noise_model, seed=config.seed + 1, backend=config.backend
    )
    if partitioner is None:
        partitioner = config.dcp_partitioner()
    plan = partitioner.plan(circuit, config.shots, noise_model)
    tqsim_result = engine.run(circuit, config.shots, plan=plan)

    calibrated_result = None
    calibrated_tree = None
    calibrated_wall_clock_speedup = None
    calibrated_vs_analytic_speedup = None
    calibrated_predicted_seconds = None
    if include_calibrated:
        if cost_model is None:
            cost_model = get_cost_model("batched", circuit.num_qubits)
        calibrated_plan = config.calibrated_dcp_partitioner(cost_model).plan(
            circuit, config.shots, noise_model
        )
        calibrated_result = TQSimEngine(
            noise_model, seed=config.seed + 1, backend="batched"
        ).run(circuit, config.shots, plan=calibrated_plan)
        calibrated_tree = str(calibrated_plan.tree)
        calibrated_wall_clock_speedup = calibrated_result.speedup_over(
            baseline_result, use_wall_time=True
        )
        calibrated_vs_analytic_speedup = (
            tqsim_result.cost.wall_time_seconds
            / calibrated_result.cost.wall_time_seconds
        )
        calibrated_predicted_seconds = calibrated_plan.parameters.get(
            "predicted_seconds"
        )

    baseline_nf = normalized_fidelity(ideal, baseline_result.probabilities())
    tqsim_nf = normalized_fidelity(ideal, tqsim_result.probabilities())
    return ComparisonRow(
        name=circuit.name or "circuit",
        num_qubits=circuit.num_qubits,
        num_gates=circuit.num_gates,
        shots=config.shots,
        baseline=baseline_result,
        tqsim=tqsim_result,
        baseline_normalized_fidelity=baseline_nf,
        tqsim_normalized_fidelity=tqsim_nf,
        cost_speedup=tqsim_result.speedup_over(
            baseline_result, config.copy_cost_in_gates
        ),
        wall_clock_speedup=tqsim_result.speedup_over(
            baseline_result, use_wall_time=True
        ),
        tree=tqsim_result.metadata.get("tree", "(?)"),
        tqsim_calibrated=calibrated_result,
        calibrated_tree=calibrated_tree,
        calibrated_wall_clock_speedup=calibrated_wall_clock_speedup,
        calibrated_vs_analytic_speedup=calibrated_vs_analytic_speedup,
        calibrated_predicted_seconds=calibrated_predicted_seconds,
    )
