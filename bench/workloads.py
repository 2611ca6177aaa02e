"""The benchmark's workloads: seeded inputs, timed legs and output checks.

Each workload runs in a process of its own (``run.py`` starts it, pinned to
one CPU).  The circuits of a workload are fixed; ``seed`` picks only the
trajectory seeds, the exact-reference draws and the serve request stream,
so two seeds do the same work on different random inputs.

An engine workload times three *legs* on one circuit, in rounds:

* ``engine``   — the library default, ``TQSimEngine(noise, seed=s).run``;
* ``pool2``    — the same call through ``PoolDispatcher(num_workers=2)``;
* ``baseline`` — ``BaselineNoisySimulator`` with the shots divided by
  ``BASELINE_SHOT_DIVISOR`` (its cost per shot is constant).

``serve-mix`` times the default ``SimulationServer()`` behind a closed loop
of ``CLIENTS`` clients, and the baseline on one request per zoo circuit and
noise model.

Wall time is read here with ``time.perf_counter`` around the public calls,
so nothing inside ``src/`` changes to be measured; work on one core is
reported in reference seconds (see ``probe.py``).
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import itertools
import json
import random
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Iterator

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.library.suite import PAPER_SUITE, build_circuit
from repro.core import BaselineNoisySimulator, TQSimEngine
from repro.core.results import SimulationResult
from repro.density import DensityMatrixSimulator
from repro.dispatch import PoolDispatcher
from repro.experiments.common import fuse_for_noise_model
from repro.metrics.fidelity import normalized_fidelity, normalized_fidelity_from_counts
from repro.noise.model import NoiseModel
from repro.noise.sycamore import noise_model_by_code
from repro.obs import Tracer
from repro.serve import SimulationRequest, SimulationServer
from repro.statevector import StatevectorSimulator

from . import layers
from .ledger import distribution, scalar
from .probe import SpeedProbe, Timing

LEGS = ("engine", "pool2", "baseline")
BASELINE_SHOT_DIVISOR = 4
#: The pool leg (not gated) runs in one round of this many, so the gated
#: one-core legs get more of the run.
POOL_EVERY = 3
#: ``--quick`` divides shots and requests by this and runs one round.
QUICK_DIVISOR = 8
#: Multinomial draws from the exact distribution behind ``NF_ref``.
REFERENCE_DRAWS = 32
#: A run fails when ``|NF(tree) - NF_ref| > FIDELITY_SDS * sd_ref +
#: FIDELITY_SLACK``.
FIDELITY_SDS = 4.0
FIDELITY_SLACK = 0.02
#: Share of ``--seconds`` the traced run spends on alternating passes.
TRACE_SHARE = 0.6
#: Pass kinds of the traced run: no tracer, spans only, spans plus sampled
#: kernel spans.  Span self times come from ``traced`` passes, so kernel
#: sampling cannot skew them.
PASS_KINDS = ("untraced", "traced", "kernels")


@dataclass(frozen=True)
class EngineWorkload:
    """One suite circuit under one noise model, run by every leg."""

    name: str
    noise: str | None
    circuit: str
    shots: int


ENGINE_WORKLOADS = {
    spec.name: spec
    for spec in (
        EngineWorkload("dc-reuse", "DC", "qsc_8", 4096),
        EngineWorkload("adr-noreuse", "ADR", "qsc_8", 512),
        EngineWorkload("ideal-deep", None, "qft_8", 2048),
    )
}

SERVE = "serve-mix"
NAMES = (*ENGINE_WORKLOADS, SERVE)

#: The small suite circuits ``serve-mix`` asks for.
SERVE_ZOO = ("adder_4", "bv_6", "bv_8", "qaoa_6", "qft_8", "qpe_6", "qsc_8")
SERVE_NOISE = "DC"
#: One block of the serve stream holds this many requests per zoo circuit,
REQUESTS_PER_CIRCUIT = 10
#: of which this many carry ``SERVE_NOISE``; the rest are noiseless.
NOISY_PER_CIRCUIT = 3
SERVE_SHOTS = (256, 512)
#: Request seeds come from ``range(REQUEST_SEEDS)``, so identical requests
#: repeat and exercise the caches.
REQUEST_SEEDS = 4
#: Closed-loop clients, each waiting for its reply before it sends again.
CLIENTS = 2
#: Blocks of the stream per round of ``serve-mix``.
BLOCKS_PER_ROUND = 4
#: Blocks per pass of the traced run.
TRACE_BLOCKS = 2


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def suite_circuit(name: str) -> Circuit:
    """The suite circuit called ``name`` (e.g. ``qsc_8`` or ``adder_4_1``)."""
    for spec in PAPER_SUITE:
        if spec.name == name:
            return build_circuit(spec)
    raise ValueError(f"no suite circuit named {name!r}")


def noise_model(code: str | None) -> NoiseModel | None:
    return noise_model_by_code(code) if code else None


def serve_stream(seed: int, divisor: int = 1) -> Iterator[tuple]:
    """The endless ``serve-mix`` stream of ``(circuit, noise, shots, seed)``.

    Every block holds ``REQUESTS_PER_CIRCUIT`` requests per zoo circuit with
    one fixed make-up (``NOISY_PER_CIRCUIT`` noisy, shot counts alternating)
    and is shuffled by ``seed``, which also draws each request's trajectory
    seed.  Every block therefore asks for the same work whatever the seed.
    """
    rng = random.Random(seed)
    while True:
        block = []
        for name in SERVE_ZOO:
            for k in range(REQUESTS_PER_CIRCUIT):
                noise = SERVE_NOISE if k < NOISY_PER_CIRCUIT else None
                shots = SERVE_SHOTS[k % 2] // divisor
                block.append((name, noise, shots, rng.randrange(REQUEST_SEEDS)))
        rng.shuffle(block)
        yield from block


def baseline_items(seed: int, divisor: int = 1) -> list[tuple]:
    """One request per (circuit, noise) at the smaller shot count: the
    baseline leg's fixed make-up."""
    rng = random.Random(seed)
    return [
        (name, noise, SERVE_SHOTS[0] // divisor, rng.randrange(REQUEST_SEEDS))
        for name in SERVE_ZOO
        for noise in (None, SERVE_NOISE)
    ]


def describe_inputs(name: str, seed: int, quick: bool = False) -> dict[str, Any]:
    """Plain-data description of what ``seed`` generates for a workload."""
    divisor = QUICK_DIVISOR if quick else 1
    if name in ENGINE_WORKLOADS:
        spec = ENGINE_WORKLOADS[name]
        return {"noise": spec.noise, "circuit": spec.circuit,
                "shots": spec.shots // divisor, "seed": seed}
    block = itertools.islice(serve_stream(seed, divisor),
                             len(SERVE_ZOO) * REQUESTS_PER_CIRCUIT // divisor)
    return {
        "zoo": list(SERVE_ZOO),
        "first_block": [list(item) for item in block],
        "baseline": [list(item) for item in baseline_items(seed, divisor)],
    }


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
def digest(data: Any) -> str:
    """sha256 of plain data (sorted counts, or counts by request key)."""
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


class Checker:
    """Counts attempted operations and records every failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict[str, str] = {}

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check_shots(self, label: str, counts: dict[str, int], shots: int,
                    requested: int) -> None:
        total = sum(counts.values())
        if total != shots or shots < requested:
            self.fail(f"{label}: sum(counts)={total}, shots={shots}, "
                      f"requested={requested}")

    def check_same(self, key: str, label: str, counts: dict[str, int]) -> None:
        """Every run under ``key`` must return bitwise the first run's counts."""
        value = digest(sorted(counts.items()))
        if self._first.setdefault(key, value) != value:
            self.fail(f"{label}: counts differ from the first run of {key}")

    def check_result(self, leg: str, key: str, counts: dict[str, int],
                     shots: int, requested: int) -> None:
        """Shot accounting, then bitwise repeatability.

        ``engine`` and ``pool2`` share one key per input (same seed, same
        plan: the counts must be identical, traced or not); the baseline
        draws differently and only has to repeat itself.
        """
        label = f"{leg}/{key}"
        self.check_shots(label, counts, shots, requested)
        group = "baseline" if leg == "baseline" else "tree"
        self.check_same(f"{group}/{key}", label, counts)

    def summary(self) -> dict[str, Any]:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures}


def reference_fidelity(circuit: Circuit, noise: NoiseModel | None, shots: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, float, float]:
    """Ideal distribution plus mean and sd of NF over exact multinomial draws."""
    ideal = StatevectorSimulator().probabilities(circuit)
    exact = ideal if noise is None else DensityMatrixSimulator(noise).probabilities(circuit)
    exact = np.clip(exact, 0.0, None)
    draws = rng.multinomial(shots, exact / exact.sum(), size=REFERENCE_DRAWS)
    values = [normalized_fidelity(ideal, draw) for draw in draws]
    return ideal, float(np.mean(values)), float(np.std(values))


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(metrics: dict, checker: Checker, extra: dict,
           layer_values: dict[str, float] | None = None) -> dict[str, Any]:
    """The child's report: metrics, per-layer values, checks and extras."""
    metrics["peak_rss_mb"] = scalar(peak_rss_mb(), "MiB")
    out = {"metrics": metrics, **checker.summary(), "extra": extra}
    if layer_values is not None:
        out["layers"] = {name: {"value": value, "unit": layers.unit_of(name)}
                         for name, value in sorted(layer_values.items())}
    return out


def keep_going(start: float, rounds: int, budget: float, min_rounds: int) -> bool:
    """True while one more round of the mean length fits in ``budget``."""
    if rounds < min_rounds:
        return True
    elapsed = time.perf_counter() - start
    return elapsed * (rounds + 1) / rounds <= budget


# ---------------------------------------------------------------------------
# Engine workloads
# ---------------------------------------------------------------------------
def make_leg(leg: str, noise: NoiseModel | None, seed: int, tracer=None):
    """A fresh simulator for one call, so every call is the seed's run 0."""
    if leg == "engine":
        return TQSimEngine(noise, seed=seed, tracer=tracer)
    if leg == "pool2":
        return PoolDispatcher(noise, seed=seed, num_workers=2, tracer=tracer)
    return BaselineNoisySimulator(noise, seed=seed)


def leg_shots(leg: str, shots: int) -> int:
    return max(1, shots // BASELINE_SHOT_DIVISOR) if leg == "baseline" else shots


class EngineSetup:
    """Everything an engine workload builds before it times anything."""

    def __init__(self, spec: EngineWorkload, seed: int, quick: bool) -> None:
        self.seed = seed
        self.name = spec.circuit
        self.noise = noise_model(spec.noise)
        self.circuit = fuse_for_noise_model(suite_circuit(spec.circuit), self.noise)
        self.shots = spec.shots // (QUICK_DIVISOR if quick else 1)
        # Untimed warm-up: every leg once at a tiny size.
        for leg in LEGS:
            make_leg(leg, self.noise, seed).run(self.circuit, leg_shots(leg, 16))

    def close(self) -> None:
        """Nothing outlives a call."""

    def run_leg(self, checker: Checker, probe: SpeedProbe, leg: str, tracer=None
                ) -> tuple[SimulationResult, Timing]:
        """One call through ``leg``: its result and its timing (the pool's
        in wall seconds on every CPU, the others on the probed core)."""
        requested = leg_shots(leg, self.shots)
        checker.attempted += 1
        sim = make_leg(leg, self.noise, self.seed, tracer)
        with probe.all_cores() if leg == "pool2" else probe.timing() as timing:
            out = sim.run(self.circuit, requested)
        checker.check_result(leg, self.name, out.counts, out.shots, requested)
        return out, timing


def measure_engine(setup: EngineSetup, probe: SpeedProbe, seconds: float,
                   quick: bool) -> dict[str, Any]:
    """Rounds of one engine and one baseline call until ``seconds``, with a
    pool2 call in every ``POOL_EVERY``-th round."""
    checker = Checker()
    rng = np.random.default_rng(setup.seed)
    start = time.perf_counter()
    ideal, nf_ref, sd_ref = reference_fidelity(setup.circuit, setup.noise,
                                               setup.shots, rng)
    ref_s = time.perf_counter() - start

    rates: dict[str, list[float]] = {leg: [] for leg in LEGS}
    wall_rates: dict[str, list[float]] = {leg: [] for leg in LEGS}
    engine_ms: list[float] = []
    digests: dict[str, str] = {}
    results: dict[str, SimulationResult] = {}
    start = time.perf_counter()
    rounds = 0
    while keep_going(start, rounds, seconds, 1 if quick else 2):
        if quick and rounds:
            break
        for leg in LEGS:
            if leg == "pool2" and rounds % POOL_EVERY:
                continue
            out, timing = setup.run_leg(checker, probe, leg)
            # The engine and the baseline compute on one core, the pool on two.
            rates[leg].append(out.shots / timing.reference)
            wall_rates[leg].append(out.shots / timing.wall)
            digests[f"{leg}/{setup.name}"] = digest(sorted(out.counts.items()))
            results[leg] = out
            if leg == "engine":
                engine_ms.append(1e3 * timing.reference)
        rounds += 1

    nf_tree = normalized_fidelity_from_counts(ideal, results["engine"].counts,
                                              setup.circuit.num_qubits)
    gap = abs(nf_tree - nf_ref)
    if gap > FIDELITY_SDS * sd_ref + FIDELITY_SLACK:
        checker.fail(f"fidelity/{setup.name}: |NF(tree) {nf_tree:.4f} - NF_ref "
                     f"{nf_ref:.4f}| > {FIDELITY_SDS:g} x sd_ref {sd_ref:.4f} "
                     f"+ {FIDELITY_SLACK:g}")

    metrics = {
        "shots_per_s": distribution(rates["engine"], "shots/s"),
        "pool2_shots_per_s": distribution(rates["pool2"], "shots/s"),
        "baseline_shots_per_s": distribution(rates["baseline"], "shots/s"),
        "latency_p50_ms": distribution(engine_ms, "ms"),
        "latency_geomean_ms": scalar(statistics.geometric_mean(engine_ms), "ms",
                                     len(engine_ms)),
        "fidelity_gap": scalar(gap, "abs_NF"),
    }
    wall_clock = {f"{leg}_shots_per_s": statistics.median(wall_rates[leg])
                  for leg in LEGS}
    extra = {"rounds": rounds, "ref_s": ref_s,
             "plan": str(results["engine"].metadata["tree"]),
             "counts_sha256": digests, "wall_clock": wall_clock, **probe.summary()}
    return report(metrics, checker, extra)


def trace_engine(setup: EngineSetup, probe: SpeedProbe, seconds: float,
                 quick: bool) -> dict[str, Any]:
    """Alternating untraced / traced / kernel-sampled passes, then the other legs."""
    checker = Checker()
    arity = layers.gate_arity([setup.circuit])
    walls: dict[str, list[float]] = {kind: [] for kind in PASS_KINDS}
    span_samples, kernel_samples = [], []
    drift: dict[str, float] = {}
    start = time.perf_counter()
    passes = 0
    while keep_going(start, passes, TRACE_SHARE * seconds, 1):
        if quick and passes:
            break
        for kind in PASS_KINDS:
            tracer = None if kind == "untraced" else Tracer(
                kernel_interval=layers.KERNEL_INTERVAL if kind == "kernels" else 0
            )
            out, timing = setup.run_leg(checker, probe, "engine", tracer)
            walls[kind].append(timing.reference)
            # Spans cover the probes too, so they are scaled by the share of
            # work in the whole wall time.
            scale = timing.reference / timing.wall
            if kind == "untraced":
                untraced = out
            elif kind == "traced":
                span_samples.append(layers.scaled(layers.span_layers(tracer), scale))
                drift = drift or layers.drift_layers(tracer)
            else:
                kernel_samples.append(
                    layers.scaled(layers.kernel_layers(tracer, arity), scale))
        passes += 1

    pool, _ = setup.run_leg(checker, probe, "pool2", Tracer())
    baseline, base_timing = setup.run_leg(checker, probe, "baseline")
    with probe.timing() as timing:
        one_thread = {
            **layers.micro_layers(setup.circuit),
            **layers.plan_layers([(setup.circuit, setup.shots, setup.noise)]),
        }
    one_thread = layers.scaled(one_thread, timing.scale)
    values = {
        **layers.median_of(span_samples),
        **layers.median_of(kernel_samples),
        **drift,
        **layers.dispatch_layers([pool.metadata["dispatch"]]),
        **one_thread,
    }
    untraced_wall = statistics.median(walls["untraced"])
    traced_wall = statistics.median(walls["traced"])
    values["obs.trace_overhead"] = traced_wall / untraced_wall - 1
    values["backends.kernel.sampling_overhead"] = (
        statistics.median(walls["kernels"]) / traced_wall - 1
    )
    values["baseline.ns_per_gate"] = (
        base_timing.reference * 1e9 / baseline.cost.gate_applications
    )
    noise_events = untraced.cost.noise_applications
    values["engine.noise_applications"] = noise_events
    values["noise.modeled_share"] = (
        noise_events * 1e-9 * event_ns(setup.noise, one_thread) / untraced_wall
    )
    extra = {"passes": passes, "plan": str(untraced.metadata["tree"]),
             **probe.summary()}
    return report({}, checker, extra, values)


def event_ns(noise: NoiseModel | None, micro: dict[str, float]) -> float:
    """Measured cost of one noise event per row under ``noise``."""
    if noise is None:
        return 0.0
    channels = noise.single_qubit_channels + noise.two_qubit_channels
    if all(channel.is_mixed_unitary for channel in channels):
        return micro["noise.mixed_ns_per_row"]
    return micro["noise.kraus_ns_per_row"]


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------
class ServeSetup:
    """Zoo circuits, the request stream and the server under test."""

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.divisor = QUICK_DIVISOR if quick else 1
        self.block = len(SERVE_ZOO) * REQUESTS_PER_CIRCUIT // self.divisor
        self.baseline_items = baseline_items(seed, self.divisor)
        self.circuits = {name: suite_circuit(name) for name in SERVE_ZOO}
        self.noise = {None: None, SERVE_NOISE: noise_model(SERVE_NOISE)}
        self.fused = {
            (name, code): fuse_for_noise_model(circuit, model)
            for name, circuit in self.circuits.items()
            for code, model in self.noise.items()
        }
        # The library default: one process, four executor threads.
        self.server = SimulationServer()
        # Untimed warm-up on a circuit outside the zoo, so the stream's own
        # cache entries stay cold.
        self.server.handle(SimulationRequest(
            circuit=suite_circuit("qpe_4"), noise=SERVE_NOISE, shots=16, seed=0,
        ))

    def close(self) -> None:
        self.server.close()

    def stream(self) -> Iterator[tuple]:
        return serve_stream(self.seed, self.divisor)

    def request(self, item: tuple) -> SimulationRequest:
        name, noise, shots, seed = item
        return SimulationRequest(circuit=self.circuits[name], noise=noise,
                                 shots=shots, seed=seed)


async def closed_loop(server: SimulationServer, setup: ServeSetup,
                      requests: Iterator[tuple]) -> list[tuple]:
    """Clients that each wait for a reply before sending their next request.

    Returns ``(item, response, send time, reply time)`` in completion order,
    once ``requests`` runs out.
    """
    records: list[tuple] = []

    async def client() -> None:
        for item in requests:
            start = time.perf_counter()
            response = await server.submit(setup.request(item))
            records.append((item, response, start, time.perf_counter()))

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    return records


def serve_chunk(server: SimulationServer, setup: ServeSetup,
                requests: Iterator[tuple], count: int,
                clock: Callable[[], ContextManager[Timing]]
                ) -> tuple[list[tuple], Timing]:
    """The next ``count`` requests through ``server``, timed by ``clock``
    (``probe.timing`` or ``probe.all_cores``).

    Returns ``(item, response, client latency in wall seconds)`` records,
    each latency less the probing inside it, and the block's timing.
    """
    with clock() as timing:
        sent = asyncio.run(closed_loop(server, setup, itertools.islice(requests, count)))
    records = [(item, response, timing.work(start, end))
               for item, response, start, end in sent]
    return records, timing


def item_key(item: tuple) -> str:
    name, noise, shots, seed = item
    return f"{name}/{noise or 'ideal'}/{shots}/{seed}"


def check_responses(checker: Checker, leg: str, records: list[tuple]) -> None:
    for item, response, _ in records:
        checker.attempted += 1
        if not response.ok:
            checker.fail(f"{leg}/{item_key(item)}: status {response.status} "
                         f"{response.error}")
            continue
        checker.check_result(leg, item_key(item), response.counts,
                             response.shots, item[2])


def served_shots(records: list[tuple]) -> int:
    return sum(response.shots for _, response, _ in records if response.ok)


def serve_digests(records: list[tuple]) -> dict[str, str]:
    """One digest per zoo circuit over the counts of every request key."""
    by_circuit: dict[str, dict[str, list]] = {}
    for item, response, _ in records:
        if response.ok:
            key = item_key(item)
            by_circuit.setdefault(item[0], {})[key] = sorted(response.counts.items())
    return {f"engine/{name}": digest(sorted(entries.items()))
            for name, entries in sorted(by_circuit.items())}


def run_baseline(setup: ServeSetup, checker: Checker, probe: SpeedProbe
                 ) -> tuple[int, Timing, int]:
    """The baseline set through the per-shot simulator, timed as one block.

    Returns the shots, the timing and the gate applications.
    """
    requested = [leg_shots("baseline", item[2]) for item in setup.baseline_items]
    with probe.timing() as timing:
        outs = [
            BaselineNoisySimulator(setup.noise[noise], seed=seed).run(
                setup.fused[(name, noise)], shots)
            for (name, noise, _, seed), shots in zip(setup.baseline_items, requested)
        ]
    for item, shots, out in zip(setup.baseline_items, requested, outs):
        checker.attempted += 1
        checker.check_result("baseline", item_key(item), out.counts, out.shots, shots)
    return (sum(out.shots for out in outs), timing,
            sum(out.cost.gate_applications for out in outs))


def measure_serve(setup: ServeSetup, probe: SpeedProbe, seconds: float,
                  quick: bool) -> dict[str, Any]:
    """Rounds of ``BLOCKS_PER_ROUND`` blocks of the stream, then the baseline set.

    An untimed first block fills the server's caches; from then on it
    serves the steady mix of warm noiseless and cold noisy requests, keeping
    its caches across rounds.  Throughputs are per block, every block
    having the same make-up.
    """
    checker = Checker()
    stream = setup.stream()
    around = functools.partial(probe.timing, inside=False)
    records, _ = serve_chunk(setup.server, setup, stream, setup.block, around)
    check_responses(checker, "engine", records)
    digests = serve_digests(records)
    rates: list[float] = []
    wall_rates: list[float] = []
    request_rates: list[float] = []
    baseline_rates: list[float] = []
    baseline_wall_rates: list[float] = []
    latencies: list[float] = []
    warm = 0
    start = time.perf_counter()
    rounds = 0
    try:
        while keep_going(start, rounds, seconds, 1 if quick else 2):
            if quick and rounds:
                break
            for _ in range(BLOCKS_PER_ROUND):
                records, timing = serve_chunk(setup.server, setup, stream,
                                              setup.block, around)
                check_responses(checker, "engine", records)
                rates.append(served_shots(records) / timing.reference)
                wall_rates.append(served_shots(records) / timing.wall)
                request_rates.append(len(records) / timing.reference)
                latencies += [latency * timing.scale for _, _, latency in records]
                warm += sum(1 for _, response, _ in records if response.cached)
            shots, timing, _ = run_baseline(setup, checker, probe)
            baseline_rates.append(shots / timing.reference)
            baseline_wall_rates.append(shots / timing.wall)
            rounds += 1
    finally:
        setup.close()

    ms = np.asarray(latencies) * 1e3
    metrics = {
        "shots_per_s": distribution(rates, "shots/s"),
        "baseline_shots_per_s": distribution(baseline_rates, "shots/s"),
        "latency_p50_ms": scalar(float(np.percentile(ms, 50)), "ms", len(ms)),
        "latency_p99_ms": scalar(float(np.percentile(ms, 99)), "ms", len(ms)),
        # Every block has the same make-up, so the mean of the logs weighs
        # the warm and cold clusters alike in every run; the median falls
        # between clusters and jumps.
        "latency_geomean_ms": scalar(float(np.exp(np.log(ms).mean())), "ms", len(ms)),
        "req_per_s": distribution(request_rates, "req/s"),
    }
    extra = {"rounds": rounds, "requests": len(latencies), "warm_requests": warm,
             "counts_sha256": digests,
             "wall_clock": {"engine_shots_per_s": statistics.median(wall_rates),
                            "baseline_shots_per_s": statistics.median(
                                baseline_wall_rates)},
             **probe.summary()}
    return report(metrics, checker, extra)


def trace_serve(setup: ServeSetup, probe: SpeedProbe, seconds: float,
                quick: bool) -> dict[str, Any]:
    """Untraced and traced passes on fresh servers, then a 2-worker server
    and the baseline."""
    setup.close()
    checker = Checker()
    size = TRACE_BLOCKS * setup.block
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    span_samples, serve_samples = [], []
    drift: dict[str, float] = {}
    start = time.perf_counter()
    passes = 0
    while keep_going(start, passes, TRACE_SHARE * seconds, 1):
        if quick and passes:
            break
        for kind in walls:
            tracer = Tracer() if kind == "traced" else None
            server = SimulationServer(tracer=tracer)
            try:
                records, timing = serve_chunk(server, setup, setup.stream(), size,
                                              functools.partial(probe.timing,
                                                                inside=False))
            finally:
                server.close()
            check_responses(checker, "engine", records)
            walls[kind].append(timing.reference)
            if tracer is not None:
                span_samples.append(
                    layers.scaled(layers.span_layers(tracer), timing.scale))
                serve_samples.append(layers.scaled(
                    layers.serve_layers(server.counters(), records), timing.scale))
                drift = drift or layers.drift_layers(tracer)
        passes += 1

    # The dispatch layers come from the server's process-pool mode.
    server = SimulationServer(workers=2, tracer=Tracer())
    try:
        pool_records, _ = serve_chunk(server, setup, setup.stream(), setup.block,
                                      probe.all_cores)
    finally:
        server.close()
    check_responses(checker, "pool2", pool_records)
    _, base_timing, base_gates = run_baseline(setup, checker, probe)
    widest = max(setup.circuits.values(), key=lambda c: c.num_qubits)
    with probe.timing() as timing:
        one_thread = {
            **layers.micro_layers(widest),
            **layers.plan_layers(
                (setup.fused[(name, code)], shots, model)
                for name in SERVE_ZOO
                for code, model in setup.noise.items()
                for shots in SERVE_SHOTS
            ),
        }
    values = {
        **layers.median_of(span_samples),
        **layers.median_of(serve_samples),
        **drift,
        **layers.dispatch_layers([
            response.metadata["dispatch"] for _, response, _ in pool_records
            if "dispatch" in response.metadata
        ]),
        **layers.scaled(one_thread, timing.scale),
        "obs.trace_overhead": statistics.median(walls["traced"])
        / statistics.median(walls["untraced"]) - 1,
        "baseline.ns_per_gate": base_timing.reference * 1e9 / base_gates,
    }
    return report({}, checker, {"passes": passes, **probe.summary()}, values)


def set_up(name: str, seed: int, quick: bool) -> EngineSetup | ServeSetup:
    if name in ENGINE_WORKLOADS:
        return EngineSetup(ENGINE_WORKLOADS[name], seed, quick)
    return ServeSetup(seed, quick)


def run_child(name: str, setup: EngineSetup | ServeSetup, probe: SpeedProbe,
              setup_timing: Timing, seconds: float, trace: bool, quick: bool,
              setup_only: bool) -> dict[str, Any]:
    """Measure a workload that ``set_up`` built under ``setup_timing`` (or
    report only its set-up time)."""
    setup_times = {"setup_s": setup_timing.reference, "setup_wall_s": setup_timing.wall}
    if setup_only:
        setup.close()
        return setup_times
    if isinstance(setup, EngineSetup):
        measure = trace_engine if trace else measure_engine
    else:
        measure = trace_serve if trace else measure_serve
    out = measure(setup, probe, seconds, quick)
    out.update(setup_times)
    out["numpy"] = np.__version__
    out["inputs"] = describe_inputs(name, setup.seed, quick)
    return out
