"""Per-layer metrics for ``run.py --trace``.

The traced run hands ``repro.obs.Tracer`` objects to the public ``tracer=``
parameters, aggregates the recorded spans with ``repro.obs.summarize`` and
``drift_report``, and times public layer functions from outside.  It adds no
span inside ``src/``.  Layer names follow the modules: ``engine``, ``plan``,
``dispatch``, ``backends``, ``noise``, ``pathrng``, ``baseline``, ``serve``
and ``obs``.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.backends import get_backend
from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.core.partitioners import DynamicCircuitPartitioner
from repro.core.pathrng import PathStream, child_keys, draw_block
from repro.noise.model import NoiseModel
from repro.noise.sycamore import noise_model_by_code
from repro.obs import Tracer, drift_report, summarize
from repro.obs.tracer import SpanRecord

#: Kernel spans are recorded for one gate call in this many.
KERNEL_INTERVAL = 16
#: Trajectories per batch in the layer microbenchmarks.
MICRO_ROWS = 64
#: Tree layers broken out by ``engine.layer<k>.*``.
MAX_REPORTED_LAYER = 8
ENGINE_SPANS = ("run", "subcircuit", "copy", "leaf_sample", "noise_predraw",
                "prefix_replay")
SERVE_SPANS = ("transpile", "plan", "warm_sample", "execute")

_UNIT_SUFFIXES = (
    ("_ns_per_row", "ns"), ("_ns_per_uniform", "ns"), ("_ns_per_gate", "ns"),
    ("_ms", "ms"), ("_s", "s"), ("_mb", "MiB"), ("_computed", "B"),
)
_COUNTS = frozenset({
    "calls", "shards", "gate_applications", "leaf_samples", "state_copies",
    "noise_applications", "replayed_prefix_gates",
})


def unit_of(name: str) -> str:
    """The unit of a layer metric, read off its name."""
    parts = name.split(".")
    if parts[-1] in _COUNTS:
        return "count"
    for part in reversed(parts):
        for suffix, unit in _UNIT_SUFFIXES:
            if part.endswith(suffix) or part == suffix[1:]:
                return unit
    return "ratio"


def scaled(values: dict[str, float], factor: float) -> dict[str, float]:
    """Times multiplied by ``factor`` (reference per wall second); the rest kept."""
    return {name: value * factor if unit_of(name) in ("s", "ms", "ns") else value
            for name, value in values.items()}


def median_of(samples: Sequence[dict[str, float]]) -> dict[str, float]:
    """Per-key median over passes (keys missing from a pass count as 0)."""
    keys = sorted({key for sample in samples for key in sample})
    return {
        key: statistics.median(sample.get(key, 0.0) for sample in samples)
        for key in keys
    }


def percentile(values: Iterable[float], q: float) -> float:
    array = np.asarray(list(values), dtype=float)
    return float(np.percentile(array, q)) if array.size else 0.0


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
def self_times(spans: list[SpanRecord]) -> list[tuple[SpanRecord, float]]:
    """Each span with its duration minus the part its recorded children cover."""
    child_time: dict[tuple[str, int], float] = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[(span.track, span.parent)] += span.duration
    return [
        (span, max(span.duration - child_time[(span.track, span.index)], 0.0))
        for span in spans
    ]


def span_layers(tracer: Tracer) -> dict[str, float]:
    """``engine.*``, ``serve.*`` span totals plus the tree-layer split."""
    rows = {row.name: row for row in summarize(tracer)}
    out: dict[str, float] = {}
    for prefix, kinds in (("engine", ENGINE_SPANS), ("serve", SERVE_SPANS)):
        for kind in kinds:
            row = rows.get(f"{prefix}.{kind}")
            out[f"{prefix}.{kind}.self_s"] = row.self_seconds if row else 0.0
            out[f"{prefix}.{kind}.calls"] = row.calls if row else 0
    for layer in range(MAX_REPORTED_LAYER + 1):
        out[f"engine.layer{layer}.recompute_s"] = 0.0
        out[f"engine.layer{layer}.copy_s"] = 0.0

    run_qubits = {
        (span.track, span.index): int(span.attributes.get("qubits", 0))
        for span in tracer.spans if span.name == "engine.run"
    }
    logical_gates = gate_apps = leaves = copies = bytes_moved = 0
    for span, own in self_times(tracer.spans):
        attrs = span.attributes
        layer = attrs.get("layer")
        rows_ = int(attrs.get("rows", 1))
        if span.name == "engine.run":
            logical_gates += int(attrs.get("shots", 0)) * sum(attrs.get("lengths", ()))
        elif span.name == "engine.subcircuit":
            applied = int(attrs.get("gates", 0)) * rows_
            gate_apps += applied
            qubits = run_qubits.get((span.track, span.parent), 0)
            bytes_moved += applied * (2**qubits) * 32
            if layer is not None and layer <= MAX_REPORTED_LAYER:
                out[f"engine.layer{layer}.recompute_s"] += own
        elif span.name == "engine.copy":
            copies += rows_
            if layer is not None and layer <= MAX_REPORTED_LAYER:
                out[f"engine.layer{layer}.copy_s"] += own
        elif span.name == "engine.leaf_sample":
            leaves += rows_
    out["engine.gate_applications"] = gate_apps
    out["engine.leaf_samples"] = leaves
    out["engine.state_copies"] = copies
    # Read/modify/write of 16-byte amplitudes per gate application, computed
    # from array sizes, so it ignores caches.
    out["backends.bytes_moved_computed"] = bytes_moved
    out["plan.reuse_factor"] = logical_gates / gate_apps if gate_apps else 0.0
    return out


def drift_layers(tracer: Tracer) -> dict[str, float]:
    ratios = [row.drift_ratio for row in drift_report(tracer)]
    if not ratios:
        return {}
    return {"plan.drift.median": statistics.median(ratios),
            "plan.drift.max": max(ratios)}


def kernel_layers(tracer: Tracer, arity: dict[str, int]) -> dict[str, float]:
    """Sampled ``backend.kernel`` self time scaled by the sampling interval."""
    out = {"backends.kernel.1q.est_s": 0.0, "backends.kernel.2q.est_s": 0.0}
    for span, own in self_times(tracer.spans):
        if span.name == "backend.kernel":
            width = arity.get(str(span.attributes.get("gate")), 2)
            key = f"backends.kernel.{min(width, 2)}q.est_s"
            out[key] += own * KERNEL_INTERVAL
    return out


def gate_arity(circuits: Iterable[Circuit]) -> dict[str, int]:
    return {gate.name: gate.num_qubits for circuit in circuits for gate in circuit}


# ---------------------------------------------------------------------------
# Dispatch, baseline, serve
# ---------------------------------------------------------------------------
def dispatch_layers(dispatch: list[dict[str, Any]]) -> dict[str, float]:
    """Per pool run: wall beyond its slowest shard, and shard imbalance."""
    overhead, imbalance = [], []
    for meta in dispatch:
        walls = meta["shard_wall_times"]
        overhead.append(meta["wall_time_seconds"] - max(walls))
        imbalance.append(max(walls) / (sum(walls) / len(walls)))
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "dispatch.overhead_s": statistics.median(overhead),
        "dispatch.imbalance": statistics.median(imbalance),
        "dispatch.shards": statistics.median(m["num_shards"] for m in dispatch),
        "dispatch.replayed_prefix_gates": sum(
            int(m.get("replayed_prefix_gates", 0)) for m in dispatch
        ),
        "dispatch.worker_peak_rss_mb": children.ru_maxrss / 1024.0,
    }


def serve_layers(counters: dict[str, float], records: list[tuple]) -> dict[str, float]:
    """Cache ratios from ``server.counters()``; service and queue times per request."""
    requests = counters.get("serve.requests", 0)
    out = {"serve.warm_frac": counters.get("serve.requests.warm", 0) / requests
           if requests else 0.0}
    for cache in ("transpile", "plan", "prefix"):
        hits = counters.get(f"serve.cache.{cache}.hits", 0)
        misses = counters.get(f"serve.cache.{cache}.misses", 0)
        out[f"serve.cache.{cache}.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
    warm = [r.elapsed_seconds * 1e3 for _, r, _ in records if r.cached]
    cold = [r.elapsed_seconds * 1e3 for _, r, _ in records if not r.cached]
    waits = [(latency - r.elapsed_seconds) * 1e3 for _, r, latency in records]
    out.update({
        "serve.service_ms.warm.p50": percentile(warm, 50),
        "serve.service_ms.cold.p50": percentile(cold, 50),
        "serve.service_ms.cold.p99": percentile(cold, 99),
        "serve.queue_wait_ms.p50": percentile(waits, 50),
        "serve.queue_wait_ms.p99": percentile(waits, 99),
    })
    return out


# ---------------------------------------------------------------------------
# Microbenchmarks of public layer functions
# ---------------------------------------------------------------------------
def _ns_per_unit(fn: Callable[[], object], units: int, reps: int) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - start) / units)
    return statistics.median(samples)


def micro_layers(circuit: Circuit, reps: int = 15) -> dict[str, float]:
    """Backend, noise and pathrng costs on a ``(MICRO_ROWS, 2**n)`` batch.

    ``circuit`` supplies the width and the gates (its first 64) that the
    gate kernel timing replays.
    """
    num_qubits = circuit.num_qubits
    backend = get_backend("batched")
    state = backend.reset_state(backend.allocate_state(num_qubits))
    for qubit in range(num_qubits):
        state = backend.apply_gate(state, Gate.standard("h", (qubit,)))
    batch = backend.allocate_batch(num_qubits, MICRO_ROWS)
    backend.broadcast_into(batch, state)
    rngs = [PathStream(int(key)) for key in child_keys(0x5EED, 0, MICRO_ROWS)]
    gates = circuit.gates[:64]
    hadamard = Gate.standard("h", (0,))
    kraus = noise_model_by_code("AD").events_for_gate(hadamard)
    mixed = noise_model_by_code("DC").events_for_gate(hadamard)
    uniforms = draw_block(rngs, len(mixed))
    return {
        "backends.gate_ns_per_row": _ns_per_unit(
            lambda: [backend.apply_gate(batch, gate) for gate in gates],
            len(gates) * MICRO_ROWS, reps),
        "backends.copy_ns_per_row": _ns_per_unit(
            lambda: backend.broadcast_into(batch, state), MICRO_ROWS, reps),
        "backends.sample_ns_per_row": _ns_per_unit(
            lambda: backend.sample_outcomes_multi(batch, rngs, None),
            MICRO_ROWS, reps),
        "noise.kraus_ns_per_row": _ns_per_unit(
            lambda: backend.apply_noise_events_multi(batch, kraus, rngs),
            len(kraus) * MICRO_ROWS, reps),
        "noise.mixed_ns_per_row": _ns_per_unit(
            lambda: backend.apply_noise_events_uniforms(batch, mixed, uniforms),
            len(mixed) * MICRO_ROWS, reps),
        "pathrng.draw_ns_per_uniform": _ns_per_unit(
            lambda: draw_block(rngs, 32), 32 * MICRO_ROWS, reps),
    }


def plan_layers(ops: Iterable[tuple[Circuit, int, NoiseModel | None]],
                reps: int = 5) -> dict[str, float]:
    """Mean wall time of one default DCP ``plan`` call over the workload's inputs."""
    partitioner = DynamicCircuitPartitioner()
    per_op = []
    for circuit, shots, noise in ops:
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            partitioner.plan(circuit, shots, noise)
            samples.append(time.perf_counter() - start)
        per_op.append(statistics.median(samples))
    return {"plan.dcp_ms": 1e3 * sum(per_op) / len(per_op)}
