"""The serving layer: caches, admission, determinism — bitwise-checked.

The load-bearing claim of :mod:`repro.serve`: a response's counts are a
pure function of ``(circuit, noise, shots, seed)``.  Cache state must be
invisible — a warm request (plan, transpile and prefix-state hits, or the
sampling-only fast path) returns counts *bitwise* identical to its cold
twin, across the sequential engine, the batched backend and the process
pool, and under cache eviction pressure.  The telemetry side: request IDs
come from the pathrng key chain (deterministic per server seed) and
latency percentiles are read back from cumulative histogram counters.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing

import numpy as np
import pytest

from repro.analysis.memory import (
    batched_tree_simulation_bytes,
    statevector_bytes,
)
from repro.circuits.circuit import Circuit
from repro.circuits.library import ghz_circuit, qft_circuit
from repro.circuits.transpile import fuse_single_qubit_runs
from repro.core.costmodel import CostModel
from repro.core.partitioners import DynamicCircuitPartitioner
from repro.core.statecache import PrefixStateCache
from repro.noise.sycamore import noise_model_by_code
from repro.obs.schema import (
    LATENCY_BUCKET_BOUNDS_MS,
    latency_percentiles_ms,
    record_latency,
)
from repro.obs.tracer import MetricSet, Tracer
from repro.serve import (
    LRUCache,
    SimulationRequest,
    SimulationServer,
    build_request_mix,
)

SHOTS = 120


def _request(circuit, **kwargs):
    kwargs.setdefault("shots", SHOTS)
    return SimulationRequest(circuit=circuit, **kwargs)


# ---------------------------------------------------------------------------
# Cache primitives
# ---------------------------------------------------------------------------
def test_lru_cache_evicts_in_recency_order_and_counts_stats():
    cache = LRUCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a": "b" is now the LRU entry
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats.evictions == 1
    assert cache.stats.hits == 3
    assert cache.stats.misses == 1
    assert cache.stats.puts == 3


def test_prefix_state_cache_byte_bound_and_rejection():
    state = np.zeros(4, dtype=np.complex128)  # 64 bytes
    cache = PrefixStateCache(max_bytes=128)
    assert cache.put(("a",), state)
    assert cache.put(("b",), state)
    assert cache.current_bytes == 128
    assert cache.put(("c",), state)  # evicts ("a",), the LRU entry
    assert cache.get(("a",)) is None
    assert cache.get(("c",)) is not None
    assert cache.stats.evictions == 1
    # An entry larger than the whole budget is rejected, not thrashed in.
    big = np.zeros(64, dtype=np.complex128)
    assert not cache.put(("huge",), big)
    assert cache.stats.rejected == 1
    assert ("huge",) not in cache


# ---------------------------------------------------------------------------
# Latency histogram (counter-backed percentiles)
# ---------------------------------------------------------------------------
def test_latency_histogram_percentiles_from_counters():
    metrics = MetricSet()
    assert latency_percentiles_ms(metrics, (50.0,)) == {50.0: 0.0}
    for _ in range(99):
        record_latency(metrics, 0.001)  # 1 ms
    record_latency(metrics, 10.0)  # one 10 s outlier
    percentiles = latency_percentiles_ms(metrics, (50.0, 99.0, 100.0))
    assert percentiles[50.0] <= 2.0
    assert percentiles[99.0] <= 2.0
    # The outlier is covered by the smallest bucket bound at/above 10 s.
    assert 10_000.0 <= percentiles[100.0] <= max(LATENCY_BUCKET_BOUNDS_MS)
    with pytest.raises(ValueError):
        latency_percentiles_ms(metrics, (0.0,))


# ---------------------------------------------------------------------------
# Circuit content hashing (the cache key)
# ---------------------------------------------------------------------------
def test_content_hash_ignores_names_and_sees_params():
    a = qft_circuit(4)
    b = qft_circuit(4)
    b.name = "renamed"
    assert a.content_hash() == b.content_hash()
    c = qft_circuit(4)
    c.rz(0.125, 0)
    d = qft_circuit(4)
    d.rz(0.250, 0)
    assert c.content_hash() != d.content_hash()
    assert a.content_hash() != ghz_circuit(4).content_hash()


# ---------------------------------------------------------------------------
# Warm fast path: bitwise identity across execution modes
# ---------------------------------------------------------------------------
def test_warm_counts_bitwise_identical_to_cold_sequential():
    circuit = qft_circuit(5)
    with SimulationServer() as server:
        cold = server.handle(_request(circuit, seed=7))
        warm = server.handle(_request(circuit, seed=7))
    assert cold.ok and warm.ok
    assert not cold.cached and warm.cached
    assert warm.counts == cold.counts
    assert warm.shots == cold.shots
    counters = server.counters()
    assert counters["serve.requests"] == 2
    assert counters["serve.requests.cold"] == 1
    assert counters["serve.requests.warm"] == 1
    assert counters["serve.cache.transpile.hits"] >= 1
    assert counters["serve.cache.plan.hits"] >= 1
    assert counters["serve.cache.prefix.hits"] >= 1


def test_warm_repeat_hashes_the_request_circuit_once(monkeypatch):
    """The transpile cache keeps the fused circuit's hash: a warm repeat of
    a circuit that fusion changes hashes only the circuit it sent, and its
    fused hash and counts are the cold request's."""
    circuit = qft_circuit(5)
    assert (fuse_single_qubit_runs(circuit).content_hash()
            != circuit.content_hash())
    hashed = []
    real = Circuit.content_hash

    def counting(self):
        hashed.append(self)
        return real(self)

    monkeypatch.setattr(Circuit, "content_hash", counting)
    with SimulationServer() as server:
        cold = server.handle(_request(circuit, seed=7))
        hashed.clear()
        warm = server.handle(_request(circuit, seed=7))
    assert warm.cached
    assert hashed == [circuit]
    assert (warm.metadata["serve"]["fused_hash"]
            == cold.metadata["serve"]["fused_hash"]
            == real(fuse_single_qubit_runs(circuit)))
    assert warm.counts == cold.counts


@pytest.mark.parametrize("backend", ["optimized", "batched"])
def test_warm_counts_bitwise_identical_per_backend(backend):
    circuit = ghz_circuit(5)
    with SimulationServer() as server:
        cold = server.handle(_request(circuit, seed=3, backend=backend))
        warm = server.handle(_request(circuit, seed=3, backend=backend))
    assert not cold.cached and warm.cached
    assert warm.counts == cold.counts


def test_warm_counts_bitwise_identical_to_pool_cold():
    circuit = qft_circuit(5)
    with SimulationServer() as sequential:
        reference = sequential.handle(_request(circuit, seed=5))
    with SimulationServer(workers=2) as pooled:
        cold = pooled.handle(_request(circuit, seed=5))
        warm = pooled.handle(_request(circuit, seed=5))
    assert cold.counts == reference.counts
    assert warm.cached
    assert warm.counts == reference.counts


def test_pool_cold_requests_leave_no_child_process_alive():
    """A multi-worker cold request closes the dispatcher it starts."""
    before = set(multiprocessing.active_children())
    with SimulationServer(workers=2) as server:
        for seed in (1, 2):
            response = server.handle(
                _request(qft_circuit(5), noise="DC", seed=seed)
            )
            assert response.ok and not response.cached
            assert "dispatch" in response.metadata
            assert set(multiprocessing.active_children()) <= before


def test_distinct_seeds_share_caches_but_not_counts():
    circuit = qft_circuit(5)
    with SimulationServer() as server:
        first = server.handle(_request(circuit, seed=0))
        second = server.handle(_request(circuit, seed=1))
        # Different ensemble, but the prefix state is seed-independent, so
        # the second request is already warm.
        assert second.cached
        assert second.counts != first.counts
        again = server.handle(_request(circuit, seed=0))
    assert again.counts == first.counts


def test_noisy_requests_never_cached_and_deterministic():
    circuit = qft_circuit(4)
    with SimulationServer() as server:
        first = server.handle(_request(circuit, noise="DC", seed=2))
        second = server.handle(_request(circuit, noise="DC", seed=2))
    assert first.ok and second.ok
    assert not first.cached and not second.cached
    assert second.counts == first.counts


def test_qasm_request_matches_circuit_request():
    circuit = ghz_circuit(4)
    from repro.circuits.qasm import to_qasm

    with SimulationServer() as server:
        direct = server.handle(_request(circuit, seed=9))
        textual = server.handle(
            SimulationRequest(qasm=to_qasm(circuit), shots=SHOTS, seed=9)
        )
    assert textual.ok
    assert textual.counts == direct.counts


# ---------------------------------------------------------------------------
# Eviction under pressure: caching must stay invisible
# ---------------------------------------------------------------------------
def test_prefix_eviction_pressure_keeps_counts_identical():
    # Budget for exactly one 5-qubit state (512 bytes): two circuits take
    # turns evicting each other's final state, so a request warms up only
    # while its own circuit's state is the resident one.
    circuits = [qft_circuit(5), ghz_circuit(5)]
    with SimulationServer() as reference_server:
        references = [
            reference_server.handle(_request(c, seed=4)) for c in circuits
        ]
    with SimulationServer(state_cache_bytes=600) as server:
        cold = [server.handle(_request(c, seed=4)) for c in circuits]
        warm = server.handle(_request(circuits[1], seed=4))
        evicted = server.handle(_request(circuits[0], seed=4))
        counters = server.counters()
    assert [r.counts for r in cold] == [r.counts for r in references]
    assert not any(r.cached for r in cold)
    assert warm.cached
    assert warm.counts == references[1].counts
    assert not evicted.cached
    assert evicted.counts == references[0].counts
    assert counters.get("serve.cache.prefix.evictions", 0) >= 1


def test_noiseless_request_keeps_one_final_state_resident():
    """A cold noiseless request on a 3-layer plan caches one state, keyed
    by the fused hash, and admission charges exactly that one state."""
    circuit = qft_circuit(6)
    plan = DynamicCircuitPartitioner().plan(
        fuse_single_qubit_runs(circuit), SHOTS, None
    )
    assert plan.tree.num_subcircuits == 3
    with SimulationServer() as server:
        cold = server.handle(_request(circuit, seed=2))
        assert len(server.caches.prefix) == 1
        assert cold.metadata["serve"]["fused_hash"] in server.caches.prefix
    pool = batched_tree_simulation_bytes(
        6, plan.tree.arities, cold.admission["max_batch"]
    )
    assert cold.admission["peak_bytes"] == pool + statevector_bytes(6)


def test_state_cache_too_small_degrades_to_cold_identically():
    circuit = qft_circuit(5)
    with SimulationServer() as reference_server:
        reference = reference_server.handle(_request(circuit, seed=4))
    with SimulationServer(state_cache_bytes=1) as server:
        responses = [server.handle(_request(circuit, seed=4))
                     for _ in range(3)]
    assert all(not response.cached for response in responses)
    assert all(
        response.counts == reference.counts for response in responses
    )


@pytest.mark.parametrize(
    "budget",
    [{"plan_cache_entries": 0}, {"transpile_cache_entries": 0},
     {"state_cache_bytes": -1}],
    ids=["plan-0", "transpile-0", "state-minus-1"],
)
def test_out_of_range_cache_budgets_raise(budget):
    with pytest.raises(ValueError):
        SimulationServer(**budget)


def test_zero_state_budget_evolves_no_state():
    circuit = qft_circuit(5)
    with SimulationServer() as reference_server:
        reference = reference_server.handle(_request(circuit, seed=4))
    with SimulationServer(state_cache_bytes=0) as server:
        responses = [server.handle(_request(circuit, seed=4))
                     for _ in range(3)]
        counters = server.counters()
    assert all(not response.cached for response in responses)
    assert all(
        response.counts == reference.counts for response in responses
    )
    # A state the cache would reject is never evolved, so none is offered.
    assert "serve.cache.prefix.puts" not in counters
    assert "serve.cache.prefix.rejected" not in counters


def test_plan_and_transpile_eviction_pressure_keeps_counts_identical():
    circuits = [qft_circuit(4), ghz_circuit(4)]
    with SimulationServer() as reference_server:
        references = [
            reference_server.handle(_request(c, seed=6)) for c in circuits
        ]
    with SimulationServer(
        plan_cache_entries=1, transpile_cache_entries=1
    ) as server:
        # Alternating circuits thrash the single-entry caches.
        for _ in range(2):
            for circuit, reference in zip(circuits, references):
                response = server.handle(_request(circuit, seed=6))
                assert response.counts == reference.counts
        counters = server.counters()
    assert counters.get("serve.cache.plan.evictions", 0) >= 1
    assert counters.get("serve.cache.transpile.evictions", 0) >= 1


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------
def test_calibrated_server_plans_at_the_models_copy_ratio():
    """A server given a cost model serves the tree DCP picks under that
    model, whose copy/gate ratio (0.1 here) sets the first subcircuit and
    the minimum piece; the default ratio of 20 would serve ``(256)``."""
    model = CostModel(
        backend="batched", num_qubits=6, copy_ns=100.0,
        batch_overhead_ns=900.0, batch_row_ns=100.0, sample_ns=500.0,
    )
    circuit = qft_circuit(6)
    with SimulationServer(cost_model=model) as server:
        response = server.handle(_request(circuit, noise="DC", shots=256))
    expected = DynamicCircuitPartitioner(cost_model=model).plan(
        fuse_single_qubit_runs(circuit), 256, noise_model_by_code("DC")
    )
    assert response.ok
    assert response.metadata["tree"] == str(expected.tree) == "(16,2,2,2,2)"


# ---------------------------------------------------------------------------
# Concurrency and the job queue
# ---------------------------------------------------------------------------
def test_concurrent_requests_match_sequential_bitwise():
    mix = build_request_mix(12, num_qubits=5, shots=SHOTS)
    with SimulationServer() as sequential:
        expected = [sequential.handle(request) for request in mix]

    async def _gathered(server):
        return await asyncio.gather(
            *(server.submit(request) for request in mix)
        )

    with SimulationServer(executor_threads=4) as concurrent:
        responses = asyncio.run(_gathered(concurrent))
    assert [r.counts for r in responses] == [r.counts for r in expected]
    assert all(response.ok for response in responses)


def test_request_ids_unique_and_deterministic_per_server_seed():
    circuit = ghz_circuit(3)
    with SimulationServer(server_seed=42) as first:
        ids_a = [first.handle(_request(circuit)).request_id
                 for _ in range(3)]
    with SimulationServer(server_seed=42) as second:
        ids_b = [second.handle(_request(circuit)).request_id
                 for _ in range(3)]
    with SimulationServer(server_seed=43) as third:
        ids_c = [third.handle(_request(circuit)).request_id
                 for _ in range(3)]
    assert ids_a == ids_b
    assert len(set(ids_a)) == 3
    assert set(ids_a).isdisjoint(ids_c)
    assert all(identifier.startswith("req-") for identifier in ids_a)


# ---------------------------------------------------------------------------
# Admission and error paths
# ---------------------------------------------------------------------------
def test_request_rejected_when_budget_too_small():
    with SimulationServer() as server:
        response = server.handle(
            _request(qft_circuit(5), memory_bytes=64.0)
        )
    assert response.status == "rejected"
    assert not response.admission["fits_memory"]
    assert server.counters()["serve.requests.rejected"] == 1


def test_malformed_requests_become_error_responses():
    with SimulationServer() as server:
        both = server.handle(
            SimulationRequest(circuit=ghz_circuit(3), qasm="x", shots=4)
        )
        neither = server.handle(SimulationRequest(shots=4))
        zero_shots = server.handle(_request(ghz_circuit(3), shots=0))
    assert both.status == "error" and "exactly one" in both.error
    assert neither.status == "error"
    assert zero_shots.status == "error" and "shots" in zero_shots.error
    assert server.counters()["serve.requests.error"] == 3


def test_socket_replies_to_every_malformed_line_and_keeps_reading():
    """Each malformed JSON line gets exactly one error line over a real
    socket, and the same connection then serves a valid request."""
    from repro.circuits.qasm import to_qasm
    from repro.serve.server import _handle_connection

    qasm = json.dumps(to_qasm(ghz_circuit(3)))
    malformed = [
        b"[1, 2]",
        b"3",
        b'"x"',
        f'{{"qasm": {qasm}, "shots": 1e400}}'.encode(),
        f'{{"qasm": {qasm}, "shots": 4, "seed": 1e400}}'.encode(),
        b"{not json",
    ]
    valid = f'{{"qasm": {qasm}, "shots": 8, "seed": 1}}'.encode()

    async def _session(server):
        tcp = await asyncio.start_server(
            lambda r, w: _handle_connection(server, r, w), "127.0.0.1", 0
        )
        port = tcp.sockets[0].getsockname()[1]
        async with tcp:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            replies = []
            for line in [*malformed, valid]:
                writer.write(line + b"\n")
                await writer.drain()
                reply = await asyncio.wait_for(reader.readline(), timeout=60)
                replies.append(json.loads(reply))
            writer.close()
            await writer.wait_closed()
        return replies

    with SimulationServer() as server:
        replies = asyncio.run(_session(server))
    *errors, last = replies
    assert [reply["status"] for reply in errors] == ["error"] * len(malformed)
    assert all(reply["error"] for reply in errors)
    assert last["status"] == "ok"
    assert sum(last["counts"].values()) == 8


def test_response_metadata_and_json_wire_form():
    with SimulationServer() as server:
        cold = server.handle(_request(qft_circuit(4), seed=1))
        warm = server.handle(_request(qft_circuit(4), seed=1))
    assert cold.metadata["serve"]["cached"] is False
    assert warm.metadata["serve"]["cached"] is True
    assert warm.metadata["serve"]["fused_hash"] == (
        cold.metadata["serve"]["fused_hash"]
    )
    assert warm.metadata["execution"] == "serve-cached"
    wire = warm.to_json()
    parsed = json.loads(json.dumps(wire))
    assert parsed["status"] == "ok"
    assert parsed["counts"] == warm.counts
    assert parsed["cached"] is True


def test_per_request_spans_absorbed_into_server_tracer():
    tracer = Tracer()
    with SimulationServer(tracer=tracer) as server:
        response = server.handle(_request(ghz_circuit(3), seed=1))
    names = {span.name for span in tracer.buffer().spans}
    assert "serve.request" in names
    assert "serve.execute" in names
    assert response.ok


def test_latency_percentiles_populated_after_requests():
    with SimulationServer() as server:
        for _ in range(4):
            server.handle(_request(ghz_circuit(3)))
        percentiles = server.percentiles((50.0, 99.0))
    assert percentiles[50.0] > 0
    assert percentiles[99.0] >= percentiles[50.0]
