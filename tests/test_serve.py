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

import numpy as np
import pytest

from repro.circuits.library import ghz_circuit, qft_circuit
from repro.core import ManualPartitioner, TQSimEngine
from repro.core.statecache import PrefixStateCache
from repro.dispatch import ShardPlanner
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


def test_namespaced_views_share_entries_and_stats():
    state = np.ones(2, dtype=np.complex128)
    cache = PrefixStateCache(max_bytes=1024)
    depth_view = cache.namespaced("hash", (3, 2))
    path_view = cache.namespaced("hash", (3, 2), key_fn=len)
    depth_view.put(1, state)
    # The path view collapses a length-1 path onto the same depth-1 entry.
    assert path_view.get((7,)) is not None
    assert cache.namespaced("other", (3, 2)).get(1) is None
    assert depth_view.stats is cache.stats


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
    # Budget for exactly one 5-qubit state (512 bytes): populating evicts
    # each shallower depth as the next is stored, leaving only depth L —
    # so requests still warm up, with the evictions on the books.
    circuit = qft_circuit(5)
    with SimulationServer() as reference_server:
        reference = reference_server.handle(_request(circuit, seed=4))
    with SimulationServer(state_cache_bytes=600) as server:
        cold = server.handle(_request(circuit, seed=4))
        warm = server.handle(_request(circuit, seed=4))
        counters = server.counters()
    assert cold.counts == reference.counts
    assert warm.counts == reference.counts
    assert counters.get("serve.cache.prefix.evictions", 0) >= 1


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


def test_engine_bounded_prefix_cache_is_invisible_to_counts(qft5):
    """Satellite regression: the per-run prefix cache is byte-bounded, and
    a bound too small to hold anything (every put rejected, every probe a
    miss) still yields bitwise-identical deep-shard counts."""
    plan = ManualPartitioner((3, 4)).plan(qft5, 12, None)
    shards = ShardPlanner(max_depth=2).plan_shards(
        qft5, 12, 8, seed=0, plan=plan, strict=True
    )
    deep = next(spec for spec in shards if spec.depth > 0)
    reference = TQSimEngine().run(
        qft5, deep.requested_shots, plan=deep.plan,
        assignments=deep.assignments,
    )
    tiny = PrefixStateCache(max_bytes=1)
    bounded = TQSimEngine().run(
        qft5, deep.requested_shots, plan=deep.plan,
        assignments=deep.assignments, prefix_cache=tiny,
    )
    assert bounded.counts == reference.counts
    assert bounded.cost.matches(reference.cost)
    assert tiny.stats.rejected >= 1
    assert len(tiny) == 0


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
