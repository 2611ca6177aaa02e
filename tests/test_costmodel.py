"""The microbenchmark-calibrated cost model (repro.core.costmodel).

Calibration is timed against the real backends (tiny widths, few repeats so
the suite stays fast); everything downstream of a measurement — the plan
and range pricing, the caches, the calibrated partition search and the
calibrated shard balancer — is exercised with synthetic models so the
assertions are exact.  Admission reads memory only.
"""

import json
import math
from dataclasses import replace

import pytest

from repro.analysis.memory import (
    AdmissionDecision,
    admit_plan,
    statevector_bytes,
)
from repro.circuits.library import qft_circuit
from repro.circuits.partition import candidate_part_counts
from repro.core.costmodel import (
    CostModel,
    calibrate_cost_model,
    clear_cost_model_memory_cache,
    get_cost_model,
    load_cost_model_cache,
    save_cost_model_cache,
)
from repro.core.engine import TQSimEngine, default_chunk_cap
from repro.core.partitioners import DynamicCircuitPartitioner, ManualPartitioner
from repro.dispatch import PoolDispatcher, SerialDispatcher, ShardPlanner
from repro.noise import depolarizing_noise_model


def synthetic_model(**overrides) -> CostModel:
    """A round-number model so plan pricing can be checked by hand."""
    values = dict(
        backend="batched",
        num_qubits=8,
        copy_ns=100.0,
        batch_overhead_ns=900.0,
        batch_row_ns=100.0,
        sample_ns=500.0,
    )
    values.update(overrides)
    return CostModel(**values)


# ----------------------------------------------------------------------
# Model arithmetic
# ----------------------------------------------------------------------
def test_copy_cost_ratios():
    model = synthetic_model()
    # One gate on one node is the affine fit at one row: 900 + 100 ns.
    assert model.one_node_gate_ns == pytest.approx(1000.0)
    assert model.copy_cost_in_gates == pytest.approx(0.1)


def test_plan_seconds_sequential_counts_every_node():
    model = synthetic_model()
    # Tree (2, 3), lengths (4, 5): layer0 = 2*4 gates, layer1 = 6*5 gates,
    # 6 reuse copies, 6 leaf samples.
    expected_ns = (2 * 4 + 6 * 5) * 1000 + 6 * 100 + 6 * 500
    assert model.plan_seconds((2, 3), (4, 5), max_batch=1) == pytest.approx(
        expected_ns * 1e-9
    )


def test_plan_seconds_batched_mirrors_engine_chunking():
    model = synthetic_model()
    # Arity 10 with max_batch 4 → chunks of 4, 4, 2 per parent: per gate,
    # 2 full calls (900 + 4*100) and one remainder call (900 + 2*100).
    per_gate = 2 * (900 + 4 * 100) + (900 + 2 * 100)
    # One layer of 3 gates; layer 0 never copies, so only leaf samples add.
    expected_ns = 3 * per_gate + 10 * 500
    assert model.plan_seconds((10,), (3,),
                              max_batch=4) == pytest.approx(expected_ns * 1e-9)


def test_plan_seconds_prices_frontier_chunks():
    model = synthetic_model()
    # Tree (3, 10) at cap 4: layer 0 is one 3-row chunk; layer 1's 30 nodes
    # run in ceil(30 / 4) = 8 frontier chunks spanning parents, not
    # 3 * ceil(10 / 4) = 9 per-parent chunks.
    layer0 = 2 * (900 + 3 * 100)
    layer1 = 5 * (8 * 900 + 30 * 100)
    expected_ns = layer0 + layer1 + 30 * 100 + 30 * 500
    assert model.plan_seconds((3, 10), (2, 5),
                              max_batch=4) == pytest.approx(expected_ns * 1e-9)


def test_plan_seconds_defaults_to_the_engine_cap_at_the_model_width():
    model = synthetic_model()
    # 2**15 amplitudes are 128 eight-qubit rows: 4 chunks of 512 nodes.
    assert model.plan_seconds((512,), (3,)) == pytest.approx(
        model.plan_seconds((512,), (3,), max_batch=128)
    )
    assert model.plan_seconds((512,), (3,)) < model.plan_seconds(
        (512,), (3,), max_batch=64
    )


def test_plan_seconds_batched_beats_sequential_when_overhead_dominates():
    model = synthetic_model()
    assert model.plan_seconds((16, 16), (10, 10), max_batch=16) \
        < model.plan_seconds((16, 16), (10, 10), max_batch=1)


@pytest.mark.parametrize(
    "arities, lengths",
    [((10,), (3,)), ((3, 10), (2, 5)), ((16, 16), (10, 10)),
     ((2, 3, 4), (1, 7, 2))],
)
@pytest.mark.parametrize("overhead", [0.0, 900.0, 1e6])
def test_plan_seconds_never_rises_with_the_cap(arities, lengths, overhead):
    """A larger cap runs no more chunks, and a chunk's overhead is never
    negative, so no cap is priced slower than a smaller one: admission can
    take the largest cap memory admits."""
    model = synthetic_model(batch_overhead_ns=overhead)
    prices = [
        model.plan_seconds(arities, lengths, max_batch=cap)
        for cap in (1, 2, 3, 4, 7, 16, 64, 1024)
    ]
    assert all(later <= earlier for earlier, later in zip(prices, prices[1:]))


def test_plan_seconds_prices_a_frontier_range():
    model = synthetic_model()
    # Nodes [5, 11) of layer 2 of (2, 3, 4) at cap 4 run ancestor 0 on
    # layer 0, parents [1, 3) on layer 1 and the 6 nodes in 2 chunks.
    layer0 = 2 * (900 + 1 * 100)
    layer1 = 3 * (900 + 2 * 100) + 2 * 100
    layer2 = 4 * (2 * 900 + 6 * 100) + 6 * 100
    expected_ns = layer0 + layer1 + layer2 + 6 * 500
    assert model.plan_seconds(
        (2, 3, 4), (2, 3, 4), max_batch=4, frontier_range=(2, 5, 11)
    ) == pytest.approx(expected_ns * 1e-9)
    # The full run is the range [0, A_0) of layer 0.
    assert model.plan_seconds(
        (2, 3, 4), (2, 3, 4), max_batch=4, frontier_range=(0, 0, 2)
    ) == model.plan_seconds((2, 3, 4), (2, 3, 4), max_batch=4)
    with pytest.raises(ValueError, match="range"):
        model.plan_seconds((2, 3), (1, 1), frontier_range=(1, 4, 7))


def test_plan_seconds_monotone_in_subcircuit_length():
    model = synthetic_model()
    short = model.plan_seconds((4, 4), (3, 3))
    longer = model.plan_seconds((4, 4), (3, 9))
    assert longer > short


def test_plan_seconds_favors_reuse():
    model = synthetic_model()
    # 20-gate circuit split in half vs 256 flat runs of the whole circuit,
    # one node at a time: the per-shot baseline is the one-layer plan.
    assert model.plan_seconds((256,), (20,), max_batch=1) \
        > model.plan_seconds((16, 16), (10, 10), max_batch=1)


def test_plan_seconds_validation():
    model = synthetic_model()
    with pytest.raises(ValueError, match="one arity per subcircuit"):
        model.plan_seconds((2, 2), (5,))
    with pytest.raises(ValueError, match="max_batch"):
        model.plan_seconds((2,), (5,), max_batch=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("copy_ns", -1.0),
        ("batch_row_ns", 0.0),
        ("sample_ns", -5.0),
        ("batch_overhead_ns", -0.1),
        ("num_qubits", 0),
    ],
)
def test_model_validation_rejects_bad_fields(field, value):
    with pytest.raises(ValueError):
        synthetic_model(**{field: value})


def test_dict_round_trip():
    model = synthetic_model()
    assert CostModel.from_dict(model.as_dict()) == model


# ----------------------------------------------------------------------
# Calibration + caches
# ----------------------------------------------------------------------
def test_calibrate_measures_positive_costs():
    model = calibrate_cost_model("batched", num_qubits=4, repeats=4, rounds=1)
    assert model.backend == "optimized"  # "batched" is an alias
    assert model.num_qubits == 4
    for value in (model.copy_ns, model.batch_row_ns, model.sample_ns):
        assert value > 0
    assert model.batch_overhead_ns >= 0


def test_calibrate_validation():
    with pytest.raises(ValueError):
        calibrate_cost_model("batched", num_qubits=0)
    with pytest.raises(ValueError):
        calibrate_cost_model("batched", num_qubits=4, repeats=0)
    with pytest.raises(ValueError, match="unknown backend"):
        calibrate_cost_model("nosuch", num_qubits=4)


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "nested" / "calibration.json")
    models = {
        ("batched", 8): synthetic_model(),
        ("optimized", 6): synthetic_model(backend="optimized", num_qubits=6),
    }
    save_cost_model_cache(models, path)
    assert load_cost_model_cache(path) == models


def test_cache_entry_carrying_gate_ns_still_loads(tmp_path):
    """Artifacts written while models also timed a gate on a single state
    load into the six-field model; the extra key is ignored."""
    entry = dict(synthetic_model().as_dict(), gate_ns=1000.0)
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"version": 1, "models": [entry]}))
    assert load_cost_model_cache(str(path)) == {
        ("batched", 8): synthetic_model()
    }


def test_load_cache_tolerates_missing_and_corrupt_files(tmp_path):
    assert load_cost_model_cache(str(tmp_path / "absent.json")) == {}
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    assert load_cost_model_cache(str(corrupt)) == {}
    # Invalid entries are skipped, valid ones kept.
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({
        "version": 1,
        "models": [synthetic_model().as_dict(), {"backend": "x"}],
    }))
    assert load_cost_model_cache(str(mixed)) == {
        ("batched", 8): synthetic_model()
    }


def test_get_cost_model_calibrates_once_per_process(monkeypatch, tmp_path):
    clear_cost_model_memory_cache()
    calls = {"count": 0}
    real = calibrate_cost_model

    def counting(*args, **kwargs):
        calls["count"] += 1
        return real("batched", num_qubits=4, repeats=2, rounds=1)

    monkeypatch.setattr(
        "repro.core.costmodel.calibrate_cost_model", counting
    )
    path = str(tmp_path / "cm.json")
    first = get_cost_model("batched", 4, cache_path=path)
    second = get_cost_model("batched", 4, cache_path=path)
    assert first == second
    assert calls["count"] == 1
    # A fresh process (cleared memory cache) resolves from disk.
    clear_cost_model_memory_cache()
    assert get_cost_model("batched", 4, cache_path=path) == first
    assert calls["count"] == 1
    # refresh forces a re-measurement.
    get_cost_model("batched", 4, cache_path=path, refresh=True)
    assert calls["count"] == 2
    clear_cost_model_memory_cache()


# ----------------------------------------------------------------------
# candidate_part_counts
# ----------------------------------------------------------------------
def test_candidate_part_counts_bounds():
    assert candidate_part_counts(20, 5) == [1, 2, 3, 4]
    assert candidate_part_counts(20, 5, max_parts=2) == [1, 2]
    # A single undivided part is always feasible.
    assert candidate_part_counts(3, 5) == [1]


def test_candidate_part_counts_validation():
    with pytest.raises(ValueError):
        candidate_part_counts(0)
    with pytest.raises(ValueError):
        candidate_part_counts(10, 0)
    with pytest.raises(ValueError):
        candidate_part_counts(10, 2, max_parts=0)


# ----------------------------------------------------------------------
# Calibrated DCP search
# ----------------------------------------------------------------------
def test_calibrated_dcp_annotates_and_never_loses_to_analytic():
    circuit = qft_circuit(5)
    noise = depolarizing_noise_model()
    model = synthetic_model(num_qubits=5)
    analytic = DynamicCircuitPartitioner().plan(circuit, 64, noise)
    calibrated_plan = DynamicCircuitPartitioner(cost_model=model).plan(
        circuit, 64, noise
    )
    params = calibrated_plan.parameters
    assert params["calibrated"] is True
    assert params["cost_model_backend"] == "batched"
    assert params["candidate_plans"] >= 2
    predicted = params["predicted_seconds"]
    assert predicted == pytest.approx(
        model.plan_seconds(
            calibrated_plan.tree.arities,
            [len(sub) for sub in calibrated_plan.subcircuits],
        )
    )
    # The analytic plan is always among the candidates, so the pick can
    # only tie or beat it under the model.
    assert predicted <= model.plan_seconds(
        analytic.tree.arities, [len(sub) for sub in analytic.subcircuits]
    ) * (1 + 1e-12)


def test_calibrated_dcp_prices_the_default_cap_of_the_circuit_width():
    """Candidates are priced at the cap a default engine runs the circuit
    at (128 rows at 8 qubits), not at the model's width or at 64."""
    circuit = qft_circuit(8)
    noise = depolarizing_noise_model()
    model = synthetic_model(num_qubits=10)
    plan = DynamicCircuitPartitioner(cost_model=model).plan(
        circuit, 512, noise
    )
    assert math.prod(plan.tree.arities) > 64
    lengths = plan.subcircuit_lengths
    predicted = plan.parameters["predicted_seconds"]
    assert predicted == pytest.approx(
        model.plan_seconds(
            plan.tree.arities, lengths, max_batch=default_chunk_cap(8)
        )
    )
    assert predicted < model.plan_seconds(
        plan.tree.arities, lengths, max_batch=64
    )


def test_calibrated_dcp_still_covers_circuit_and_shots():
    circuit = qft_circuit(5)
    noise = depolarizing_noise_model()
    plan = DynamicCircuitPartitioner(
        cost_model=synthetic_model(num_qubits=5)
    ).plan(circuit, 100, noise)
    assert sum(len(sub) for sub in plan.subcircuits) == len(circuit)
    assert math.prod(plan.tree.arities) >= 100


def test_calibrated_dcp_takes_copy_cost_from_model():
    model = synthetic_model(copy_ns=42_000.0)
    partitioner = DynamicCircuitPartitioner(cost_model=model)
    assert partitioner.copy_cost_in_gates == pytest.approx(42.0)
    # An explicit scalar still wins over the model-derived one.
    pinned = DynamicCircuitPartitioner(cost_model=model,
                                       copy_cost_in_gates=7.0)
    assert pinned.copy_cost_in_gates == pytest.approx(7.0)


# ----------------------------------------------------------------------
# Calibrated shard pricing
# ----------------------------------------------------------------------
def test_calibrated_shard_estimates_are_the_price_of_each_range():
    """A calibrated planner prices each shard's range with plan_seconds at
    the shards' chunk cap, in ns: ancestors, chunks and leaf draws
    included."""
    circuit = qft_circuit(5)
    plan = ManualPartitioner((2, 3, 4)).plan(circuit, 24, None)
    arities, lengths = plan.tree.arities, plan.subcircuit_lengths
    model = synthetic_model(num_qubits=5)
    shards = ShardPlanner(max_depth=3, cost_model=model).plan_shards(
        circuit, 24, 8, seed=0, plan=plan
    )
    assert len(shards) == 8 and {s.layer for s in shards} == {2}
    for spec in shards:
        assert spec.max_batch == default_chunk_cap(5)
        assert spec.estimated_cost == pytest.approx(
            1e9 * model.plan_seconds(
                arities, lengths, max_batch=spec.max_batch,
                frontier_range=(2, spec.start, spec.stop),
            )
        )
    (whole,) = ShardPlanner(cost_model=model).plan_shards(
        circuit, 24, 1, seed=0, plan=plan
    )
    assert whole.estimated_cost == pytest.approx(
        1e9 * model.plan_seconds(arities, lengths, max_batch=whole.max_batch)
    )


def test_calibrated_dispatchers_equal_the_engine_bitwise():
    circuit = qft_circuit(5)
    noise = depolarizing_noise_model()
    plan = ManualPartitioner((2, 3, 4)).plan(circuit, 24, noise)
    model = synthetic_model(num_qubits=5)
    single = TQSimEngine(noise, seed=23).run(circuit, 24, plan=plan)
    serial = SerialDispatcher(
        noise, seed=23, num_shards=8, max_depth=3, cost_model=model
    ).run(circuit, 24, plan=plan)
    with PoolDispatcher(
        noise, seed=23, num_workers=2, max_depth=3, cost_model=model
    ) as pool:
        pooled = pool.run(circuit, 24, plan=plan)
    assert serial.counts == single.counts
    assert pooled.counts == single.counts


# ----------------------------------------------------------------------
# Admission (memory only)
# ----------------------------------------------------------------------
def test_admit_plan_memory_only_path():
    decision = admit_plan(
        num_qubits=4,
        arities=(8, 8),
        subcircuit_lengths=(5, 5),
        memory_bytes=8 * 2**30,
    )
    assert isinstance(decision, AdmissionDecision)
    assert decision.fits_memory
    # Frontier chunks span parents: the cap reaches the largest frontier.
    assert decision.max_batch == 64


def test_admit_plan_without_a_cap_admits_one_wide_state_per_layer():
    # The default cap at 20 qubits is one row: a default admission holds
    # one 16 MiB state per layer, where 64 rows were 1 GiB per layer.
    decision = admit_plan(
        num_qubits=20,
        arities=(64, 4),
        subcircuit_lengths=(10, 10),
        memory_bytes=8 * 2**30,
    )
    assert decision.fits_memory
    assert decision.max_batch == 1
    assert decision.peak_bytes == 2 * statevector_bytes(20)


def test_admit_plan_shrinks_batch_under_tight_budget():
    # A (64, 2**20) complex pool is 1 GiB; cap the budget below that.
    decision = admit_plan(
        num_qubits=20,
        arities=(64,),
        subcircuit_lengths=(10,),
        memory_bytes=256 * 2**20,
        max_batch=64,
    )
    # The requested cap does not fit, so admission lowers it until the
    # buffer pool does; the *admitted* configuration fits by construction.
    assert decision.fits_memory
    assert 1 <= decision.max_batch < 64
    assert decision.peak_bytes <= 256 * 2**20
    assert "lowered" in decision.reason


def test_admit_plan_accounts_prefix_replay_states():
    # Held prefix states (the serve layer's prefix cache) are resident
    # alongside the batch buffer pool: the admitted peak must include them
    # and the batch cap must be computed against the *reduced* budget.
    base = admit_plan(
        num_qubits=20,
        arities=(64,),
        subcircuit_lengths=(10,),
        memory_bytes=256 * 2**20,
        max_batch=64,
    )
    held = admit_plan(
        num_qubits=20,
        arities=(64,),
        subcircuit_lengths=(10,),
        memory_bytes=256 * 2**20,
        max_batch=64,
        prefix_states=4,
    )
    # Each held 20-qubit state (16 MiB) displaces exactly one pool row, so
    # the cap drops by prefix_states while total resident bytes stay at
    # the budget.
    assert held.fits_memory
    assert held.max_batch == base.max_batch - 4
    assert held.peak_bytes == base.peak_bytes
    assert held.peak_bytes <= 256 * 2**20


def test_admit_plan_rejects_when_prefix_states_exhaust_budget():
    # 32 held 20-qubit states are 512 MiB: over budget before any batch
    # buffer is allocated, so even batch=1 cannot be admitted.
    decision = admit_plan(
        num_qubits=20,
        arities=(8,),
        subcircuit_lengths=(4,),
        memory_bytes=256 * 2**20,
        prefix_states=32,
    )
    assert not decision.fits_memory
    assert decision.peak_bytes > 256 * 2**20


def test_admit_plan_validates_prefix_states():
    with pytest.raises(ValueError):
        admit_plan(
            num_qubits=4,
            arities=(4,),
            subcircuit_lengths=(3,),
            memory_bytes=2**30,
            prefix_states=-1,
        )


def test_cap_one_verdict_reproduces_default_cap_counts():
    """A budget of one state per layer only changes the chunking: the
    server hands the admitted cap 1 to the engine and the counts stay
    bitwise."""
    from repro.serve import SimulationRequest, SimulationServer

    request = SimulationRequest(
        circuit=qft_circuit(4), noise=depolarizing_noise_model(), shots=64,
        seed=3,
    )
    with SimulationServer() as server:
        default = server.handle(request)
    layers = len(default.metadata["subcircuit_lengths"])
    tight = replace(request, memory_bytes=layers * statevector_bytes(4))
    with SimulationServer() as server:
        capped = server.handle(tight)
    assert capped.ok and default.ok
    assert capped.admission["max_batch"] == 1
    assert capped.metadata["max_batch"] == 1
    assert default.admission["max_batch"] > 1
    assert capped.counts == default.counts
