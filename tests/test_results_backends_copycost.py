"""Tests for cost counters, result containers, device profiles and profiling."""

import numpy as np
import pytest

from repro.core import (
    A100,
    CORE_I7,
    DEVICE_PROFILES,
    RTX_3060,
    V100,
    XEON_6130,
    CostCounters,
    NumpyBackend,
    SimulationResult,
    measure_copy_cost,
    merge_many,
    merge_results,
)
from repro.core.copycost import MODELED_SYSTEM_COPY_COSTS
from repro.core.pathrng import PathStream, run_root_key


# ---------------------------------------------------------------------------
# CostCounters / SimulationResult
# ---------------------------------------------------------------------------
def test_cost_counters_gate_equivalents():
    cost = CostCounters(gate_applications=100, noise_applications=20, state_copies=4)
    assert cost.gate_equivalents(copy_cost_in_gates=10.0) == pytest.approx(160.0)
    merged = cost.merged_with(CostCounters(gate_applications=1, state_copies=1))
    assert merged.gate_applications == 101
    assert merged.state_copies == 5


def _result(counts, cost=None, shots=None):
    return SimulationResult(
        counts=counts,
        num_qubits=2,
        shots=shots if shots is not None else sum(counts.values()),
        cost=cost if cost is not None else CostCounters(),
    )


def test_result_probabilities_and_top_outcomes():
    result = _result({"00": 3, "11": 1})
    assert result.probabilities() == pytest.approx([0.75, 0, 0, 0.25])
    assert result.probability_of("00") == pytest.approx(0.75)
    assert result.probability_of("01") == 0.0
    assert result.top_outcomes(1) == [("00", 3)]
    assert result.total_outcomes == 4


def test_result_speedup_over():
    slow = _result({"00": 10}, CostCounters(gate_applications=1000,
                                            wall_time_seconds=2.0))
    fast = _result({"00": 10}, CostCounters(gate_applications=250, state_copies=10,
                                            wall_time_seconds=1.0))
    assert fast.speedup_over(slow, copy_cost_in_gates=5.0) == pytest.approx(1000 / 300)
    assert fast.speedup_over(slow, use_wall_time=True) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        _result({"00": 1}).speedup_over(slow)


def test_result_speedup_requires_both_wall_times():
    """Regression: an unrecorded *baseline* wall time used to yield 0.0x."""
    timed = _result({"00": 1}, CostCounters(gate_applications=10,
                                            wall_time_seconds=1.0))
    untimed = _result({"00": 1}, CostCounters(gate_applications=10))
    with pytest.raises(ValueError, match="baseline wall time"):
        timed.speedup_over(untimed, use_wall_time=True)
    with pytest.raises(ValueError, match="wall time"):
        untimed.speedup_over(timed, use_wall_time=True)


def test_merge_results():
    merged = merge_results(_result({"00": 2}), _result({"00": 1, "11": 1}))
    assert merged.counts == {"00": 3, "11": 1}
    assert merged.shots == 4
    with pytest.raises(ValueError):
        merge_results(
            _result({"00": 1}),
            SimulationResult(counts={"0": 1}, num_qubits=1, shots=1),
        )


def test_merge_results_preserves_conflicting_metadata():
    """Regression: the second shard's tree/seed used to clobber the first's."""
    first = _result({"00": 2})
    first.metadata.update({"simulator": "tqsim", "tree": "(4,2)", "seed": 1})
    second = _result({"11": 1})
    second.metadata.update({"simulator": "tqsim", "tree": "(8,)", "seed": 2})
    merged = merge_results(first, second)
    # Agreeing keys stay at the top level; conflicting keys keep both values.
    assert merged.metadata["simulator"] == "tqsim"
    assert "tree" not in merged.metadata and "seed" not in merged.metadata
    assert merged.metadata["shards"] == [
        {"tree": "(4,2)", "seed": 1},
        {"tree": "(8,)", "seed": 2},
    ]


def test_merge_results_metadata_three_way_and_disjoint_keys():
    first = _result({"00": 1})
    first.metadata.update({"tree": "(4,)", "worker": "a"})
    second = _result({"01": 1})
    second.metadata.update({"tree": "(2,2)"})
    third = _result({"10": 1})
    third.metadata.update({"tree": "(8,)", "extra": 42})
    merged = merge_results(merge_results(first, second), third)
    assert merged.counts == {"00": 1, "01": 1, "10": 1}
    # Keys present on only one shard survive at the top level ...
    assert merged.metadata["worker"] == "a"
    assert merged.metadata["extra"] == 42
    # ... while each shard's conflicting tree is preserved, in merge order.
    assert [shard["tree"] for shard in merged.metadata["shards"]] == [
        "(4,)", "(2,2)", "(8,)"
    ]


def test_merge_results_identical_metadata_stays_flat():
    first = _result({"00": 1})
    first.metadata.update({"simulator": "baseline", "subcircuit_lengths": [3, 2]})
    second = _result({"11": 1})
    second.metadata.update({"simulator": "baseline", "subcircuit_lengths": [3, 2]})
    merged = merge_results(first, second)
    assert merged.metadata == {
        "simulator": "baseline", "subcircuit_lengths": [3, 2]
    }


def _shard_result(index, counts, gates):
    result = _result(counts, CostCounters(gate_applications=gates,
                                          wall_time_seconds=0.5))
    result.metadata.update({"simulator": "tqsim", "tree": f"({index},)",
                            "shard_index": index})
    return result


def test_merge_many_matches_pairwise_fold():
    """The n-way fold must agree with reducing pairwise merge_results."""
    shards = [
        _shard_result(0, {"00": 2, "01": 1}, 10),
        _shard_result(1, {"00": 1, "11": 3}, 20),
        _shard_result(2, {"10": 5}, 30),
    ]
    pairwise = merge_results(merge_results(shards[0], shards[1]), shards[2])
    merged = merge_many(shards)
    assert merged.counts == pairwise.counts
    assert merged.shots == pairwise.shots
    assert merged.cost.matches(pairwise.cost)
    assert merged.cost.wall_time_seconds == pytest.approx(
        pairwise.cost.wall_time_seconds
    )
    assert merged.metadata == pairwise.metadata


def test_merge_many_counts_and_costs_order_insensitive():
    shards = [
        _shard_result(0, {"00": 2}, 7),
        _shard_result(1, {"00": 1, "11": 4}, 11),
        _shard_result(2, {"01": 2}, 13),
        _shard_result(3, {"11": 1}, 17),
    ]
    forward = merge_many(shards)
    backward = merge_many(list(reversed(shards)))
    assert forward.counts == backward.counts
    assert forward.shots == backward.shots
    assert forward.cost.matches(backward.cost)


def test_merge_many_preserves_per_shard_metadata_beyond_two():
    shards = [_shard_result(i, {"00": 1}, 1) for i in range(4)]
    merged = merge_many(shards)
    assert merged.metadata["simulator"] == "tqsim"
    assert [s["shard_index"] for s in merged.metadata["shards"]] == [0, 1, 2, 3]
    assert [s["tree"] for s in merged.metadata["shards"]] == [
        "(0,)", "(1,)", "(2,)", "(3,)"
    ]


def test_merge_many_32_shards_single_pass_no_placeholders():
    """Regression: a wide merge folds metadata once, without ``{}`` filler.

    The pairwise fold used to re-merge intermediate metadata at every step
    and pad ``metadata["shards"]`` with empty placeholder dicts when a
    pre-sharded side met an agreeing plain side; the n-way fold must emit
    exactly one non-empty shard record per input and still agree with the
    pairwise reduction on counts, shots and cost.
    """
    shards = [
        _shard_result(i, {format(i % 4, "02b"): i + 1}, 3 * i + 1)
        for i in range(32)
    ]
    merged = merge_many(shards)

    pairwise = shards[0]
    for shard in shards[1:]:
        pairwise = merge_results(pairwise, shard)
    assert merged.counts == pairwise.counts
    assert merged.shots == pairwise.shots
    assert merged.cost.matches(pairwise.cost)

    records = merged.metadata["shards"]
    assert len(records) == 32
    assert all(record for record in records), "empty placeholder shard dict"
    assert [record["shard_index"] for record in records] == list(range(32))
    assert [record["tree"] for record in records] == [
        f"({i},)" for i in range(32)
    ]
    # Agreeing keys stay flat at the top level instead of being exploded
    # into the shard records.
    assert merged.metadata["simulator"] == "tqsim"
    assert all("simulator" not in record for record in records)


def test_merge_results_no_placeholder_for_presharded_agreeing_side():
    """Regression: pre-sharded + agreeing plain input adds no ``{}`` entry."""
    presharded = merge_many(
        [_shard_result(0, {"00": 1}, 2), _shard_result(1, {"01": 1}, 3)]
    )
    plain = _result({"11": 2}, CostCounters(gate_applications=4))
    plain.metadata.update({"simulator": "tqsim"})
    merged = merge_results(presharded, plain)
    assert all(record for record in merged.metadata["shards"])
    assert merged.metadata["simulator"] == "tqsim"


def test_merge_many_single_result_is_detached_copy():
    original = _shard_result(0, {"00": 2}, 5)
    merged = merge_many([original])
    assert merged.counts == original.counts
    assert merged.cost.matches(original.cost)
    merged.counts["11"] = 1
    merged.cost.gate_applications += 1
    merged.metadata["extra"] = True
    assert "11" not in original.counts
    assert original.cost.gate_applications == 5
    assert "extra" not in original.metadata


def test_merge_many_validates_input():
    with pytest.raises(ValueError):
        merge_many([])
    with pytest.raises(ValueError):
        merge_many([
            _result({"00": 1}),
            SimulationResult(counts={"0": 1}, num_qubits=1, shots=1),
        ])


def test_result_summary_flattens_metadata():
    result = _result({"00": 1})
    result.metadata["tree"] = "(4,2)"
    summary = result.summary()
    assert summary["meta_tree"] == "(4,2)"
    assert summary["outcomes"] == 1


# ---------------------------------------------------------------------------
# Backends and device profiles
# ---------------------------------------------------------------------------
def test_numpy_backend_roundtrip(depolarizing_model):
    from repro.circuits import Gate

    backend = NumpyBackend()
    state = backend.initial_state(3)
    assert state[0] == 1.0
    copy = backend.copy_state(state)
    copy[0] = 0.0
    assert state[0] == 1.0
    evolved = backend.apply_gate(state, Gate.standard("h", (0,)))
    assert np.isclose(np.linalg.norm(evolved), 1.0)
    events = depolarizing_model.events_for_gate(Gate.standard("h", (0,)))
    noisy = backend.apply_noise_events_multi(
        evolved, events, [PathStream(run_root_key(1))]
    )
    assert np.isclose(np.linalg.norm(noisy), 1.0)


def test_device_profile_times_scale_with_width():
    assert A100.gate_time(28) > A100.gate_time(20)
    assert A100.copy_time(24) > 0
    assert XEON_6130.max_statevector_qubits() >= 30


def test_device_profile_copy_cost_ordering():
    """Figure 10: server CPUs pay the highest copy cost, HBM2 GPUs the least."""
    width = 20
    server = XEON_6130.copy_cost_in_gates(width)
    desktop = CORE_I7.copy_cost_in_gates(width)
    gpu = V100.copy_cost_in_gates(width)
    assert server > desktop > gpu


def test_device_profile_estimate_seconds():
    cost = CostCounters(gate_applications=1000, noise_applications=100,
                        state_copies=10)
    estimate = RTX_3060.estimate_seconds(cost, 20)
    assert estimate > 0
    assert estimate > RTX_3060.estimate_seconds(
        CostCounters(gate_applications=500), 20
    )


def test_device_profiles_registry():
    assert set(MODELED_SYSTEM_COPY_COSTS) <= {
        name for name in list(DEVICE_PROFILES) + list(MODELED_SYSTEM_COPY_COSTS)
    }
    assert "a100_server_gpu" in DEVICE_PROFILES


# ---------------------------------------------------------------------------
# Copy-cost profiling
# ---------------------------------------------------------------------------
def test_measure_copy_cost_profile():
    profile = measure_copy_cost(widths=(6, 8), repeats=3)
    assert set(profile.per_width) == {6, 8}
    assert profile.average > 0
    assert profile.cost_for(7) in profile.per_width.values()
    assert all(value > 0 for value in profile.gate_seconds.values())


def test_measure_copy_cost_validates_width():
    with pytest.raises(ValueError):
        measure_copy_cost(widths=(1,), repeats=1)
