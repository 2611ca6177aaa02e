"""Randomized differential testing across every execution path.

Seven ways to execute one plan all claim *bitwise-identical* counts and cost
counters under the per-node-path seeding contract (see
:mod:`repro.core.engine`):

1. one node at a time (``TQSimEngine(max_batch=1)``, the classic
   depth-first order)
2. frontier chunks at the default cap (``TQSimEngine()``)
3. the reference tensordot kernels (``TQSimEngine(backend="numpy")``)
4. in-process sharded dispatch (``SerialDispatcher``)
5. multiprocess sharded dispatch (``PoolDispatcher``)
6. deep path-based sharding (``max_depth=2``, splitting below the first layer)
7. the per-shot simulators, for the one-layer plan ``(shots,)``:
   ``BaselineNoisySimulator`` runs it at cap 1 and
   ``BatchedTrajectorySimulator`` at cap ``batch_size``

This harness keeps that invariant honest with a seeded randomized matrix:
each case draws a benchmark circuit from the paper suite, a random
``(arity, layers)`` manual plan, a random noise model (none / depolarizing /
depolarizing + readout error / amplitude damping, i.e. a general Kraus
channel) and random shard counts, then asserts the first six paths agree
bit-for-bit.  Cases are deterministic per seed, so any failure reproduces
with ``-k case_NN``.  The per-shot simulators are checked against the
engine's one-layer plan under three noise settings on both backends.
Without gate noise, ``TQSimEngine.sample_leaves`` on the circuit's final
state is one more path: it is checked against ``run`` on one-layer,
two-layer and deep plans, with and without readout error.
"""

import numpy as np
import pytest

from repro.circuits.library.suite import PAPER_SUITE, build_circuit
from repro.core import (
    BaselineNoisySimulator,
    BatchedTrajectorySimulator,
    ManualPartitioner,
    SingleShotPartitioner,
    TQSimEngine,
    merge_many,
)
from repro.core.pathrng import run_root_key
from repro.dispatch import PoolDispatcher, SerialDispatcher
from repro.noise import NoiseModel, ReadoutError, depolarizing_noise_model
from repro.noise.channels import (
    AmplitudeDampingChannel,
    PhaseDampingChannel,
    ThermalRelaxationChannel,
)
from repro.statevector.simulator import StatevectorSimulator

NUM_CASES = 40

#: Suite entries small enough to run five full execution paths per case.
SMALL_SPECS = [spec for spec in PAPER_SUITE if spec.paper_width <= 6]


def _noise_model(choice: int) -> NoiseModel | None:
    if choice == 0:
        return None
    if choice == 1:
        return depolarizing_noise_model()
    if choice == 2:
        model = depolarizing_noise_model()
        model.readout_error = ReadoutError(0.02, 0.01)
        return model
    # General Kraus channels exercise the vectorised state-dependent update.
    return NoiseModel(
        single_qubit_channels=[AmplitudeDampingChannel(0.04)],
        two_qubit_channels=[AmplitudeDampingChannel(0.02)],
        name="amplitude-damping",
    )


def _random_case(case_seed: int):
    """Deterministically draw one differential test case."""
    rng = np.random.default_rng(10_000 + case_seed)
    spec = SMALL_SPECS[int(rng.integers(len(SMALL_SPECS)))]
    circuit = build_circuit(spec, seed=int(rng.integers(10_000)))
    num_layers = int(rng.integers(2, 4))  # 2 or 3 subcircuits
    # Keep the first-layer arity small often enough that deep sharding is
    # forced to descend, and leaf counts modest so forty cases stay fast.
    arities = [int(rng.integers(2, 5)) for _ in range(num_layers)]
    noise = _noise_model(int(rng.integers(4)))
    plan = ManualPartitioner(arities).plan(
        circuit, int(np.prod(arities)), noise
    )
    run_seed = int(rng.integers(2**31))
    num_shards = int(rng.integers(1, 5))
    deep_shards = arities[0] + int(rng.integers(1, arities[1] + 1))
    return circuit, plan, noise, run_seed, num_shards, deep_shards


def _counter_tuple(result):
    cost = result.cost
    return (
        cost.gate_applications,
        cost.noise_applications,
        cost.state_copies,
        cost.leaf_samples,
    )


@pytest.mark.parametrize(
    "case_seed", range(NUM_CASES), ids=[f"case_{i:02d}" for i in range(NUM_CASES)]
)
def test_all_execution_paths_bitwise_identical(case_seed):
    circuit, plan, noise, run_seed, num_shards, deep_shards = _random_case(
        case_seed
    )
    shots = plan.total_outcomes

    sequential = TQSimEngine(noise, seed=run_seed, max_batch=1).run(
        circuit, shots, plan=plan
    )
    batched = TQSimEngine(noise, seed=run_seed).run(circuit, shots, plan=plan)
    reference = TQSimEngine(noise, seed=run_seed, backend="numpy").run(
        circuit, shots, plan=plan
    )
    serial = SerialDispatcher(
        noise, seed=run_seed, num_shards=num_shards
    ).run(circuit, shots, plan=plan)
    # Deep sharding splits below the first layer (deep_shards > A0 forces
    # a descent); the pooled run ships deep shards to real processes every
    # few cases to bound the harness's fork overhead.
    deep = SerialDispatcher(
        noise, seed=run_seed, num_shards=deep_shards, max_depth=2
    ).run(circuit, shots, plan=plan)
    if case_seed % 4 == 0:
        pooled = PoolDispatcher(
            noise, seed=run_seed, num_workers=2, num_shards=deep_shards,
            max_depth=2,
        ).run(circuit, shots, plan=plan)
    else:
        pooled = PoolDispatcher(
            noise, seed=run_seed, num_workers=2, num_shards=num_shards
        ).run(circuit, shots, plan=plan)

    results = {
        "sequential": sequential,
        "batched": batched,
        "reference": reference,
        "serial": serial,
        "pooled": pooled,
        "deep": deep,
    }
    reference_counts = sequential.counts
    reference_counters = _counter_tuple(sequential)
    for name, result in results.items():
        assert result.counts == reference_counts, (
            f"{name} counts diverged (seed {case_seed}, "
            f"tree {plan.tree}, noise "
            f"{noise.name if noise else 'ideal'})"
        )
        assert _counter_tuple(result) == reference_counters, (
            f"{name} cost counters diverged (seed {case_seed})"
        )
        assert result.shots == shots
    if deep_shards > plan.tree.arities[0]:
        assert deep.metadata["dispatch"]["shard_depth"] == 1


# ---------------------------------------------------------------------------
# The per-shot simulators are the engine's one-layer tree
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["optimized", "numpy"])
@pytest.mark.parametrize(
    "noise_choice", [0, 2, 3],
    ids=["ideal", "depolarizing-readout", "amplitude-damping"],
)
def test_per_shot_simulators_are_the_one_layer_tree(qft5, noise_choice,
                                                    backend):
    """The baseline equals the engine on the plan ``(shots,)`` at every
    cap, equals the batched simulator at every batch size, and is the same
    on both backends: counts and all four counters, bitwise."""
    noise = _noise_model(noise_choice)
    shots = 37  # a partial last chunk at every cap above 1
    reference = BaselineNoisySimulator(noise, seed=4321).run(qft5, shots)
    expected = (reference.counts, _counter_tuple(reference))
    results = {
        "baseline": BaselineNoisySimulator(noise, seed=4321, backend=backend)
        .run(qft5, shots),
    }
    for cap in (1, 4, 64):
        results[f"engine cap {cap}"] = TQSimEngine(
            noise, seed=4321, backend=backend, max_batch=cap
        ).run(qft5, shots, partitioner=SingleShotPartitioner())
    for batch_size in (1, 4, 16):
        results[f"batched B={batch_size}"] = BatchedTrajectorySimulator(
            noise, seed=4321, batch_size=batch_size, backend=backend
        ).run(qft5, shots)
    for name, result in results.items():
        assert (result.counts, _counter_tuple(result)) == expected, name
        assert result.shots == shots, name


# ---------------------------------------------------------------------------
# Without gate noise, every leaf samples the one final state
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["optimized", "numpy"])
@pytest.mark.parametrize("cap", [1, 64])
@pytest.mark.parametrize("readout", [False, True], ids=["ideal", "readout"])
@pytest.mark.parametrize("arities", [(37,), (4, 6), (3, 2, 3, 2)],
                         ids=["one-layer", "two-layer", "deep"])
def test_sample_leaves_equals_the_traversal(qft5, arities, readout, cap,
                                            backend):
    """``sample_leaves`` on the final state equals ``run`` on a twin engine
    in counts and ``leaf_samples``, on each engine's first call and on its
    second, which both take the next run key."""
    noise = (
        NoiseModel(readout_error=ReadoutError(0.02, 0.01), name="readout")
        if readout else None
    )
    plan = ManualPartitioner(arities).plan(
        qft5, int(np.prod(arities)), noise
    )
    state = StatevectorSimulator(backend=backend).run(qft5).data
    sampler = TQSimEngine(noise, seed=61, backend=backend, max_batch=cap)
    runner = TQSimEngine(noise, seed=61, backend=backend, max_batch=cap)
    for call in ("first", "second"):
        sampled = sampler.sample_leaves(state, plan)
        traversed = runner.run(qft5, plan.total_outcomes, plan=plan)
        assert sampled.counts == traversed.counts, call
        assert sampled.cost.leaf_samples == traversed.cost.leaf_samples, call
        assert sampled.shots == traversed.shots == plan.total_outcomes, call


def test_sample_leaves_rejects_gate_noise(qft5):
    noise = depolarizing_noise_model()
    plan = ManualPartitioner((4, 6)).plan(qft5, 24, noise)
    state = StatevectorSimulator().run(qft5).data
    with pytest.raises(ValueError, match="gate noise"):
        TQSimEngine(noise, seed=1).sample_leaves(state, plan)


# ---------------------------------------------------------------------------
# Pinned seeding-contract-v2 cases (non-random, exact expected draws)
# ---------------------------------------------------------------------------
def test_pinned_general_kraus_five_way_identity(qft5):
    """A pure general-Kraus model runs every path bitwise identically.

    Amplitude damping's branch probabilities depend on the state; each row
    still consumes one uniform per application from its own path-keyed
    stream, pre-drawn with the rest of the subcircuit's noise, and the
    vectorised Kraus update picks the branch the per-state sampler would.
    Pinned (not drawn) so it runs on every invocation, including the
    multiprocess leg.
    """
    noise = NoiseModel(
        single_qubit_channels=[AmplitudeDampingChannel(0.05)],
        two_qubit_channels=[AmplitudeDampingChannel(0.03)],
        name="amplitude-damping",
    )
    plan = ManualPartitioner((3, 4, 4)).plan(qft5, 48, noise)
    reference = TQSimEngine(noise, seed=1234, max_batch=1).run(
        qft5, 48, plan=plan
    )
    others = {
        "batched": TQSimEngine(noise, seed=1234).run(qft5, 48, plan=plan),
        "numpy": TQSimEngine(noise, seed=1234, backend="numpy").run(
            qft5, 48, plan=plan
        ),
        "serial": SerialDispatcher(noise, seed=1234, num_shards=3).run(
            qft5, 48, plan=plan
        ),
        "deep": SerialDispatcher(
            noise, seed=1234, num_shards=5, max_depth=2
        ).run(qft5, 48, plan=plan),
        "pooled": PoolDispatcher(
            noise, seed=1234, num_workers=2, num_shards=5, max_depth=2
        ).run(qft5, 48, plan=plan),
    }
    for name, result in others.items():
        assert result.counts == reference.counts, name
        assert _counter_tuple(result) == _counter_tuple(reference), name


def test_pinned_thermal_relaxation_and_phase_damping_with_readout(qft5):
    """The paper's other general-Kraus channels run every path bitwise.

    Thermal relaxation (four Kraus operators) and phase damping, with
    readout error, on a (3, 4, 2) tree: caps 1, 2, 3 and the default, the
    reference backend, both dispatchers (deep shards in the pool), and the
    per-shot baseline against the engine's one-layer plan at the same caps.
    Pinned (not drawn), so the random cases keep their draws.
    """
    noise = NoiseModel(
        single_qubit_channels=[
            ThermalRelaxationChannel(50.0, 30.0, 4.0), PhaseDampingChannel(0.05),
        ],
        two_qubit_channels=[
            ThermalRelaxationChannel(50.0, 30.0, 8.0), PhaseDampingChannel(0.08),
        ],
        readout_error=ReadoutError(0.02, 0.01),
        name="thermal+dephasing+readout",
    )
    plan = ManualPartitioner((3, 4, 2)).plan(qft5, 24, noise)
    reference = TQSimEngine(noise, seed=2718, max_batch=1).run(
        qft5, 24, plan=plan
    )
    assert len(reference.counts) > 1
    others = {
        f"cap {cap}": TQSimEngine(noise, seed=2718, max_batch=cap).run(
            qft5, 24, plan=plan
        )
        for cap in (2, 3, None)
    }
    others["numpy"] = TQSimEngine(noise, seed=2718, backend="numpy").run(
        qft5, 24, plan=plan
    )
    others["serial"] = SerialDispatcher(noise, seed=2718, num_shards=3).run(
        qft5, 24, plan=plan
    )
    with PoolDispatcher(
        noise, seed=2718, num_workers=2, num_shards=5, max_depth=2
    ) as pool:
        others["pooled"] = pool.run(qft5, 24, plan=plan)
    for name, result in others.items():
        assert result.counts == reference.counts, name
        assert _counter_tuple(result) == _counter_tuple(reference), name

    shots = 19  # a partial last chunk at caps 2 and 3
    baseline = BaselineNoisySimulator(noise, seed=2718).run(qft5, shots)
    assert len(baseline.counts) > 1
    for cap in (1, 2, 3, None):
        one_layer = TQSimEngine(noise, seed=2718, max_batch=cap).run(
            qft5, shots, partitioner=SingleShotPartitioner()
        )
        assert one_layer.counts == baseline.counts, cap
        assert _counter_tuple(one_layer) == _counter_tuple(baseline), cap


def test_pinned_mixed_channel_kinds_interleave_identically(qft5):
    """Mixed-unitary and general-Kraus events inside one subcircuit.

    Depolarizing (mixed-unitary) events and amplitude-damping
    (general-Kraus) applications each take one uniform per row from the
    *same* per-row counters, in event order, so one pre-drawn block serves
    both kinds and every chunk size matches one node at a time draw for
    draw.
    """
    noise = NoiseModel(
        single_qubit_channels=depolarizing_noise_model()
        .single_qubit_channels,
        two_qubit_channels=[AmplitudeDampingChannel(0.04)],
        name="depolarizing+damping",
    )
    plan = ManualPartitioner((4, 6)).plan(qft5, 24, noise)
    sequential = TQSimEngine(noise, seed=77, max_batch=1).run(
        qft5, 24, plan=plan
    )
    for batched in (
        TQSimEngine(noise, seed=77, max_batch=4).run(qft5, 24, plan=plan),
        TQSimEngine(noise, seed=77).run(qft5, 24, plan=plan),
        TQSimEngine(noise, seed=77, backend="numpy").run(qft5, 24, plan=plan),
    ):
        assert batched.counts == sequential.counts
        assert _counter_tuple(batched) == _counter_tuple(sequential)


def _frontier_case(qft5):
    noise = NoiseModel(
        single_qubit_channels=depolarizing_noise_model()
        .single_qubit_channels,
        two_qubit_channels=[AmplitudeDampingChannel(0.04)],
        readout_error=ReadoutError(0.02, 0.01),
        name="depolarizing+damping+readout",
    )
    plan = ManualPartitioner((3, 5, 2)).plan(qft5, 30, noise)
    sequential = TQSimEngine(noise, seed=31, max_batch=1).run(
        qft5, 30, plan=plan
    )
    return noise, plan, sequential


def test_pinned_frontier_chunks_straddle_parents(qft5):
    """Chunks spanning several parents change nothing a row draws.

    On a (3, 5, 2) tree, caps 2, 4 and 7 cut layers 1 and 2 mid-parent
    (layer 1's 15 nodes run as 8, 4 and 3 chunks), yet each row's draws
    depend only on its path key, so every cap and backend matches one node
    at a time bitwise.
    """
    noise, plan, sequential = _frontier_case(qft5)
    for options in ({"max_batch": 2}, {"max_batch": 4}, {"max_batch": 7}, {},
                    {"backend": "numpy"}):
        chunked = TQSimEngine(noise, seed=31, **options).run(
            qft5, 30, plan=plan
        )
        assert chunked.counts == sequential.counts, options
        assert _counter_tuple(chunked) == _counter_tuple(sequential), options


def _merged_shards(circuit, noise, plan, cap, ranges, seed=31):
    """Run each ``(layer, start, stop)`` range of run 0 as its own shard and
    merge the results."""
    run_key = run_root_key(seed)
    engine = TQSimEngine(noise, max_batch=cap)
    return merge_many([
        engine.run(circuit, plan.total_outcomes, plan=plan,
                   shard=(run_key, *frontier_range))
        for frontier_range in ranges
    ])


def test_pinned_deep_shards_split_mid_parent(qft5):
    """Layer-1 ranges that start mid-parent merge back bitwise.

    On the (3, 5, 2) tree, ranges ``[5, 7)`` and ``[7, 10)`` of layer 1 split
    the children of first-layer node 1; both run that ancestor, and only the
    range holding its first child accounts it.
    """
    noise, plan, sequential = _frontier_case(qft5)
    ranges = [(0, 0, 1), (1, 5, 7), (1, 7, 10), (0, 2, 3)]
    for cap in (1, 2, 4, 64):
        merged = _merged_shards(qft5, noise, plan, cap, ranges)
        assert merged.counts == sequential.counts, cap
        assert _counter_tuple(merged) == _counter_tuple(sequential), cap


@pytest.mark.parametrize("noise_choice", [0, 2, 3],
                         ids=["ideal", "depolarizing+readout", "damping"])
@pytest.mark.parametrize("arities", [(3, 5, 2), (2, 3, 4), (1, 7, 3)],
                         ids=str)
def test_random_frontier_partitions_merge_bitwise(qft5, arities,
                                                  noise_choice):
    """Any partition of any layer's frontier into ranges merges back into
    the full run's counts and counters, at every chunk cap."""
    noise = _noise_model(noise_choice)
    plan = ManualPartitioner(arities).plan(
        qft5, int(np.prod(arities)), noise
    )
    full = TQSimEngine(noise, seed=31, max_batch=1).run(
        qft5, plan.total_outcomes, plan=plan
    )
    rng = np.random.default_rng([noise_choice, *arities])
    for cap in (1, 4, 64):
        for layer in range(len(arities)):
            frontier = int(np.prod(arities[: layer + 1]))
            for _ in range(2):
                cuts = rng.choice(
                    np.arange(1, frontier),
                    size=int(rng.integers(frontier)),
                    replace=False,
                )
                bounds = [0, *sorted(int(cut) for cut in cuts), frontier]
                merged = _merged_shards(
                    qft5, noise, plan, cap,
                    [(layer, lo, hi) for lo, hi in zip(bounds, bounds[1:])],
                )
                case = (cap, layer, bounds)
                assert merged.counts == full.counts, case
                assert _counter_tuple(merged) == _counter_tuple(full), case
                assert merged.shots == full.shots, case


def test_pinned_path_keyed_draws_are_reproducible(qft5):
    """The same (circuit, plan, seed) always yields the same counts.

    Fresh engines, fresh processes and repeated runs of run-index 0 may
    never drift: outcome histograms are pure functions of the path keys.
    """
    noise = depolarizing_noise_model()
    noise.readout_error = ReadoutError(0.02, 0.01)
    plan = ManualPartitioner((4, 8)).plan(qft5, 32, noise)
    first = TQSimEngine(noise, seed=2026, backend="batched").run(
        qft5, 32, plan=plan
    )
    second = TQSimEngine(noise, seed=2026, backend="batched").run(
        qft5, 32, plan=plan
    )
    assert first.counts == second.counts
    # Consecutive runs of ONE engine advance the run index instead:
    # a fresh ensemble, not a replay.
    engine = TQSimEngine(noise, seed=2026, backend="batched")
    run0 = engine.run(qft5, 32, plan=plan)
    run1 = engine.run(qft5, 32, plan=plan)
    assert run0.counts == first.counts
    assert run1.counts != run0.counts


# ---------------------------------------------------------------------------
# Acceptance sweep: the ROADMAP's A0-starvation case, measured exhaustively
# ---------------------------------------------------------------------------
def test_low_arity_plan_deep_sharding_acceptance_matrix(qft5):
    """On a ``(2, 64)`` plan, deep-sharded ``PoolDispatcher`` runs are
    bitwise-identical to ``SerialDispatcher`` and to a single engine for
    worker counts {1, 2, 4} and max-depth {1, 2}."""
    noise = depolarizing_noise_model()
    noise.readout_error = ReadoutError(0.02)
    plan = ManualPartitioner((2, 64)).plan(qft5, 128, noise)
    single = TQSimEngine(noise, seed=97, backend="batched").run(
        qft5, 128, plan=plan
    )
    for max_depth in (1, 2):
        for workers in (1, 2, 4):
            serial = SerialDispatcher(
                noise, seed=97, num_shards=workers, max_depth=max_depth
            ).run(qft5, 128, plan=plan)
            pooled = PoolDispatcher(
                noise, seed=97, num_workers=workers, num_shards=workers,
                max_depth=max_depth,
            ).run(qft5, 128, plan=plan)
            for result in (serial, pooled):
                assert result.counts == single.counts, (
                    f"workers={workers} max_depth={max_depth}"
                )
                assert result.cost.matches(single.cost)
            # Depth 1 starves at A0=2 shards; depth 2 feeds every worker.
            expected_shards = min(workers, 2) if max_depth == 1 else workers
            assert (
                pooled.metadata["dispatch"]["num_shards"] == expected_shards
            )
