"""The multiprocess shot-dispatch subsystem.

The load-bearing contract: sharded execution is *exact*.  Serial dispatch,
pooled dispatch and a single engine run with the same root seed produce
bitwise-identical merged counts and cost counters, for any shard count and
any split depth, through both registry names of the optimized backend.
"""

import math
import multiprocessing
import time

import pytest

from repro.core import (
    ManualPartitioner,
    TQSimEngine,
    UniformCircuitPartitioner,
)
from repro.core.copycost import DEFAULT_COPY_COST_IN_GATES
from repro.core.engine import frontier_windows
from repro.core.pathrng import run_root_key
from repro.dispatch import (
    FaultInjector,
    PoolDispatcher,
    SerialDispatcher,
    ShardPlanner,
    ShardRetryExhaustedError,
    ShardSpec,
    run_shard,
)
from repro.metrics import total_variation_distance
from repro.noise import ReadoutError, depolarizing_noise_model
from repro.obs import Tracer
from repro.statevector import StatevectorSimulator


SHOTS = 180
PARTITIONER = ManualPartitioner((12, 5, 3))


def _noise():
    model = depolarizing_noise_model()
    model.readout_error = ReadoutError(0.02)
    return model


def _ranges(shards):
    return [(s.layer, s.start, s.stop) for s in shards]


def _outcomes(spec):
    """Leaves below a spec's range."""
    arities = spec.plan.tree.arities
    return (spec.stop - spec.start) * math.prod(arities[spec.layer + 1 :])


# ---------------------------------------------------------------------------
# ShardPlanner
# ---------------------------------------------------------------------------
def test_planner_splits_first_layer_evenly(qft5):
    planner = ShardPlanner()
    shards = planner.plan_shards(qft5, SHOTS, 4, seed=3,
                                 partitioner=PARTITIONER)
    assert _ranges(shards) == [(0, 0, 3), (0, 3, 6), (0, 6, 9), (0, 9, 12)]
    assert all(s.plan.tree.arities == (12, 5, 3) for s in shards)
    assert sum(_outcomes(s) for s in shards) == 12 * 5 * 3


def test_planner_uneven_split_front_loads_remainder(qft5):
    shards = ShardPlanner().plan_shards(qft5, SHOTS, 5, seed=3,
                                        partitioner=PARTITIONER)
    assert _ranges(shards) == [
        (0, 0, 3), (0, 3, 6), (0, 6, 8), (0, 8, 10), (0, 10, 12),
    ]


def test_planner_rebalances_instead_of_empty_shards(qft5):
    """Regression: more shards than subtrees must never yield empty shards.

    At ``max_depth=1`` the decomposition degenerates to one first-layer
    subtree per shard; with ``strict=True`` the overflow raises instead.
    """
    plan = ManualPartitioner((3, 4)).plan(qft5, 12, None)
    shards = ShardPlanner().plan_shards(qft5, 12, 8, seed=0, plan=plan)
    assert _ranges(shards) == [(0, 0, 1), (0, 1, 2), (0, 2, 3)]
    with pytest.raises(ValueError, match="non-empty"):
        ShardPlanner().plan_shards(qft5, 12, 8, seed=0, plan=plan,
                                   strict=True)
    # Descending one layer supplies 12 units, so 8 shards fit (and even the
    # strict request succeeds).
    deep = ShardPlanner(max_depth=2).plan_shards(qft5, 12, 8, seed=0,
                                                 plan=plan, strict=True)
    assert len(deep) == 8
    assert sum(_outcomes(s) for s in deep) == 12
    with pytest.raises(ValueError, match="non-empty"):
        ShardPlanner(max_depth=2).plan_shards(qft5, 12, 13, seed=0,
                                              plan=plan, strict=True)


def test_planner_keys_match_engine_chain(qft5):
    """Every shard carries the engine's run-0 key, and the ranges tile the
    first layer in order."""
    shards = ShardPlanner().plan_shards(qft5, SHOTS, 3, seed=17,
                                        partitioner=PARTITIONER)
    assert all(s.run_key == run_root_key(17) for s in shards)
    assert _ranges(shards) == [(0, 0, 4), (0, 4, 8), (0, 8, 12)]


def test_planner_validates_arguments(qft5):
    planner = ShardPlanner()
    with pytest.raises(ValueError):
        planner.plan_shards(qft5, SHOTS, 0, seed=1)
    with pytest.raises(ValueError):
        planner.plan_shards(qft5, 0, 2, seed=1)
    with pytest.raises(ValueError):
        planner.plan_shards(qft5, SHOTS, 2, seed=1, max_depth=0)
    with pytest.raises(ValueError):
        ShardPlanner(max_depth=0)
    foreign = ManualPartitioner((4,)).plan(qft5[0:3], 4, None)
    with pytest.raises(ValueError):
        planner.plan_shards(qft5, SHOTS, 2, seed=1, plan=foreign)


@pytest.mark.parametrize(
    "layer, start, stop",
    [(2, 0, 1), (-1, 0, 1), (0, 2, 2), (1, 5, 13), (0, -1, 2)],
    ids=["layer-past-tree", "negative-layer", "empty", "stop-past-frontier",
         "negative-start"],
)
def test_shard_ranges_are_validated(qft5, layer, start, stop):
    """A range must be a non-empty slice of one layer of the plan's tree
    (here 4 first-layer and 12 second-layer nodes)."""
    plan = ManualPartitioner((4, 3)).plan(qft5, 12, None)
    with pytest.raises(ValueError):
        ShardSpec(index=0, num_shards=1, circuit=qft5, plan=plan,
                  run_key=run_root_key(0), layer=layer, start=start,
                  stop=stop, noise_model=None, requested_shots=12)
    with pytest.raises(ValueError):
        TQSimEngine().run(qft5, 12, plan=plan,
                          shard=(run_root_key(0), layer, start, stop))


# ---------------------------------------------------------------------------
# Serial dispatch: bitwise equivalence with a single engine run
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["optimized", "batched"])
@pytest.mark.parametrize("num_shards", [1, 2, 5])
def test_serial_dispatch_bitwise_identical_to_single_run(
    qft5, backend, num_shards
):
    noise = _noise()
    single = TQSimEngine(noise, seed=11, backend=backend).run(
        qft5, SHOTS, partitioner=PARTITIONER
    )
    dispatched = SerialDispatcher(
        noise, seed=11, num_shards=num_shards, backend=backend
    ).run(qft5, SHOTS, partitioner=PARTITIONER)
    assert dispatched.counts == single.counts
    assert dispatched.cost.matches(single.cost)
    assert dispatched.shots == single.shots
    assert dispatched.metadata["dispatch"]["mode"] == "serial"
    assert dispatched.metadata["dispatch"]["num_shards"] == min(num_shards, 12)


def test_serial_dispatch_noiseless_matches_single_run(qft5):
    single = TQSimEngine(seed=5).run(
        qft5, 60, partitioner=UniformCircuitPartitioner(2)
    )
    dispatched = SerialDispatcher(seed=5, num_shards=3, backend="optimized").run(
        qft5, 60, partitioner=UniformCircuitPartitioner(2)
    )
    assert dispatched.counts == single.counts
    assert dispatched.cost.matches(single.cost)


# ---------------------------------------------------------------------------
# Pool dispatch: real processes, same exactness
# ---------------------------------------------------------------------------
def test_pool_dispatch_bitwise_identical_to_serial_and_single(qft5):
    noise = _noise()
    single = TQSimEngine(noise, seed=23, backend="batched").run(
        qft5, SHOTS, partitioner=PARTITIONER
    )
    serial = SerialDispatcher(noise, seed=23, num_shards=3).run(
        qft5, SHOTS, partitioner=PARTITIONER
    )
    pooled = PoolDispatcher(noise, seed=23, num_workers=2, num_shards=3).run(
        qft5, SHOTS, partitioner=PARTITIONER
    )
    assert pooled.counts == serial.counts == single.counts
    assert pooled.cost.matches(single.cost)
    assert serial.cost.matches(single.cost)
    assert pooled.metadata["dispatch"]["mode"] == "pool"
    assert pooled.metadata["dispatch"]["num_workers"] == 2


def test_pool_dispatch_run_to_run_deterministic(qft5):
    noise = _noise()
    dispatcher = PoolDispatcher(noise, seed=31, num_workers=2, num_shards=4)
    first = dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
    second = dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
    assert first.counts == second.counts
    assert first.cost.matches(second.cost)
    shards = first.metadata["shards"]
    assert [s["shard_index"] for s in shards] == [0, 1, 2, 3]


def _child_pids():
    return {process.pid for process in multiprocessing.active_children()}


def _exited(pids, seconds=5.0):
    """True once none of ``pids`` is a live child (polled briefly)."""
    deadline = time.monotonic() + seconds
    while pids & _child_pids():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def test_pool_dispatcher_keeps_its_workers_between_runs(qft5):
    """A repeated run reuses the pool, so it pays no process start-up or
    teardown; leaving the ``with`` block shuts the workers down."""
    noise = _noise()
    serial = SerialDispatcher(noise, seed=29, num_shards=2).run(
        qft5, SHOTS, partitioner=PARTITIONER
    )
    before = _child_pids()
    with PoolDispatcher(
        noise, seed=29, num_workers=2, num_shards=2
    ) as dispatcher:
        first = dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
        workers = _child_pids() - before
        second = dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
        assert len(workers) == 2
        assert _child_pids() - before == workers
    assert _exited(workers)
    for result in (first, second):
        assert result.counts == serial.counts
        assert result.cost.matches(serial.cost)


def test_dropping_a_pool_dispatcher_shuts_its_workers_down(qft5):
    before = _child_pids()
    dispatcher = PoolDispatcher(_noise(), seed=29, num_workers=2, num_shards=2)
    dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
    workers = _child_pids() - before
    assert len(workers) == 2
    del dispatcher
    assert _exited(workers)


def test_pool_dispatcher_starts_a_fresh_pool_after_a_failed_run(qft5):
    noise = _noise()
    dispatcher = PoolDispatcher(
        noise, seed=29, num_workers=2, num_shards=2,
        fault_injector=FaultInjector(raises=((0, 0),)), max_retries=0,
    )
    with pytest.raises(ShardRetryExhaustedError):
        dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
    dispatcher.fault_injector = None
    result = dispatcher.run(qft5, SHOTS, partitioner=PARTITIONER)
    serial = SerialDispatcher(noise, seed=29, num_shards=2).run(
        qft5, SHOTS, partitioner=PARTITIONER
    )
    assert result.counts == serial.counts
    dispatcher.close()


def test_pool_dispatch_tvd_consistent_under_noise(bv6):
    """Sharding must not change the physics, only the placement."""
    noise = _noise()
    ideal = StatevectorSimulator().probabilities(bv6)
    plan = ManualPartitioner((30, 8)).plan(bv6, 240, noise)
    pooled = PoolDispatcher(noise, seed=41, num_workers=2, num_shards=2).run(
        bv6, 240, plan=plan
    )
    single = TQSimEngine(noise, seed=41, backend="batched").run(
        bv6, 240, plan=plan
    )
    assert pooled.counts == single.counts  # bitwise, so trivially TVD-equal
    assert total_variation_distance(ideal, pooled.probabilities()) < 0.25


def test_dispatch_metadata_accounting(qft5):
    noise = _noise()
    result = SerialDispatcher(noise, seed=2, num_shards=3).run(
        qft5, SHOTS, partitioner=PARTITIONER
    )
    dispatch = result.metadata["dispatch"]
    assert dispatch["num_shards"] == 3
    assert len(dispatch["shard_wall_times"]) == 3
    assert dispatch["shard_seconds_total"] == pytest.approx(
        sum(dispatch["shard_wall_times"])
    )
    # The merged result's wall time is the dispatcher's elapsed time ...
    assert result.cost.wall_time_seconds == pytest.approx(
        dispatch["wall_time_seconds"]
    )
    # ... and the per-shard provenance survives the metadata merge.
    ranges = [s["shard_range"] for s in result.metadata["shards"]]
    assert ranges == [(0, 0, 4), (0, 4, 8), (0, 8, 12)]
    assert result.metadata["requested_shots"] == SHOTS
    assert dispatch["shard_depth"] == 0
    assert dispatch["replayed_prefix_gates"] == 0
    assert len(dispatch["shard_estimated_costs"]) == 3


def test_run_shard_entry_point_is_self_contained(qft5):
    """One spec, one result — the exact unit a worker process executes."""
    noise = _noise()
    shards = ShardPlanner(noise_model=noise).plan_shards(
        qft5, SHOTS, 3, seed=7, partitioner=PARTITIONER
    )
    result = run_shard(shards[1])
    assert result.shots == 4 * 5 * 3
    assert result.metadata["shard_index"] == 1
    assert result.metadata["num_shards"] == 3
    assert sum(result.counts.values()) == 4 * 5 * 3


def test_dispatcher_argument_validation():
    with pytest.raises(ValueError):
        SerialDispatcher(num_shards=0)
    with pytest.raises(ValueError):
        PoolDispatcher(num_workers=0)
    with pytest.raises(ValueError):
        SerialDispatcher(max_depth=0)
    with pytest.raises(ValueError):
        PoolDispatcher(max_depth=0)


# ---------------------------------------------------------------------------
# Deep (path-based) sharding: splitting layers below the first
# ---------------------------------------------------------------------------
def test_deep_planner_picks_shallowest_sufficient_depth(qft5):
    plan = ManualPartitioner((2, 64)).plan(qft5, 128, None)
    planner = ShardPlanner(max_depth=2)
    # Two shards fit the first layer: no descent, no prefix replay.
    shallow = planner.plan_shards(qft5, 128, 2, seed=5, plan=plan)
    assert _ranges(shallow) == [(0, 0, 1), (0, 1, 2)]
    assert all(s.replayed_prefix_gates == 0 for s in shallow)
    # Sixteen shards exceed A0=2: the planner splits the 128-node second
    # layer, eight nodes per shard, each running its one ancestor.
    deep = planner.plan_shards(qft5, 128, 16, seed=5, plan=plan)
    assert _ranges(deep) == [(1, start, start + 8)
                             for start in range(0, 128, 8)]
    assert all(
        s.replayed_prefix_gates == plan.subcircuit_lengths[0] for s in deep
    )
    assert all(s.estimated_cost > 0 for s in deep)


def test_deep_planner_counts_each_prefix_node_exactly_once(qft5):
    """Shards splitting a node's children all run it; exactly one of them,
    the one holding its first child, accounts its work."""
    plan = ManualPartitioner((3, 4, 2)).plan(qft5, 24, None)
    shards = ShardPlanner(max_depth=3).plan_shards(
        qft5, 24, 10, seed=2, plan=plan
    )
    # Depth 1 split (12 units >= 10 shards): the ancestors are the three
    # first-layer nodes.
    assert {s.layer for s in shards} == {1}
    owners: dict[int, int] = {}
    for shard in shards:
        lo, hi, booked = frontier_windows(
            plan.tree.arities, shard.layer, shard.start, shard.stop
        )[0]
        for node in range(booked, hi):
            owners[node] = owners.get(node, 0) + 1
    assert owners == {0: 1, 1: 1, 2: 1}


def test_deep_planner_keys_follow_engine_chain(qft5):
    """Deep shards carry the same run key and tile the split layer."""
    plan = ManualPartitioner((2, 6)).plan(qft5, 12, None)
    shards = ShardPlanner(max_depth=2).plan_shards(
        qft5, 12, 4, seed=21, plan=plan
    )
    assert all(s.run_key == run_root_key(21) for s in shards)
    assert _ranges(shards) == [(1, 0, 3), (1, 3, 6), (1, 6, 9), (1, 9, 12)]


def test_deep_serial_dispatch_bitwise_identical_to_single_run(qft5):
    noise = _noise()
    plan = ManualPartitioner((2, 9)).plan(qft5, 18, noise)
    single = TQSimEngine(noise, seed=37, backend="batched").run(
        qft5, 18, plan=plan
    )
    for num_shards in (3, 5, 18):
        deep = SerialDispatcher(
            noise, seed=37, num_shards=num_shards, max_depth=2
        ).run(qft5, 18, plan=plan)
        assert deep.counts == single.counts
        assert deep.cost.matches(single.cost)
        assert deep.metadata["dispatch"]["shard_depth"] == 1


def test_deep_pool_dispatch_bitwise_identical_and_tagged(qft5):
    noise = _noise()
    plan = ManualPartitioner((2, 9)).plan(qft5, 18, noise)
    single = TQSimEngine(noise, seed=41, backend="batched").run(
        qft5, 18, plan=plan
    )
    pooled = PoolDispatcher(
        noise, seed=41, num_workers=2, num_shards=4, max_depth=2
    ).run(qft5, 18, plan=plan)
    assert pooled.counts == single.counts
    assert pooled.cost.matches(single.cost)
    dispatch = pooled.metadata["dispatch"]
    assert dispatch["num_shards"] == 4
    assert dispatch["max_depth"] == 2
    assert dispatch["replayed_prefix_gates"] > 0
    ranges = [s["shard_range"] for s in pooled.metadata["shards"]]
    assert [r[0] for r in ranges] == [1, 1, 1, 1]
    assert ranges[0][1] == 0 and ranges[-1][2] == 18
    assert all(a[2] == b[1] for a, b in zip(ranges, ranges[1:]))


def test_run_shard_deep_spec_is_self_contained(qft5):
    noise = _noise()
    plan = ManualPartitioner((2, 9)).plan(qft5, 18, noise)
    shards = ShardPlanner(noise_model=noise, max_depth=2).plan_shards(
        qft5, 18, 4, seed=7, plan=plan
    )
    result = run_shard(shards[2])
    assert result.metadata["shard_index"] == 2
    assert result.metadata["shard_depth"] == 1
    assert sum(result.counts.values()) == _outcomes(shards[2])
    assert result.metadata["shard_replayed_prefix_gates"] == \
        shards[2].replayed_prefix_gates


@pytest.mark.parametrize("num_shards", [7, 8, 12, 24])
def test_deep_shard_estimates_charge_each_ancestor_once(qft5, num_shards):
    """A range is priced as its units plus each distinct ancestor above it
    once (a subcircuit each, plus a state copy below layer 0), counted
    here by brute force over its nodes."""
    plan = ManualPartitioner((2, 3, 4)).plan(qft5, 24, None)
    copy = DEFAULT_COPY_COST_IN_GATES
    lengths = plan.subcircuit_lengths
    shards = ShardPlanner(max_depth=3).plan_shards(
        qft5, 24, num_shards, seed=0, plan=plan
    )
    assert {s.layer for s in shards} == {2}
    for shard in shards:
        nodes = range(shard.start, shard.stop)
        roots = {node // 12 for node in nodes}
        parents = {node // 4 for node in nodes}
        assert shard.estimated_cost == (
            len(nodes) * (lengths[2] + copy)
            + len(roots) * lengths[0]
            + len(parents) * (lengths[1] + copy)
        )


def test_deep_shard_runs_each_shared_ancestor_once(qft5):
    """A shard whose range crosses parent boundaries runs each ancestor once.

    Split a (2, 3, 4) plan at depth 2 into 8 shards: shard ranges cross
    layer-1 parent boundaries, so one shard covers children of several
    nodes under the same first-layer node — that shared ancestor runs once,
    which `replayed_prefix_gates` and the traced rows reflect, and the
    merged result stays bitwise the single run's.
    """
    noise = _noise()
    plan = ManualPartitioner((2, 3, 4)).plan(qft5, 24, noise)
    shards = ShardPlanner(noise_model=noise, max_depth=3).plan_shards(
        qft5, 24, 8, seed=51, plan=plan
    )
    assert {s.layer for s in shards} == {2}
    assert any((s.stop - 1) // 4 > s.start // 4 for s in shards)
    lengths = plan.subcircuit_lengths
    for shard in shards:
        nodes = range(shard.start, shard.stop)
        ancestors = [{node // 12 for node in nodes},
                     {node // 4 for node in nodes}]
        assert shard.replayed_prefix_gates == sum(
            len(layer) * length for layer, length in zip(ancestors, lengths)
        )
        tracer = Tracer()
        TQSimEngine(noise, max_batch=1, tracer=tracer).run(
            qft5, 24, plan=plan,
            shard=(shard.run_key, shard.layer, shard.start, shard.stop),
        )
        rows = [0, 0, 0]
        for span in tracer.spans:
            if span.name == "engine.subcircuit":
                rows[span.attributes["layer"]] += span.attributes["rows"]
        assert rows == [*map(len, ancestors), shard.stop - shard.start]
    single = TQSimEngine(noise, seed=51, backend="batched").run(
        qft5, 24, plan=plan
    )
    deep = SerialDispatcher(noise, seed=51, num_shards=8, max_depth=3).run(
        qft5, 24, plan=plan
    )
    assert deep.counts == single.counts
    assert deep.cost.matches(single.cost)
