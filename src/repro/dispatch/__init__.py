"""Multiprocess shot dispatch: shard the simulation tree across workers.

The paper's Section 5.3 scales tree-based trajectory simulation across the
nodes of a CPU cluster; :mod:`repro.distributed` models that analytically.
This package *executes* it on one machine: the tree is split into shards
(:class:`ShardPlanner` / :class:`ShardSpec`, each a contiguous range of one
layer's flattened frontier), each shard runs in a worker process through
the module-level :func:`run_shard` entry point (:class:`PoolDispatcher`) or
in-process (:class:`SerialDispatcher`), and the shard results fold back
into a single :class:`~repro.core.results.SimulationResult` via
:func:`~repro.core.results.merge_many`.

Classic sharding slices the first-layer arity; when that arity is smaller
than the worker pool the planner descends (``max_depth``) and splits a
deeper layer's frontier, with a load-aware balancer that prices the
ancestor prefix each shard runs in gate-equivalents.

Per-node counter streams addressed by tree path (64-bit keys derived
statelessly from one root key; see :mod:`repro.core.pathrng`) make every
decomposition exact: serial, pooled and single-engine execution of the same
root seed produce bitwise-identical merged counts and cost counters, for any
shard count, any split depth, any backend and any worker scheduling order.

That exactness also powers the pool dispatcher's supervision loop: its
retries, speculative re-shards
(:func:`~repro.dispatch.planner.split_shard_spec`) and crash-recovery
re-executions all reproduce their shard's counts bitwise, so the merged
result is identical whatever faults occurred along the way.  Failures
surface as typed :class:`DispatchError` subclasses
(:mod:`repro.dispatch.faults`), and the deterministic :class:`FaultInjector`
drives the fault-injection tests and benchmarks.
"""

from repro.core.pathrng import child_key
from repro.dispatch.dispatchers import (
    Dispatcher,
    PoolDispatcher,
    SerialDispatcher,
)
from repro.dispatch.faults import (
    DispatchError,
    FaultInjector,
    InjectedFaultError,
    ShardRetryExhaustedError,
    ShardTimeoutError,
)
from repro.dispatch.planner import ShardPlanner, ShardSpec, split_shard_spec
from repro.dispatch.worker import run_shard

__all__ = [
    "Dispatcher",
    "SerialDispatcher",
    "PoolDispatcher",
    "ShardPlanner",
    "ShardSpec",
    "child_key",
    "run_shard",
    "split_shard_spec",
    "DispatchError",
    "ShardTimeoutError",
    "ShardRetryExhaustedError",
    "InjectedFaultError",
    "FaultInjector",
]
