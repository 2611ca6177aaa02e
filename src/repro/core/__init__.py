"""TQSim core: trees, partitioners, the baseline simulator and the engine."""

from repro.core.backends import (
    A100,
    CORE_I7,
    DEVICE_PROFILES,
    RTX_3060,
    RYZEN_3800X,
    V100,
    XEON_6130,
    XEON_6138,
    Backend,
    DeviceProfile,
    NumpyBackend,
    OptimizedNumpyBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.core.baseline import BaselineNoisySimulator
from repro.core.batched import BatchedTrajectorySimulator
from repro.core.copycost import (
    DEFAULT_COPY_COST_IN_GATES,
    MODELED_SYSTEM_COPY_COSTS,
)
from repro.core.costmodel import CostModel, calibrate_cost_model, get_cost_model
from repro.core.engine import TQSimEngine
from repro.core.partitioners import (
    CircuitPartitioner,
    DynamicCircuitPartitioner,
    ExponentialCircuitPartitioner,
    ManualPartitioner,
    PartitionPlan,
    SingleShotPartitioner,
    UniformCircuitPartitioner,
)
from repro.core.pathrng import (
    PathStream,
    child_key,
    child_keys,
    root_key_from_seed,
    run_root_key,
)
from repro.core.results import (
    CostCounters,
    SimulationResult,
    merge_many,
    merge_results,
)
from repro.core.sampling_theory import (
    DEFAULT_CONFIDENCE_Z,
    DEFAULT_MARGIN_OF_ERROR,
    combined_error_rate,
    margin_of_error_for_sample,
    minimum_sample_size,
    standard_error,
)
from repro.core.tree import TreeStructure

__all__ = [
    "TreeStructure",
    "CostCounters",
    "SimulationResult",
    "merge_results",
    "merge_many",
    "PartitionPlan",
    "CircuitPartitioner",
    "SingleShotPartitioner",
    "UniformCircuitPartitioner",
    "ExponentialCircuitPartitioner",
    "ManualPartitioner",
    "DynamicCircuitPartitioner",
    "BaselineNoisySimulator",
    "BatchedTrajectorySimulator",
    "TQSimEngine",
    "PathStream",
    "child_key",
    "child_keys",
    "root_key_from_seed",
    "run_root_key",
    "CostModel",
    "calibrate_cost_model",
    "get_cost_model",
    "Backend",
    "NumpyBackend",
    "OptimizedNumpyBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "DeviceProfile",
    "DEVICE_PROFILES",
    "XEON_6130",
    "XEON_6138",
    "CORE_I7",
    "RYZEN_3800X",
    "RTX_3060",
    "V100",
    "A100",
    "MODELED_SYSTEM_COPY_COSTS",
    "DEFAULT_COPY_COST_IN_GATES",
    "combined_error_rate",
    "minimum_sample_size",
    "standard_error",
    "margin_of_error_for_sample",
    "DEFAULT_CONFIDENCE_Z",
    "DEFAULT_MARGIN_OF_ERROR",
]
