"""Figure 10: state-copy cost normalised to one gate execution.

Paper result: copying a statevector costs ~10 gate executions on a desktop
GPU, ~40–45 on the Xeon server CPUs, and the least on the HBM2-equipped V100;
the value is roughly width-independent, so an averaged copy cost is used by
the partitioner.  The local substrate is measured by the calibrated
:class:`~repro.core.costmodel.CostModel` at each profiled width — the same
calibration the planners consume, whose ``copy_cost_in_gates`` is one state
copy over one gate on one node — and shown next to the modeled values of the
paper's six systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from repro.core.backends import DEVICE_PROFILES
from repro.core.copycost import MODELED_SYSTEM_COPY_COSTS
from repro.core.costmodel import CostModel, get_cost_model
from repro.experiments.common import DEFAULT_CONFIG, ExperimentConfig

__all__ = ["CopyCostResult", "run"]


@dataclass(frozen=True)
class CopyCostResult:
    """Measured local copy cost plus modeled values for the paper's systems.

    ``cost_models`` holds the calibrated model of the optimized backend at
    each profiled width, and ``local_average`` the mean of their copy costs
    in gate executions.
    """

    cost_models: dict[int, CostModel]
    local_average: float
    paper_systems: dict[str, float]
    modeled_profiles: dict[str, float]


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> CopyCostResult:
    """Profile the local machine and tabulate the modeled systems."""
    widths = sorted(
        {w for w in (8, 10, 12, config.max_qubits) if w >= 6}
    )
    cost_models = {width: get_cost_model("optimized", width) for width in widths}
    modeled = {
        name: profile_obj.copy_cost_in_gates(20)
        for name, profile_obj in DEVICE_PROFILES.items()
    }
    return CopyCostResult(
        cost_models=cost_models,
        local_average=mean(
            model.copy_cost_in_gates for model in cost_models.values()
        ),
        paper_systems=dict(MODELED_SYSTEM_COPY_COSTS),
        modeled_profiles=modeled,
    )
