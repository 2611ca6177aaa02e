"""State-copy cost constants (paper Section 3.6 and Figure 10).

TQSim's partitioner needs to know how expensive copying a statevector is
relative to applying one gate on the same machine.  The paper profiles this
ratio on six CPU/GPU systems (Figure 10); this module holds the paper's
reported values as modeled presets and the analytic default.  The local
machine's ratio is measured by the calibrated cost model
(:attr:`~repro.core.costmodel.CostModel.copy_cost_in_gates`).
"""

from __future__ import annotations

__all__ = [
    "MODELED_SYSTEM_COPY_COSTS",
    "DEFAULT_COPY_COST_IN_GATES",
]

#: Figure 10 (approximate read-off): state-copy cost normalised to one gate
#: execution on the same machine.  Server CPUs pay the most; HBM2 GPUs the
#: least.
MODELED_SYSTEM_COPY_COSTS: dict[str, float] = {
    "rtx3060_desktop_gpu": 10.0,
    "ryzen_3800x_desktop_cpu": 13.0,
    "core_i7_desktop_cpu": 16.0,
    "xeon_6138_server_cpu": 40.0,
    "xeon_6130_server_cpu": 45.0,
    "v100_server_gpu": 5.0,
}

#: Default used by DCP when no profile is supplied: the paper's primary
#: evaluation platform is the Xeon 6130 server, but the pure-NumPy substrate
#: here behaves much closer to a desktop CPU, so a measured value should be
#: preferred whenever available.
DEFAULT_COPY_COST_IN_GATES = 20.0
