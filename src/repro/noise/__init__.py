"""Quantum error channels, noise models and trajectory sampling."""

from repro.noise.channels import (
    AmplitudeDampingChannel,
    DepolarizingChannel,
    KrausChannel,
    PauliChannel,
    PhaseDampingChannel,
    ReadoutError,
    ThermalRelaxationChannel,
    compose_channels,
)
from repro.noise.model import NoiseEvent, NoiseModel
from repro.noise.sycamore import (
    NOISE_MODEL_CODES,
    amplitude_damping_noise_model,
    combined_noise_model,
    depolarizing_noise_model,
    noise_model_by_code,
    phase_damping_noise_model,
    sycamore_noise_model,
    thermal_relaxation_noise_model,
)
from repro.noise.trajectory import (
    NoiseRealization,
    apply_noise_realization_event,
    sample_channel_on_state,
    sample_noise_realization,
)

__all__ = [
    "KrausChannel",
    "PauliChannel",
    "DepolarizingChannel",
    "AmplitudeDampingChannel",
    "PhaseDampingChannel",
    "ThermalRelaxationChannel",
    "ReadoutError",
    "compose_channels",
    "NoiseEvent",
    "NoiseModel",
    "sycamore_noise_model",
    "depolarizing_noise_model",
    "thermal_relaxation_noise_model",
    "amplitude_damping_noise_model",
    "phase_damping_noise_model",
    "combined_noise_model",
    "noise_model_by_code",
    "NOISE_MODEL_CODES",
    "sample_channel_on_state",
    "NoiseRealization",
    "sample_noise_realization",
    "apply_noise_realization_event",
]
