"""States holding NaN or inf are rejected, never sampled.

Every comparison with NaN is false, so a zero check written ``total <= 0``
lets a NaN state through to a sampler that then returns counts.  Each
weight check must instead require a finite, positive total and raise the
``ValueError`` before anything is written.
"""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.circuits.circuit import Circuit
from repro.circuits.library import qft_circuit
from repro.core import BaselineNoisySimulator, TQSimEngine
from repro.noise import AmplitudeDampingChannel, noise_model_by_code
from repro.noise.model import NoiseEvent
from repro.serve import SimulationRequest, SimulationServer
from repro.statevector.sampling import inverse_cdf_index, inverse_cdf_rows

#: ``h q0; rx(nan) q1; cx q0,q1``: every amplitude is NaN after the rx.
NAN_CIRCUIT = Circuit(2).h(0).rx(float("nan"), 1).cx(0, 1)
NOISE_CODES = [None, "ADR"]
MESSAGE = "not finite and positive"


def _noise(code):
    return None if code is None else noise_model_by_code(code)


@pytest.mark.parametrize("code", NOISE_CODES)
@pytest.mark.parametrize("backend", ["optimized", "numpy"])
@pytest.mark.parametrize("cap", [1, 64])
def test_engine_rejects_a_nan_state(code, backend, cap):
    engine = TQSimEngine(_noise(code), seed=1, backend=backend, max_batch=cap)
    with pytest.raises(ValueError, match=MESSAGE):
        engine.run(NAN_CIRCUIT, 64)


@pytest.mark.parametrize("code", NOISE_CODES)
def test_baseline_rejects_a_nan_state(code):
    with pytest.raises(ValueError, match=MESSAGE):
        BaselineNoisySimulator(_noise(code), seed=1).run(NAN_CIRCUIT, 16)


@pytest.mark.parametrize("code", NOISE_CODES)
def test_serve_answers_a_nan_state_with_an_error(code):
    with SimulationServer() as server:
        response = server.handle(
            SimulationRequest(circuit=NAN_CIRCUIT, noise=code, shots=64)
        )
    assert response.status == "error"
    assert MESSAGE in response.error
    assert not response.counts


def test_serve_never_samples_a_non_finite_cached_state():
    """A poisoned warm-path state falls back to the cold run."""
    circuit = qft_circuit(4)
    with SimulationServer() as server:
        cold = server.handle(SimulationRequest(circuit=circuit, shots=64))
        fused_hash = cold.metadata["serve"]["fused_hash"]
        final = server.caches.prefix.get(fused_hash)
        server.caches.prefix.put(fused_hash, np.full_like(final, np.nan))
        again = server.handle(SimulationRequest(circuit=circuit, shots=64))
    assert again.ok and not again.cached
    assert again.counts == cold.counts


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_inverse_cdf_lookups_reject_non_finite_totals(bad):
    cumulative = np.array([0.25, bad])
    with pytest.raises(ValueError, match=MESSAGE):
        inverse_cdf_index(cumulative, 0.5)
    rows = np.array([[0.5, 1.0], [0.25, bad]])
    with pytest.raises(ValueError, match=MESSAGE):
        inverse_cdf_rows(rows, np.array([0.5, 0.5]))


@pytest.mark.parametrize("backend", ["optimized", "numpy"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kraus_step_rejects_a_non_finite_row_before_writing(bad, backend):
    block = np.full((5, 8), 1 / np.sqrt(8), dtype=complex)
    block[3, 2] = bad
    before = block.copy()
    event = NoiseEvent(AmplitudeDampingChannel(0.2), (1,))
    with pytest.raises(ValueError, match=MESSAGE):
        get_backend(backend).apply_noise_events_uniforms(
            block, [event], np.full((5, 1), 0.5)
        )
    np.testing.assert_array_equal(block, before)
