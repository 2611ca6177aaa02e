"""Calibration microbenchmark: measure the per-primitive cost model.

Times one full :func:`~repro.core.costmodel.calibrate_cost_model` pass on the
default backend at the acceptance width and prints the resulting model — the
per-call, per-batch-row, per-copy and per-sample costs the calibrated
partition search and the shard balancer consume.  The calibrated model is
persisted as a JSON artifact (``REPRO_CALIBRATION_CACHE``, default
``calibration.json`` next to this file) so CI can diff and archive the
numbers across runs.
"""

import os
from pathlib import Path

from conftest import print_table

from repro.core.costmodel import (
    DEFAULT_CALIBRATION_QUBITS,
    clear_cost_model_memory_cache,
    get_cost_model,
    load_cost_model_cache,
)

ARTIFACT = os.environ.get(
    "REPRO_CALIBRATION_CACHE",
    str(Path(__file__).resolve().parent / "calibration.json"),
)


def test_costmodel_calibration(benchmark):
    clear_cost_model_memory_cache()

    def calibrate():
        # refresh=True forces a real measurement pass every round; the
        # artifact still ends up with the final (freshest) model.
        return get_cost_model(
            "optimized",
            DEFAULT_CALIBRATION_QUBITS,
            cache_path=ARTIFACT,
            refresh=True,
        )

    model = benchmark.pedantic(calibrate, rounds=1, iterations=1)
    print_table(
        f"Calibrated cost model — optimized backend, "
        f"{DEFAULT_CALIBRATION_QUBITS} qubits",
        [
            {"primitive": "copy_ns", "value": model.copy_ns},
            {"primitive": "batch_overhead_ns", "value": model.batch_overhead_ns},
            {"primitive": "batch_row_ns", "value": model.batch_row_ns},
            {"primitive": "sample_ns", "value": model.sample_ns},
            {"primitive": "one_node_gate_ns", "value": model.one_node_gate_ns},
            {"primitive": "copy_cost_in_gates", "value": model.copy_cost_in_gates},
        ],
    )
    # Sanity contract, not a performance assertion: every primitive is
    # positive and the artifact round-trips the exact model.
    assert model.backend == "optimized"
    assert model.num_qubits == DEFAULT_CALIBRATION_QUBITS
    assert model.copy_ns > 0
    assert model.sample_ns > 0
    cached = load_cost_model_cache(ARTIFACT)
    assert cached[("optimized", DEFAULT_CALIBRATION_QUBITS)] == model
    # On the tree-reuse substrate the whole design rests on copies being
    # cheaper than re-execution: a copy must not cost more than the
    # analytic default of a few hundred gates.
    assert model.copy_cost_in_gates < 500
