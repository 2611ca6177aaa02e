"""Smoke and consistency tests for the experiment harness (tiny scale)."""

import pytest

from repro.circuits.library import qft_circuit
from repro.circuits.library.qpe import qpe_circuit
from repro.core.costmodel import CostModel
from repro.core.engine import TQSimEngine
from repro.experiments import fig17_tradeoff
from repro.experiments.common import ExperimentConfig, compare_simulators
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.noise.sycamore import depolarizing_noise_model

#: Deliberately tiny configuration so the whole module runs in seconds.
TINY = ExperimentConfig(shots=48, max_qubits=6, seed=5, copy_cost_in_gates=5.0)


def test_registry_covers_every_table_and_figure():
    expected = {
        "fig1", "fig4", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12",
        "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
        "table2", "table3",
    }
    assert set(EXPERIMENTS) == expected
    assert get_experiment("FIG11").identifier == "fig11"
    with pytest.raises(KeyError):
        get_experiment("fig99")


def test_experiment_config_scaling_helpers():
    config = ExperimentConfig(shots=320)
    assert config.scaled(shots=10).shots == 10
    assert config.effective_margin_of_error > 0.015  # scaled up for fewer shots
    explicit = ExperimentConfig(shots=320, margin_of_error=0.02)
    assert explicit.effective_margin_of_error == 0.02
    partitioner = config.dcp_partitioner()
    assert partitioner.min_first_layer_shots >= 16


def test_compare_simulators_row(depolarizing_model):
    row = compare_simulators(qft_circuit(5), depolarizing_model, TINY)
    # Circuits are fused before simulation, so the row never reports more
    # gates than the raw circuit.
    assert 0 < row.num_gates <= qft_circuit(5).num_gates
    assert row.cost_speedup > 0
    assert 0 <= row.fidelity_difference <= 2
    as_dict = row.as_dict()
    assert as_dict["tree"].startswith("(")


def test_fig4_memory_scaling_headline():
    result = run_experiment("fig4", TINY)
    assert result.laptop_statevector_qubits >= 29
    assert result.el_capitan_density_qubits < 25


def test_fig8_parallel_shots_headline():
    result = run_experiment("fig8", TINY)
    assert result.max_speedup_at_20_qubits > 2.0
    assert result.max_speedup_at_25_qubits < 1.3
    assert result.memory_fraction_per_shot_at_24_qubits < 0.01
    # The measured batched-trajectory sweep: one width (capped at TINY's
    # max_qubits) times three batch sizes, all with positive timings.
    assert len(result.measured_points) == 3
    assert {p.batch_size for p in result.measured_points} == {1, 4, 16}
    assert all(p.num_qubits <= TINY.max_qubits for p in result.measured_points)
    assert all(p.per_shot_seconds > 0 and p.batched_seconds > 0
               for p in result.measured_points)
    assert result.max_measured_speedup > 0
    # The process-parallel leg shards a single-layer plan across workers;
    # whatever the host's core count, the merged counts must be bitwise the
    # serial dispatcher's.
    sweep = result.process_sweep
    assert sweep.counts_match_serial
    assert sweep.serial_seconds > 0
    assert sweep.points and all(p.wall_seconds > 0 for p in sweep.points)
    assert sweep.num_qubits <= TINY.max_qubits


def test_fig9_memory_reuse():
    result = run_experiment("fig9", TINY)
    assert len(result.points) == 5
    assert all(p.memory_fraction_of_node < 0.5 for p in result.points)
    assert all(p.modeled_speedup >= 1.0 for p in result.points)
    # The batched-tree pool stays within the Figure-9 budget while batching
    # at least the full leaf fan-out.
    assert all(p.batched_memory_fraction_of_node <= 0.5 for p in result.points)
    assert all(p.batched_max_batch >= 2 for p in result.points)
    assert result.measured.counters_match
    assert result.measured.sequential_seconds > 0
    assert result.measured.batched_seconds > 0


def test_fig10_copy_cost():
    result = run_experiment("fig10", TINY)
    assert result.local_average > 0
    assert result.paper_systems["xeon_6130_server_cpu"] > \
        result.paper_systems["v100_server_gpu"]


def test_fig11_and_fig14_suite_sweep():
    result = run_experiment("fig11", TINY)
    assert result.rows
    assert result.average_speedup > 0.5
    table = result.table()
    assert {"class", "cost_speedup", "paper_class_speedup"} <= set(table[0])
    # Every row carries the dedicated high-arity measurement: the default
    # chunk cap does exactly the accounted work of cap 1.
    assert len(result.batched_rows) == len(result.rows)
    assert all(row.counters_match for row in result.batched_rows)
    assert result.average_batched_tree_speedup > 0
    fidelity = run_experiment("fig14", TINY.scaled(max_qubits=5))
    assert fidelity.max_difference >= fidelity.average_difference >= 0.0


def test_fig13_multinode():
    result = run_experiment("fig13", TINY.scaled(extra={
        "strong_widths": (16,), "weak_widths": (16, 17)}))
    series = next(iter(result.strong.values()))
    assert len(series) == 6
    speedups = result.strong_scaling_speedups(next(iter(result.strong)))
    assert speedups[0] == pytest.approx(1.0)
    # The measured multiprocess leg: exact sharding on any machine, with
    # per-point accounting populated.
    measured = result.measured
    assert measured is not None
    assert measured.counts_match_serial
    assert measured.tree == "(16,16)"
    assert measured.serial_seconds > 0
    assert measured.points
    assert set(measured.speedups) == {p.num_workers for p in measured.points}
    # The deep-sharding leg: a (2,64) plan starves first-layer sharding, so
    # points beyond 2 workers must have descended (and still match serial).
    deep = result.measured_deep
    assert deep is not None
    assert deep.counts_match_serial
    assert deep.tree == "(2,64)"
    for point in deep.points:
        assert point.num_shards == point.num_workers
        if point.num_workers > 2:
            assert point.shard_depth == 1
    # The fault-tolerance leg: healthy and crash-recovery runs both merge
    # to the serial bits, and the injected crash forced a pool rebuild.
    faulty = result.measured_faulty
    assert faulty is not None
    assert faulty.counts_match_serial
    assert faulty.pool_rebuilds >= 1
    assert faulty.pool_seconds > 0
    assert faulty.faulty_seconds > 0


def test_fig17_tradeoff_structures():
    result = run_experiment("fig17", TINY.scaled(shots=120, max_qubits=6))
    labels = [row.label for row in result.rows]
    assert labels[0] == "dcp"
    assert len(labels) == 6
    degenerate = result.row("degenerate_250_1_1")
    assert degenerate.total_outcomes < result.shots
    with pytest.raises(KeyError):
        result.row("missing")


def _timed_plans(monkeypatch, copy_ns: float, same_partitioner: bool):
    """``_measure_calibrated_pick`` on qpe_5 at 64 shots with a round-number
    model, and the arities and subcircuit lengths of every plan it ran, in
    order."""
    model = CostModel(backend="batched", num_qubits=5, copy_ns=copy_ns,
                      batch_overhead_ns=900.0, batch_row_ns=100.0,
                      sample_ns=500.0)
    monkeypatch.setattr(fig17_tradeoff, "get_cost_model", lambda *_: model)
    if same_partitioner:
        monkeypatch.setattr(ExperimentConfig, "dcp_partitioner",
                            lambda self: self.calibrated_dcp_partitioner(model))
    ran = []

    class RecordingEngine(TQSimEngine):
        def run(self, circuit, shots, plan=None, **kwargs):
            ran.append((plan.tree.arities, plan.subcircuit_lengths))
            return super().run(circuit, shots, plan=plan, **kwargs)

    monkeypatch.setattr(fig17_tradeoff, "TQSimEngine", RecordingEngine)
    pick = fig17_tradeoff._measure_calibrated_pick(
        qpe_circuit(5), depolarizing_noise_model(), TINY.scaled(shots=64),
        repeats=2,
    )
    return pick, ran


def test_fig17_times_one_tree_once_for_both_picks(monkeypatch):
    pick, ran = _timed_plans(monkeypatch, 100.0, same_partitioner=True)
    assert pick.analytic_tree == pick.calibrated_tree
    assert len(ran) == 2 and ran[0] == ran[1]
    assert pick.analytic_seconds == pick.calibrated_seconds
    assert pick.measured_speedup == 1.0


def test_fig17_alternates_the_repeats_of_two_plans(monkeypatch):
    # Copies this dear make the calibrated search pick a one-layer plan.
    pick, ran = _timed_plans(monkeypatch, 1e4, same_partitioner=False)
    assert pick.analytic_tree == "(16,2,2)"
    assert pick.calibrated_tree == "(64)"
    assert ran[0] != ran[1]
    assert ran == ran[:2] * 2


def test_fig19_redundancy_comparison():
    result = run_experiment("fig19", TINY)
    assert result.rows == sorted(result.rows, key=lambda r: r.num_gates)
    assert all(0 < r.redun_elim_normalized <= 1.0 for r in result.rows)


def test_table2_rows():
    result = run_experiment("table2", TINY)
    assert len(result.rows) == 8
    qft_row = next(r for r in result.rows if r.benchmark_class == "QFT")
    assert qft_row.paper_gate_range == (146, 787)
    assert qft_row.generated_width_range[0] >= 8


def test_table3_rows():
    result = run_experiment("table3", TINY)
    assert len(result.rows) == 3
    assert set(result.paper_rows) == {"qv_18", "qv_20", "qft_20"}
    assert all(r.baseline_seconds > 0 for r in result.rows)
