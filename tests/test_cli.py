"""The ``python -m repro`` command-line entry point."""

import pytest

from repro.__main__ import build_parser, main
from repro.experiments.registry import EXPERIMENTS


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    for identifier, experiment in EXPERIMENTS.items():
        assert identifier in output
        assert experiment.title in output


def test_run_table2_prints_summary(capsys):
    assert main(["run", "table2"]) == 0
    output = capsys.readouterr().out
    assert "table2" in output
    assert "Benchmark characteristics" in output
    assert "rows:" in output


def test_run_unknown_experiment_fails_cleanly(capsys):
    assert main(["run", "fig99"]) == 2
    output = capsys.readouterr().out
    assert "unknown experiment" in output
    assert "fig99" in output


def test_run_rejects_bad_worker_count(capsys):
    assert main(["run", "fig13", "--workers", "0"]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().out


@pytest.mark.parametrize("bad_depth", ["0", "-3"])
def test_run_rejects_bad_max_depth(capsys, bad_depth):
    assert main(["run", "fig13", "--max-depth", bad_depth]) == 2
    assert "--max-depth must be >= 1" in capsys.readouterr().out


def test_run_rejects_non_integer_max_depth(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "fig13", "--max-depth", "two"])
    assert excinfo.value.code != 0
    assert "--max-depth" in capsys.readouterr().err


def test_parser_accepts_overrides():
    args = build_parser().parse_args(
        ["run", "fig13", "--workers", "2", "--shots", "64",
         "--max-qubits", "6", "--seed", "9", "--backend", "numpy",
         "--max-depth", "2"]
    )
    assert args.experiment == "fig13"
    assert args.workers == 2
    assert args.shots == 64
    assert args.max_qubits == 6
    assert args.seed == 9
    assert args.backend == "numpy"
    assert args.max_depth == 2


def test_missing_subcommand_exits_with_usage(capsys):
    with pytest.raises(SystemExit):
        main([])
    assert "usage" in capsys.readouterr().err


# ----------------------------------------------------------------------
# calibrate subcommand + calibrated run flags
# ----------------------------------------------------------------------
def test_calibrate_prints_table_and_caches(capsys, tmp_path):
    from repro.core.costmodel import (
        clear_cost_model_memory_cache,
        load_cost_model_cache,
    )

    clear_cost_model_memory_cache()
    cache = tmp_path / "calibration.json"
    assert main(["calibrate", "--qubits", "5", "--repeats", "4",
                 "--cache", str(cache)]) == 0
    output = capsys.readouterr().out
    for field in ("copy_ns", "batch_overhead_ns", "batch_row_ns",
                  "sample_ns", "one_node_gate_ns", "copy_cost_in_gates"):
        assert field in output
    assert f"cached to {cache}" in output
    assert ("optimized", 5) in load_cost_model_cache(str(cache))


def test_calibrate_rejects_unknown_backend(capsys):
    assert main(["calibrate", "--backend", "nosuch"]) == 2
    output = capsys.readouterr().out
    assert "unknown backend 'nosuch'" in output
    assert "available:" in output


@pytest.mark.parametrize(
    "argv, message",
    [
        (["calibrate", "--qubits", "0"], "--qubits must be >= 1"),
        (["calibrate", "--repeats", "0"], "--repeats must be >= 1"),
    ],
)
def test_calibrate_rejects_bad_values(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().out


def test_run_rejects_copy_cost_with_calibrated(capsys):
    assert main(["run", "table2", "--copy-cost", "10",
                 "--calibrated"]) == 2
    assert "mutually exclusive" in capsys.readouterr().out


def test_run_rejects_negative_copy_cost(capsys):
    assert main(["run", "table2", "--copy-cost", "-1"]) == 2
    assert "--copy-cost must be non-negative" in capsys.readouterr().out


def test_parser_accepts_calibration_flags():
    args = build_parser().parse_args(
        ["calibrate", "--backend", "numpy", "--qubits", "7",
         "--cache", "cm.json", "--refresh", "--repeats", "8"]
    )
    assert args.backend == "numpy"
    assert args.qubits == 7
    assert args.cache == "cm.json"
    assert args.refresh is True
    assert args.repeats == 8


@pytest.mark.parametrize("bad_shots", ["0", "-5"])
def test_run_rejects_non_positive_shots(capsys, bad_shots):
    assert main(["run", "fig13", "--shots", bad_shots]) == 2
    assert "--shots must be >= 1" in capsys.readouterr().out
