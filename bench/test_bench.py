"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest bench -q``.

They check the benchmark itself, not the simulator: that a ``--quick``
ledger carries every metric ``BENCHMARK.json`` names, that inputs follow
the seed, that ``compare.py`` reaches the right verdicts, that a
corrupted count is caught, and that the speed probe samples inside timed
work and leaves its own time out.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from . import compare, layers, ledger, workloads
from .probe import SpeedProbe, Timing

RUN = ledger.ROOT / "bench" / "run.py"


@pytest.fixture(scope="module")
def config():
    return ledger.load_config()


def run_quick(tmp_path, *flags: str) -> dict:
    out = tmp_path / "ledger.json"
    done = subprocess.run(
        [sys.executable, str(RUN), "--quick", "--seed", "3", "--out", str(out), *flags],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_quick_ledger_has_every_end_to_end_metric(tmp_path, config):
    run = run_quick(tmp_path)
    assert set(run["workloads"]) == {w["name"] for w in config["workloads"]}
    for name, report in run["workloads"].items():
        assert report["failed"] == 0, report["failures"]
        for spec in config["end_to_end"]:
            metric = report["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"], (name, spec["name"])
            assert metric["value"] > 0, (name, spec["name"])
        assert report["extra"]["counts_sha256"]


def test_quick_trace_has_every_per_layer_metric(tmp_path, config):
    run = run_quick(tmp_path, "--trace")
    for name, report in run["workloads"].items():
        assert report["failed"] == 0, report["failures"]
        for spec in config["per_layer"]:
            layer = report["layers"][spec["name"]]
            assert layer["unit"] == spec["unit"], (name, spec["name"])


def test_contract_line_for_one_workload(config):
    done = subprocess.run(
        [sys.executable, str(RUN), "--quick", "--workload", "adr-noreuse"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in config["end_to_end"]}


def test_workloads_match_the_config(config):
    assert list(workloads.NAMES) == [w["name"] for w in config["workloads"]]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_follow_the_seed(name):
    assert workloads.describe_inputs(name, 5) == workloads.describe_inputs(name, 5)
    assert workloads.describe_inputs(name, 5) != workloads.describe_inputs(name, 6)


def test_serve_stream_make_up_is_seed_independent():
    def make_up(seed: int) -> list:
        block = workloads.describe_inputs(workloads.SERVE, seed)["first_block"]
        return sorted((name, noise or "", shots) for name, noise, shots, _ in block)

    assert make_up(1) == make_up(2)
    noisy = sum(1 for _, noise, _ in make_up(1) if noise)
    assert noisy == len(workloads.SERVE_ZOO) * workloads.NOISY_PER_CIRCUIT


def test_corrupted_count_is_a_failure():
    checker = workloads.Checker()
    counts = {"00": 3, "11": 5}
    checker.check_result("engine", "c", counts, shots=8, requested=8)
    checker.check_result("pool2", "c", dict(counts), shots=8, requested=8)
    assert checker.failures == []
    checker.check_result("pool2", "c", {"00": 4, "11": 4}, shots=8, requested=8)
    checker.check_result("engine", "d", {"00": 7}, shots=8, requested=8)
    assert len(checker.failures) == 2
    checker.attempted = 4
    assert checker.summary()["failed"] / checker.summary()["attempted"] > 0


def synthetic(values: dict[str, list[float]], seed: int = 0) -> dict:
    """A ledger whose ``shots_per_s`` rounds are the given values."""
    return {
        "seed": seed,
        "workloads": {
            name: {
                "metrics": {"shots_per_s": ledger.distribution(rounds, "shots/s")},
                "extra": {"counts_sha256": {"engine/c": "d"}},
            }
            for name, rounds in values.items()
        },
    }


SYNTHETIC_CONFIG = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "shots_per_s", "unit": "shots/s", "better": "higher", "bound": 0.1}
    ],
}


@pytest.mark.parametrize("rounds, expected", [
    ([100, 101, 99, 100], "same"),
    ([80, 81, 79, 80], "worse"),
    ([130, 131, 129, 130], "better"),
    ([60, 140, 100, 100], "unresolved"),
])
def test_compare_single_ledger_verdicts(rounds, expected):
    parent = synthetic({"w": [100, 101, 99, 100]})
    rows = compare.compare([parent], [synthetic({"w": rounds})], SYNTHETIC_CONFIG)
    assert [row["verdict"] for row in rows] == [expected]
    assert rows[0]["counts"] == "same"


def test_compare_paired_runs_need_nine_wins_in_ten():
    parents = [synthetic({"w": [100 + i]}, seed=i) for i in range(10)]
    faster = [synthetic({"w": [110 + i]}, seed=i) for i in range(10)]
    rows = compare.compare(parents, faster, SYNTHETIC_CONFIG)
    assert rows[0]["verdict"] == "better" and rows[0]["win_fraction"] == 1.0
    mixed = [synthetic({"w": [104 + i if i % 3 else 99 + i]}, seed=i)
             for i in range(10)]
    rows = compare.compare(parents, mixed, SYNTHETIC_CONFIG)
    assert rows[0]["verdict"] == "same" and rows[0]["win_fraction"] < 0.9


def test_compare_flags_changed_counts():
    changed = synthetic({"w": [100, 101, 99, 100]})
    changed["workloads"]["w"]["extra"]["counts_sha256"]["engine/c"] = "e"
    rows = compare.compare([synthetic({"w": [100, 101, 99, 100]})], [changed],
                           SYNTHETIC_CONFIG)
    assert rows[0]["counts"] == "changed"


def test_timing_leaves_out_the_probes_inside():
    timing = Timing(start=0.0, end=10.0, scale=2.0, probes=[(1.0, 2.0), (9.5, 10.5)])
    assert timing.work(0.0, 10.0) == 8.5
    assert timing.work(1.5, 3.0) == 1.0
    assert timing.reference == 17.0


def test_probe_samples_inside_timed_work():
    previous = signal.getsignal(signal.SIGALRM)
    try:
        probe = SpeedProbe(os.sched_getaffinity(0))
        with probe.timing() as timing:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        assert len(timing.probes) >= 3
        assert 0 < timing.work(timing.start, timing.end) < timing.wall
        with probe.timing(inside=False) as timing:
            pass
        assert timing.probes == [] and timing.scale > 0
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_layer_units_follow_the_names(config):
    for spec in config["per_layer"]:
        assert layers.unit_of(spec["name"]) == spec["unit"], spec["name"]
