"""Figure 11: TQSim speedup over the baseline across the benchmark suite."""

import os

import pytest
from conftest import print_table

from repro.experiments import fig11_speedups


def test_fig11_suite_speedups(benchmark, bench_config):
    result = benchmark.pedantic(
        fig11_speedups.run, args=(bench_config,), rounds=1, iterations=1
    )
    print_table(
        "Figure 11 — per-circuit speedups (paper: 1.59x-3.89x, average 2.51x)",
        [
            {
                "circuit": row["name"],
                "qubits": row["qubits"],
                "gates": row["gates"],
                "tree": row["tree"],
                "cost_speedup": row["cost_speedup"],
                "wall_clock_speedup": row["wall_clock_speedup"],
                "paper_class_avg": row["paper_class_speedup"],
            }
            for row in result.table()
        ],
    )
    print_table(
        "Figure 11 — default chunk cap vs cap 1 (high-arity plans)",
        [
            {
                "circuit": row.name,
                "qubits": row.num_qubits,
                "tree": row.tree,
                "sequential_s": row.sequential_seconds,
                "batched_s": row.batched_seconds,
                "batched_tree_speedup": row.batched_tree_speedup,
                "counters_match": row.counters_match,
            }
            for row in result.batched_rows
        ],
    )
    print_table(
        "Figure 11 — per-class averages",
        [
            {
                "class": cls,
                "measured_avg_speedup": speedup,
                "paper_avg_speedup": fig11_speedups.PAPER_CLASS_SPEEDUPS[cls],
            }
            for cls, speedup in sorted(result.class_speedups.items())
        ],
    )
    print(f"overall measured average speedup: {result.average_speedup:.2f} "
          f"(paper: {fig11_speedups.PAPER_AVERAGE_SPEEDUP})")
    # Shape claims: TQSim wins on average, and long circuits (QFT/QPE) gain
    # more than the short, wide BV circuits.
    assert result.average_speedup > 1.2
    assert result.max_speedup > 1.5
    class_speedups = result.class_speedups
    if "BV" in class_speedups and "QFT" in class_speedups:
        assert class_speedups["QFT"] > class_speedups["BV"]
    # Every chunk cap must do exactly the accounted work of cap 1 —
    # always, even on a noisy CI runner.
    assert all(row.counters_match for row in result.batched_rows)
    print(f"default chunk cap vs cap 1: average "
          f"{result.average_batched_tree_speedup:.2f}x, max "
          f"{result.max_batched_tree_speedup:.2f}x")
    if os.environ.get("CI"):
        pytest.skip(
            "timing assertion skipped on CI (measured batched-tree speedup "
            f"{result.average_batched_tree_speedup:.2f}x)"
        )
    # Acceptance: executing sibling subtrees through the batched kernels is
    # a >= 1.5x wall-clock win over cap 1 on high-arity plans.
    assert result.average_batched_tree_speedup >= 1.5
