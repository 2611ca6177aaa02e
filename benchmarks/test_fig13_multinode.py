"""Figure 13: strong and weak scaling on the modeled CPU cluster."""

from conftest import print_table

from repro.experiments import fig13_multinode_scaling


def test_fig13_multinode_scaling(benchmark, bench_config):
    result = benchmark(fig13_multinode_scaling.run, bench_config)
    strong_rows = []
    for name, series in sorted(result.strong.items()):
        speedups = result.strong_scaling_speedups(name)
        strong_rows.append(
            {
                "series": name,
                "nodes_1": speedups[0],
                "nodes_8": speedups[3],
                "nodes_32": speedups[-1],
                "tqsim_vs_baseline_at_32": series[-1].tqsim_speedup,
            }
        )
    print_table("Figure 13a — strong scaling (speedup over 1 node)", strong_rows)
    weak_rows = [
        {
            "series": family,
            "qubits": point.num_qubits,
            "nodes": point.num_nodes,
            "baseline_s": point.baseline_seconds,
            "tqsim_s": point.tqsim_seconds,
            "speedup": point.tqsim_speedup,
        }
        for family, points in sorted(result.weak.items())
        for point in points
    ]
    print_table("Figure 13b — weak scaling (paper: TQSim wins at every node count)",
                weak_rows)
    measured = result.measured
    print_table(
        "Figure 13c — measured multiprocess dispatch "
        f"({measured.name}, tree {measured.tree}, "
        f"serial {measured.serial_seconds:.3f}s)",
        measured.as_rows(),
    )
    faulty = result.measured_faulty
    print_table(
        "Figure 13d — fault-tolerant dispatch (one injected worker crash)",
        [
            {
                "leg": "pool",
                "seconds": faulty.pool_seconds,
            },
            {
                "leg": "pool+crash",
                "seconds": faulty.faulty_seconds,
            },
        ],
    )
    # Larger circuits scale better than smaller ones; TQSim always wins.
    for name in result.strong:
        assert result.strong_scaling_speedups(name)[-1] >= 1.0
    assert all(point.tqsim_speedup > 1.0
               for points in result.weak.values() for point in points)
    # Sharded execution is exact by construction, on any machine — with and
    # without faults in the pooled legs.
    assert measured.counts_match_serial
    assert faulty.counts_match_serial
    assert faulty.pool_rebuilds >= 1
