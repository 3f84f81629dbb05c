"""Ablation: throughput scaling with concurrency (closed-loop terminals).

The paper's gains materialise under concurrency: one terminal keeps at
most one I/O in flight, so placement barely matters; with many terminals
the device's parallelism and GC interference decide throughput.  This
sweep runs the same TPC-C population with 1..16 terminals and reports TPS
and read latency — the saturation curve every storage evaluation starts
with.
"""

from dataclasses import replace

from conftest import bench_mode, run_once

from repro.bench import render_series, run_tpcc_experiment, save_report, tpcc_experiment


def sweep():
    base = tpcc_experiment(f"terminals.{bench_mode()}")
    rows = []
    for terminals in (1, 2, 4, 8, 16):
        result = run_tpcc_experiment(replace(base, terminals=terminals))
        rows.append(
            [
                terminals,
                round(result.row("tps")),
                round(result.row("read_latency_us")),
                round(result.row("NewOrder_ms"), 2),
            ]
        )
    return rows


def test_terminal_scaling(benchmark):
    rows = run_once(benchmark, sweep)

    tps = [row[1] for row in rows]
    # more terminals -> more throughput, with diminishing returns
    assert tps[2] > tps[0] * 1.8, f"4 terminals should beat 1 by ~2x: {tps}"
    assert tps[-1] > tps[2]
    # latency rises under concurrency (queueing becomes visible)
    assert rows[-1][2] >= rows[0][2]

    report = render_series(
        "Throughput vs closed-loop terminals (TPC-C, traditional placement)",
        ["terminals", "TPS", "read latency us", "NewOrder ms"],
        rows,
    )
    save_report("terminal_scaling", report)
