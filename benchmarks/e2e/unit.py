"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this file once per repetition, times the process from
outside, and reads the single JSON object it prints as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from statistics import quantiles
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from speed import SpeedProbe
from tracing import TXN, Tracer
from workloads import WORKLOADS, Outcome, Stacks

_FTL_CLASSES = ("PageMappingFTL", "DFTL", "HotColdFTL")


def layer_metrics(tracer: Tracer, stacks: Stacks, outcome: Outcome) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` except ``trace.overhead_frac``
    and ``host.slowdown`` (``run.py`` adds them: the first needs the untraced
    repetition too)."""
    out: dict[str, float] = {}
    for layer, row in tracer.layer_table().items():
        if layer == "other":
            out["other.self_s"] = row["self_s"]
        else:
            for key, value in row.items():
                out[f"{layer}.{key}"] = value
    out["trace.spans"] = tracer.span_count()

    txn_us = sorted(1e6 * d for d in tracer.durations(TXN))
    cuts = quantiles(txn_us, n=100) if len(txn_us) >= 2 else [0.0] * 99
    out.update({
        "tpcc.derive.incl_s": tracer.total("tpcc.derive"),
        "tpcc.load.incl_s": tracer.total("tpcc.load"),
        "tpcc.run.incl_s": tracer.total("tpcc.run"),
        "tpcc.load.rows": sum(tracer.load_rows),
        "tpcc.astring.calls": tracer.calls("tpcc.TPCCRandom.astring"),
        "tpcc.astring.incl_s": tracer.incl_s("tpcc.TPCCRandom.astring"),
        "tpcc.txn.calls": len(txn_us),
        "tpcc.txn.rollbacks": outcome.rollbacks,
        "tpcc.txn.host_us_p50": cuts[49],
        "tpcc.txn.host_us_p99": cuts[98],
    })

    summed, primary = stacks.summed, stacks.primary
    table_calls = tracer.calls(prefix="db.Table.")
    gets = tracer.calls("db.BufferPool.get")
    out.update({
        "db.table.calls": table_calls,
        "db.buffer.get.calls": gets,
        "db.buffer.get.incl_s": tracer.incl_s("db.BufferPool.get"),
        "db.buffer.hits": summed["db.buffer.hits"],
        "db.buffer.misses": summed["db.buffer.misses"],
        "db.buffer.hit_ratio": primary.get("db.buffer.hit_ratio", 0.0),
        "db.buffer.evictions": summed["db.buffer.evictions"],
        "db.buffer.dirty_evictions": summed["db.buffer.dirty_evictions"],
        "db.buffer.flusher_writes": summed["db.buffer.flusher_writes"],
        "db.backend.reads": tracer.calls("db.StorageBackend.read_page"),
        "db.backend.writes": tracer.calls("db.StorageBackend.write_page"),
        "db.gets_per_table_op": gets / table_calls if table_calls else 0.0,
        "core.region.reads": tracer.calls("core.Region.read"),
        "core.region.writes": tracer.calls("core.Region.write", "core.Region.write_atomic"),
        # DFTL.write calls PageMappingFTL.write: count entries from outside only
        "ftl.reads": tracer.boundary_calls(*(f"ftl.{c}.read" for c in _FTL_CLASSES)),
        "ftl.writes": tracer.boundary_calls(*(f"ftl.{c}.write" for c in _FTL_CLASSES)),
    })

    erases = summed["mgmt.gc_erases"]
    out.update({
        "mapping.host_reads": summed["mgmt.host_reads"],
        "mapping.host_writes": summed["mgmt.host_writes"],
        "mapping.gc_copybacks": summed["mgmt.gc_copybacks"],
        "mapping.gc_erases": erases,
        "mapping.valid_per_victim": summed["mgmt.gc_victim_valid_pages"] / erases if erases else 0.0,
        "mapping.write_amplification": primary["mgmt.write_amplification"],
        "mapping.trans_reads": summed["mgmt.trans_reads"],
        "mapping.trans_writes": summed["mgmt.trans_writes"],
        "mapping.wl_moves": summed["mgmt.wl_moves"],
        "mapping.host_read_p99_us": primary["host_read_p99_us"],
        "mapping.host_write_p99_us": primary["host_write_p99_us"],
    })

    device_ops = sum(summed[f"flash.{op}"] for op in ("reads", "programs", "erases", "copybacks"))
    mutating = ("program_page", "copyback", "erase_block")  # reads have no packed form
    packed = tracer.calls(*(f"flash.FlashDevice.{op}_packed" for op in mutating))
    command = tracer.calls(*(f"flash.FlashDevice.{op}" for op in mutating))
    out.update({
        "flash.reads": summed["flash.reads"],
        "flash.programs": summed["flash.programs"],
        "flash.erases": summed["flash.erases"],
        "flash.copybacks": summed["flash.copybacks"],
        "flash.packed_calls": packed,
        "flash.command_calls": command,
        "flash.host_us_per_op": 1e6 * out["flash.self_s"] / device_ops if device_ops else 0.0,
        "flash.die_util_mean": primary["die_util_mean"],
        "flash.die_util_max": primary["die_util_max"],
        "flash.channel_util_mean": primary["channel_util_mean"],
        "faults.injected_total": summed["faults.injected.total"],
        "faults.recovered_total": summed["faults.recovered.total"],
        "faults.retired_total": summed["faults.retired.total"],
        "faults.read_retry_attempts": summed["faults.work.read_retry_attempts"],
        "faults.replayed_records": summed["faults.work.replayed_records"],
        "faults.invariants_failed": outcome.invariants_failed,
        "sim.read_latency_us": primary["mgmt.host_read_latency_mean_us"],
        "sim.write_latency_us": primary["mgmt.host_write_latency_mean_us"],
        # 0 where the workload has no pair of cells to compare
        "sim.speedup": outcome.pair.get("speedup", 0.0),
        "sim.copyback_ratio": outcome.pair.get("copyback_ratio", 0.0),
        "sim.erase_ratio": outcome.pair.get("erase_ratio", 0.0),
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", type=Path, help="where to write the kept spans")
    args = parser.parse_args()

    probe = SpeedProbe()
    probe.start()
    from repro.obs.export import dump_json, validate_metrics_doc

    tracer = Tracer(args.workload, fine=bool(args.trace))
    stacks = Stacks(tracer)
    tracer.start()
    replaced = tracer.patched()
    try:
        outcome = WORKLOADS[args.workload].run(args.seed, args.smoke, tracer, stacks)
    finally:
        tracer.stop()
        probe.stop()

    failures = outcome.failures + stacks.failures
    # every patched attribute must be the original object again
    failures += [
        f"{owner.__name__}.{name} was not restored"
        for owner, name, original in replaced
        if vars(owner)[name] is not original
    ]
    try:
        validate_metrics_doc(outcome.doc)
    except ValueError as error:  # SchemaError; also the empty document of a lost cell
        failures.append(f"metrics document invalid: {error}")

    result: dict[str, Any] = {
        "ops": outcome.ops,
        "measured_s": outcome.measured_s,
        "slowdown": probe.slowdown(),
        "sim_ops_per_s": outcome.sim_ops_per_s,
        "sim_write_amplification": stacks.primary.get("mgmt.write_amplification", 0.0),
        "pair": outcome.pair,
        "sim_fingerprint": hashlib.sha256(dump_json(outcome.doc).encode()).hexdigest(),
        "failures": failures,
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, stacks, outcome)
        result["traced_wall_s"] = tracer.wall_s()
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            args.trace_out.write_text(json.dumps(tracer.document()))
    # ru_maxrss is KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
