"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — package, geometry and timing defaults.
* ``fig2`` — print the paper's Figure 2 placement configuration.
* ``fig3`` — run the Figure 3 comparison (traditional vs regions).
* ``hotcold`` — the hot/cold separation ablation.
* ``ftl`` — the FTL-vs-NoFTL motivation experiment.
* ``recover`` — demonstrate crash recovery from page metadata.
* ``chaos`` — run seeded generated fault plans and check the recovery
  invariants after each (:mod:`repro.faults.chaos`).
* ``report`` — render / validate a saved ``repro.obs/v1`` metrics file.
* ``lint`` — run the per-module static invariant linter over a tree that
  must be clean (:mod:`repro.analysis`).

``fig3``, ``hotcold`` and ``ftl`` run the ``<command>.quick`` entry of
:mod:`repro.bench.catalogue`: their argparse defaults are read from it
and each flag overrides one field of it.

Every command prints a paper-style table and exits 0 on success; invalid
input is one ``error: ...`` line on stderr and exit 2, whether or not the
run was sharded; exit 3 means a shard worker process died.  Every command
also accepts ``--json``, which swaps the table for a validated
``repro.obs/v1`` metrics document on stdout (one shared serializer, see
:mod:`repro.obs.export`).  The experiment commands (``fig3``,
``hotcold``, ``ftl``) additionally take ``--metrics-out FILE.json`` to
save that same document next to the printed table, plus the device
robustness knobs ``--bad-block-rate`` / ``--device-seed`` (factory bad
blocks) and ``--fault-plan FILE.json`` (seeded fault injection armed for
the measured window; see :mod:`repro.faults`).  ``fig3``, ``hotcold``,
``ftl`` and ``chaos`` take ``--shards N`` to run their independent
experiment cells across worker processes (results are identical to the
sequential run; see :mod:`repro.bench.sharding`); it becomes the runner's
``shards`` argument, not a config field.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.faults.plan import FaultPlan


def _emit(args: argparse.Namespace, doc: dict[str, object], text: str) -> int:
    """Shared output path: validate, save ``--metrics-out``, print."""
    from repro.obs.export import dump_json, validate_metrics_doc

    validate_metrics_doc(doc)
    out = getattr(args, "metrics_out", None)
    if out:
        with open(out, "w") as f:
            f.write(dump_json(doc) + "\n")
    if args.json:
        print(dump_json(doc))
    else:
        print(text)
        if out:
            print(f"metrics written to {out}")
    return 0


def _progress(args: argparse.Namespace, message: str) -> None:
    """Progress chatter; routed to stderr when stdout must stay JSON."""
    print(message, file=sys.stderr if args.json else sys.stdout, flush=True)


def _read_file(path: str) -> str:
    """Text of a file named on the command line; unreadable is a usage error."""
    from repro.bench.errors import BenchConfigError

    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise BenchConfigError(f"cannot read {path}: {exc.strerror}") from exc


def _load_fault_plan(args: argparse.Namespace) -> "FaultPlan | None":
    """``--fault-plan FILE.json`` → :class:`~repro.faults.plan.FaultPlan`."""
    path = getattr(args, "fault_plan", None)
    if not path:
        return None
    from repro.faults.plan import FaultPlan

    return FaultPlan.from_json(_read_file(path))


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.flash import DEFAULT_TIMING, paper_geometry
    from repro.obs.export import metrics_doc

    geometry = paper_geometry()
    text = "\n".join([
        f"repro {repro.__version__} - NoFTL regions reproduction (EDBT 2016)",
        f"default device : {geometry.dies} dies, {geometry.channels} channels, "
        f"{geometry.page_size} B pages, {geometry.pages_per_block} pages/block",
        f"default timing : read {DEFAULT_TIMING.read_us:.0f} us, "
        f"program {DEFAULT_TIMING.program_us:.0f} us, "
        f"erase {DEFAULT_TIMING.erase_us:.0f} us, "
        f"bus {DEFAULT_TIMING.bus_us_per_page:.0f} us/page",
        "docs           : README.md, DESIGN.md, EXPERIMENTS.md",
    ])
    doc = metrics_doc("info", {
        "defaults": {
            "device": {
                "dies": geometry.dies,
                "channels": geometry.channels,
                "page_size": geometry.page_size,
                "pages_per_block": geometry.pages_per_block,
                "total_pages": geometry.total_pages,
            },
            "timing_us": {
                "read": DEFAULT_TIMING.read_us,
                "program": DEFAULT_TIMING.program_us,
                "erase": DEFAULT_TIMING.erase_us,
                "bus_per_page": DEFAULT_TIMING.bus_us_per_page,
            },
        },
    })
    return _emit(args, doc, text)


def _cmd_fig2(args: argparse.Namespace) -> int:
    from repro.bench import render_series
    from repro.core import figure2_placement
    from repro.obs.export import metrics_doc

    placement = figure2_placement(total_dies=args.dies)
    rows = [
        [i, spec.config.name, spec.num_dies, "; ".join(spec.objects)]
        for i, spec in enumerate(placement.specs)
    ]
    text = render_series(
        f"Figure 2 - multi-region placement over {args.dies} dies",
        ["#", "region", "dies", "DB objects"],
        rows,
    )
    doc = metrics_doc("fig2", {
        "placement": {
            "regions": {
                spec.config.name: {"dies": spec.num_dies, "objects": len(spec.objects)}
                for spec in placement.specs
            },
            "summary": {"total_dies": args.dies, "num_regions": len(placement.specs)},
        },
    })
    return _emit(args, doc, text)


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.bench import (
        derive_method_placement,
        fig3_cells,
        figure3_table,
        run_cells,
        tpcc_experiment,
    )
    from repro.bench.errors import BenchConfigError
    from repro.core import traditional_placement
    from repro.obs.export import metrics_doc

    base = tpcc_experiment("fig3.quick")
    try:
        scale = replace(
            base.scale,
            warehouses=args.warehouses,
            customers_per_district=args.customers,
            items=args.items,
        )
    except ValueError as exc:  # ScaleConfig's own range check
        raise BenchConfigError(str(exc)) from exc
    config = replace(
        base,
        scale=scale,
        num_transactions=args.transactions,
        gc_policy=args.gc_policy,
        initial_bad_block_rate=args.bad_block_rate,
        device_seed=args.device_seed,
        fault_plan=_load_fault_plan(args),
    )
    _progress(args, "deriving region placement (paper's method) ...")
    placement = derive_method_placement(config, args.transactions)
    how = f"across {args.shards} shards" if args.shards > 1 else "sequentially"
    _progress(args, f"running traditional and multi-region placements {how} ...")
    results = run_cells(
        fig3_cells(
            replace(
                config,
                name="traditional",
                placement=traditional_placement(config.geometry.dies, gc_policy=args.gc_policy),
            ),
            replace(config, name="regions", placement=placement),
        ),
        args.shards,
    )
    _progress(args, "")
    doc = metrics_doc(
        "fig3",
        {result.config.name: result.metrics() for result in results},
        policies={"gc": args.gc_policy},
    )
    return _emit(args, doc, figure3_table(*results))


def _cmd_synthetic(args: argparse.Namespace) -> int:
    """``hotcold`` and ``ftl``: one catalogue entry, one cell list, one table."""
    from repro.bench import (
        ftl_cells,
        hotcold_cells,
        merge_metrics_docs,
        render_series,
        run_cells,
        synthetic_experiment,
    )
    from repro.obs.export import metrics_doc

    title, first_column, cells_of = {
        "hotcold": ("Hot/cold separation ablation (synthetic, 8 dies, 70% utilization)",
                    "placement", hotcold_cells),
        "ftl": ("FTL vs NoFTL (synthetic skewed writes)", "stack", ftl_cells),
    }[args.command]
    config = replace(
        synthetic_experiment(f"{args.command}.quick"),
        writes=args.writes,
        gc_policy=args.gc_policy,
        initial_bad_block_rate=args.bad_block_rate,
        device_seed=args.device_seed,
        fault_plan=_load_fault_plan(args),
    )
    results = run_cells(cells_of(config), args.shards)
    text = render_series(
        title,
        [first_column, "GC copybacks", "GC erases", "WA", "writes/s"],
        [r.row() for r in results],
    )
    doc = merge_metrics_docs([
        metrics_doc(
            args.command,
            {result.name: result.metrics()},
            policies={"gc": args.gc_policy},
        )
        for result in results
    ])
    return _emit(args, doc, text)


def _cmd_recover(args: argparse.Namespace) -> int:
    import random

    from repro.core import NoFTLStore, RegionConfig
    from repro.flash import paper_geometry
    from repro.obs.export import metrics_doc

    store = NoFTLStore.create(paper_geometry(blocks_per_plane=4))
    region = store.create_region(RegionConfig(name="rg"), num_dies=8)
    pages = region.allocate(300)
    rng = random.Random(1)
    t = 0.0
    for __ in range(args.writes):
        t = region.write(rng.choice(pages), b"payload", t)
    fresh = NoFTLStore(store.device)
    fresh.create_region(RegionConfig(name="rg"), num_dies=8, dies=region.dies)
    end = fresh.recover(at=t)
    recovered = fresh.region("rg")
    fresh.check_consistency()
    text = "\n".join([
        f"wrote {args.writes} pages ({region.used_pages()} live), crashed, recovered",
        f"recovery scan: {(end - t) / 1000:.1f} ms simulated, "
        f"{recovered.used_pages()} live pages restored",
        "mapping invariants verified.",
    ])
    doc = metrics_doc("recover", {
        "recover": {
            "summary": {
                "writes": args.writes,
                "live_pages": region.used_pages(),
                "recovered_pages": recovered.used_pages(),
                "recovery_scan_ms": (end - t) / 1000,
            },
            "registry": fresh.metrics_registry().snapshot(),
        },
    })
    return _emit(args, doc, text)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.bench import render_series
    from repro.faults import ChaosConfig, run_chaos

    config = ChaosConfig(
        plans=args.plans,
        seed=args.seed,
        intensity=args.intensity,
        num_transactions=args.transactions,
        terminals=args.terminals,
    )
    how = f"across {args.shards} shards" if args.shards > 1 else "sequentially"
    _progress(
        args,
        f"running {config.plans} generated plan(s), intensity "
        f"{config.intensity!r}, seed {config.seed}, {how} ...",
    )
    report = run_chaos(config, args.shards)
    lines = [
        render_series(
            f"Chaos session - seed {config.seed}, intensity {config.intensity}",
            ["plan", "specs", "injected", "crash", "failed dies",
             "acct replay cap map", "verdict"],
            report.rows(),
        ),
        "control (no-plan bit-identity): "
        + ("ok" if report.control_ok else "FAIL"),
        "chaos session: "
        + ("all recovery invariants held" if report.ok else "INVARIANT VIOLATIONS"),
    ]
    status = _emit(args, report.metrics_doc(), "\n".join(lines))
    return status if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint, render_human

    result = lint(args.paths)
    print(render_human(result))
    return result.exit_code


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.bench import render_metrics_doc
    from repro.obs.export import SchemaError, dump_json, validate_metrics_doc

    raw = sys.stdin.read() if args.path == "-" else _read_file(args.path)
    try:
        doc = validate_metrics_doc(json.loads(raw))
    except (json.JSONDecodeError, SchemaError) as exc:
        print(f"invalid metrics document: {exc}", file=sys.stderr)
        return 1
    if args.validate:
        print(f"OK: {doc['schema']} document, command {doc['command']!r}, "
              f"{len(doc['configs'])} config(s)")
        return 0
    if args.json:
        print(dump_json(doc))
        return 0
    print(render_metrics_doc(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from repro.bench import synthetic_experiment, tpcc_experiment
    from repro.policies import available_gc_policies

    fig3_quick = tpcc_experiment("fig3.quick")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="NoFTL regions reproduction (EDBT 2016) - experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        help="emit a repro.obs/v1 metrics document instead of the table",
    )
    metrics_out = argparse.ArgumentParser(add_help=False)
    metrics_out.add_argument(
        "--metrics-out",
        metavar="FILE.json",
        default=None,
        help="also save the repro.obs/v1 metrics document to FILE.json",
    )
    device_opts = argparse.ArgumentParser(add_help=False)
    device_opts.add_argument(
        "--bad-block-rate",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="fraction of blocks marked factory-bad on the device (default 0)",
    )
    device_opts.add_argument(
        "--device-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the device's factory bad-block map (default 0)",
    )
    device_opts.add_argument(
        "--fault-plan",
        metavar="FILE.json",
        default=None,
        help="fault-injection schedule to arm for the measured run "
        "(JSON, see repro.faults.plan)",
    )
    gc_opts = argparse.ArgumentParser(add_help=False)
    gc_opts.add_argument(
        "--gc-policy",
        choices=available_gc_policies(),
        default="greedy",
        help="GC victim-selection policy from the repro.policies registry (default: greedy)",
    )
    shard_opts = argparse.ArgumentParser(add_help=False)
    shard_opts.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run the command's independent experiment cells across N worker "
        "processes (default 1 = sequential; results are identical either way)",
    )

    info = sub.add_parser("info", parents=[common], help="package and simulator defaults")
    info.set_defaults(fn=_cmd_info)

    fig2 = sub.add_parser("fig2", parents=[common], help="print the Figure 2 placement")
    fig2.add_argument("--dies", type=int, default=64)
    fig2.set_defaults(fn=_cmd_fig2)

    fig3 = sub.add_parser(
        "fig3",
        parents=[common, metrics_out, device_opts, gc_opts, shard_opts],
        help="run the Figure 3 comparison",
    )
    fig3.add_argument("--transactions", type=int, default=fig3_quick.num_transactions)
    fig3.add_argument("--warehouses", type=int, default=fig3_quick.scale.warehouses)
    fig3.add_argument("--customers", type=int, default=fig3_quick.scale.customers_per_district)
    fig3.add_argument("--items", type=int, default=fig3_quick.scale.items)
    fig3.set_defaults(fn=_cmd_fig3)

    for command, summary in (
        ("hotcold", "hot/cold separation ablation"),
        ("ftl", "FTL vs NoFTL motivation experiment"),
    ):
        synthetic = sub.add_parser(
            command,
            parents=[common, metrics_out, device_opts, gc_opts, shard_opts],
            help=summary,
        )
        synthetic.add_argument(
            "--writes", type=int, default=synthetic_experiment(f"{command}.quick").writes
        )
        synthetic.set_defaults(fn=_cmd_synthetic)

    chaos = sub.add_parser(
        "chaos",
        parents=[common, metrics_out, shard_opts],
        help="run seeded generated fault plans and check recovery invariants",
    )
    chaos.add_argument(
        "--plans", type=int, default=25, metavar="N",
        help="number of generated plans to run (default 25)",
    )
    chaos.add_argument(
        "--seed", type=int, default=7,
        help="generator seed; same seed => same plans (default 7)",
    )
    chaos.add_argument(
        "--intensity", choices=("light", "medium", "heavy"), default="light",
        help="how hostile the generated plans may be (default light)",
    )
    chaos.add_argument(
        "--transactions", type=int, default=120,
        help="TPC-C transactions per plan run (default 120)",
    )
    chaos.add_argument(
        "--terminals", type=int, default=4,
        help="TPC-C terminals per plan run (default 4)",
    )
    chaos.set_defaults(fn=_cmd_chaos)

    recover = sub.add_parser(
        "recover", parents=[common], help="crash recovery demonstration"
    )
    recover.add_argument("--writes", type=int, default=5_000)
    recover.set_defaults(fn=_cmd_recover)

    lint = sub.add_parser(
        "lint", help="run the repo's static invariant linter (repro.analysis)"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.set_defaults(fn=_cmd_lint)

    report = sub.add_parser(
        "report", parents=[common], help="render or validate a saved metrics document"
    )
    report.add_argument("path", help="metrics JSON file, or '-' for stdin")
    report.add_argument(
        "--validate",
        action="store_true",
        help="only check the document against the repro.obs/v1 schema",
    )
    report.set_defaults(fn=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.bench.errors import BenchConfigError
    from repro.core.region import RegionError
    from repro.faults.chaos import ChaosConfigError
    from repro.faults.plan import FaultPlanError
    from repro.flash.errors import ConfigError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenProcessPool as exc:
        print(f"error: a shard worker died: {exc}", file=sys.stderr)
        return 3
    except (BenchConfigError, ChaosConfigError, FaultPlanError, ConfigError, RegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
