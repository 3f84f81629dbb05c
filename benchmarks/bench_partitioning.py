"""Ablation: placing *partitions* of one object in different regions.

Section 2: regions can hold "complete objects or partitions of them".
An aging table (think ORDERLINE: a hot recent tail, a cold bulk) runs as

* one table in one region — hot and cold rows share erase blocks;
* the same table range-partitioned by key, hot partition in a small hot
  region, cold partition in a large cold region.

Same device, same rows, same update stream; only the placement below the
table abstraction differs.  Expected shape: partitioning cuts GC copyback
work like object-level separation does.
"""

import random

from conftest import bench_mode, run_once

from repro.bench import render_series, save_report
from repro.core import RegionConfig
from repro.db import Database, RangePartition, Schema, char_col, int_col
from repro.flash import FlashGeometry
from repro.obs import combined_management_stats


def geometry():
    return FlashGeometry(
        channels=4,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=4,
        pages_per_block=32,
        page_size=4096,
        oob_size=64,
    )


ROWS = 3000
HOT_CUTOFF = 2400  # rows with id >= cutoff receive 90% of the updates


def make_db():
    db = Database.on_native_flash(
        geometry=geometry(), buffer_pages=48, flusher_interval=16, system_dies=1
    )
    db.execute("CREATE REGION rgCold (DIES=5)")
    db.execute("CREATE REGION rgHot (DIES=2)")
    return db


def run_workload(table, updates, seed=8):
    rng = random.Random(seed)
    t = 0.0
    rids = []
    for i in range(ROWS):
        rid, t = table.insert((i, "x" * 460), t)
        rids.append(rid)
    start = t
    for __ in range(updates):
        if rng.random() < 0.9:
            pick = rng.randrange(HOT_CUTOFF, ROWS)
        else:
            pick = rng.randrange(0, HOT_CUTOFF)
        rids[pick], t = table.update_columns(rids[pick], {"payload": "y" * 460}, t)
    return t - start


def run_single(updates):
    db = make_db()
    db.execute("CREATE TABLESPACE tsAll (REGION=rgCold)")
    db.execute("CREATE TABLE aging (id INT, payload CHAR(480)) TABLESPACE tsAll")
    # the single table lives in the big region, holding its data at the
    # same utilization the partitioned cold region sees
    duration = run_workload(db.table("aging"), updates)
    stats = combined_management_stats(db.store.regions())
    return stats, duration


def run_partitioned(updates):
    db = make_db()
    schema = Schema([int_col("id"), char_col("payload", 480)])
    table = db.create_partitioned_table(
        "aging",
        schema,
        RangePartition("id", [HOT_CUTOFF]),
        regions=["rgCold", "rgHot"],
    )
    duration = run_workload(table, updates)
    stats = combined_management_stats(db.store.regions())
    return stats, duration


def test_partition_placement(benchmark):
    updates = 25_000 if bench_mode() == "full" else 9_000

    def run_pair():
        return run_single(updates), run_partitioned(updates)

    (single, single_dur), (parted, parted_dur) = run_once(benchmark, run_pair)

    assert parted.gc_copybacks < single.gc_copybacks * 0.7, (
        "partition placement should cut copybacks sharply"
    )
    assert parted.gc_erases <= single.gc_erases * 1.05

    # counts as floats: the table prints them with thousands separators
    rows = [
        [
            "single table, one region",
            float(single.gc_copybacks),
            float(single.gc_erases),
            round(updates / (single_dur / 1e6)),
        ],
        [
            "partitioned hot/cold regions",
            float(parted.gc_copybacks),
            float(parted.gc_erases),
            round(updates / (parted_dur / 1e6)),
        ],
    ]
    report = render_series(
        "Partition placement ablation (aging table, 90%-hot tail)",
        ["configuration", "GC copybacks", "GC erases", "updates/s"],
        rows,
    )
    save_report("partitioning", report)
