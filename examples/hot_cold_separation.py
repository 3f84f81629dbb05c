"""Hot/cold separation: the mechanism behind the paper's headline result.

A small "scorching" table and a large cold table share one device.  Run
them (a) mixed in a single region, (b) separated into two regions — same
data, same traffic, same flash.  Watch GC copybacks collapse and
throughput rise with separation.

Run:  python examples/hot_cold_separation.py
"""

import random

from repro.core import NoFTLStore, RegionConfig
from repro.flash import FlashGeometry


def run(separated: bool, writes: int = 20_000) -> dict:
    geometry = FlashGeometry(
        channels=4,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=16,
        pages_per_block=32,
        page_size=4096,
        oob_size=64,
    )
    store = NoFTLStore.create(geometry)
    if separated:
        hot_region = store.create_region(RegionConfig(name="rgHot"), num_dies=2)
        cold_region = store.create_region(RegionConfig(name="rgCold"), num_dies=6)
    else:
        hot_region = cold_region = store.create_region(RegionConfig(name="rgAll"), num_dies=8)

    # 70% utilization: 1/8 of the data is hot, receiving 90% of the writes
    regions = {id(r): r for r in (hot_region, cold_region)}
    total_safe = sum(r.engine.safe_capacity_pages() for r in regions.values())
    live = int(total_safe * 0.7)
    hot_pages = hot_region.allocate(live // 8)
    cold_pages = cold_region.allocate(live - live // 8)

    payload = b"x" * 512
    t = 0.0
    for p in hot_pages:
        t = hot_region.write(p, payload, t)
    for p in cold_pages:
        t = cold_region.write(p, payload, t)

    rng = random.Random(7)
    start, window_start = t, store.metrics_registry().mark()
    for __ in range(writes):
        if rng.random() < 0.9:
            t = hot_region.write(rng.choice(hot_pages), payload, t)
        else:
            t = cold_region.write(rng.choice(cold_pages), payload, t)
    window = store.metrics_registry().snapshot(since=window_start)
    return {
        "copybacks": window["mgmt.gc_copybacks"],
        "erases": window["mgmt.gc_erases"],
        "writes_per_s": writes / ((t - start) / 1e6),
    }


def main() -> None:
    mixed = run(separated=False)
    separated = run(separated=True)
    print(f"{'':14} {'mixed':>12} {'separated':>12} {'ratio':>8}")
    for key in ("copybacks", "erases", "writes_per_s"):
        ratio = separated[key] / mixed[key] if mixed[key] else float('nan')
        print(f"{key:14} {mixed[key]:>12,.0f} {separated[key]:>12,.0f} {ratio:>7.2f}x")
    print(
        "\nSeparated placement keeps cold pages out of GC victims: the paper's"
        "\n'less erase operations and thus better Flash longevity' in miniature."
    )


if __name__ == "__main__":
    main()
