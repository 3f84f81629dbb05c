"""Ablation: flash longevity — wear levelling and erase-count balance.

Section 3 claims reduced write amplification "leads to ... better
longevity of the Flash devices".  Two measurements:

1. intra-region static WL on/off under skewed writes: erase-count spread
   (max - min per block) narrows with WL at a small relocation cost;
2. cross-region global WL: a scorching region and a cold region diverge in
   die wear until the store swaps dies between them.
"""

import random

from conftest import bench_mode, run_once

from repro.bench import render_series, save_report
from repro.core import NoFTLStore, RegionConfig
from repro.flash import FlashGeometry, instant_timing


def small_geometry():
    return FlashGeometry(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=32,
        pages_per_block=16,
        page_size=2048,
        oob_size=64,
        max_pe_cycles=10_000_000,
    )


def run_static_wl(threshold, writes, seed=4):
    store = NoFTLStore.create(small_geometry(), timing=instant_timing())
    region = store.create_region(
        RegionConfig(name="rg", wear_level_threshold=threshold), num_dies=4
    )
    pages = region.allocate(int(region.capacity_pages() * 0.6))
    rng = random.Random(seed)
    hot = pages[: max(1, len(pages) // 10)]
    payload = b"w" * 256
    t = 0.0
    for p in pages:
        t = region.write(p, payload, t)
    for __ in range(writes):
        target = rng.choice(hot) if rng.random() < 0.95 else rng.choice(pages)
        t = region.write(target, payload, t)
    erase_counts = store.device.erase_counts()
    counts = [count for d in region.engine.dies for count in erase_counts[d]]
    return {
        "spread": max(counts) - min(counts),
        "max": max(counts),
        "mean": sum(counts) / len(counts),
        "wl_moves": region.stats.wl_moves,
    }


def run_global_wl(threshold, writes, seed=5):
    store = NoFTLStore.create(
        small_geometry(), timing=instant_timing(), global_wl_threshold=threshold
    )
    hot = store.create_region(RegionConfig(name="rgHot"), num_dies=2)
    cold = store.create_region(RegionConfig(name="rgCold"), num_dies=2)
    hot_pages = hot.allocate(32)
    cold_pages = cold.allocate(int(cold.capacity_pages() * 0.5))
    payload = b"w" * 256
    t = 0.0
    for p in cold_pages:
        t = cold.write(p, payload, t)
    rng = random.Random(seed)
    swaps_over_time = []
    for i in range(writes):
        t = hot.write(rng.choice(hot_pages), payload, t)
        if i % 2000 == 1999:
            t = store.global_wear_level(t)
            swaps_over_time.append(store.wl_swaps)
    return store.wl_swaps, store.wear_imbalance()


def sweep():
    writes = 60_000 if bench_mode() == "full" else 20_000
    no_wl = run_static_wl(None, writes)
    with_wl = run_static_wl(8, writes)
    swaps, residual = run_global_wl(threshold=50, writes=writes)
    return no_wl, with_wl, swaps, residual


def test_wear_leveling(benchmark):
    no_wl, with_wl, swaps, residual = run_once(benchmark, sweep)

    # static WL narrows the per-block wear spread at some relocation cost
    assert with_wl["wl_moves"] > 0
    assert no_wl["wl_moves"] == 0
    assert with_wl["spread"] < no_wl["spread"]
    # and the device's most-worn block wears slower
    assert with_wl["max"] <= no_wl["max"]
    # cross-region divergence triggers die swaps
    assert swaps > 0

    report = render_series(
        "Wear levelling ablation (95%-skewed writes)",
        ["config", "erase spread", "max erases", "mean erases", "WL moves"],
        [
            ["no WL", no_wl["spread"], no_wl["max"], round(no_wl["mean"], 1), no_wl["wl_moves"]],
            ["static WL(8)", with_wl["spread"], with_wl["max"], round(with_wl["mean"], 1), with_wl["wl_moves"]],
        ],
    ) + f"\n\nglobal WL: {swaps} die swap(s), residual imbalance {residual:.1f} erases"
    save_report("wear_leveling", report)
