"""Region lifecycle: dynamic resizing and global wear levelling.

Shows the administration surface the paper emphasises: regions are created
with familiar DDL, can grow and shrink while live ("the number of dies in
each region ... is dynamic and can change over time"), and the NoFTL
store rebalances wear across regions by swapping dies.

Run:  python examples/region_management.py
"""

import random

from repro.core import NoFTLStore, RegionConfig
from repro.flash import FlashGeometry


def show(store: NoFTLStore, title: str) -> None:
    print(f"\n{title}")
    for row in store.describe():
        print(
            f"  {row['name']:10} dies={row['dies']} used={row['used_pages']}/{row['capacity_pages']} pages"
        )
    print(f"  free dies: {store.free_dies()}")


def main() -> None:
    geometry = FlashGeometry(
        channels=4,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=32,
        pages_per_block=16,
        page_size=2048,
        oob_size=64,
    )
    store = NoFTLStore.create(geometry, global_wl_threshold=30)

    archive = store.create_region(RegionConfig(name="rgArchive"), num_dies=4)
    working = store.create_region(RegionConfig(name="rgWorking"), num_dies=3)
    show(store, "initial layout (1 free die held back)")

    # fill the archive with cold data
    t = 0.0
    # fill to 35%: leaves room for the resize and die swap below
    cold = archive.allocate(int(archive.capacity_pages() * 0.35))
    for p in cold:
        t = archive.write(p, b"cold record", t)

    # the working set churns hard
    hot = working.allocate(48)
    rng = random.Random(1)
    for __ in range(30_000):
        t = working.write(rng.choice(hot), b"hot record", t)
    show(store, "after churn")
    print(f"  wear imbalance: {store.wear_imbalance():.1f} erases/die")

    # grow the working region with a free die, then shrink the archive
    store.add_dies("rgWorking", 1)
    t = store.remove_die("rgArchive", archive.dies[0], at=t)
    show(store, "after resize (grew rgWorking, evacuated one archive die)")

    # global wear levelling swaps a worn working die with a fresh archive die
    swaps_before = store.wl_swaps
    t = store.global_wear_level(t)
    print(f"\nglobal wear levelling performed {store.wl_swaps - swaps_before} die swap(s)")
    print(f"  wear imbalance now: {store.wear_imbalance():.1f} erases/die")

    # data is intact through all of it
    sample = rng.sample(cold, 20)
    assert all(archive.read(p, t)[0] == b"cold record" for p in sample)
    print("\narchive data verified intact after evacuation and wear levelling.")


if __name__ == "__main__":
    main()
