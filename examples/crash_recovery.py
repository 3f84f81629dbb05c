"""Crash recovery: rebuilding host-side state from page metadata.

Under NoFTL the address translation lives in DBMS memory — so what happens
on a crash?  The native flash interface's *page metadata* command (paper,
Figure 1) is the answer: every programmed page carries its logical key and
a write sequence number in the OOB area.  This example writes data, kills
the host state, builds a fresh store over the same flash, and measures the
recovery scan.

Run:  python examples/crash_recovery.py
"""

import random

from repro.core import NoFTLStore, RegionConfig
from repro.flash import FlashGeometry


def build_store(device=None):
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
    if device is None:
        store = NoFTLStore.create(geometry)
    else:
        store = NoFTLStore(device)
    store.create_region(RegionConfig(name="rgHot"), num_dies=2, dies=[0, 1])
    store.create_region(RegionConfig(name="rgCold"), num_dies=6, dies=[2, 3, 4, 5, 6, 7])
    return store


def main() -> None:
    store = build_store()
    rng = random.Random(3)
    payloads = {}
    t = 0.0
    for name in ("rgHot", "rgCold"):
        region = store.region(name)
        pages = region.allocate(200)
        for __ in range(3000):  # overwrites force GC: stale versions abound
            rpn = rng.choice(pages)
            payload = f"{name}:{rpn}:{rng.randrange(10**6)}".encode()
            t = region.write(rpn, payload, t)
            payloads[(name, rpn)] = payload
    programs = store.device.stats.programs
    print(f"wrote {len(payloads)} live pages ({programs} total programs, "
          f"{store.device.stats.erases} erases along the way)")

    # --- crash: all host-side state is gone ---------------------------------
    recovered = build_store(device=store.device)
    scan_start = t
    t = recovered.recover(at=t)
    print(f"recovery scan took {(t - scan_start) / 1000:.1f} ms of simulated time "
          f"({store.device.stats.reads} OOB/page reads total)")

    checked = 0
    for (name, rpn), payload in payloads.items():
        data, t = recovered.region(name).read(rpn, t)
        assert data == payload, f"lost {name}:{rpn}"
        checked += 1
    recovered.check_consistency()
    print(f"verified all {checked} live pages carry their latest version.")
    print("stale versions were recognised by sequence number and left as garbage.")


if __name__ == "__main__":
    main()
