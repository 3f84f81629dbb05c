"""Atomic multi-page writes: NoFTL advantage (iv), demonstrated.

The paper lists among NoFTL's advantages "(iv) direct control over the
out-of-place updates, which allows implementing short atomic writes
without additional overhead".  On an FTL SSD a multi-page atomic update
needs a journal or a double-write buffer (extra writes!); under NoFTL the
new versions are simply programmed out-of-place and the mapping flips at
the end — a torn batch is recognised at recovery by its page-count
metadata and discarded wholesale.

Run:  python examples/atomic_writes.py
"""

from repro.core import NoFTLStore, RegionConfig
from repro.flash import FlashGeometry


def build(device=None):
    geometry = FlashGeometry(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=16,
        pages_per_block=16,
        page_size=2048,
        oob_size=64,
    )
    store = NoFTLStore.create(geometry) if device is None else NoFTLStore(device)
    store.create_region(RegionConfig(name="rg"), num_dies=4, dies=[0, 1, 2, 3])
    return store


def main() -> None:
    store = build()
    region = store.region("rg")
    pages = region.allocate(4)
    t = 0.0
    for p in pages:
        t = region.write(p, b"balance=100", t)
    print("initial state written: 4 account pages, balance=100 each")

    # a committed atomic transfer across all four pages
    t = region.write_atomic([(p, b"balance=250") for p in pages], t)
    print("atomic update committed (4 pages, no journal, no double write)")

    # --- now simulate a crash HALFWAY through another atomic batch ---------
    engine = region.engine
    atomic_id = store.device.next_sequence()
    for p in pages[:2]:  # only 2 of the 4 pages reach flash
        die = engine._pick_die()
        block = engine._user_frontier[die]
        if block is None:
            block = engine._user_frontier[die] = engine.books[die].take_free_block()
        page = engine.books[die].written[block]
        # OOB record: lpn, write sequence, owning region, batch annotation
        store.device.program_page_packed(
            die, block, page, b"balance=999",
            p, store.device.next_sequence(), region.region_id, t,
            {"atomic_id": atomic_id, "atomic_size": 4},
        )
        engine.books[die].note_write(block, page, t)
    print("CRASH: a second atomic batch died after 2 of its 4 pages")

    recovered = build(device=store.device)
    end = recovered.recover(at=t)
    print(f"recovery scan finished ({(end - t) / 1000:.1f} ms simulated)")
    values = {recovered.region("rg").read(p, end)[0] for p in pages}
    assert values == {b"balance=250"}, values
    print("every page shows balance=250: the committed batch survived,")
    print("the torn batch rolled back wholesale. No 999s, no mixed state.")


if __name__ == "__main__":
    main()
