"""Property-based tests: flash space engine invariants under random ops.

The central invariant of any flash management layer: *whatever sequence of
writes, overwrites, invalidations and GC happens, every live logical page
maps to exactly one valid physical page holding its latest data.*
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.flash import FlashDevice, FlashGeometry, instant_timing
from repro.mapping import DieBookkeeping, FlashSpaceEngine, ManagementStats


def make_engine(dies=2, blocks=8, pages=8):
    geometry = FlashGeometry(
        channels=dies,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=blocks,
        pages_per_block=pages,
        page_size=64,
        oob_size=8,
        max_pe_cycles=100_000,
    )
    device = FlashDevice(geometry, timing=instant_timing())
    die_list = list(range(dies))
    books = {
        d: DieBookkeeping(d, geometry.blocks_per_die, geometry.pages_per_block)
        for d in die_list
    }
    return FlashSpaceEngine(device, die_list, books, ManagementStats())


# Long skewed runs on small devices: GC erases a block soon after it fills,
# which is where a frontier slot that outlived its block shows.  The ops
# come from a drawn seed (hypothesis would spend the budget generating
# 1,500-element lists); the seed, geometry and check cadence still shrink.
@settings(max_examples=60, deadline=None)
@given(
    dies=st.integers(min_value=2, max_value=4),
    blocks=st.integers(min_value=8, max_value=12),
    pages=st.integers(min_value=4, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=0, max_value=1500),
    check_every=st.integers(min_value=1, max_value=40),
)
def test_latest_write_wins_and_mapping_consistent(dies, blocks, pages, seed, count, check_every):
    engine = make_engine(dies, blocks, pages)
    rng = random.Random(seed)
    keys = engine.safe_capacity_pages()
    shadow: dict[int, bytes] = {}
    at = 0.0
    for i in range(count):
        key = int(rng.paretovariate(1.2)) % keys
        if rng.random() < 0.9:
            payload = bytes([i % 256, key % 256])
            at = engine.write(key, payload, at, group=rng.choice([None, 1, 2]))
            shadow[key] = payload
        else:
            engine.invalidate(key)
            shadow.pop(key, None)
        if i % check_every == 0:
            engine.check_consistency()
    engine.check_consistency()
    assert engine.live_pages() == len(shadow)
    for key, payload in shadow.items():
        assert engine.read(key, at)[0] == payload
    for key in set(range(keys)) - set(shadow):
        assert not engine.contains(key)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=7), min_size=30, max_size=200),
    st.integers(min_value=0, max_value=1),
)
def test_heavy_overwrite_forces_gc_but_preserves_data(keys, grouped):
    engine = make_engine(dies=1)
    shadow = {}
    at = 0.0
    for i, key in enumerate(keys * 4):
        payload = bytes([i % 256])
        at = engine.write(key, payload, at, group=1 if grouped else None)
        shadow[key] = payload
    engine.check_consistency()
    for key, payload in shadow.items():
        assert engine.read(key, at)[0] == payload


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_valid_page_count_equals_live_pages(data):
    engine = make_engine()
    at = 0.0
    n = data.draw(st.integers(min_value=0, max_value=60))
    for i in range(n):
        key = data.draw(st.integers(min_value=0, max_value=9))
        at = engine.write(key, bytes([i % 256]), at)
    bookkeeping_valid = sum(
        books.total_valid_pages() for books in engine.books.values()
    )
    assert bookkeeping_valid == engine.live_pages()
