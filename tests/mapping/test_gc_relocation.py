"""GC relocation: every live page of a victim moves exactly once.

``FlashSpaceEngine._relocate`` is the one loop that moves a block's live
pages — COPYBACK first, the read+program fallback when the device refuses
it, a grown-bad GC frontier salvaged and the move re-driven when a fallback
PROGRAM fails.  Whichever way a page travels, GC counts it once, as a
``gc_copybacks`` or a ``gc_reads`` (with its ``gc_programs``), so the two
add up to the live pages of the victims (plus, under program faults, the
pages salvaged off retired frontiers, which GC moves too).

The fault-matrix CI job reruns this file under its three
``REPRO_FAULT_SEED`` values: the seed picks which pages die before each
collection and drives the fault plan's draws.
"""

import os
import random

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.mapping.blockinfo import BookkeepingError

from tests.mapping.test_retirement import make_engine

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
PPB = 8


def _payload(key, version):
    return f"{key}:{version}".encode()


def _block_of(engine, key):
    return engine._map[key] // PPB  # one die: the packed address is block * ppb + page


def _assert_data(engine, latest, t):
    for key, version in latest.items():
        assert engine.read(key, at=t)[0] == _payload(key, version)


def _two_victims(strict):
    """Collect a victim with 3 live pages, then one with 6: the first
    leaves 5 free pages in the GC frontier, so the second's moves fill it
    and spill into a second frontier block.  Returns the engine, the
    latest version of every key, the end time and the blocks that
    received the second victim's pages."""
    engine = make_engine(
        planes_per_die=2, blocks_per_plane=8, pages_per_block=PPB,
        strict_plane_copyback=strict,
    )
    rng = random.Random(SEED)
    books = engine.books[0]
    latest = {}
    t = 0.0
    for key in range(2 * PPB):  # two FULL blocks, every page live
        t = engine.write(key, _payload(key, 0), at=t)
        latest[key] = 0
    first = _block_of(engine, 0)
    second = _block_of(engine, PPB)
    assert first != second

    for key in rng.sample(range(PPB), 5):
        t = engine.write(key, _payload(key, 1), at=t)
        latest[key] = 1
    survivors = [k for k in range(PPB) if _block_of(engine, k) == first]
    assert books.valid_count[first] == len(survivors) == 3
    t = engine._collect_block(0, first, t)
    spill = engine._gc_frontier[0]
    assert spill is not None and books.written[spill] == 3

    for key in rng.sample(range(PPB, 2 * PPB), 2):
        t = engine.write(key, _payload(key, 1), at=t)
        latest[key] = 1
    moved = [k for k in range(PPB, 2 * PPB) if _block_of(engine, k) == second]
    assert books.valid_count[second] == len(moved) == 6
    t = engine._collect_block(0, second, t)
    targets = {_block_of(engine, key) for key in moved}
    return engine, latest, t, spill, targets


class TestGCRelocation:
    def test_victim_overflowing_the_gc_frontier_fills_two_blocks(self):
        engine, latest, t, spill, targets = _two_victims(strict=False)
        stats = engine.stats
        books = engine.books[0]
        # the first frontier block filled (and left its slot by the
        # frontier rule); the sixth page opened the next one
        assert books.written[spill] == PPB
        fresh = engine._gc_frontier[0]
        assert fresh is not None and fresh != spill
        assert books.written[fresh] == 1
        assert targets == {spill, fresh}
        assert stats.gc_copybacks + stats.gc_reads == 3 + 6 == stats.gc_victim_valid_pages
        assert stats.gc_reads == stats.gc_programs == 0
        assert stats.gc_erases == 2
        assert engine.device.stats.copybacks == stats.gc_copybacks
        _assert_data(engine, latest, t)
        engine.check_consistency()

    def test_strict_plane_copyback_falls_back_to_read_and_program(self):
        # plane = block % 2: both victims send pages to frontier blocks of
        # the other plane, which strict plane copyback refuses
        engine, latest, t, spill, targets = _two_victims(strict=True)
        stats = engine.stats
        assert len(targets) == 2
        assert stats.gc_reads == stats.gc_programs > 0
        assert stats.gc_copybacks + stats.gc_reads == 3 + 6 == stats.gc_victim_valid_pages
        assert engine.device.stats.copybacks == stats.gc_copybacks
        _assert_data(engine, latest, t)
        engine.check_consistency()

    def test_program_faults_during_gc_are_salvaged_and_redriven(self):
        # two more free blocks per die than the default watermarks: each
        # grown-bad GC frontier takes a spare block before its victim is
        # erased (see the xfail below for the default watermarks)
        engine, injector, victims, latest, t = _churn_with_faults_in_gc(
            SEED, gc_trigger_free_blocks=4, gc_target_free_blocks=6
        )
        stats = engine.stats
        faults = injector.stats
        assert faults.injected_program_fail > 0
        assert faults.retired_grown_bad_blocks == faults.injected_program_fail
        assert faults.accounting_closes()
        assert sum(victims) == stats.gc_victim_valid_pages
        assert stats.gc_copybacks + stats.gc_reads == sum(victims) + faults.salvage_relocations
        assert stats.gc_reads == stats.gc_programs > 0
        assert engine.device.stats.copybacks == stats.gc_copybacks
        _assert_data(engine, latest, t)
        engine.check_consistency()

    @pytest.mark.xfail(
        strict=True, raises=BookkeepingError,
        reason="a GC frontier that goes grown-bad takes a fresh block before its victim"
        " is erased; at the default watermarks back-to-back faults in one"
        " collection empty the die's free pool",
    )
    def test_program_faults_during_gc_at_the_default_watermarks(self):
        _churn_with_faults_in_gc(7)


def _churn_with_faults_in_gc(seed, **engine_kwargs):
    """Overwrite 60% of the safe capacity twelve times over with a seeded
    plan failing fallback PROGRAMs; the plan is armed only while GC runs,
    so every fault hits a relocation (or the salvage it starts)."""
    engine = make_engine(
        dies=2, planes_per_die=2, blocks_per_plane=16, pages_per_block=PPB,
        strict_plane_copyback=True, **engine_kwargs,
    )
    injector = FaultInjector(
        FaultPlan(specs=(FaultSpec(kind="program_fail", probability=0.1, count=8),), seed=seed)
    )
    victims = []
    collect = engine._collect_block

    def collect_with_faults_armed(die, victim, at):
        victims.append(engine.books[die].valid_count[victim])
        engine.device.attach_fault_injector(injector)
        try:
            return collect(die, victim, at)
        finally:
            engine.device.faults = None

    engine._collect_block = collect_with_faults_armed
    rng = random.Random(seed)
    keys = engine.safe_capacity_pages() * 3 // 5
    latest = {}
    t = 0.0
    for step in range(12 * keys):
        key = step if step < keys else rng.randrange(keys)
        latest[key] = latest.get(key, -1) + 1
        t = engine.write(key, _payload(key, latest[key]), at=t)
    return engine, injector, victims, latest, t
