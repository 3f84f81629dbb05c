"""``FlashSpaceEngine.read`` off the fast path: the branches that still
work on address objects.

The common read runs on integer coordinates end to end.  Three branches
leave it — a transient read failure that a retry recovers (and scrubs),
one the retries do not recover, and a read-disturb refresh — and each is
pinned here against values recorded from the object-address
implementation this one replaced: every counter of the three stats
objects, the full event stream, the clock and the mapping.
"""

import hashlib

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.flash import FlashDevice, FlashGeometry
from repro.flash.errors import TransientReadError
from repro.mapping import DieBookkeeping, FlashSpaceEngine, ManagementStats

PER_BLOCK = 8


def make_engine(**engine_kwargs):
    geometry = FlashGeometry(
        channels=1,
        chips_per_channel=1,
        dies_per_chip=2,
        planes_per_die=1,
        blocks_per_plane=12,
        pages_per_block=PER_BLOCK,
        page_size=128,
        oob_size=16,
        max_pe_cycles=1_000_000,
    )
    device = FlashDevice(geometry)  # real timing: the pinned times mean something
    books = {d: DieBookkeeping(d, 12, PER_BLOCK) for d in (0, 1)}
    engine = FlashSpaceEngine(device, [0, 1], books, ManagementStats(), **engine_kwargs)
    t = 0.0
    for key in range(2 * PER_BLOCK):  # one FULL block per die, all valid
        t = engine.write(key, bytes([key]), at=t)
    device.attach_event_bus()
    return engine, t


def nonzero(snapshot):
    return {key: value for key, value in snapshot.items() if value}


def observed(engine, injector=None):
    """Everything a read may move, in a form that can be written down."""
    device = engine.device
    events = list(device.events.events)
    stream = "\n".join(event.to_json() for event in events)
    return {
        "mgmt": nonzero(engine.stats.snapshot()),
        "flash": nonzero(device.stats.snapshot()),
        "faults": nonzero(injector.stats.snapshot()) if injector is not None else {},
        "kinds": [event.kind for event in events],
        "events_sha256": hashlib.sha256(stream.encode()).hexdigest(),
        "clock": device.clock.now,
        "packed_by_key": [packed for __, packed in sorted(engine._map.items())],
        "reads_since_erase": nonzero({
            (die.index, b): block.reads_since_erase
            for die in device.dies
            for b, block in enumerate(die.blocks)
        }),
    }


def attach(engine, **spec):
    injector = FaultInjector(FaultPlan(specs=(FaultSpec(**spec),), seed=0))
    engine.device.attach_fault_injector(injector)
    return injector


def test_transient_read_recovered_by_retry_scrubs_the_block():
    engine, t = make_engine()
    injector = attach(engine, kind="read_transient", at_op=1, retries=2)
    assert engine.read(0, at=t) == (bytes([0]), PINNED_RETRY_END_US)
    engine.check_consistency()
    assert observed(engine, injector) == PINNED_RETRY


def test_transient_read_that_outlasts_the_retries_propagates():
    engine, t = make_engine(max_read_retries=3)
    injector = attach(engine, kind="read_transient", at_op=1, retries=8)
    with pytest.raises(TransientReadError):
        engine.read(0, at=t)
    engine.check_consistency()
    assert observed(engine, injector) == PINNED_EXHAUSTED


def test_read_disturb_refresh_relocates_and_erases_the_block():
    engine, t = make_engine(read_disturb_threshold=5)
    ends = []
    for __ in range(6):
        data, t = engine.read(3, at=t)
        assert data == bytes([3])
        ends.append(t)
    assert ends == PINNED_REFRESH_ENDS_US
    engine.check_consistency()
    assert observed(engine) == PINNED_REFRESH


# Recorded at 13895a3, where every read built a PhysicalPageAddress,
# a PageMetadata and a CommandResult.
COPYBACKS = ["copyback"] * PER_BLOCK

PINNED_RETRY_END_US = 8925.0
PINNED_RETRY = {
    "mgmt": {"gc_copybacks": 8, "gc_erases": 1},
    "flash": {
        "reads": 1, "programs": 16, "erases": 1, "copybacks": 8,
        "bytes_read": 1, "bytes_written": 16,
        "read_latency_mean_us": 125.0, "program_latency_mean_us": 550.0,
    },
    "faults": {
        "injected.read_transient": 1.0, "injected.total": 1.0,
        "recovered.read_retry": 1.0, "recovered.total": 1.0,
        "work.read_retry_attempts": 2.0,  # the first failure + one failed retry
        "work.scrubs": 1.0, "work.scrub_relocations": 8.0,
    },
    "kinds": ["inject_read_transient", "read_page", "read_recovered",
              *COPYBACKS, "erase_block", "scrub"],
    "events_sha256": "1fd0533bc03e4cd1cd2746997732c70aa223077ef1001f632c1aaa1174989165",
    "clock": 16065.0,
    # die 0's keys moved from block 0 to block 1; die 1 untouched
    "packed_by_key": [8, 96, 9, 97, 10, 98, 11, 99, 12, 100, 13, 101, 14, 102, 15, 103],
    "reads_since_erase": {},  # the one block that was read has been erased
}

PINNED_EXHAUSTED = {
    "mgmt": {},
    "flash": {"programs": 16, "bytes_written": 16, "program_latency_mean_us": 550.0},
    "faults": {
        "injected.read_transient": 1.0, "injected.total": 1.0,
        "work.read_retry_attempts": 4.0,  # the first failure + three failed retries
    },
    "kinds": ["inject_read_transient"],
    "events_sha256": "ddf00030bb81e82673e1f5cc0e9a4beabdb7f35eddbb1f10a80b53be307e164c",
    "clock": 8800.0,
    "packed_by_key": [0, 96, 1, 97, 2, 98, 3, 99, 4, 100, 5, 101, 6, 102, 7, 103],
    "reads_since_erase": {},  # a failed read never reaches the block
}

# the fifth read crosses the threshold; the sixth queues behind the refresh
PINNED_REFRESH_ENDS_US = [8925.0, 9050.0, 9175.0, 9300.0, 9425.0, 16690.0]
PINNED_REFRESH = {
    "mgmt": {"wl_moves": 8, "wl_erases": 1},  # counted as WL, not GC
    "flash": {
        "reads": 6, "programs": 16, "erases": 1, "copybacks": 8,
        "bytes_read": 6, "bytes_written": 16,
        "read_latency_mean_us": 1315.0, "program_latency_mean_us": 550.0,
    },
    "faults": {},
    "kinds": ["read_page"] * 5 + COPYBACKS + ["erase_block", "read_page"],
    "events_sha256": "ac0705f919a3cfacaa4b0b752c9a97eeeecfb853ff63007351136d00ab6428e8",
    "clock": 16690.0,
    # die 1's keys moved from block 0 to block 1; die 0 untouched
    "packed_by_key": [0, 104, 1, 105, 2, 106, 3, 107, 4, 108, 5, 109, 6, 110, 7, 111],
    "reads_since_erase": {(1, 1): 1},  # the sixth read, on the new block
}
