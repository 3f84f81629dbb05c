"""``FlashSpaceEngine.read`` off the fast path: the branches that still
work on address objects.

The common read runs on integer coordinates end to end.  Three branches
leave it — a transient read failure that a retry recovers (and scrubs),
one the retries do not recover, and a read-disturb refresh — and each is
pinned here against values recorded from the object-address
implementation this one replaced: every counter of the three stats
objects, every die's and channel's reservations, the clock and the
mapping.
"""

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
    return engine, t


def nonzero(snapshot):
    return {key: value for key, value in snapshot.items() if value}


def observed(engine, injector=None):
    """Everything a read may move, in a form that can be written down."""
    device = engine.device
    return {
        "mgmt": nonzero(engine.stats.snapshot()),
        "flash": nonzero(device.stats.snapshot()),
        "faults": nonzero(injector.stats.snapshot()) if injector is not None else {},
        # each die's, then the channel's, (busy_us, slot starts, slot ends)
        "timelines": [
            (t.busy_us, list(t._starts[t._lo:]), list(t._ends[t._lo:]))
            for t in [die.timeline for die in device.dies] + device.channels
        ],
        "clock": device.clock.now,
        "packed_by_key": [packed for __, packed in sorted(engine._map.items())],
        "reads_since_erase": nonzero({
            (die.index, b): reads
            for die in device.dies
            for b, reads in enumerate(die.block_reads)
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
# a PageMetadata and a CommandResult; the timelines were recorded at b8c6a5b.
# The first 8 slots of each die (and the first 16 of the channel) are the
# fill's programs.

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
    # die 0: the retried read, the 8 scrub copybacks, the erase
    "timelines": [
        (11215.0,
         [50.0, 1150.0, 2250.0, 3350.0, 4450.0, 5550.0, 6650.0, 7750.0, 8800.0, 8925.0,
          9505.0, 10085.0, 10665.0, 11245.0, 11825.0, 12405.0, 12985.0, 13565.0],
         [550.0, 1650.0, 2750.0, 3850.0, 4950.0, 6050.0, 7150.0, 8250.0, 8875.0, 9505.0,
          10085.0, 10665.0, 11245.0, 11825.0, 12405.0, 12985.0, 13565.0, 16065.0]),
        (4000.0,
         [600.0, 1700.0, 2800.0, 3900.0, 5000.0, 6100.0, 7200.0, 8300.0],
         [1100.0, 2200.0, 3300.0, 4400.0, 5500.0, 6600.0, 7700.0, 8800.0]),
        (850.0,
         [0.0, 550.0, 1100.0, 1650.0, 2200.0, 2750.0, 3300.0, 3850.0, 4400.0, 4950.0,
          5500.0, 6050.0, 6600.0, 7150.0, 7700.0, 8250.0, 8875.0],
         [50.0, 600.0, 1150.0, 1700.0, 2250.0, 2800.0, 3350.0, 3900.0, 4450.0, 5000.0,
          5550.0, 6100.0, 6650.0, 7200.0, 7750.0, 8300.0, 8925.0]),
    ],
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
    # the fill's programs only: no failed read reserves a slot
    "timelines": [
        (4000.0,
         [50.0, 1150.0, 2250.0, 3350.0, 4450.0, 5550.0, 6650.0, 7750.0],
         [550.0, 1650.0, 2750.0, 3850.0, 4950.0, 6050.0, 7150.0, 8250.0]),
        (4000.0,
         [600.0, 1700.0, 2800.0, 3900.0, 5000.0, 6100.0, 7200.0, 8300.0],
         [1100.0, 2200.0, 3300.0, 4400.0, 5500.0, 6600.0, 7700.0, 8800.0]),
        (800.0,
         [0.0, 550.0, 1100.0, 1650.0, 2200.0, 2750.0, 3300.0, 3850.0, 4400.0, 4950.0,
          5500.0, 6050.0, 6600.0, 7150.0, 7700.0, 8250.0],
         [50.0, 600.0, 1150.0, 1700.0, 2250.0, 2800.0, 3350.0, 3900.0, 4450.0, 5000.0,
          5550.0, 6100.0, 6650.0, 7200.0, 7750.0, 8300.0]),
    ],
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
    # die 1: five reads, the 8 refresh copybacks, the erase, the sixth read
    "timelines": [
        (4000.0,
         [50.0, 1150.0, 2250.0, 3350.0, 4450.0, 5550.0, 6650.0, 7750.0],
         [550.0, 1650.0, 2750.0, 3850.0, 4950.0, 6050.0, 7150.0, 8250.0]),
        (11590.0,
         [600.0, 1700.0, 2800.0, 3900.0, 5000.0, 6100.0, 7200.0, 8300.0, 8800.0, 8925.0,
          9050.0, 9175.0, 9300.0, 9425.0, 10005.0, 10585.0, 11165.0, 11745.0, 12325.0,
          12905.0, 13485.0, 14065.0, 16565.0],
         [1100.0, 2200.0, 3300.0, 4400.0, 5500.0, 6600.0, 7700.0, 8800.0, 8875.0, 9000.0,
          9125.0, 9250.0, 9375.0, 10005.0, 10585.0, 11165.0, 11745.0, 12325.0, 12905.0,
          13485.0, 14065.0, 16565.0, 16640.0]),
        (1100.0,
         [0.0, 550.0, 1100.0, 1650.0, 2200.0, 2750.0, 3300.0, 3850.0, 4400.0, 4950.0,
          5500.0, 6050.0, 6600.0, 7150.0, 7700.0, 8250.0, 8875.0, 9000.0, 9125.0, 9250.0,
          9375.0, 16640.0],
         [50.0, 600.0, 1150.0, 1700.0, 2250.0, 2800.0, 3350.0, 3900.0, 4450.0, 5000.0,
          5550.0, 6100.0, 6650.0, 7200.0, 7750.0, 8300.0, 8925.0, 9050.0, 9175.0, 9300.0,
          9425.0, 16690.0]),
    ],
    "clock": 16690.0,
    # die 1's keys moved from block 0 to block 1; die 0 untouched
    "packed_by_key": [0, 104, 1, 105, 2, 106, 3, 107, 4, 108, 5, 109, 6, 110, 7, 111],
    "reads_since_erase": {(1, 1): 1},  # the sixth read, on the new block
}
