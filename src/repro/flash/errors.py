"""Exception hierarchy for the native flash simulator.

Every error raised by :mod:`repro.flash` derives from :class:`FlashError`, so
callers that want blanket handling of device-level failures can catch a single
type.  The concrete subclasses mirror the failure modes of real NAND flash
hardware: addressing outside the device geometry, violating the
program/erase discipline, exceeding endurance, and touching blocks that were
retired to the bad-block table.

A class whose constructor takes more than the message defines
``__reduce__`` from those arguments, so the error survives pickling — the
way a failure in a shard worker reaches the parent process.
"""

from __future__ import annotations


class FlashError(Exception):
    """Base class for all errors raised by the flash simulator."""


class ConfigError(FlashError, ValueError):
    """A flash-layer object was constructed with invalid parameters.

    Subclasses ``ValueError`` so existing ``except ValueError`` callers
    (and tests) keep working, while ``except FlashError`` blanket
    handlers see it too — the repo's typed-error discipline
    (``errors.typed-discipline`` lint rule).
    """


class TracerStateError(FlashError, RuntimeError):
    """A tracer lifecycle operation ran in the wrong state.

    Raised by :class:`repro.flash.trace.FlashTracer` for double-attach.
    Subclasses ``RuntimeError`` for backward compatibility with generic
    handlers.
    """


class AddressError(FlashError):
    """A physical address does not exist in the device geometry."""


class ProgramError(FlashError):
    """A PROGRAM PAGE command violated NAND programming rules.

    Raised when programming a page that has not been erased since it was
    last programmed, or when programming pages of a block out of order
    (NAND requires strictly sequential page programming within a block).
    """


class EraseError(FlashError):
    """An ERASE BLOCK command could not be performed."""


class CopybackError(FlashError):
    """A COPYBACK command violated its constraints.

    Real NAND copyback moves a page through the on-die page register and is
    only possible within one die (and, on strict hardware, within one
    plane).
    """


class ReadError(FlashError):
    """A READ PAGE command targeted a page with no readable content."""


class WearOutError(FlashError):
    """A block exceeded its rated program/erase endurance."""


class BadBlockError(FlashError):
    """The command targeted a block in the bad-block table."""


class DataError(FlashError):
    """Page payload does not fit the geometry (too large, wrong type)."""


class TransientReadError(ReadError):
    """A READ PAGE failed recoverably (ECC miss); a retry may succeed.

    Real NAND reports correctable-but-failed reads that succeed under a
    read-retry sequence with shifted reference voltages.  Raised only by
    fault injection (:mod:`repro.faults`); the management layer answers
    with bounded retry followed by a salvage relocation (scrub).
    """

    def __init__(self, die: int, block: int, page: int) -> None:
        super().__init__(f"transient read failure at die {die} block {block} page {page}")
        self.die = die
        self.block = block
        self.page = page

    def __reduce__(self) -> tuple[type[FlashError], tuple[int, int, int]]:
        return type(self), (self.die, self.block, self.page)


class ProgramFaultError(ProgramError):
    """A PROGRAM PAGE failed in the cell array (grown bad block).

    Raised before the page is committed: the block's previously programmed
    pages remain readable, but the block must be retired.  The management
    layer salvages the live pages and re-drives the write to a fresh
    frontier.
    """

    def __init__(self, die: int, block: int, page: int) -> None:
        super().__init__(f"program failure at die {die} block {block} page {page}")
        self.die = die
        self.block = block
        self.page = page

    def __reduce__(self) -> tuple[type[FlashError], tuple[int, int, int]]:
        return type(self), (self.die, self.block, self.page)


class DieFailedError(FlashError):
    """A whole die stopped accepting programs and erases.

    Models the die-level failure domain of the paper's 64-die board.  The
    failure is *write-side*: previously programmed pages remain readable
    (so live data can be rebuilt onto surviving dies), but every PROGRAM,
    ERASE and COPYBACK on the die fails.
    """

    def __init__(self, die: int, op: str = "") -> None:
        detail = f" ({op})" if op else ""
        super().__init__(f"die {die} has failed; writes and erases rejected{detail}")
        self.die = die
        self.op = op

    def __reduce__(self) -> tuple[type[FlashError], tuple[int, str]]:
        return type(self), (self.die, self.op)


class PowerCutError(FlashError):
    """The simulated power was cut at a scheduled device operation.

    Everything volatile — host mapping tables, buffer pool, unflushed WAL
    pages — is lost; only programmed flash pages survive.  Harnesses catch
    this, rebuild state via OOB recovery and replay the WAL.
    """

    def __init__(self, op_number: int) -> None:
        super().__init__(f"power cut injected at device operation {op_number}")
        self.op_number = op_number

    def __reduce__(self) -> tuple[type[FlashError], tuple[int]]:
        return type(self), (self.op_number,)


class StaleReservationError(FlashError):
    """A request was issued before a resource timeline's forgotten horizon.

    A timeline forgets reservations that ended long before the latest
    request (see :class:`~repro.flash.simclock.ResourceTimeline`).  A later
    request issued earlier than that horizon could be granted a slot inside
    a busy interval the timeline no longer remembers, so it is refused
    instead of silently double-booking the resource.
    """

    def __init__(self, name: str, earliest: float, horizon: float) -> None:
        super().__init__(
            f"timeline {name!r}: request at {earliest:.1f}us is older than its "
            f"forgotten horizon {horizon:.1f}us"
        )
        self.name = name
        self.earliest = earliest
        self.horizon = horizon

    def __reduce__(self) -> tuple[type[FlashError], tuple[str, float, float]]:
        return type(self), (self.name, self.earliest, self.horizon)
