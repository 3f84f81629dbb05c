"""Virtual time and resource occupancy.

The simulator is *trace-driven with resource reservation* rather than a full
discrete-event simulator: callers carry their own virtual clock (e.g. each
TPC-C terminal knows "its" current time) and every flash command reserves
time on the shared resources it needs — the target die and, for host
transfers, the channel.  A command issued at time ``t`` starts when the
resources become free and the caller's clock advances to its completion
time.  Running callers in ascending-clock order (see
:class:`repro.tpcc.driver.Driver`) makes reservations approximately
time-ordered, which is accurate enough to reproduce contention effects while
staying simple and fast.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass, field

from repro.flash.errors import ConfigError, StaleReservationError


class SimClock:
    """A monotonically advancing virtual clock (microseconds).

    The clock only moves forward: :meth:`advance_to` with an earlier time is
    a no-op.  It records the furthest point in virtual time any caller has
    reached, which the driver uses as the experiment's wall-clock.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self._now

    def advance_to(self, t: float) -> float:
        """Move the clock to ``t`` if that is later than now; return now."""
        if t > self._now:
            self._now = t
        return self._now

    def advance_by(self, dt: float) -> float:
        """Move the clock forward by ``dt`` microseconds; return now."""
        if dt < 0:
            raise ConfigError("cannot advance the clock backwards")
        self._now += dt
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.1f}us)"


#: reservations ending this far before a new request's issue time are
#: forgotten by a prune (bounds memory; callers' clocks never drift further
#: apart, and a request behind what was forgotten is refused, see
#: :class:`StaleReservationError`).
_PRUNE_HORIZON_US = 10_000_000.0
#: a prune waits until the oldest remembered slot ended this far before a
#: request, so it runs about once per eighth of a horizon, not on every
#: request
_PRUNE_LAG_US = _PRUNE_HORIZON_US * 9 / 8


@dataclass(slots=True)
class ResourceTimeline:
    """Occupancy timeline of one serially-used resource (a die or channel).

    The resource serves one operation at a time.  :meth:`reserve` is
    *gap-filling*: a request issued at time *t* takes the first idle
    interval of sufficient length at or after *t*, even if later
    reservations already exist — like a command queue whose controller
    starts whatever is ready when the resource idles.  (A purely
    append-only timeline would let one caller's far-future reservation
    block everyone's earlier idle time, which no real device does.)
    Total busy time accumulates for utilization reporting.

    Reservations live in two sorted columns of C doubles, ``_starts`` and
    ``_ends`` (``array('d')``): 16 bytes per slot and no Python object per
    reservation, and a float round-trips exactly through a double, so the
    grants are those of float lists.  Granted slots are disjoint
    and never empty, so ordering by start and by end agree and the ends
    are strictly increasing: every search is a bisect on ``_ends``.  Slots
    before the offset ``_lo`` are forgotten; the columns are compacted
    once that prefix passes a third of their length.
    """

    name: str = ""
    busy_us: float = 0.0
    _starts: array[float] = field(default_factory=lambda: array("d"), repr=False)
    _ends: array[float] = field(default_factory=lambda: array("d"), repr=False)
    #: the latest end granted, as a float (-inf before the first slot)
    _last_end: float = field(default=float("-inf"), repr=False)
    #: index of the first remembered slot
    _lo: int = field(default=0, repr=False)
    #: ``_ends[_lo]`` as a float (+inf while nothing is remembered)
    _first_end: float = field(default=float("inf"), repr=False)
    #: the cutoff of the last prune: busy time before it is forgotten, so a
    #: request issued earlier is refused
    _forgotten_before: float = field(default=float("-inf"), repr=False)
    #: max(``_last_end``, ``_forgotten_before``): a request from here on appends
    _append_from: float = field(default=float("-inf"), repr=False)

    def reserve(self, earliest: float, duration: float) -> tuple[float, float]:
        """Reserve ``duration`` us starting no earlier than ``earliest``.

        Returns ``(start, end)`` of the granted slot — the first gap that
        fits.  A zero-length request reserves nothing and returns the
        instant it would start.  Raises :class:`StaleReservationError` for
        a request issued before the forgotten horizon."""
        # append path, checked first: a request at or after the last known
        # reservation (and the prune cutoff) fills no gap and starts at once,
        # the common case for a caller whose clock tracks the resource
        if earliest >= self._append_from and duration > 0.0:
            if self._first_end < earliest - _PRUNE_LAG_US:
                self._prune(earliest)
            end = earliest + duration
            self._starts.append(earliest)
            self._ends.append(end)
            if self._first_end > end:  # nothing was remembered before it
                self._first_end = end
            self._last_end = self._append_from = end
            self.busy_us += duration
            return earliest, end
        if duration < 0:
            raise ConfigError("duration must be >= 0")
        if earliest < self._forgotten_before:
            raise StaleReservationError(self.name, earliest, self._forgotten_before)
        if self._first_end < earliest - _PRUNE_LAG_US:
            self._prune(earliest)
        # first fit at or after ``earliest``: the first slot that can hold
        # back ``start`` is the first ending after it, and each later slot
        # ends after the one before, so none is skipped; ``index`` ends up
        # where a slot of ``duration > 0`` starting there goes
        # (``bisect_left`` of its end)
        start = earliest
        starts = self._starts
        ends = self._ends
        index = len(ends)
        for i in range(bisect.bisect_right(ends, start, self._lo), index):
            s = starts[i]
            # a gap fits when the end as granted (``start + duration``,
            # rounded) reaches no further than the next slot's start —
            # ``s - start >= duration`` can hold while that sum is one ulp
            # past ``s``; zero-length requests need an instant not inside
            # (or at the start of) a busy slot
            if start + duration <= s and (duration > 0 or s > start):
                index = i
                break
            start = ends[i]
        end = start + duration
        if duration > 0:
            # the new slot is disjoint from every other, so its place by end
            # is its place by start
            starts.insert(index, start)
            ends.insert(index, end)
            if index == self._lo:
                self._first_end = end
            if end > self._last_end:
                self._last_end = self._append_from = end
        self.busy_us += duration
        return start, end

    def _prune(self, earliest: float) -> None:
        # the ends are sorted, so the slots to forget are a prefix: move the
        # offset past it, and delete it only once it is more than a third
        # of the columns, so each slot is moved O(1) times over its life
        # instead of once per prune (a prefix `del` moves the whole
        # remaining tail).  A third, not a half: the columns then peak at
        # 1.5x the up to 9/8 horizon remembered, below 2x one horizon
        cutoff = earliest - _PRUNE_HORIZON_US
        ends = self._ends
        lo = bisect.bisect_left(ends, cutoff, self._lo)
        self._forgotten_before = cutoff
        if 3 * lo > len(ends):
            del self._starts[:lo]
            del ends[:lo]
            lo = 0
        self._lo = lo
        self._first_end = ends[lo] if lo < len(ends) else float("inf")
        self._append_from = max(self._last_end, cutoff)

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` this resource spent busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_us / horizon)
