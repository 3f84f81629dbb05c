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
from dataclasses import dataclass, field

from repro.flash.errors import ConfigError


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
#: forgotten (bounds memory; callers' clocks never drift further apart).
_PRUNE_HORIZON_US = 10_000_000.0


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
    """

    name: str = ""
    busy_us: float = 0.0
    #: sorted, disjoint reservation intervals
    _intervals: list[tuple[float, float]] = field(default_factory=list, repr=False)

    @property
    def available_at(self) -> float:
        """End of the last reservation (0.0 when never used)."""
        return self._intervals[-1][1] if self._intervals else 0.0

    def reserve(self, earliest: float, duration: float) -> tuple[float, float]:
        """Reserve ``duration`` us starting no earlier than ``earliest``.

        Returns ``(start, end)`` of the granted slot — the first gap that
        fits."""
        if duration < 0:
            raise ConfigError("duration must be >= 0")
        intervals = self._intervals
        if intervals and intervals[0][1] < earliest - _PRUNE_HORIZON_US:
            self._prune(earliest)
        # append fast path: a request issued at or after the last known
        # reservation cannot fill any gap, so it starts immediately — the
        # common case for a caller whose clock tracks the resource.  (The
        # gap-filling search below returns exactly `earliest` here.)
        if duration > 0.0 and (not intervals or earliest >= intervals[-1][1]):
            end = earliest + duration
            intervals.append((earliest, end))
            self.busy_us += duration
            return earliest, end
        start = self._find_gap(earliest, duration)
        end = start + duration
        if duration > 0:
            self._insert(start, end)
        self.busy_us += duration
        return start, end

    def peek_start(self, earliest: float) -> float:
        """When a zero-length op issued at ``earliest`` would start."""
        return self._find_gap(earliest, 0.0)

    def _find_gap(self, earliest: float, duration: float) -> float:
        t = earliest
        # first interval that could overlap [t, ...): binary search on end
        intervals = self._intervals
        index = bisect.bisect_right(intervals, (t, float("inf")))
        if index > 0 and intervals[index - 1][1] > t:
            index -= 1
        # walk by index: slicing the tail would copy O(n) per request
        for i in range(index, len(intervals)):
            s, e = intervals[i]
            if e <= t:
                continue
            # a gap fits when it holds the duration; zero-length requests
            # need an instant not inside (or at the start of) a busy slot
            if s - t >= duration and (duration > 0 or s > t):
                return t
            t = e
        return t

    def _insert(self, start: float, end: float) -> None:
        index = bisect.bisect_left(self._intervals, (start, end))
        self._intervals.insert(index, (start, end))

    def _prune(self, earliest: float) -> None:
        # intervals are disjoint and start-sorted, so their ends are sorted
        # too: everything to prune is a prefix, removable with one slice
        # deletion (O(stale) amortised) instead of rebuilding the list.
        intervals = self._intervals
        if not intervals or intervals[0][1] >= earliest - _PRUNE_HORIZON_US:
            return
        cutoff = earliest - _PRUNE_HORIZON_US
        index = 1
        n = len(intervals)
        while index < n and intervals[index][1] < cutoff:
            index += 1
        del intervals[:index]

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` this resource spent busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_us / horizon)
