"""Unit tests for the virtual clock and resource timelines."""

import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import ResourceTimeline, SimClock
from repro.flash.errors import StaleReservationError
from repro.flash.simclock import _PRUNE_HORIZON_US as HORIZON


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now == 0.0

    def test_advance_to_moves_forward_only(self):
        c = SimClock()
        c.advance_to(100.0)
        c.advance_to(50.0)
        assert c.now == 100.0

    def test_advance_by(self):
        c = SimClock(start=10.0)
        c.advance_by(5.0)
        assert c.now == 15.0

    def test_advance_by_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance_by(-1.0)


class TestResourceTimeline:
    def test_reserve_when_free_starts_immediately(self):
        r = ResourceTimeline()
        start, end = r.reserve(10.0, 5.0)
        assert (start, end) == (10.0, 15.0)

    def test_reserve_queues_behind_prior_reservation(self):
        r = ResourceTimeline()
        r.reserve(0.0, 100.0)
        start, end = r.reserve(10.0, 5.0)
        assert (start, end) == (100.0, 105.0)

    def test_busy_time_accumulates(self):
        r = ResourceTimeline()
        r.reserve(0.0, 30.0)
        r.reserve(0.0, 20.0)
        assert r.busy_us == 50.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            ResourceTimeline().reserve(0.0, -1.0)

    def test_zero_length_reservation_reserves_nothing(self):
        r = ResourceTimeline()
        r.reserve(0.0, 100.0)
        # instants inside the busy slot are pushed past it; later instants
        # are free — and a zero-length request never changes the timeline
        assert r.reserve(0.0, 0.0) == (100.0, 100.0)
        assert r.reserve(50.0, 0.0) == (100.0, 100.0)
        assert r.reserve(150.0, 0.0) == (150.0, 150.0)
        assert list(r._ends) == [100.0]
        assert r._last_end == 100.0
        assert r.busy_us == 100.0
        start, __ = r.reserve(0.0, 10.0)
        assert start == 100.0  # a real duration must wait for the gap

    def test_gap_filling_uses_idle_time_before_future_reservations(self):
        r = ResourceTimeline()
        r.reserve(1000.0, 100.0)  # someone reserved far in the future
        start, end = r.reserve(0.0, 50.0)
        assert (start, end) == (0.0, 50.0)  # idle time before it is usable
        start, end = r.reserve(0.0, 2000.0)  # too big for the gap
        assert start == 1100.0

    def test_gap_exact_fit(self):
        r = ResourceTimeline()
        r.reserve(0.0, 100.0)
        r.reserve(200.0, 100.0)
        start, end = r.reserve(0.0, 100.0)
        assert (start, end) == (100.0, 200.0)

    def test_gap_that_fits_only_before_rounding_is_skipped(self):
        # the gap [146.0000000009349, 1020.1422729501536) is exactly as long
        # as the request, but start + duration rounds to one ulp past the
        # next slot's start: the request must go after that slot
        r = ResourceTimeline()
        __, first_end = r.reserve(1020.1422729501536, 10.0)
        start, end = r.reserve(146.0000000009349, 874.1422729492188)
        assert (start, end) == (first_end, first_end + 874.1422729492188)

    def test_request_behind_the_forgotten_horizon_is_refused(self):
        r = ResourceTimeline(name="die0")
        r.reserve(0.0, 100.0)
        r.reserve(3 * HORIZON, 10.0)  # forgets the first slot
        # issued before the prune's cutoff: [0, 100) is forgotten, so the
        # timeline cannot tell whether the resource was busy
        with pytest.raises(StaleReservationError, match="die0"):
            r.reserve(50.0, 10.0)
        with pytest.raises(StaleReservationError):
            r.reserve(2 * HORIZON - 1.0, 0.0)
        assert r.busy_us == 110.0  # a refused request reserves nothing
        # at the cutoff itself nothing forgotten can overlap the request
        assert r.reserve(2 * HORIZON, 10.0) == (2 * HORIZON, 2 * HORIZON + 10.0)

    def test_request_after_every_forgotten_slot_but_behind_the_horizon_is_refused(self):
        r = ResourceTimeline(name="die0")
        r.reserve(0.0, 100.0)
        # a zero-length request prunes without adding a slot: everything is
        # forgotten, and the cutoff lies after the last end ever granted
        assert r.reserve(3 * HORIZON, 0.0) == (3 * HORIZON, 3 * HORIZON)
        assert r._last_end == 100.0
        assert r._forgotten_before == 2 * HORIZON
        assert len(r._ends) == r._lo
        # after the last slot, so it could only append — but before the
        # cutoff, so the resource may have been busy then
        with pytest.raises(StaleReservationError, match="die0"):
            r.reserve(HORIZON, 10.0)
        with pytest.raises(StaleReservationError):
            r.reserve(HORIZON, 0.0)
        assert r.busy_us == 100.0
        assert r.reserve(2 * HORIZON, 10.0) == (2 * HORIZON, 2 * HORIZON + 10.0)
        assert r._ends[r._lo] == r._first_end == 2 * HORIZON + 10.0

    def test_append_path_reservations_cost_two_doubles_each(self):
        # 50,000 slots in two float lists held ~3.3 MB (a boxed float and a
        # list slot per value); as double columns they hold ~0.8 MB
        r = ResourceTimeline()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(50_000):
                r.reserve(i * 10.0, 5.0)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(r._ends) == 50_000
        assert grown < 1_600_000

    def test_utilization(self):
        r = ResourceTimeline()
        r.reserve(0.0, 25.0)
        assert r.utilization(100.0) == pytest.approx(0.25)
        assert r.utilization(0.0) == 0.0
        assert r.utilization(10.0) == 1.0


def _assert_double_columns(timeline):
    """The columns stay typed arrays of C doubles through every path, and
    the float copies the append and prune checks compare with agree with
    them."""
    for column in (timeline._starts, timeline._ends):
        assert isinstance(column, array) and column.typecode == "d"
    ends = timeline._ends
    lo = timeline._lo
    if ends:
        assert timeline._last_end == ends[-1]
    assert timeline._first_end == (ends[lo] if lo < len(ends) else float("inf"))
    assert timeline._append_from == max(timeline._last_end, timeline._forgotten_before)


def _first_fit(granted, earliest, duration):
    """Brute-force reference for :meth:`ResourceTimeline.reserve`: a first
    fit starts at ``earliest`` or where a granted slot ends — try each in
    time order against every slot."""
    for t in sorted({earliest, *(e for __, e in granted if e > earliest)}):
        if duration > 0:
            idle = all(e <= t or s >= t + duration for s, e in granted)
        else:  # an instant: neither inside nor at the start of a busy slot
            idle = not any(s <= t < e for s, e in granted)
        if idle:
            return t
    raise AssertionError("the end of the last slot is always idle")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=400).map(float),
            st.sampled_from([0.0, 0.0, 1.0, 3.0, 10.0, 25.0, 120.0]),
        ),
        max_size=60,
    )
)
def test_reserve_grants_the_first_fit_of_a_brute_force_scan(requests):
    """Random (earliest, duration) streams — out of order, exact fits and
    zero-length requests included — get exactly the reference's slots, the
    columns hold every granted slot in order (so each went in at the bisect
    of its end), and a zero-length request at its request time or at either
    edge of the newest slot reserves nothing."""
    timeline = ResourceTimeline()
    granted = []
    for earliest, duration in requests:
        expected = _first_fit(granted, earliest, duration)
        assert timeline.reserve(earliest, duration) == (expected, expected + duration)
        if duration > 0:
            granted.append((expected, expected + duration))
        columns = (list(timeline._starts), list(timeline._ends), timeline.busy_us)
        assert columns[:2] == ([s for s, __ in sorted(granted)], [e for __, e in sorted(granted)])
        probes = [earliest, *granted[-1]] if granted else [earliest]
        for instant in probes:
            fit = _first_fit(granted, instant, 0.0)
            assert timeline.reserve(instant, 0.0) == (fit, fit)
        assert (list(timeline._starts), list(timeline._ends), timeline.busy_us) == columns
        _assert_double_columns(timeline)
    assert timeline.busy_us == sum(e - s for s, e in granted)


def _first_fit_with_horizon(requests):
    """Drive a timeline and the brute-force reference through ``requests``;
    the reference forgets slots exactly as a prune does: once some slot
    ends more than 9/8 of a horizon before a request's issue time, every
    slot ending more than one horizon before it, and requests issued
    before the last such cutoff are refused."""
    timeline = ResourceTimeline()
    granted = []
    forgotten_before = last_end = float("-inf")
    for earliest, duration in requests:
        if earliest < forgotten_before:
            with pytest.raises(StaleReservationError):
                timeline.reserve(earliest, duration)
            continue
        cutoff = earliest - HORIZON
        if any(e < earliest - HORIZON * 9 / 8 for __, e in granted):
            granted = [(s, e) for s, e in granted if e >= cutoff]
            forgotten_before = cutoff
        expected = _first_fit(granted, earliest, duration)
        assert timeline.reserve(earliest, duration) == (expected, expected + duration)
        if duration > 0:
            granted.append((expected, expected + duration))
            last_end = max(last_end, expected + duration)
        # the remembered columns are the reference's slots, and the
        # forgotten prefix never outgrows what is remembered
        lo = timeline._lo
        assert list(zip(timeline._starts[lo:], timeline._ends[lo:])) == sorted(granted)
        assert 3 * lo <= len(timeline._ends)
        _assert_double_columns(timeline)
        # the latest end survives a prune that forgets every slot
        assert timeline._last_end == last_end
    return timeline


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            # a clock that advances in jumps of up to half a horizon, and
            # requests issued up to 1.5 horizons behind it
            st.sampled_from([0, 0, 1, 40, 1_000_000, 5_000_000]),
            st.one_of(
                st.integers(min_value=0, max_value=400),
                st.integers(min_value=0, max_value=15_000_000),
            ),
            st.sampled_from([0.0, 0.0, 1.0, 3.0, 10.0, 25.0, 120.0, 2_000_000.0]),
        ),
        max_size=80,
    )
)
def test_reserve_across_the_prune_horizon_matches_a_forgetting_reference(steps):
    """Issue times spanning several prune horizons: slots are forgotten as
    the reference forgets them, every grant is still its first fit, and a
    request behind the forgotten horizon raises."""
    clock = 0
    requests = []
    for step, behind, duration in steps:
        clock += step
        requests.append((float(max(0, clock - behind)), duration))
    _first_fit_with_horizon(requests)


def test_prune_compacts_the_columns_once_the_forgotten_prefix_dominates():
    # one short slot per half horizon: every request forgets the slots a
    # horizon behind it, so the columns stay a few slots long
    requests = [(i * HORIZON / 2, 10.0) for i in range(200)]
    timeline = _first_fit_with_horizon(requests)
    assert len(timeline._ends) <= 8


def test_prune_runs_once_per_eighth_of_a_horizon(monkeypatch):
    # one slot per 1/50 horizon: forgetting one slot per request would
    # prune on almost every request after the first horizon
    calls = []
    prune = ResourceTimeline._prune

    def counting_prune(self, earliest):
        calls.append(earliest)
        prune(self, earliest)

    monkeypatch.setattr(ResourceTimeline, "_prune", counting_prune)
    timeline = ResourceTimeline()
    for i in range(1000):
        timeline.reserve(i * HORIZON / 50, 10.0)
    assert 0 < len(calls) <= 20 * 8 + 1
    # what is remembered is still at most 9/8 of a horizon old
    assert timeline._ends[timeline._lo] >= 999 * HORIZON / 50 - HORIZON * 9 / 8
