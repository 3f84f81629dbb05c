"""Unit tests for the virtual clock and resource timelines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import ResourceTimeline, SimClock


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

    def test_peek_start_does_not_reserve(self):
        r = ResourceTimeline()
        r.reserve(0.0, 100.0)
        # instants inside the busy slot are pushed past it; later instants
        # are free — and peeking never changes the timeline
        assert r.peek_start(0.0) == 100.0
        assert r.peek_start(50.0) == 100.0
        assert r.peek_start(150.0) == 150.0
        assert r.available_at == 100.0
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

    def test_utilization(self):
        r = ResourceTimeline()
        r.reserve(0.0, 25.0)
        assert r.utilization(100.0) == pytest.approx(0.25)
        assert r.utilization(0.0) == 0.0
        assert r.utilization(10.0) == 1.0


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
    zero-length requests included — get exactly the reference's slots."""
    timeline = ResourceTimeline()
    granted = []
    for earliest, duration in requests:
        expected = _first_fit(granted, earliest, duration)
        assert timeline.peek_start(earliest) == _first_fit(granted, earliest, 0.0)
        assert timeline.reserve(earliest, duration) == (expected, expected + duration)
        if duration > 0:
            granted.append((expected, expected + duration))
    assert timeline.busy_us == sum(e - s for s, e in granted)
