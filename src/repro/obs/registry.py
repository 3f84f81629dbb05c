"""The central metric registry: one namespaced key space over all layers.

A :class:`MetricRegistry` holds *sources* — the stats objects of each
layer (anything :class:`~repro.obs.api.Snapshottable`) mounted under a
namespace prefix — and :class:`Gauge` s, point-in-time values read from a
callable.  ``snapshot()`` merges everything into one flat,
deterministically ordered ``{dotted_key: number}`` dict, which is the
single payload behind ``--json``, ``--metrics-out`` and ``repro report``.

Sources are read live: registering ``region.stats`` under
``region.rgHot`` costs nothing per write — the counters stay plain
dataclass attribute increments on the hot path, and the registry only
walks them when a snapshot is requested.

A measured window is two readings of the same sources.  :meth:`mark`, at
window start, copies every source's stats object; ``snapshot(since=mark)``,
at window end, reports each source as ``end - start``: counts, µs totals
and latency bucket counts subtracted field by field (a field marked
:data:`~repro.flash.stats.END_VALUE` keeps its end value), then read
through the source's own ``snapshot()``.  Derived keys — means, write
amplification, hit ratio, p99 — are therefore recomputed from the
window's counters by the same code as in a live snapshot; no two ratios
are ever subtracted.  Gauges report their end value, and a source with no
start reading counts from zero.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import fields, is_dataclass, replace
from typing import Any, Callable

from repro.flash.stats import END_VALUE
from repro.obs.api import MetricKeyError, SourceLike, check_key, prefixed, read_source

#: Every source's stats object at the start of a window, by prefix.
Mark = dict[str, Any]


class Gauge:
    """A point-in-time metric, read from a callable at snapshot time."""

    __slots__ = ("key", "read")

    def __init__(self, key: str, read: Callable[[], float]) -> None:
        self.key = check_key(key)
        self.read = read


class MetricRegistry:
    """Mounted sources and gauges under dotted keys."""

    def __init__(self) -> None:
        self._gauges: dict[str, Gauge] = {}
        self._sources: dict[str, SourceLike] = {}

    def gauge(self, key: str, read: Callable[[], float]) -> Gauge:
        """Register a gauge read from ``read()`` at snapshot time."""
        if check_key(key) in self._gauges:
            raise MetricKeyError(f"metric key {key!r} already registered")
        gauge = self._gauges[key] = Gauge(key, read)
        return gauge

    def register_source(self, prefix: str, source: SourceLike) -> None:
        """Mount a :class:`Snapshottable` (or a zero-arg callable returning
        one) under ``prefix``.

        The source's local keys appear in :meth:`snapshot` as
        ``<prefix>.<local_key>``.
        """
        check_key(prefix)
        if prefix in self._sources:
            raise MetricKeyError(f"source prefix {prefix!r} already registered")
        self._sources[prefix] = source

    def mark(self) -> Mark:
        """Copies of every source's stats object now: the start of a window."""
        return {prefix: deepcopy(read_source(source)) for prefix, source in self._sources.items()}

    def snapshot(self, since: Mark | None = None) -> dict[str, float]:
        """One flat, sorted ``{dotted_key: number}`` view of everything —
        cumulative, or with ``since`` the window that :meth:`mark` opened."""
        merged: dict[str, float] = {}

        def put(key: str, value: float) -> None:
            if key in merged:
                raise MetricKeyError(f"metric key collision on {key!r}")
            merged[key] = float(value)

        for key, gauge in self._gauges.items():
            put(key, gauge.read())
        for prefix, source in self._sources.items():
            stats = read_source(source)
            start = None if since is None else since.get(prefix)
            if start is not None:
                stats = _minus(stats, start)
            for key, value in prefixed(prefix, stats.snapshot()).items():
                put(key, value)
        return dict(sorted(merged.items()))


def _minus(end: Any, start: Any) -> Any:
    """``end - start`` of one stats value: numbers subtract, bucket lists
    element by element, dataclasses field by field."""
    if is_dataclass(end):
        return replace(end, **{
            f.name: _minus(getattr(end, f.name), getattr(start, f.name))
            for f in fields(end)
            if f.metadata != END_VALUE
        })
    if isinstance(end, list):
        return [a - b for a, b in zip(end, start)]
    return end - start
