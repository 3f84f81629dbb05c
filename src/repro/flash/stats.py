"""Operation counters and latency statistics for the flash device.

The paper's Figure 3 reports *event counts* (host READ/WRITE I/Os, GC
COPYBACKs, GC ERASEs) and *latencies* (READ/WRITE 4KB in microseconds).
:class:`FlashStats` collects exactly those primitives at the device level;
management layers (FTL / NoFTL) keep their own higher-level counters on top.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.flash.errors import ConfigError


#: Log-spaced histogram bucket boundaries in µs (~23% resolution per step),
#: spanning sub-µs CPU blips to multi-second stalls.
_BUCKET_BOUNDS: tuple[float, ...] = tuple(10 ** (exp / 10.0) for exp in range(0, 71))

#: ``field`` metadata of a stats value that is not a count (a size, an
#: extreme): a measurement window keeps its end value where it subtracts
#: every other field (see :meth:`repro.obs.registry.MetricRegistry.snapshot`).
END_VALUE = {"window": "end"}


@dataclass(slots=True)
class LatencyAccumulator:
    """Streaming latency statistics: mean/min/max plus a log histogram.

    The histogram uses fixed log-spaced buckets, so percentile queries
    (:meth:`percentile_us`) cost O(buckets) with ~±12% value resolution —
    plenty for tail-latency reporting ("unpredictable performance" is a
    p99 story, not a mean story).
    """

    count: int = 0
    total_us: float = 0.0
    #: extremes of every sample so far; a window keeps them, as bounds on its own
    min_us: float = field(default=float("inf"), metadata=END_VALUE)
    max_us: float = field(default=0.0, metadata=END_VALUE)
    buckets: list[int] = field(default_factory=lambda: [0] * (len(_BUCKET_BOUNDS) + 1))

    def record(self, latency_us: float) -> None:
        """Add one latency sample."""
        self.count += 1
        self.total_us += latency_us
        if latency_us < self.min_us:
            self.min_us = latency_us
        if latency_us > self.max_us:
            self.max_us = latency_us
        self.buckets[bisect_right(_BUCKET_BOUNDS, latency_us)] += 1

    @property
    def mean_us(self) -> float:
        """Mean latency, or 0.0 if no samples."""
        return self.total_us / self.count if self.count else 0.0

    def percentile_us(self, fraction: float) -> float:
        """Approximate latency at ``fraction`` (e.g. 0.99), or 0.0 if empty.

        Returns the upper bound of the bucket containing the requested
        rank (conservative: never underestimates the tail).
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigError("fraction must be in (0, 1]")
        if self.count == 0:
            return 0.0
        rank = fraction * self.count
        seen = 0
        for index, bucket_count in enumerate(self.buckets):
            seen += bucket_count
            if seen >= rank:
                if index >= len(_BUCKET_BOUNDS):
                    return self.max_us
                return min(_BUCKET_BOUNDS[index], self.max_us)
        return self.max_us

    def merge(self, other: "LatencyAccumulator") -> None:
        """Fold ``other``'s samples into this accumulator."""
        self.count += other.count
        self.total_us += other.total_us
        self.min_us = min(self.min_us, other.min_us)
        self.max_us = max(self.max_us, other.max_us)
        for index, bucket_count in enumerate(other.buckets):
            self.buckets[index] += bucket_count


def percentile_from_buckets(buckets: list[int], fraction: float) -> float:
    """Percentile over a raw bucket-count list (see :class:`LatencyAccumulator`).

    Useful for measurement *windows*: bucket counts are plain counters, so
    the difference of two snapshots is itself a histogram.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError("fraction must be in (0, 1]")
    total = sum(buckets)
    if total == 0:
        return 0.0
    rank = fraction * total
    seen = 0
    for index, count in enumerate(buckets):
        seen += count
        if seen >= rank:
            if index >= len(_BUCKET_BOUNDS):
                return _BUCKET_BOUNDS[-1]
            return _BUCKET_BOUNDS[index]
    return _BUCKET_BOUNDS[-1]


@dataclass(slots=True)
class FlashStats:
    """Device-level operation counters.

    ``reads``/``programs``/``erases``/``copybacks`` count native commands;
    the per-die lists enable utilization and wear-balance reporting.
    READ / PROGRAM latencies (service time, die/channel queueing included)
    are running totals, 0.0 while their count is 0 and reported as means;
    p99 comes from the region and FTL histograms (``ManagementStats``).
    Each device command bumps its own counters inline (``read_metadata``
    counts as a read).
    """

    dies: int = field(default=0, metadata=END_VALUE)
    reads: int = 0
    programs: int = 0
    erases: int = 0
    copybacks: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    reads_per_die: list[int] = field(default_factory=list)
    programs_per_die: list[int] = field(default_factory=list)
    erases_per_die: list[int] = field(default_factory=list)
    copybacks_per_die: list[int] = field(default_factory=list)
    read_latency_total_us: float = 0.0
    program_latency_total_us: float = 0.0

    def __post_init__(self) -> None:
        if self.dies and not self.reads_per_die:
            self.reads_per_die = [0] * self.dies
            self.programs_per_die = [0] * self.dies
            self.erases_per_die = [0] * self.dies
            self.copybacks_per_die = [0] * self.dies

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Flat dict of the headline counters (``Snapshottable``).

        Local keys; the :class:`~repro.obs.registry.MetricRegistry`
        namespaces them under ``flash.*``.
        """
        return {
            "reads": self.reads,
            "programs": self.programs,
            "erases": self.erases,
            "copybacks": self.copybacks,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "read_latency_mean_us": self.read_latency_total_us / max(self.reads, 1),
            "program_latency_mean_us": self.program_latency_total_us / max(self.programs, 1),
        }
