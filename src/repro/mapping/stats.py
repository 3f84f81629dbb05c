"""FTL-level statistics: host I/O counts, GC work, write amplification.

These are the counters of the paper's Figure 3 as seen by a management
layer: *Host READ/WRITE I/Os*, *GC COPYBACKs*, *GC ERASEs* — plus derived
write amplification and the host-observed latency distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.flash.stats import LatencyAccumulator, percentile_from_buckets


@dataclass
class ManagementStats:
    """Counters kept by a flash-management layer (FTL or NoFTL).

    Attributes:
        host_reads: 4 KB reads issued by the host (DBMS).
        host_writes: 4 KB writes issued by the host (DBMS).
        gc_copybacks: pages relocated by GC using on-die COPYBACK.
        gc_reads: pages relocated by GC using read+program (cross-die, or
            a COPYBACK the device refused).
        gc_programs: programs issued by GC on the read+program path.
        gc_erases: blocks erased by GC.
        wl_moves: pages relocated by the wear leveler or a read-disturb
            refresh, by COPYBACK or read+program alike (a moved page is
            counted once: here or under ``gc_*``, never both).
        wl_erases: blocks erased by the wear leveler.
        trans_reads: translation-page reads (DFTL only).
        trans_writes: translation-page writes (DFTL only).
        host_read_latency / host_write_latency: host-observed service times
            including queueing on dies/channels and any GC stall.
    """

    host_reads: int = 0
    host_writes: int = 0
    gc_copybacks: int = 0
    gc_reads: int = 0
    gc_programs: int = 0
    gc_erases: int = 0
    gc_victim_valid_pages: int = 0
    wl_moves: int = 0
    wl_erases: int = 0
    trans_reads: int = 0
    trans_writes: int = 0
    host_read_latency: LatencyAccumulator = field(default_factory=LatencyAccumulator)
    host_write_latency: LatencyAccumulator = field(default_factory=LatencyAccumulator)

    @property
    def relocated_pages(self) -> int:
        """Pages moved by background work (GC + WL), any mechanism."""
        return self.gc_copybacks + self.gc_reads + self.wl_moves

    @property
    def write_amplification(self) -> float:
        """(host writes + background page moves) / host writes.

        1.0 means no background write overhead.  Returns 0.0 before any
        host write has happened.
        """
        if self.host_writes == 0:
            return 0.0
        physical = self.host_writes + self.relocated_pages + self.trans_writes
        return physical / self.host_writes

    def snapshot(self) -> dict[str, float]:
        """Flat dict of headline numbers (``Snapshottable``).

        Local keys; the :class:`~repro.obs.registry.MetricRegistry`
        namespaces them (``mgmt.*`` for layer totals,
        ``region.<name>.*`` for per-region breakdowns).  Every value is
        a counter or derived from counters only (p99 from the bucket
        counts, not the observed maximum), so the same code reads a
        measurement window.
        """
        return {
            "host_reads": self.host_reads,
            "host_writes": self.host_writes,
            "gc_copybacks": self.gc_copybacks,
            "gc_reads": self.gc_reads,
            "gc_programs": self.gc_programs,
            "gc_erases": self.gc_erases,
            "gc_victim_valid_pages": self.gc_victim_valid_pages,
            "wl_moves": self.wl_moves,
            "wl_erases": self.wl_erases,
            "trans_reads": self.trans_reads,
            "trans_writes": self.trans_writes,
            "write_amplification": self.write_amplification,
            "host_read_latency_mean_us": self.host_read_latency.mean_us,
            "host_write_latency_mean_us": self.host_write_latency.mean_us,
            "host_read_latency_p99_us": percentile_from_buckets(
                self.host_read_latency.buckets, 0.99
            ),
            "host_write_latency_p99_us": percentile_from_buckets(
                self.host_write_latency.buckets, 0.99
            ),
        }
