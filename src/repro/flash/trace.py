"""Flash command tracing: see exactly what hits the device, and when.

Subscribes to a :class:`~repro.flash.device.FlashDevice`'s event bus and
appends every native command (``layer="flash"`` events — the device's one
command path emits them for whoever issued the command, host or GC) to a
bounded ring buffer of :class:`TraceEvent` records.  The trace answers the
questions that matter when debugging placement or GC behaviour — *which
dies served whom*, *what occupied this die during that latency spike*,
*how bursty were the arrivals* — without touching the device's own
accounting.

Usage::

    tracer = FlashTracer.attach(device, capacity=10_000)
    ...run workload...
    for event in tracer.between(1_000_000, 1_050_000):
        print(event)
    print(tracer.snapshot())
    tracer.detach()
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, cast

from repro.flash.device import FlashDevice
from repro.flash.errors import ConfigError, TracerStateError

if TYPE_CHECKING:
    from repro.obs.events import ObsEvent


@dataclass(frozen=True)
class TraceEvent:
    """One traced flash command."""

    op: str
    die: int
    block: int
    page: int
    issue_us: float
    start_us: float
    end_us: float

    @property
    def queue_us(self) -> float:
        """Time spent waiting before execution began."""
        return max(0.0, self.start_us - self.issue_us)

    @property
    def service_us(self) -> float:
        """Execution time."""
        return self.end_us - self.start_us

    def __str__(self) -> str:
        return (
            f"[{self.issue_us:12.1f}] {self.op:<13} d{self.die}/b{self.block}/p{self.page}"
            f" start+{self.queue_us:.0f}us dur={self.service_us:.0f}us"
        )


class FlashTracer:
    """Bounded ring-buffer trace of native flash commands.

    Create via :meth:`attach`; call :meth:`detach` to stop recording (the
    device keeps its event bus).  Not thread-safe (the simulator is
    single-threaded by design).
    """

    def __init__(self, device: FlashDevice, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ConfigError("trace capacity must be positive")
        self.device = device
        self.events: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self._unsubscribe: Callable[[], None] | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, device: FlashDevice, capacity: int = 100_000) -> "FlashTracer":
        """Create a tracer and subscribe it to ``device``'s event bus."""
        tracer = cls(device, capacity=capacity)
        tracer._subscribe()
        return tracer

    def _subscribe(self) -> None:
        if self._unsubscribe is not None:
            raise TracerStateError("tracer already attached")
        self._unsubscribe = self.device.attach_event_bus().subscribe(self._record)

    def detach(self) -> None:
        """Stop recording; the events captured so far stay queryable."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def _record(self, event: ObsEvent) -> None:
        if event.layer != "flash":
            return
        attrs = cast(dict[str, Any], event.attrs)
        if len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.events.append(
            TraceEvent(
                op=event.kind,
                die=attrs["die"],
                # erases carry no page, multi-plane commands no single block
                block=attrs.get("block", -1),
                page=attrs.get("page", -1),
                issue_us=event.ts_us,
                start_us=attrs["start_us"],
                end_us=attrs["end_us"],
            )
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def between(self, start_us: float, end_us: float) -> list[TraceEvent]:
        """Events whose execution overlaps ``[start_us, end_us]``."""
        return [e for e in self.events if e.end_us >= start_us and e.start_us <= end_us]

    def on_die(self, die: int) -> list[TraceEvent]:
        """Events executed on ``die``."""
        return [e for e in self.events if e.die == die]

    def slowest(self, n: int = 10) -> list[TraceEvent]:
        """The ``n`` events with the longest queueing delay."""
        return sorted(self.events, key=lambda e: e.queue_us, reverse=True)[:n]

    def snapshot(self) -> dict[str, float]:
        """Flat numeric view (``Snapshottable``): per-op counts, busiest
        die (``-1`` when empty) and mean queueing delay.

        Local keys; mount the tracer on a
        :class:`~repro.obs.registry.MetricRegistry` to namespace them
        (conventionally under ``trace``).
        """
        ops = Counter(e.op for e in self.events)
        dies = Counter(e.die for e in self.events)
        out: dict[str, float] = {
            "events": float(len(self.events)),
            "dropped": float(self.dropped),
            "busiest_die": float(dies.most_common(1)[0][0]) if dies else -1.0,
            "mean_queue_us": (
                sum(e.queue_us for e in self.events) / len(self.events)
                if self.events
                else 0.0
            ),
        }
        for op, count in sorted(ops.items()):
            out[f"ops.{op}"] = float(count)
        return out
