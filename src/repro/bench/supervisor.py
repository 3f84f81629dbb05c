"""Shard supervisor: heartbeats, timeouts, bounded retries, salvage.

:mod:`repro.bench.sharding` fans independent experiment cells out over
*spawn* workers.  Before this module existed, one hung or SIGKILLed
worker took the whole run with it: ``Pool.apply_async(...).get()`` either
blocks forever or raises an opaque error, and every other cell's finished
work is discarded.  The supervisor replaces that with an explicit
per-cell state machine::

    spawn -> (ok | error | crash | timeout | stalled)
              |      `------------v------------'
              |            retry (bounded)
              v                   |
           result          exhausted -> lost (salvaged into `degraded`)

Each attempt runs the cell in its own spawn process.  The worker reports
exactly one ``("ok", result)`` or ``("error", message)`` tuple on a
result queue and bumps a shared heartbeat counter from a daemon thread
while the cell function runs.  The parent supervises by *counting
bounded queue waits* — ``Queue.get(timeout=poll)`` is the clock tick —
so the supervisor itself never reads the wall clock and stays inside the
``determinism.wallclock`` lint scope (satellite: this module is listed
in ``SIM_PACKAGES``).  A cell is

* **ok** — worker reported a result;
* **error** — the cell function raised (reported, process exited);
* **crash** — the process died without reporting (SIGKILL, OOM kill,
  interpreter abort, unpicklable result);
* **timeout** — no result within ``policy.timeout_s`` wall-clock
  (approximated as ``ceil(timeout_s / poll_interval_s)`` waits);
* **stalled** — the process is alive but its heartbeat counter stopped
  advancing for ``stall_window_polls`` consecutive waits (e.g. SIGSTOP,
  deadlocked C extension).  Stall counting starts only once the worker
  has come *online* (its first beat was observed): spawn startup —
  interpreter boot plus imports — can legitimately outlast a short stall
  window, and killing a still-importing worker as "stalled" would turn
  a slow machine into phantom failures.  A worker stuck *before* its
  first beat is the attempt timeout's concern.

Retrying is *safe* because cells are deterministic: re-executing a cell
yields byte-identical output (the property the sharded-equivalence tests
pin), so a retried run merges into exactly the document the sequential
path emits.  When retries are exhausted the run degrades instead of
failing: :meth:`ShardRunReport.degraded_section` names every lost cell
and its attempt history, and the CLI attaches that stanza to the merged
``repro.obs/v1`` document under the top-level ``degraded`` key — never a
silent success, and (with ``--allow-degraded``) never an all-or-nothing
hard failure either.
"""

from __future__ import annotations

import math
import multiprocessing
import queue as queue_mod
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.bench.errors import BenchConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.context import SpawnContext

    from repro.bench.sharding import ShardCell

#: terminal attempt states a worker attempt can end in
ATTEMPT_STATES = ("ok", "error", "crash", "timeout", "stalled")

#: grace period (seconds) granted to a worker between delivering its
#: result and exiting before the supervisor kills it
_EXIT_GRACE_S = 5.0


class ShardDegradedError(RuntimeError):
    """Raised when cells were lost and the policy forbids degraded output.

    Carries the :class:`ShardRunReport` so callers can still salvage the
    surviving results (``exc.report.results()``) if they choose to.
    """

    def __init__(self, report: "ShardRunReport") -> None:
        names = ", ".join(outcome.name for outcome in report.lost)
        attempts = max((len(o.attempts) for o in report.lost), default=0)
        super().__init__(
            f"shard cells lost after {attempts} attempt(s): {names} "
            "(pass --allow-degraded to salvage the surviving cells)"
        )
        self.report = report


@dataclass(frozen=True)
class ShardPolicy:
    """Supervision knobs for one sharded run.

    ``timeout_s`` bounds each *attempt*, not the whole run; ``retries``
    counts re-executions after the first attempt (``retries=2`` means up
    to three attempts).  ``allow_degraded`` decides what happens when a
    cell exhausts its attempts: salvage the survivors into a ``degraded``
    document (True) or raise :class:`ShardDegradedError` (False).
    """

    timeout_s: float | None = None
    retries: int = 1
    allow_degraded: bool = False
    poll_interval_s: float = 0.1
    heartbeat_interval_s: float = 0.25
    #: consecutive result-waits without a heartbeat advance before the
    #: worker is declared stalled (default ~60s at the default poll)
    stall_window_polls: int | None = 600

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise BenchConfigError("timeout_s must be positive (or None for no timeout)")
        if self.retries < 0:
            raise BenchConfigError("retries must be >= 0")
        if self.poll_interval_s <= 0:
            raise BenchConfigError("poll_interval_s must be positive")
        if self.heartbeat_interval_s <= 0:
            raise BenchConfigError("heartbeat_interval_s must be positive")
        if self.stall_window_polls is not None and self.stall_window_polls < 1:
            raise BenchConfigError("stall_window_polls must be >= 1 (or None to disable)")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    @property
    def timeout_polls(self) -> int | None:
        """The attempt timeout expressed in result-wait ticks."""
        if self.timeout_s is None:
            return None
        return max(1, math.ceil(self.timeout_s / self.poll_interval_s))


@dataclass(frozen=True)
class CellOutcome:
    """Terminal supervision record for one cell."""

    name: str
    ok: bool
    result: Any
    #: attempt states in order, e.g. ``("crash", "ok")`` for one retry
    attempts: tuple[str, ...]
    detail: str = ""

    @property
    def lost(self) -> bool:
        return not self.ok

    @property
    def retried(self) -> bool:
        return len(self.attempts) > 1


@dataclass(frozen=True)
class ShardRunReport:
    """Everything a sharded run produced, survivors and casualties alike."""

    outcomes: tuple[CellOutcome, ...]
    policy: ShardPolicy = field(default_factory=ShardPolicy)

    def results(self) -> list[Any]:
        """Per-cell results in submission order; ``None`` for lost cells."""
        return [outcome.result if outcome.ok else None for outcome in self.outcomes]

    @property
    def lost(self) -> tuple[CellOutcome, ...]:
        return tuple(outcome for outcome in self.outcomes if outcome.lost)

    @property
    def degraded(self) -> bool:
        return bool(self.lost)

    @property
    def retried(self) -> bool:
        return any(outcome.retried for outcome in self.outcomes)

    def degraded_section(self) -> dict[str, Any]:
        """The ``degraded`` stanza for a merged ``repro.obs/v1`` document.

        Lists every lost cell by name plus its attempt history, so a
        salvaged document can never be mistaken for a complete one.
        """
        return {
            "lost_cells": [outcome.name for outcome in self.lost],
            "cells": {
                outcome.name: {
                    "attempts": list(outcome.attempts),
                    "detail": outcome.detail,
                }
                for outcome in self.lost
            },
        }

    def raise_if_blocked(self) -> None:
        """Enforce the policy: lost cells without ``allow_degraded`` raise."""
        if self.degraded and not self.policy.allow_degraded:
            raise ShardDegradedError(self)


def _cell_entry(
    result_queue: Any,
    heartbeat: Any,
    interval_s: float,
    fn: Callable[..., Any],
    args: tuple[Any, ...],
) -> None:
    """Worker-side attempt: beat while running, report exactly once.

    The heartbeat thread is a daemon bumping a shared counter every
    ``interval_s``; it keeps beating even while ``fn`` holds the GIL only
    briefly between bytecodes, so a live-but-busy worker is
    distinguishable from a SIGSTOPped or deadlocked one.
    """
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(interval_s):
            with heartbeat.get_lock():
                heartbeat.value += 1

    # the first beat fires synchronously *before* the cell function can
    # run: it marks the worker online, which is what arms the
    # supervisor's stall detection — a cell freezing on its very first
    # instruction must still be stallable, not startup-silent forever
    with heartbeat.get_lock():
        heartbeat.value += 1
    thread = threading.Thread(target=beat, name="shard-heartbeat", daemon=True)
    thread.start()
    try:
        result = fn(*args)
    except BaseException as exc:  # noqa: BLE001 - reported to the supervisor
        payload: tuple[str, Any] = ("error", f"{type(exc).__name__}: {exc}")
    else:
        payload = ("ok", result)
    finally:
        stop.set()
    result_queue.put(payload)


def _finish_worker(process: Any) -> None:
    """Give a reporting worker a grace period to exit, then make sure."""
    process.join(_EXIT_GRACE_S)
    if process.is_alive():
        process.kill()
        process.join()


def _run_attempt(cell: "ShardCell", policy: ShardPolicy, ctx: "SpawnContext") -> tuple[str, Any]:
    """One supervised attempt; returns ``(state, payload)``.

    The supervisor blocks on ``Queue.get(timeout=poll_interval_s)`` and
    counts the waits — that bounded wait is the only clock in play, so
    the timeout is honoured to within one poll interval without this
    module ever reading the wall clock.
    """
    result_queue = ctx.Queue()
    heartbeat = ctx.Value("Q", 0)
    process = ctx.Process(
        target=_cell_entry,
        args=(result_queue, heartbeat, policy.heartbeat_interval_s, cell.fn, cell.args),
        name=f"shard-{cell.name}",
        daemon=True,
    )
    process.start()
    polls = 0
    silent_polls = 0
    last_beat = 0
    online = False  # armed by the first observed beat
    timeout_polls = policy.timeout_polls
    try:
        while True:
            try:
                state, payload = result_queue.get(timeout=policy.poll_interval_s)
            except queue_mod.Empty:
                pass
            else:
                _finish_worker(process)
                return state, payload
            if not process.is_alive():
                # Died without reporting: SIGKILL, OOM kill, interpreter
                # abort, or a result the queue feeder could not pickle.
                # Drain once more in case the result raced process exit.
                try:
                    state, payload = result_queue.get_nowait()
                except queue_mod.Empty:
                    return (
                        "crash",
                        f"worker exited (exitcode {process.exitcode}) "
                        "before reporting a result",
                    )
                return state, payload
            polls += 1
            beat = int(heartbeat.value)
            if beat != last_beat:
                online = True
                silent_polls = 0
                last_beat = beat
            elif online:
                # spawn startup (interpreter + imports) beats nothing yet;
                # only count silence once the worker has come online
                silent_polls += 1
            if timeout_polls is not None and polls >= timeout_polls:
                process.kill()
                process.join()
                return (
                    "timeout",
                    f"no result within ~{policy.timeout_s:g}s "
                    f"({polls} waits of {policy.poll_interval_s:g}s)",
                )
            if (
                policy.stall_window_polls is not None
                and silent_polls >= policy.stall_window_polls
            ):
                process.kill()
                process.join()
                return (
                    "stalled",
                    f"worker alive but heartbeat frozen for {silent_polls} "
                    "consecutive waits",
                )
    finally:
        result_queue.close()


def _supervise_cell(cell: "ShardCell", policy: ShardPolicy, ctx: "SpawnContext") -> CellOutcome:
    """Run one cell to a terminal outcome: bounded retries, then loss."""
    attempts: list[str] = []
    detail = ""
    for _attempt in range(policy.max_attempts):
        state, payload = _run_attempt(cell, policy, ctx)
        attempts.append(state)
        if state == "ok":
            return CellOutcome(
                name=cell.name, ok=True, result=payload, attempts=tuple(attempts)
            )
        detail = str(payload)
    return CellOutcome(
        name=cell.name, ok=False, result=None, attempts=tuple(attempts), detail=detail
    )


def run_cells_supervised(
    cells: Iterable["ShardCell"],
    shards: int,
    policy: ShardPolicy | None = None,
) -> ShardRunReport:
    """Run every cell under supervision; outcomes keep submission order.

    ``shards == 1`` (or a single cell) runs sequentially in this process
    — the bit-identical reference path, where a cell failure is a real
    bug and propagates as its original exception.  ``shards > 1`` runs
    each cell in its own spawn process, at most ``min(shards, cells)``
    concurrently, each supervised by a parent thread through the attempt
    state machine above.
    """
    if shards < 1:
        raise BenchConfigError("shards must be >= 1")
    if policy is None:
        policy = ShardPolicy()
    todo = list(cells)
    if shards == 1 or len(todo) <= 1:
        outcomes = tuple(
            CellOutcome(name=cell.name, ok=True, result=cell.fn(*cell.args), attempts=("ok",))
            for cell in todo
        )
        return ShardRunReport(outcomes=outcomes, policy=policy)
    ctx = multiprocessing.get_context("spawn")
    slots = threading.BoundedSemaphore(min(shards, len(todo)))
    collected: list[CellOutcome | None] = [None] * len(todo)

    def supervise(index: int, cell: "ShardCell") -> None:
        with slots:
            collected[index] = _supervise_cell(cell, policy, ctx)

    threads = [
        threading.Thread(
            target=supervise, args=(index, cell), name=f"supervise-{cell.name}"
        )
        for index, cell in enumerate(todo)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    final = tuple(outcome for outcome in collected if outcome is not None)
    assert len(final) == len(todo), "supervisor lost track of a cell outcome"
    return ShardRunReport(outcomes=final, policy=policy)
