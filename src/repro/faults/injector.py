"""The fault injector: a seeded saboteur wired into the flash device.

A :class:`FaultInjector` is attached with
:meth:`~repro.flash.device.FlashDevice.attach_fault_injector` as an
optional hook: ``device.faults`` is ``None`` by default and every native
command pays a single ``is not None`` test, so the hot path is unaffected
when no plan is loaded (the bit-identity acceptance tests pin this).  The
reference runs one way: the device calls each hook with itself as the
first argument, and the injector keeps no reference to it.

The injector keeps a global operation counter over the injectable native
commands (READ PAGE, PROGRAM PAGE, ERASE BLOCK and COPYBACK — OOB
metadata reads are exempt so recovery scans never trip new faults) and
evaluates the plan's specs in order on every command.  All randomness
comes from one RNG seeded by the plan, so a run is exactly reproducible.

Failure semantics injected here, recovered elsewhere:

* transient read  — :class:`~repro.flash.errors.TransientReadError`; the
  engine retries (bounded) and scrubs the block.
* program failure — :class:`~repro.flash.errors.ProgramFaultError`, raised
  *before* the cell array mutates; the engine salvages the block's live
  pages, retires it as grown-bad and re-drives the write.
* wear-out        — the targeted block is marked bad right after its next
  erase; the engine's existing ``_retire_or_recycle`` does the rest.
* die failure     — the die becomes write/erase-dead (reads still served,
  so live data is rebuildable); every later program/erase/copyback on it
  raises :class:`~repro.flash.errors.DieFailedError`.
* power cut       — :class:`~repro.flash.errors.PowerCutError` propagates
  to the harness, which recovers from OOB metadata and replays the WAL.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.stats import FaultStats
from repro.flash.errors import (
    DieFailedError,
    PowerCutError,
    ProgramFaultError,
    TransientReadError,
)

if TYPE_CHECKING:
    from repro.flash.device import FlashDevice

#: Commands a write/erase-dead die rejects.
_WRITE_OPS = frozenset({"program_page", "erase_block", "copyback"})

#: Which device commands each fault kind can fire on (``None`` = any).
_KIND_OPS: dict[str, frozenset[str] | None] = {
    "read_transient": frozenset({"read_page"}),
    "program_fail": frozenset({"program_page"}),
    "wearout": frozenset({"erase_block"}),
    "die_fail": None,
    "power_cut": None,
}


class _SpecState:
    """Runtime state of one spec: how often it has fired."""

    __slots__ = ("spec", "fired")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.fired = 0

    def exhausted(self) -> bool:
        budget = self.spec.max_firings
        return budget is not None and self.fired >= budget

    def matches(self, op: str, die: int, block: int | None) -> bool:
        ops = _KIND_OPS[self.spec.kind]
        if ops is not None and op not in ops:
            return False
        # die_fail's `die` names the victim, not a command filter
        if self.spec.die is not None and self.spec.kind != "die_fail":
            if die != self.spec.die:
                return False
        if self.spec.block is not None and block != self.spec.block:
            return False
        return True

    def should_fire(self, op: str, die: int, block: int | None, opno: int,
                    rng: random.Random) -> bool:
        if self.exhausted() or not self.matches(op, die, block):
            return False
        spec = self.spec
        if spec.at_op is not None:
            return opno >= spec.at_op
        if spec.every is not None:
            return opno % spec.every == 0
        return rng.random() < spec.probability


class FaultInjector:
    """Evaluates a :class:`~repro.faults.plan.FaultPlan` against device traffic.

    Attributes:
        plan: the schedule being executed.
        stats: the ``faults.*`` counters (shared with the recovery paths,
            which report their outcomes here).
        dead_dies: dies currently write/erase-dead.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self.dead_dies: set[int] = set()
        self._rng = random.Random(plan.seed)
        self._specs = [_SpecState(spec) for spec in plan.specs]
        self._op = 0
        self._quiesced = False
        # (die, block, page) -> remaining failures before a retry succeeds
        self._pending_reads: dict[tuple[int, int, int], int] = {}
        # (die, block, page) of the transient read failure no read has got
        # past this hook since (reads are synchronous: one retry chain at most)
        self._open_read: tuple[int, int, int] | None = None
        # (die, block) scheduled to wear out at its in-flight erase
        self._pending_wearout: tuple[int, int] | None = None
        # (die, block) of every injected program failure, in firing order
        self._program_faulted: list[tuple[int, int]] = []

    @property
    def op_number(self) -> int:
        """Injectable device commands observed so far."""
        return self._op

    def quiesce(self) -> None:
        """Stop firing new scheduled faults; injected state keeps its teeth.

        The plan's operation schedule is defined against the *measured
        workload*.  Recovery and settlement traffic (WAL re-discovery
        reads, die rebuilds, log flushes) runs at op offsets no plan
        author can predict, so once the workload ends the harness
        quiesces the injector: specs stop firing, but everything already
        injected keeps its semantics — dead dies still reject writes,
        pending transient reads still fail until their retry budget
        drains, and a scheduled wear-out still lands with its erase.
        Without this, a schedule outliving the workload could fire a
        second power cut inside recovery itself, which the documented
        single-crash model excludes.
        """
        self._quiesced = True

    # ------------------------------------------------------------------
    # Device hooks
    # ------------------------------------------------------------------
    def on_command(self, device: FlashDevice, op: str, die: int, block: int | None = None,
                   page: int | None = None) -> None:
        """Called by ``device`` before executing each injectable command."""
        self._op += 1
        if self.dead_dies and die in self.dead_dies and op in _WRITE_OPS:
            raise DieFailedError(die, op=op)
        if op == "read_page":
            key = (die, block, page)
            remaining = self._pending_reads.get(key)
            if remaining is not None:
                if remaining > 1:
                    self._pending_reads[key] = remaining - 1
                else:
                    del self._pending_reads[key]
                self.stats.read_retry_attempts += 1
                raise TransientReadError(die, block, page)
        if not self._quiesced:
            for state in self._specs:
                if state.should_fire(op, die, block, self._op, self._rng):
                    state.fired += 1
                    self._fire(state.spec, op, die, block, page)
        if self._open_read is not None and op == "read_page":
            if self._open_read == (die, block, page):
                self._open_read = None  # the retry gets through

    def after_erase(self, device: FlashDevice, die: int, block: int) -> None:
        """Called by ``device`` after an erase: apply a scheduled wear-out."""
        if self._pending_wearout == (die, block):
            self._retire_pending_wearout(device)

    def settle_pending_wearout(self, device: FlashDevice) -> None:
        """Apply a wear-out whose carrying erase never completed.

        A wear-out fires on the erase command about to run and is applied
        by ``after_erase`` of that same command.  If a *later* spec in the
        same evaluation aborts the command (a power cut or die failure at
        the same operation number), the scheduled wear-out would dangle
        injected-but-unretired forever — the workload is over and nothing
        erases that block again.  Recovery harnesses call this after the
        run to land the retirement exactly as ``after_erase`` does; with
        nothing pending it is a no-op.
        """
        if self._pending_wearout is not None:
            self._retire_pending_wearout(device)

    def _retire_pending_wearout(self, device: FlashDevice) -> None:
        assert self._pending_wearout is not None
        die, block = self._pending_wearout
        self._pending_wearout = None
        device.dies[die].mark_bad(block)
        self.stats.retired_wearout_blocks += 1

    def unretired_program_faults(self, device: FlashDevice) -> list[tuple[int, int]]:
        """``(die, block)`` of program failures whose retirement never landed.

        The engine answers a program failure by salvaging the block's live
        pages and only then marking it bad and counting it retired.  A
        power cut or die failure *inside* that salvage aborts it, leaving
        the fault injected-but-unretired.  Recovery harnesses finish these
        retirements after the run; normally the list is empty.
        """
        dies = device.dies
        return [
            (die, block) for die, block in self._program_faulted
            if not dies[die].is_bad(block)
        ]

    def interrupted_read(self) -> tuple[int, int, int] | None:
        """``(die, block, page)`` of a transient read failure whose retry
        never got through, or ``None``.

        A pending failure raises before any spec fires, so a power cut can
        land on a retry chain only at the retry that would have succeeded.
        The crash aborts the engine's retry loop, leaving the failure
        injected-but-unrecovered; recovery harnesses read the page again
        after the crash to complete the retry.
        """
        return self._open_read

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def _fire(self, spec: FaultSpec, op: str, die: int,
              block: int | None, page: int | None) -> None:
        kind = spec.kind
        if kind == "read_transient":
            self.stats.injected_read_transient += 1
            self.stats.read_retry_attempts += 1
            self._open_read = (die, block, page)
            if spec.retries > 1:
                self._pending_reads[(die, block, page)] = spec.retries - 1
            raise TransientReadError(die, block, page)
        if kind == "program_fail":
            self.stats.injected_program_fail += 1
            assert block is not None
            self._program_faulted.append((die, block))
            raise ProgramFaultError(die, block, page)
        if kind == "wearout":
            self.stats.injected_wearout += 1
            self._pending_wearout = (die, block)
            return
        if kind == "die_fail":
            target = spec.die if spec.die is not None else die
            self.stats.injected_die_fail += 1
            self.dead_dies.add(target)
            if die == target and op in _WRITE_OPS:
                raise DieFailedError(target, op=op)
            return
        # power_cut
        self.stats.injected_power_cut += 1
        raise PowerCutError(self._op)
