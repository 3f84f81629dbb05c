"""The policy interface both management layers program against.

A GC policy answers one question — *which block do we reclaim next?* —
and a WL policy another — *which cold block moves onto which worn free
block?*.  Everything else (watermarks, relocation, accounting, timing)
stays in the engine, so a policy is a small, deterministic, independently
testable object.

Candidate blocks are duck-typed: any record exposing the
:class:`~repro.mapping.blockinfo.BlockInfo` surface works (``die``,
``block``, ``pages_per_block``, ``valid_count``, ``invalid_count``,
``last_write_us``).  That keeps this package free of runtime imports of
the mapping layer, which in turn imports *us* — and it means property
tests can drive policies with synthetic records.

Determinism contract (enforced by property tests and the repo linter's
``determinism.*`` rules, whose scope includes this package):

* ``choose_victim`` must return a member of the candidate iterable, or
  ``None`` only when it is empty;
* a pick depends only on the candidates and the virtual clock, never on
  their iteration order or on wall time (ties break on ``(die, block)``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.mapping.blockinfo import BlockInfo, DieBookkeeping


class GCPolicy:
    """Victim selection for garbage collection.

    Subclasses implement :meth:`choose_victim`; the engine calls
    :meth:`choose_victim_from_books`, which by default scores the die's
    maintained candidate set.  Policies with a cheaper structure-aware
    path (greedy's ``min`` over the candidate column) override the
    latter — the two must pick the same victim.
    """

    #: configured name of the policy (``"greedy"``, ``"cost_benefit"``)
    name: str = "gc-policy"

    def choose_victim(
        self, candidates: Iterable[BlockInfo], now_us: float
    ) -> BlockInfo | None:
        """Pick the next victim from ``candidates``, or ``None`` if empty.

        ``now_us`` is the engine's virtual clock; age-based scores derive
        block age from it and ``last_write_us`` (never from wall time).
        """
        raise NotImplementedError

    def choose_victim_from_books(
        self, books: DieBookkeeping, now_us: float
    ) -> BlockInfo | None:
        """Victim selection over a die's *maintained* candidate set.

        This is the engine's hot path.  The default scores every
        maintained candidate — not every block of the die — through
        :meth:`choose_victim`; the result must equal a scan over
        :meth:`~repro.mapping.blockinfo.DieBookkeeping.gc_candidates_scan`
        whenever the policy's ranking key is unique per block (ties broken
        on ``(die, block)``), making the minimum independent of iteration
        order.
        """
        return self.choose_victim(books.iter_candidates(), now_us)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class WLPolicy:
    """Block-pair selection for static wear levelling.

    Given the die's free blocks and its FULL blocks that still carry live
    data, pick ``(target_free, cold_victim)``: the cold block's live pages
    move onto the worn free target, then the cold block is erased.  The
    engine keeps the threshold check (erase-count spread) and all the
    relocation machinery; the policy only ranks blocks.
    """

    #: configured name of the policy (``"coldest_first"``, ``"oldest_data"``)
    name: str = "wl-policy"

    def choose_move(
        self,
        frees: Sequence[BlockInfo],
        fulls: Sequence[BlockInfo],
        erase_count: Callable[[BlockInfo], int],
    ) -> tuple[BlockInfo, BlockInfo] | None:
        """Return ``(target_free, cold_victim)`` or ``None`` to skip.

        ``erase_count`` maps a block record to its physical erase count
        (the policy sees management bookkeeping, not the device).  Both
        sequences are non-empty when the engine calls this.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
