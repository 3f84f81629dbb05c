"""The policy interface both management layers program against.

A GC policy answers one question — *which block do we reclaim next?* —
and the WL ranking another — *which cold block moves onto which worn free
block?*.  Everything else (watermarks, relocation, accounting, timing)
stays in the engine, so a policy is a small, deterministic, independently
testable object.

A block is a die-local ``int`` index into its die's
:class:`~repro.mapping.blockinfo.DieBookkeeping` columns; a GC policy reads
those columns (``valid_count``, ``last_write_us``, the maintained
candidate set) and answers with an index.  This package imports the
mapping layer only for annotations — the mapping layer imports *us*.

Determinism contract (enforced by property tests and the repo linter's
``determinism.*`` rules, whose scope includes this package):

* ``choose_victim`` returns a member of the die's candidate set, or
  ``None`` only when it is empty;
* a pick depends only on the columns and the virtual clock, never on wall
  time; ties break toward the lowest block.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.mapping.blockinfo import DieBookkeeping


class GCPolicy:
    """Victim selection for garbage collection over one die's books."""

    #: configured name of the policy (``"greedy"``, ``"cost_benefit"``)
    name: str = "gc-policy"

    def choose_victim(self, books: DieBookkeeping, now_us: float) -> int | None:
        """The next victim block of ``books``, or ``None`` with no candidate.

        ``now_us`` is the engine's virtual clock; age-based scores derive
        block age from it and ``last_write_us`` (never from wall time).
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class WLPolicy:
    """Static wear levelling's block pair: coldest first.

    Given the die's free blocks and its FULL blocks that still carry live
    data, pick ``(target_free, cold_victim)``: the cold block's live pages
    move onto the worn free target, then the cold block is erased.  The
    engine keeps the threshold check (erase-count spread) and all the
    relocation machinery; this only ranks blocks.
    """

    def choose_move(
        self,
        frees: list[int],
        fulls: list[int],
        erase_count: Callable[[int], int],
    ) -> tuple[int, int] | None:
        """``(most worn free block, least worn full block)``, or ``None`` if
        either list is empty.

        ``erase_count`` maps a block index to its physical erase count.
        Ties go to the earlier entry of each list.
        """
        if not frees or not fulls:
            return None
        return max(frees, key=erase_count), min(fulls, key=erase_count)
