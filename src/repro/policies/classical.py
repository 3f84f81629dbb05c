"""The classical GC victim selectors, plus WL block ranking.

Both GC policies are pinned bit-for-bit by the golden engine snapshots
and the TPC-C determinism test:

* **greedy** — pick the block with the most invalid pages.  Minimises the
  immediate copy cost; known to behave poorly when hot and cold data mix.
* **cost-benefit** — Kawaguchi et al.'s ``benefit/cost = age * (1-u) / 2u``
  score, which prefers old (cold) blocks even if they carry a few more
  valid pages.

All tie-breaks are on ``(die, block)``, so every pick is independent of
candidate iteration order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

from repro.policies.base import GCPolicy, WLPolicy

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.mapping.blockinfo import BlockInfo, DieBookkeeping


def select_victim_greedy(candidates: Iterable[BlockInfo]) -> BlockInfo | None:
    """Return the candidate with the most invalid pages, or ``None``.

    Ties break toward the lower (die, block) address for determinism.
    """
    best: BlockInfo | None = None
    best_key: tuple[int, int, int] | None = None
    for info in candidates:
        key = (-info.invalid_count, info.die, info.block)
        if best_key is None or key < best_key:
            best, best_key = info, key
    return best


def select_victim_cost_benefit(
    candidates: Iterable[BlockInfo], now_us: float
) -> BlockInfo | None:
    """Return the candidate with the best cost-benefit score, or ``None``.

    The score is ``age * (1 - u) / (2 * u)`` where ``u`` is the fraction of
    valid pages and ``age`` the time since the block was last written.  A
    fully-invalid block (``u == 0``) is always the best possible victim.
    """
    best: BlockInfo | None = None
    best_key: tuple[float, int, int] | None = None
    for info in candidates:
        u = info.valid_count / info.pages_per_block
        if u == 0.0:
            score = float("inf")
        else:
            age = max(0.0, now_us - info.last_write_us)
            score = age * (1.0 - u) / (2.0 * u)
        key = (-score, info.die, info.block)
        if best_key is None or key < best_key:
            best, best_key = info, key
    return best


class GreedyGC(GCPolicy):
    """Most-invalid-pages-first (the historical default)."""

    name = "greedy"

    def choose_victim(
        self, candidates: Iterable[BlockInfo], now_us: float
    ) -> BlockInfo | None:
        return select_victim_greedy(candidates)

    def choose_victim_from_books(
        self, books: DieBookkeeping, now_us: float
    ) -> BlockInfo | None:
        # a C-level min over the maintained candidate column; bit-identical
        # to select_victim_greedy over the candidate set by construction
        return books.greedy_victim()


class CostBenefitGC(GCPolicy):
    """Kawaguchi cost-benefit: ``age * (1 - u) / (2 * u)``."""

    name = "cost_benefit"

    def choose_victim(
        self, candidates: Iterable[BlockInfo], now_us: float
    ) -> BlockInfo | None:
        return select_victim_cost_benefit(candidates, now_us)


class ColdestFirstWL(WLPolicy):
    """Move the coldest (fewest-erases) full block onto the most worn free
    block — the historical behaviour, preserved bit-for-bit."""

    name = "coldest_first"

    def choose_move(
        self,
        frees: Sequence[BlockInfo],
        fulls: Sequence[BlockInfo],
        erase_count: Callable[[BlockInfo], int],
    ) -> tuple[BlockInfo, BlockInfo] | None:
        if not frees or not fulls:
            return None
        return max(frees, key=erase_count), min(fulls, key=erase_count)


class OldestDataWL(WLPolicy):
    """Pick the cold victim by *data age* (oldest last write) instead of
    erase count; the target stays the most worn free block."""

    name = "oldest_data"

    def choose_move(
        self,
        frees: Sequence[BlockInfo],
        fulls: Sequence[BlockInfo],
        erase_count: Callable[[BlockInfo], int],
    ) -> tuple[BlockInfo, BlockInfo] | None:
        if not frees or not fulls:
            return None
        target = max(frees, key=erase_count)
        cold = min(fulls, key=lambda b: (b.last_write_us, b.die, b.block))
        return target, cold
