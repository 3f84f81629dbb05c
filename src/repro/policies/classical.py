"""The classical GC victim selectors.

Both GC policies are pinned bit-for-bit by the golden engine snapshots
and the TPC-C determinism test:

* **greedy** — pick the block with the most invalid pages.  Minimises the
  immediate copy cost; known to behave poorly when hot and cold data mix.
* **cost-benefit** — Kawaguchi et al.'s ``benefit/cost = age * (1-u) / 2u``
  score, which prefers old (cold) blocks even if they carry a few more
  valid pages.

Each policy reads the die's maintained candidate set and its
``valid_count`` / ``last_write_us`` columns.  The two ``select_victim_*``
functions are the same rankings as plain scans over any list of block
indices — the reference the property tests and the hot-path benchmark
hold the policies to.  Ties break toward the lowest block.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.policies.base import GCPolicy

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.mapping.blockinfo import DieBookkeeping


def select_victim_greedy(books: DieBookkeeping, blocks: Iterable[int]) -> int | None:
    """The block of ``blocks`` with the most invalid pages, or ``None``."""
    best: int | None = None
    best_key: tuple[int, int] | None = None
    for block in blocks:
        key = (-books.invalid_count(block), block)
        if best_key is None or key < best_key:
            best, best_key = block, key
    return best


def _cost_benefit(valid: int, pages_per_block: int, last_write_us: float, now_us: float) -> float:
    """``age * (1 - u) / (2 * u)``, ``u`` the valid fraction; a fully
    invalid block (``u == 0``) scores infinity."""
    u = valid / pages_per_block
    if u == 0.0:
        return float("inf")
    age = max(0.0, now_us - last_write_us)
    return age * (1.0 - u) / (2.0 * u)


def select_victim_cost_benefit(
    books: DieBookkeeping, blocks: Iterable[int], now_us: float
) -> int | None:
    """The block of ``blocks`` with the best cost-benefit score, or ``None``."""
    best: int | None = None
    best_key: tuple[float, int] | None = None
    for block in blocks:
        score = _cost_benefit(
            books.valid_count[block], books.pages_per_block, books.last_write_us[block], now_us
        )
        key = (-score, block)
        if best_key is None or key < best_key:
            best, best_key = block, key
    return best


class GreedyGC(GCPolicy):
    """Most-invalid-pages-first (the historical default): a C-level ``min``
    over the die's candidate column."""

    name = "greedy"

    def choose_victim(self, books: DieBookkeeping, now_us: float) -> int | None:
        return books.greedy_victim()


class CostBenefitGC(GCPolicy):
    """Kawaguchi cost-benefit: ``age * (1 - u) / (2 * u)``."""

    name = "cost_benefit"

    def choose_victim(self, books: DieBookkeeping, now_us: float) -> int | None:
        # candidates come in block order, so the first strictly better
        # score wins and ties keep the lowest block
        ppb = books.pages_per_block
        valid = books.valid_count
        last = books.last_write_us
        best: int | None = None
        best_score = -1.0
        for block in books.iter_candidates():
            score = _cost_benefit(valid[block], ppb, last[block], now_us)
            if score > best_score:
                best, best_score = block, score
        return best
