"""Shared helpers for the policy tests: dies built through the bookkeeping's
own transitions."""

from __future__ import annotations

import random

from repro.mapping import DieBookkeeping


def books_of(blocks, pages=4):
    """A die with one block per entry of ``blocks``, in block order.

    An entry ``(valid, last_write)`` programs every page of the block at
    ``last_write`` and then invalidates all but its last ``valid`` pages,
    leaving it FULL; ``None`` leaves the block FREE.
    """
    books = DieBookkeeping(die=0, blocks_per_die=len(blocks), pages_per_block=pages)
    for block, spec in enumerate(blocks):
        if spec is None:
            continue
        valid, last_write = spec
        books.take_block(block)
        for page in range(pages):
            books.note_write(block, page, last_write)
        for page in range(pages - valid):
            books.invalidate(block, page)
    return books


def candidate_pool(seed, count=12, pages=8):
    """A deterministic, varied die of full blocks; a fully valid one is
    no candidate."""
    rng = random.Random(seed)
    return books_of(
        [(rng.randrange(pages + 1), rng.uniform(0.0, 50_000.0)) for __ in range(count)],
        pages,
    )
