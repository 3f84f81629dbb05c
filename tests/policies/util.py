"""Shared helpers for the policy tests."""

from __future__ import annotations

import random

from repro.mapping import BlockInfo, BlockState


def block(die, blk, pages=4, valid=0, written=None, last_write=0.0):
    """A standalone BlockInfo with `valid` live pages out of `written`
    written (the first ``written - valid`` pages are the dead ones); FULL
    once every page is written."""
    written = pages if written is None else written
    return BlockInfo(
        die=die,
        block=blk,
        pages_per_block=pages,
        state=BlockState.FULL if written >= pages else BlockState.FREE,
        valid_mask=(1 << written) - (1 << (written - valid)),
        valid_count=valid,
        written=written,
        last_write_us=last_write if written else 0.0,
    )


def candidate_pool(seed, count=12, pages=8):
    """A deterministic, varied pool of GC candidates (full blocks)."""
    rng = random.Random(seed)
    pool = []
    for i in range(count):
        pool.append(
            block(
                die=rng.randrange(4),
                blk=i,
                pages=pages,
                valid=rng.randrange(pages + 1),
                last_write=rng.uniform(0.0, 50_000.0),
            )
        )
    return pool
