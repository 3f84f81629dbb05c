"""Good: explicitly seeded, per-use random.Random instances."""

import random


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def jitter(rng: random.Random) -> float:
    return rng.random()


def derived(base_seed: int, cell: str) -> random.Random:
    # string seeds are hashed with SHA-512 internally: process-stable
    return random.Random(f"{base_seed}:{cell}")


def forked(parent: random.Random) -> random.Random:
    return random.Random(parent.getrandbits(64))


def reseeded(rng: random.Random, seed: int) -> None:
    rng.seed(seed)
