"""Bad: global-RNG calls and RNGs that do not replay inside a sim package."""

import random
import random as rnd
from random import randint

SHARED_RNG = random.Random(1234)  # module-level: shared across importers/cells


def roll() -> int:
    return randint(1, 6)


def jitter() -> float:
    return random.random()


def make_rng() -> random.Random:
    return random.Random()


def hash_seeded(name: str) -> random.Random:
    return random.Random(hash(name))  # PYTHONHASHSEED-dependent seed


def none_seeded() -> random.Random:
    return random.Random(None)  # explicit None is OS entropy


def none_keyword_seeded() -> random.Random:
    return random.Random(seed=None)


def aliased_seedless() -> rnd.Random:
    return rnd.Random()


def aliased_global() -> float:
    return rnd.random()


def reseeded(rng: random.Random) -> None:
    rng.seed()  # argument-less re-seed draws OS entropy
