"""TPC-C randomness: NURand, last names, strings, permutations.

Implements the spec's clause 2.1.6 non-uniform random function and clause
4.3.2 data generation rules, parameterised to the scaled-down populations
of :class:`~repro.tpcc.schema.ScaleConfig`.
"""

from __future__ import annotations

import functools
import random

#: Spec clause 4.3.2.3: the syllables composing C_LAST.
LAST_NAME_SYLLABLES = (
    "BAR",
    "OUGHT",
    "ABLE",
    "PRI",
    "PRES",
    "ESE",
    "ANTI",
    "CALLY",
    "ATION",
    "EING",
)


ALPHANUMERIC = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
DIGITS = "0123456789"


@functools.lru_cache(maxsize=16)
def _byte_plan(alphabet: str) -> tuple[bytes, bytes]:
    """``bytes.translate`` arguments that turn the top byte of each
    generator word into what ``rng.choice(alphabet)`` makes of that word.

    ``choice`` indexes with ``getrandbits(len(alphabet).bit_length())``,
    which is the word's top ``bit_length`` bits, and draws again while
    that is not below ``len(alphabet)``.  With at most 8 such bits they
    are the top bits of the top byte: the first value maps every byte to
    its character, the second lists the bytes ``choice`` would reject.
    """
    size = len(alphabet)
    if not 0 < size < 256 or not alphabet.isascii():
        kind = "" if alphabet.isascii() else " non-ASCII"
        raise ValueError(f"alphabet must be 1..255 ASCII characters, got {size}{kind}")
    shift = 8 - size.bit_length()
    letters = alphabet.encode("ascii")
    indexes = [byte >> shift for byte in range(256)]
    table = bytes(letters[index] if index < size else 0 for index in indexes)
    rejects = bytes(byte for byte, index in enumerate(indexes) if index >= size)
    return table, rejects


def random_text(rng: random.Random, alphabet: str, length: int) -> str:
    """``length`` characters drawn like ``rng.choice(alphabet)``, same stream.

    One ``getrandbits`` call draws a generator word for every character
    still missing and :func:`_byte_plan` maps the words to characters in
    C, dropping the ones ``choice`` would have rejected; the loop runs
    again for exactly that many.  A batch never holds more words than
    characters are missing, so the generator is consumed word for word as
    ``choice`` consumes it and ends in the same state (pinned, state
    included, by ``tests/tpcc/test_random_gen.py``).  Raises
    ``ValueError``, before drawing anything, for an alphabet the byte
    table cannot serve: empty, non-ASCII, or longer than 255 characters.
    """
    table, rejects = _byte_plan(alphabet)
    text = b""
    need = length
    while need > 0:
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        text += words[3::4].translate(table, rejects)
        need = length - len(text)
    return text.decode("ascii")


class TPCCRandom:
    """Seeded random source with the TPC-C helper distributions."""

    def __init__(self, seed: int = 0, c_last: int = 123, c_id: int = 259, ol_i_id: int = 7911) -> None:
        self.rng = random.Random(seed)
        # the spec's per-run constants C for each NURand usage
        self.c_last_const = c_last
        self.c_id_const = c_id
        self.ol_i_id_const = ol_i_id

    # ------------------------------------------------------------------
    # Primitive draws
    # ------------------------------------------------------------------
    def uniform(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]``: ``rng.randint(lo, hi)``, same
        stream, without its three frames of argument checking.

        ``randint`` ends in ``lo + _randbelow(width)``, which draws
        ``getrandbits(width.bit_length())`` until the value is below
        ``width``; that loop is all there is to repeat here (pinned, state
        included, by ``tests/tpcc/test_random_gen.py``).
        """
        width = hi - lo + 1
        if width <= 0:
            raise ValueError(f"empty range for uniform({lo}, {hi})")
        getrandbits = self.rng.getrandbits
        bits = width.bit_length()
        draw = getrandbits(bits)
        while draw >= width:
            draw = getrandbits(bits)
        return lo + draw

    def decimal(self, lo: float, hi: float, digits: int = 2) -> float:
        """Uniform decimal in ``[lo, hi]`` rounded to ``digits``."""
        return round(self.rng.uniform(lo, hi), digits)

    def astring(self, lo: int, hi: int) -> str:
        """Random alphanumeric string of length uniform in ``[lo, hi]``."""
        return random_text(self.rng, ALPHANUMERIC, self.uniform(lo, hi))

    def nstring(self, lo: int, hi: int) -> str:
        """Random numeric string of length uniform in ``[lo, hi]``."""
        return random_text(self.rng, DIGITS, self.uniform(lo, hi))

    def nurand(self, a: int, x: int, y: int, c: int) -> int:
        """Spec 2.1.6: ``(((rand(0,A) | rand(x,y)) + C) % (y - x + 1)) + x``."""
        return (((self.uniform(0, a) | self.uniform(x, y)) + c) % (y - x + 1)) + x

    # ------------------------------------------------------------------
    # Domain draws
    # ------------------------------------------------------------------
    def customer_id(self, customers_per_district: int) -> int:
        """NURand(1023, ...) customer id, scaled to the population."""
        return self.nurand(1023, 1, customers_per_district, self.c_id_const)

    def item_id(self, items: int) -> int:
        """NURand(8191, ...) item id, scaled to the population."""
        return self.nurand(8191, 1, items, self.ol_i_id_const)

    def last_name(self, number: int) -> str:
        """C_LAST from a three-syllable number (spec 4.3.2.3)."""
        return (
            LAST_NAME_SYLLABLES[(number // 100) % 10]
            + LAST_NAME_SYLLABLES[(number // 10) % 10]
            + LAST_NAME_SYLLABLES[number % 10]
        )

    def customer_last_name_load(self, customers_per_district: int) -> str:
        """Last name for the initial load (uniform over the name space)."""
        space = min(999, max(0, customers_per_district - 1))
        return self.last_name(self.uniform(0, space))

    def customer_last_name_run(self, customers_per_district: int) -> str:
        """Last name for run-time lookups (NURand-255 skew)."""
        space = min(999, max(0, customers_per_district - 1))
        return self.last_name(self.nurand(255, 0, space, self.c_last_const))

    def permutation(self, n: int) -> list[int]:
        """Random permutation of ``1..n`` (customer id assignment)."""
        values = list(range(1, n + 1))
        self.rng.shuffle(values)
        return values

    def zip_code(self) -> str:
        """Spec 4.3.2.7: 4 random digits + '11111'."""
        return self.nstring(4, 4) + "11111"

    def data_string(self, lo: int, hi: int, original_chance: float = 0.1) -> str:
        """i_data / s_data string; 10% contain 'ORIGINAL' (spec 4.3.3.1)."""
        s = self.astring(lo, hi)
        if self.rng.random() < original_chance and len(s) >= 8:
            pos = self.uniform(0, len(s) - 8)
            s = s[:pos] + "ORIGINAL" + s[pos + 8 :]
        return s
