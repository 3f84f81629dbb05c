"""Unit tests for TPC-C randomness."""

import random

import pytest

from repro.tpcc import LAST_NAME_SYLLABLES, TPCCRandom
from repro.tpcc.random_gen import ALPHANUMERIC, DIGITS, random_text


class TestNURand:
    def test_values_in_range(self):
        rng = TPCCRandom(seed=1)
        for __ in range(2000):
            v = rng.nurand(1023, 1, 3000, 259)
            assert 1 <= v <= 3000

    def test_distribution_is_skewed(self):
        # NURand concentrates mass: top-decile ids should be hit far more
        # often than uniform would predict
        rng = TPCCRandom(seed=2)
        counts = {}
        n = 20_000
        for __ in range(n):
            v = rng.customer_id(3000)
            counts[v] = counts.get(v, 0) + 1
        hot = sorted(counts.values(), reverse=True)
        top_300 = sum(hot[:300])
        assert top_300 > n * 0.2  # uniform would give ~10%

    def test_deterministic_given_seed(self):
        a = [TPCCRandom(seed=5).nurand(8191, 1, 100_000, 7911) for __ in range(5)]
        b = [TPCCRandom(seed=5).nurand(8191, 1, 100_000, 7911) for __ in range(5)]
        assert a == b


class TestLastNames:
    def test_syllable_composition(self):
        rng = TPCCRandom()
        assert rng.last_name(0) == "BARBARBAR"
        assert rng.last_name(371) == "PRICALLYOUGHT"
        assert rng.last_name(999) == "EINGEINGEING"

    def test_all_names_from_syllables(self):
        rng = TPCCRandom(seed=3)
        for __ in range(100):
            name = rng.customer_last_name_run(3000)
            rest = name
            parts = 0
            while rest:
                for syllable in LAST_NAME_SYLLABLES:
                    if rest.startswith(syllable):
                        rest = rest[len(syllable) :]
                        parts += 1
                        break
                else:
                    raise AssertionError(f"unparseable name {name}")
            assert parts == 3

    def test_load_names_cover_small_population(self):
        rng = TPCCRandom(seed=4)
        seen = {rng.customer_last_name_load(8) for __ in range(500)}
        expected = {rng.last_name(i) for i in range(8)}
        assert seen <= expected


class TestStringsAndPermutations:
    def test_astring_length_bounds(self):
        rng = TPCCRandom(seed=5)
        for __ in range(100):
            s = rng.astring(3, 9)
            assert 3 <= len(s) <= 9

    def test_nstring_is_numeric(self):
        rng = TPCCRandom(seed=6)
        assert rng.nstring(8, 8).isdigit()

    def test_zip_code_format(self):
        rng = TPCCRandom(seed=7)
        z = rng.zip_code()
        assert len(z) == 9
        assert z.endswith("11111")

    def test_permutation_is_complete(self):
        rng = TPCCRandom(seed=8)
        perm = rng.permutation(100)
        assert sorted(perm) == list(range(1, 101))

    def test_data_string_sometimes_original(self):
        rng = TPCCRandom(seed=9)
        hits = sum("ORIGINAL" in rng.data_string(20, 50) for __ in range(2000))
        assert 100 < hits < 350  # ~10%

    def test_decimal_bounds(self):
        rng = TPCCRandom(seed=10)
        for __ in range(100):
            v = rng.decimal(1.0, 5000.0)
            assert 1.0 <= v <= 5000.0


class TestRandomTextStream:
    """``random_text`` draws whole strings in bulk yet must consume the
    generator exactly as one ``Random.choice`` per character does (one
    word per attempt, values >= len rejected): the TPC-C determinism
    snapshot and every e2e fingerprint depend on it.  ``choice`` itself,
    character by character, is the reference."""

    @pytest.mark.parametrize("alphabet", [ALPHANUMERIC, DIGITS])
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**40 + 3])
    def test_equals_choice_and_leaves_same_state(self, alphabet, seed):
        ours, reference = random.Random(seed), random.Random(seed)
        for length in (0, 1, 4, 9, 24, 50, 300):
            expected = "".join(reference.choice(alphabet) for __ in range(length))
            assert random_text(ours, alphabet, length) == expected
        assert ours.getstate() == reference.getstate()

    @pytest.mark.parametrize(
        "alphabet",
        [ALPHANUMERIC, DIGITS, "xyz", ALPHANUMERIC + "+/", (ALPHANUMERIC * 5)[:255]],
        ids=["alphanumeric", "digits", "3-of-4-accepted", "64-no-rejects", "255-the-largest"],
    )
    def test_every_batch_shape_equals_choice(self, alphabet):
        # a reject in the last batch, none at all, many batches, no batch
        for seed in range(50):
            ours, reference = random.Random(seed), random.Random(seed)
            for length in (0, 1, 2, 24, 250, 1000):
                expected = "".join(reference.choice(alphabet) for __ in range(length))
                assert random_text(ours, alphabet, length) == expected
                assert ours.getstate() == reference.getstate()

    @pytest.mark.parametrize(
        "alphabet",
        ["", "\u00e9t\u00e9", "a" * 256, ALPHANUMERIC * 5],
        ids=["empty", "non-ascii", "256-needs-9-bits", "310"],
    )
    def test_rejects_alphabets_the_byte_table_cannot_serve(self, alphabet):
        rng = random.Random(3)
        before = rng.getstate()
        for length in (0, 5):
            with pytest.raises(ValueError, match="alphabet"):
                random_text(rng, alphabet, length)
        assert rng.getstate() == before  # refused before drawing anything

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**40 + 3])
    def test_uniform_equals_randint_and_leaves_same_state(self, seed):
        # widths one below a power of two (no draw rejected), exactly one
        # (half of them are), 1 (one bit per draw), beyond 32 and 64 bits
        ours, reference = TPCCRandom(seed=seed), random.Random(seed)
        for lo, hi in ((1, 10), (0, 0), (7, 7), (1, 100), (-5, 5), (0, 8191), (1, 3000),
                       (0, 2**31), (0, 2**32), (-(2**70), 2**70), (1, 2), (0, 255), (0, 256)):
            for __ in range(40):
                assert ours.uniform(lo, hi) == reference.randint(lo, hi)
            assert ours.rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("lo, hi", [(1, 0), (5, -5), (0, -(2**70))])
    def test_uniform_refuses_an_empty_range_before_drawing(self, lo, hi):
        ours, reference = TPCCRandom(seed=3), random.Random(3)
        with pytest.raises(ValueError, match="empty range"):
            reference.randint(lo, hi)
        before = ours.rng.getstate()
        with pytest.raises(ValueError, match="empty range"):
            ours.uniform(lo, hi)
        assert ours.rng.getstate() == before

    def test_astring_and_nstring_draw_length_then_characters(self):
        ours, reference = TPCCRandom(seed=11), random.Random(11)
        for lo, hi in ((8, 16), (26, 50), (4, 4)):
            length = reference.randint(lo, hi)
            assert ours.astring(lo, hi) == "".join(
                reference.choice(ALPHANUMERIC) for __ in range(length)
            )
            length = reference.randint(lo, hi)
            assert ours.nstring(lo, hi) == "".join(
                reference.choice(DIGITS) for __ in range(length)
            )
        assert ours.rng.getstate() == reference.getstate()
