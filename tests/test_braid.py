import random

import pytest

from excol import braid
from excol.braid import (
    BraidWord,
    GarsideForm,
    WordSyntaxError,
    center_word,
    delta_word,
    is_trivial,
    normal_form,
    parse_word,
)

RELATORS = [
    "L0 L1 L0 R1 R0 R1",
    "L1 L2 L1 R2 R1 R2",
    "L0 L2 R0 R2",
    "L2 L0 R2 R0",
]


def perm_of_word(w: BraidWord):
    """Independent oracle: project to the symmetric group."""
    img = list(range(w.strands))
    for i, _ in w.letters:
        img[i], img[i + 1] = img[i + 1], img[i]
    return tuple(img)


def exponent_sum(w: BraidWord) -> int:
    """Independent oracle: abelianization of the braid group."""
    return sum(e for _, e in w.letters)


def random_word(rng, strands, max_len):
    length = rng.randint(0, max_len)
    return BraidWord(
        strands,
        tuple((rng.randrange(strands - 1), rng.choice((1, -1))) for _ in range(length)),
    )


class TestParsing:
    def test_textual_order(self):
        w = parse_word("L0 R1", 4)
        assert w.letters == ((0, 1), (1, -1))

    def test_delta_spelling(self):
        assert delta_word().letters == parse_word("L0 L1 L2 L0 L1 L0", 4).letters

    def test_sigma_syntax(self):
        assert parse_word("s0 s1^-1", 4) == parse_word("L0 R1", 4)

    def test_index_out_of_range(self):
        with pytest.raises(WordSyntaxError):
            parse_word("L5", 4)

    def test_malformed_token(self):
        for bad in ("X0", "L", "Lx", "s1^-2"):
            with pytest.raises(WordSyntaxError):
                parse_word(bad, 4)

    def test_round_trip_text(self):
        w = parse_word("L0 R2 L1", 4)
        assert parse_word(w.to_text(), 4) == w


class TestNormalForm:
    def test_empty_word(self):
        nf = normal_form(BraidWord(4))
        assert nf.infimum == 0 and nf.factors == ()

    def test_half_twist(self):
        # oracle: the six transpositions multiply to the order reversal
        delta = delta_word()
        n = delta.strands
        assert perm_of_word(delta) == tuple(range(n - 1, -1, -1))
        nf = normal_form(delta)
        assert (nf.infimum, nf.factors) == (1, ())

    def test_braid_relator_collapses(self):
        nf = normal_form(parse_word("L0 L1 L0 R1 R0 R1", 4))
        assert nf.infimum == 0 and nf.factors == ()

    def test_single_generator(self):
        nf = normal_form(parse_word("L1", 4))
        assert nf.infimum == 0
        assert nf.factors == ((0, 2, 1, 3),)

    def test_inverse_generator_infimum(self):
        nf = normal_form(parse_word("R0", 4))
        assert nf.infimum == -1
        assert nf.canonical_length == 1

    def test_rejects_unnormalized_factors(self):
        with pytest.raises(ValueError):
            GarsideForm(4, 0, ((0, 1, 2, 3),))  # identity factor
        with pytest.raises(ValueError):
            GarsideForm(4, 0, ((3, 2, 1, 0),))  # half twist factor

    def test_str_format(self):
        assert str(normal_form(BraidWord(4))) == "D^0"
        assert str(normal_form(delta_word())) == "D^1"
        assert str(normal_form(parse_word("L0", 4))) == "D^0 . (2 1 3 4)"

    def test_round_trip_idempotent_random(self):
        rng = random.Random(1)
        for _ in range(300):
            w = random_word(rng, 4, 25)
            nf = normal_form(w)
            assert normal_form(nf.word()) == nf

    def test_round_trip_other_strand_counts(self):
        rng = random.Random(2)
        for strands in (2, 3, 5, 6):
            for _ in range(60):
                w = random_word(rng, strands, 15)
                nf = normal_form(w)
                assert normal_form(nf.word()) == nf


class TestCaches:
    def test_permutation_caches_are_bounded(self):
        caches = [f for f in vars(braid).values() if hasattr(f, "cache_info")]
        assert caches
        assert all(f.cache_info().maxsize is not None for f in caches)

    def test_eviction_keeps_normal_form(self):
        rng = random.Random(7)
        w = BraidWord(10, tuple((rng.randrange(9), rng.choice((1, -1))) for _ in range(120)))
        first = normal_form(w)
        assert braid._starting.cache_info().currsize == braid._CACHE_SIZE
        for f in vars(braid).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
        assert normal_form(w) == first


class TestTriviality:
    def test_cancelling_pair(self):
        assert is_trivial(parse_word("L0 R0", 4))

    def test_far_commutation(self):
        assert is_trivial(parse_word("L0 L2 R0 R2", 4))

    def test_generator_not_trivial(self):
        assert not is_trivial(parse_word("L0", 4))

    @pytest.mark.parametrize("text", RELATORS)
    def test_relators(self, text):
        assert is_trivial(parse_word(text, 4))

    def test_word_times_inverse_random(self):
        rng = random.Random(3)
        for _ in range(1000):
            w = random_word(rng, 4, 30)
            assert is_trivial(w * w.inverse())

    def test_nontrivial_detected_by_oracles(self):
        # words that the permutation or abelianization oracle rejects
        rng = random.Random(4)
        for _ in range(300):
            w = random_word(rng, 4, 12)
            if perm_of_word(w) != (0, 1, 2, 3) or exponent_sum(w) != 0:
                assert not is_trivial(w)

    def test_relator_insertion_invariance(self):
        rng = random.Random(5)
        for _ in range(200):
            w = random_word(rng, 4, 15)
            nf = normal_form(w)
            rel = parse_word(rng.choice(RELATORS), 4)
            pos = rng.randint(0, len(w.letters))
            spliced = BraidWord(4, w.letters[:pos] + rel.letters + w.letters[pos:])
            assert normal_form(spliced) == nf
            assert normal_form(w.free_reduce()) == nf


class TestSpecialWords:
    def test_delta_conjugation(self):
        delta = delta_word()
        for i in range(3):
            w = (
                delta.inverse()
                * BraidWord(4, ((i, 1),))
                * delta
                * BraidWord(4, ((2 - i, -1),))
            )
            assert is_trivial(w)

    def test_center_generator_commutes(self):
        center = center_word()
        for i in range(3):
            g = BraidWord(4, ((i, 1),))
            assert is_trivial(center * g * center.inverse() * g.inverse())

    def test_center_reversed_spelling(self):
        center = center_word()
        reverse = parse_word("L2 L1 L0", 4) ** 4
        assert is_trivial(center * reverse.inverse())

    def test_delta_squared_is_center(self):
        assert is_trivial(delta_word() ** 2 * center_word().inverse())

    def test_strand_count_guard(self):
        with pytest.raises(ValueError):
            delta_word(5)
        with pytest.raises(ValueError):
            center_word(3)
