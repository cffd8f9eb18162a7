import functools
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
        # non-ASCII digits: Arabic-Indic zero and one, superscript two
        for bad in ("X0", "L", "Lx", "s1^-2", "L\u0660", "R\u0661", "L\u00b2",
                    "s\u0661^-1"):
            with pytest.raises(WordSyntaxError):
                parse_word(bad, 4)

    def test_index_past_digit_limit_is_out_of_range(self):
        ones = "1" * 5000
        with pytest.raises(WordSyntaxError, match=f"^generator index {ones} out of range for 4 strands$"):
            parse_word("L" + ones, 4)

    def test_leading_zeros_are_dropped(self):
        assert parse_word("L" + "0" * 5000 + "1", 4) == parse_word("L1", 4)
        with pytest.raises(WordSyntaxError, match="^generator index 9 out of range"):
            parse_word("R0009", 4)

    def test_errors_keep_word_order(self):
        long_index = "L" + "1" * 5000
        with pytest.raises(WordSyntaxError, match="^malformed token 'X'$"):
            parse_word(long_index + " X", 4)
        with pytest.raises(WordSyntaxError, match="^generator index 9 out"):
            parse_word("L9 " + long_index, 4)

    def test_parsed_word_equals_the_validated_word(self):
        # parse_word builds its word by _derived; the constructor must accept the same word
        rng = random.Random(72)
        for _ in range(600):
            strands = rng.randint(2, 10)
            letters = tuple((rng.randrange(strands - 1), rng.choice((1, -1)))
                            for _ in range(rng.randint(0, 12)))
            tokens = []
            for i, e in letters:
                index = "0" * rng.randint(0, 2) + str(i)
                forms = ("L" + index, "s" + index) if e == 1 else ("R" + index, "s" + index + "^-1")
                tokens.append(rng.choice(forms))
            w = parse_word(rng.choice((" ", "  ", "\t", "\n")).join(tokens), strands)
            assert w == BraidWord(strands, letters)
            w.__post_init__()

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
        # the one interned table is the module's only cache
        assert not [f for f in vars(braid).values() if hasattr(f, "cache_info")]
        assert [v for v in vars(braid).values() if isinstance(v, braid._Table)] == [braid._TABLE]
        assert braid._TABLE_LIMIT == 4096
        rng = random.Random(9)
        for _ in range(60):
            strands = rng.randint(2, 64)
            normal_form(sample_word(rng, strands, rng.randint(0, 60), "mixed"))
            assert braid._TABLE.n == strands
            assert len(braid._TABLE) <= 2 * braid._TABLE_LIMIT

    def test_reset_keeps_normal_form(self, monkeypatch):
        # the table outgrows its bound on the way, so normal_form replaces
        # it between words; a reset then gives the same forms
        rng = random.Random(7)
        words = [
            BraidWord(10, tuple((rng.randrange(9), rng.choice((1, -1))) for _ in range(200)))
            for _ in range(8)
        ]
        normal_form(BraidWord(10))
        table = braid._TABLE
        first = [normal_form(w) for w in words]
        assert braid._TABLE is not table
        monkeypatch.setattr(braid, "_TABLE", braid._Table(10))
        assert [normal_form(w) for w in words] == first
        assert [normal_form(w) for w in reversed(words)] == first[::-1]
        monkeypatch.setattr(braid, "_TABLE", braid._Table(3))
        assert [normal_form(w) for w in words] == first

    def test_interned_tables_stay_bounded(self):
        rng = random.Random(8)
        limit = braid._TABLE_LIMIT
        most = grown = switched = 0
        for i in range(400):
            # ten words on random strand counts, then a run on 40 strands
            strands = rng.randint(2, 40) if i % 100 < 10 else 40
            before = braid._TABLE
            size = len(before)
            normal_form(sample_word(rng, strands, rng.randint(0, 40), "mixed"))
            # replaced at the start of a call exactly when the word has
            # another strand count or the table has outgrown its bound
            kept = braid._TABLE is before
            assert kept == (before.n == strands and size <= limit)
            assert braid._TABLE.n == strands
            grown += before.n == strands and not kept
            switched += before.n != strands
            most = max(most, len(braid._TABLE))
        assert grown and switched and most <= 2 * limit

    def test_table_entries_are_consistent(self, monkeypatch):
        rng = random.Random(26)
        for strands in (2, 3, 4, 7):
            table = braid._Table(strands)
            monkeypatch.setattr(braid, "_TABLE", table)
            for _ in range(20):
                normal_form(sample_word(rng, strands, 30, "mixed"))
            assert braid._TABLE is table
            assert table.perms[0] == braid._identity_perm(strands)
            assert table.perms[table.w0] == braid._w0(strands)
            assert all(table.ids[p] == k for k, p in enumerate(table.perms))
            assert table.tau and table.factors
            assert all(table.perms[t] == braid._tau(table.perms[k]) for k, t in table.tau.items())
            for (x, y), (nx, ny) in table.pairs.items():
                assert (table.perms[nx], table.perms[ny]) == reference_left_weighted_pair(
                    table.perms[x], table.perms[y])
            for (i, sign), k in table.factors.items():
                q = braid._gen(strands, i)
                if sign < 0:
                    q = braid._mul(braid._w0(strands), q)
                assert table.perms[k] == q

    def test_table_fills_on_read(self):
        table = braid._Table(5)
        k = table.factors[2, -1]
        assert table.factors == {(2, -1): k}
        assert table.perms[k] == braid._mul(braid._w0(5), braid._gen(5, 2))
        t = table.tau[k]
        assert table.perms[t] == braid._tau(table.perms[k]) and table.tau[t] == k
        y = table.factors[3, 1]
        assert table.pairs[k, y] == tuple(
            table.ids[p] for p in reference_left_weighted_pair(table.perms[k], table.perms[y]))
        assert len(table) == len(table.perms) + 1


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


# ---------------------------------------------------------------------------
# the full-pass normal form, kept as the reference for the one-pass form

def descents(p):
    """The generators sigma_i that left-divide the permutation braid of p."""
    return {i for i in range(len(p) - 1) if p[i] > p[i + 1]}


@functools.lru_cache(maxsize=4096)
def reference_left_weighted_pair(x, y):
    """Move the smallest movable generator from y to x, one at a time.

    sigma_i can move when it starts y and does not finish x, that is when
    it does not start x^-1; moving it composes x with sigma_i on the
    right and y with sigma_i on the left.
    """
    while True:
        x_inverse = tuple(sorted(range(len(x)), key=x.__getitem__))
        movable = descents(y) - descents(x_inverse)
        if not movable:
            return x, y
        i = min(movable)
        x = tuple(i + 1 if v == i else i if v == i + 1 else v for v in x)
        y = y[:i] + (y[i + 1], y[i]) + y[i + 2:]


def reference_normalize_factors(strands, factors):
    """Bubble passes over the whole list until no pair changes."""
    fs = list(factors)
    changed = True
    while changed:
        changed = False
        for i in range(len(fs) - 1):
            nx, ny = reference_left_weighted_pair(fs[i], fs[i + 1])
            if nx != fs[i]:
                fs[i], fs[i + 1] = nx, ny
                changed = True
    shift = 0
    w0 = braid._w0(strands)
    e = braid._identity_perm(strands)
    while fs and fs[0] == w0:
        fs.pop(0)
        shift += 1
    while fs and fs[-1] == e:
        fs.pop()
    return shift, tuple(fs)


def reference_normal_form(w):
    """Slide every D^-1 to the front, then bubble the factor list.

    sigma_i^-1 = D^-1 (D sigma_i^-1), and a factor passed by D is
    conjugated by tau.
    """
    n = w.strands
    w0 = braid._w0(n)
    factors = []
    d = 0
    for i, e in reversed(w.letters):  # the D^-1 of a letter passes the factors left of it
        g = braid._gen(n, i) if e == 1 else braid._mul(w0, braid._gen(n, i))
        factors.append(braid._tau(g) if d % 2 else g)
        if e == -1:
            d -= 1
    shift, fs = reference_normalize_factors(n, factors[::-1])
    return GarsideForm(n, d + shift, fs)


def positive_word(strands, factors):
    """A positive word spelling the factors, each by a bubble sort."""
    letters = []
    for p in factors:
        p = list(p)
        done = False
        while not done:
            done = True
            for i in range(strands - 1):
                if p[i] > p[i + 1]:
                    p[i], p[i + 1] = p[i + 1], p[i]
                    letters.append((i, 1))
                    done = False
    return BraidWord(strands, tuple(letters))


def delta_power(strands, k):
    """D^k as a word: the half twist from its normal form, inverted for k < 0."""
    return GarsideForm(strands, 1, ()).word() ** k


def sample_word(rng, strands, length, kind):
    if strands == 1:
        return BraidWord(1)
    signs = {"mixed": (1, -1), "positive": (1,), "negative": (-1,)}[kind]
    letters = tuple((rng.randrange(strands - 1), rng.choice(signs)) for _ in range(length))
    return BraidWord(strands, letters)


class TestOnePassReference:
    def test_pairs_match_one_generator_moves(self):
        rng = random.Random(20)
        for _ in range(5000):
            n = rng.randint(1, 10)
            x, y = list(range(n)), list(range(n))
            rng.shuffle(x)
            rng.shuffle(y)
            x, y = tuple(x), tuple(y)
            assert braid._left_weighted_pair(x, y) == reference_left_weighted_pair(x, y)

    def test_factor_lists_match_full_passes(self):
        # any permutations, identities and half twists included
        rng = random.Random(23)
        for _ in range(2000):
            n = rng.randint(2, 6)
            special = (braid._identity_perm(n), braid._w0(n))
            factors = []
            for _ in range(rng.randint(0, 12)):
                p = list(range(n))
                rng.shuffle(p)
                factors.append(rng.choice(special) if rng.random() < 0.2 else tuple(p))
            expected = GarsideForm(n, *reference_normalize_factors(n, factors))
            assert normal_form(positive_word(n, factors)) == expected

    @pytest.mark.parametrize("kind", ["mixed", "positive", "negative", "delta-spliced"])
    def test_random_words_match_full_passes(self, kind):
        rng = random.Random(21)
        for strands in range(1, 13):
            for _ in range(40):
                if kind == "delta-spliced":
                    w = sample_word(rng, strands, rng.randint(0, 20), "mixed")
                    if strands > 1:
                        pos = rng.randint(0, len(w.letters))
                        d = delta_power(strands, rng.choice((-2, -1, 1, 2, 3)))
                        w = BraidWord(strands, w.letters[:pos] + d.letters + w.letters[pos:])
                else:
                    w = sample_word(rng, strands, rng.randint(0, 30), kind)
                assert normal_form(w) == reference_normal_form(w)

    @pytest.mark.parametrize("strands, word", [
        (4, 2000), (10, 300), (64, 40),  # random words of that length
        # 60 periods each; the pass moves D to the front and to the back
        (10, "R2 R1 R0"), (4, "R0 L1 L2 R1"),
    ])
    def test_long_words_match_full_passes(self, strands, word):
        if isinstance(word, int):
            w = sample_word(random.Random(22), strands, word, "mixed")
        else:
            w = parse_word(word, strands) ** 60
        assert normal_form(w) == reference_normal_form(w)
