import random
import sys
from functools import reduce

import pytest
import sympy

from excol import _matrix, collection
from excol.braid import BraidWord, delta_word, parse_word
from excol.collection import (
    NumericalCollection,
    _mutate,
    apply_word,
    conserves_pairing,
    from_gram,
    from_json_text,
    is_minus_kappa_unipotent,
    is_strong_candidate,
    left_mutation,
    load,
    right_mutation,
    save,
    serre_matrix,
    to_json_text,
)
from excol.markov import orbit
from excol.pn import beilinson_collection


def random_unitriangular(rng, size, lo=-9, hi=9):
    return tuple(
        tuple(1 if i == j else (rng.randint(lo, hi) if j > i else 0) for j in range(size))
        for i in range(size)
    )


def dense_mutation(c, i, side):
    """Reference mutation by dense products: (M^T G M, C M) for the column operation M."""
    n1 = len(c.gram)
    a = c.gram[i][i + 1]
    m = [[1 if r == s else 0 for s in range(n1)] for r in range(n1)]
    if side == 1:
        m[i][i], m[i + 1][i], m[i][i + 1], m[i + 1][i + 1] = a, -1, 1, 0
    else:
        m[i][i], m[i + 1][i], m[i][i + 1], m[i + 1][i + 1] = 0, 1, -1, a
    m = _matrix.freeze(m)
    gram = _matrix.mat_mul(_matrix.mat_mul(_matrix.transpose(m), c.gram), m)
    return gram, _matrix.mat_mul(c.classes, m)


def charpoly(mat):
    return sympy.Matrix(mat).charpoly()


class TestConstruction:
    def test_orthogonal_pair(self):
        c = from_gram([[1, 0], [0, 1]])
        assert c.n == 1 and c.classes == _matrix.identity(2)

    def test_beilinson_gram_is_valid(self):
        c = beilinson_collection(3)
        assert c.gram == ((1, 4, 10, 20), (0, 1, 4, 10), (0, 0, 1, 4), (0, 0, 0, 1))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError):
            from_gram([[2, 0], [0, 1]])

    def test_rejects_lower_entries(self):
        with pytest.raises(ValueError):
            from_gram([[1, 1], [1, 1]])

    @pytest.mark.parametrize("gram", [
        [[1, 2.5], [0, 1]],
        [[1.0, 2], [0, 1]],
        [[True, 2], [0, 1]],
        [[1, 2], [False, 1]],
        [[1, sympy.Integer(2)], [0, 1]],
    ])
    def test_rejects_inexact_entries(self, gram):
        with pytest.raises(ValueError, match="^gram entries must be integers$"):
            from_gram(gram)

    def test_collection_is_gram_and_classes(self):
        assert NumericalCollection._fields == ("gram", "classes")
        c = beilinson_collection(3)
        looped = apply_word(c, parse_word("L0 R0", 4))
        assert looped == c
        assert hash(looped) == hash(c)
        assert left_mutation(c, 0) != c


class TestMutationFormulas:
    def test_two_object_left_mutation(self):
        # hand computation from the defining triangle: classes (a e0 - e1, e0)
        for a in (-3, 0, 1, 5):
            c = from_gram([[1, a], [0, 1]])
            m = left_mutation(c, 0)
            assert m.classes == ((a, 1), (-1, 0))
            assert m.gram == ((1, a), (0, 1))

    def test_two_object_right_mutation(self):
        for a in (-3, 0, 1, 5):
            c = from_gram([[1, a], [0, 1]])
            m = right_mutation(c, 0)
            assert m.classes == ((0, -1), (1, a))
            assert m.gram == ((1, a), (0, 1))

    def test_beilinson_left_mutation_oracle(self):
        # oracle 1: chi(4[O]-[O(1)], O(k)) via binomial values of chi
        # oracle 2: congruence M^T A M with the column operation written out
        b3 = beilinson_collection(3)
        m = left_mutation(b3, 0)
        assert m.upper_entries() == (4, 36, 70, 10, 20, 4)
        assert tuple(row[0] for row in m.classes) == (4, -1, 0, 0)
        basis_change = (
            (4, 1, 0, 0),
            (-1, 0, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        )
        expected_gram = _matrix.mat_mul(
            _matrix.mat_mul(_matrix.transpose(basis_change), b3.gram), basis_change
        )
        assert m.gram == expected_gram

    def test_right_mutation_keeps_eq1(self):
        from excol.markov import eval_eq1, t_map

        mutated = right_mutation(beilinson_collection(3), 2)
        assert eval_eq1(t_map(mutated)) == 0

    def test_index_out_of_range(self):
        c = beilinson_collection(3)
        with pytest.raises(IndexError, match=r"^mutation index 3 out of range for n=3$"):
            left_mutation(c, 3)
        with pytest.raises(IndexError):
            right_mutation(c, -1)

    def test_rank2_kernel_matches_dense_reference(self):
        rng = random.Random(14)
        for bound in (9, 2 ** 64):
            for _ in range(300):
                size = rng.randint(2, 8)
                c = from_gram(random_unitriangular(rng, size, -bound, bound))
                for _ in range(rng.randint(1, 8)):
                    i, side = rng.randrange(size - 1), rng.choice((1, -1))
                    stepped = _mutate(c, i, side)
                    assert (stepped.gram, stepped.classes) == dense_mutation(c, i, side)
                    assert apply_word(c, BraidWord(size, ((i, side),))) == stepped
                    c = stepped

    def test_whole_word_kernel_matches_letter_by_letter(self):
        # apply_word copies the rows once, runs the rule in place for every
        # letter and freezes once; its result must not alias the input
        rng = random.Random(15)
        for bound in (9, 2 ** 64):
            for size in range(2, 9):
                for _ in range(6):
                    c = from_gram(random_unitriangular(rng, size, -bound, bound))
                    for _ in range(rng.randint(0, 3)):  # classes other than the identity
                        c = _mutate(c, rng.randrange(size - 1), rng.choice((1, -1)))
                    snapshot = (c.gram, c.classes, hash(c))
                    w = BraidWord(size, tuple(
                        (rng.randrange(size - 1), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, 40))
                    ))
                    out = apply_word(c, w)
                    assert out == NumericalCollection(*reduce(collection._rank2, reversed(w.letters), c))
                    dense = (c.gram, c.classes)
                    for i, side in reversed(w.letters):
                        dense = dense_mutation(NumericalCollection(*dense), i, side)
                    assert (out.gram, out.classes) == dense
                    assert (c.gram, c.classes, hash(c)) == snapshot
                    assert type(out.gram) is tuple and type(out.classes) is tuple
                    assert all(type(row) is tuple for m in out for row in m)
                    hash(out)


class TestLongWords:
    def test_long_cancelling_word_returns_collection(self):
        c = beilinson_collection(3)
        w = parse_word("L0 R0", 4) ** 3000
        out = apply_word(c, w)
        assert out == c

    def test_24000_letter_cancelling_word_returns_collection(self):
        c = beilinson_collection(3)
        w = parse_word("L0 R0", 4) ** 12000
        out = apply_word(c, w)
        assert out == c

    def test_word_on_mutated_collection_matches_single_steps(self):
        c = left_mutation(beilinson_collection(3), 2)
        w = parse_word("L0 R1 L2", 4)
        out = apply_word(c, w)
        assert out == left_mutation(right_mutation(left_mutation(c, 2), 1), 0)

    def test_apply_word_builds_no_braid_word(self, monkeypatch):
        calls = []
        original = BraidWord.__post_init__
        monkeypatch.setattr(
            BraidWord, "__post_init__", lambda self: calls.append(1) or original(self)
        )
        c = beilinson_collection(3)
        w = BraidWord(4, ((0, 1), (0, -1), (2, -1), (2, 1)) * 100)
        calls.clear()
        assert apply_word(c, w) == c
        assert calls == []


class TestMutationProperties:
    def test_involution_random(self):
        rng = random.Random(10)
        for _ in range(1000):
            c = from_gram(random_unitriangular(rng, 4))
            i = rng.randrange(3)
            assert right_mutation(left_mutation(c, i), i) == c
            assert left_mutation(right_mutation(c, i), i) == c

    def test_braid_relation_random(self):
        rng = random.Random(11)
        for _ in range(1000):
            c = from_gram(random_unitriangular(rng, 4))
            for i in (0, 1):
                lhs = apply_word(c, parse_word(f"L{i} L{i + 1} L{i}", 4))
                rhs = apply_word(c, parse_word(f"L{i + 1} L{i} L{i + 1}", 4))
                assert lhs == rhs
            assert apply_word(c, parse_word("L0 L2", 4)) == apply_word(
                c, parse_word("L2 L0", 4)
            )

    def test_shape_preserved_random(self):
        rng = random.Random(12)
        for _ in range(200):
            c = from_gram(random_unitriangular(rng, 4))
            length = rng.randint(0, 20)
            word = BraidWord(
                4,
                tuple(
                    (rng.randrange(3), rng.choice((1, -1))) for _ in range(length)
                ),
            )
            image = apply_word(c, word)
            assert _matrix.is_upper_unitriangular(image.gram)
            assert abs(_matrix.determinant(image.classes)) == 1
            assert conserves_pairing(image, c.gram)

    def test_trivial_words_act_trivially(self):
        rng = random.Random(13)
        relators = [
            parse_word(t, 4)
            for t in ("L0 L1 L0 R1 R0 R1", "L1 L2 L1 R2 R1 R2", "L0 L2 R0 R2")
        ]
        for _ in range(200):
            c = from_gram(random_unitriangular(rng, 4))
            h = BraidWord(
                4,
                tuple(
                    (rng.randrange(3), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 5))
                ),
            )
            w = h * rng.choice(relators) * h.inverse()
            assert apply_word(c, w) == c

    def test_apply_word_strand_mismatch(self):
        with pytest.raises(ValueError):
            apply_word(beilinson_collection(2), parse_word("L0", 4))

    def test_apply_word_rightmost_first(self):
        c = beilinson_collection(3)
        w = parse_word("L1 L0", 4)
        assert apply_word(c, w) == left_mutation(left_mutation(c, 0), 1)


class TestSerre:
    def test_identity_gram(self):
        c = from_gram(_matrix.identity(4))
        assert serre_matrix(c) == _matrix.identity(4)
        assert not is_minus_kappa_unipotent(c)

    def test_beilinson_unipotent(self):
        c = beilinson_collection(3)
        kappa = serre_matrix(c)
        assert (sympy.Matrix(kappa) + sympy.eye(4)) ** 4 == sympy.zeros(4)
        assert is_minus_kappa_unipotent(c)

    def test_serre_identity_random(self):
        rng = random.Random(14)
        for _ in range(1000):
            c = from_gram(random_unitriangular(rng, 4))
            kappa = serre_matrix(c)
            assert _matrix.transpose(_matrix.mat_mul(c.gram, kappa)) == c.gram

    def test_unipotent_along_depth5_orbit(self):
        for member in orbit(beilinson_collection(3), 5):
            assert is_minus_kappa_unipotent(member)

    def test_charpoly_constant_along_orbit(self):
        seed = beilinson_collection(3)
        reference = charpoly(serre_matrix(seed))
        for member in orbit(seed, 3):
            assert charpoly(serre_matrix(member)) == reference


def block_of(mats, k):
    """The block matrix of k x k matrices: entry (i, j) is a list over them."""
    return [[[m[i][j] for m in mats] for j in range(k)] for i in range(k)]


def sympy_nilpotent(m, k):
    return sympy.Matrix(k, k, [x for row in m for x in row]) ** k == sympy.zeros(k)


def random_unimodular(rng, k):
    """A lower times an upper unitriangular integer matrix, in sympy."""
    lower = sympy.Matrix(k, k, lambda i, j: int(i == j) or (rng.randint(-2, 2) if i > j else 0))
    upper = sympy.Matrix(k, k, lambda i, j: int(i == j) or (rng.randint(-2, 2) if i < j else 0))
    return lower * upper


class TestNilpotent:
    """``collection._nilpotent``, the one nilpotency test, against sympy's M**k == 0."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_sympy(self, k):
        rng = random.Random(90 + k)
        strict = [
            tuple(tuple(rng.randint(-9, 9) if j > i else 0 for j in range(k)) for i in range(k))
            for _ in range(30)
        ]
        conjugates = []
        for m in strict:  # dense, and still nilpotent
            u = random_unimodular(rng, k)
            c = u * sympy.Matrix(m) * u.inv()
            conjugates.append(tuple(tuple(int(c[i, j]) for j in range(k)) for i in range(k)))
        dense = [
            tuple(tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(k))
            for _ in range(30)
        ]
        # nilpotent with entries below the diagonal
        assert k == 1 or any(c[i][j] for c in conjugates for i in range(k) for j in range(i))
        mats = strict + conjugates + dense
        rng.shuffle(mats)
        expected = [sympy_nilpotent(m, k) for m in mats]
        assert set(expected) == {True, False}
        assert all(sympy_nilpotent(m, k) for m in strict + conjugates)
        assert collection._nilpotent(block_of(mats, k), len(mats)) == expected
        assert [collection._nilpotent(block_of([m], k), 1)[0] for m in mats] == expected

    def test_zero_by_zero(self):
        assert sympy_nilpotent((), 0)
        assert collection._nilpotent([], 3) == [True] * 3
        assert collection._nilpotent(block_of([()], 0), 1) == [True]


class TestStrongCandidate:
    def test_beilinson(self):
        assert is_strong_candidate(beilinson_collection(3))

    def test_identity_gram(self):
        assert not is_strong_candidate(from_gram(_matrix.identity(4)))

    def test_dual_collection(self):
        dual = apply_word(beilinson_collection(3), delta_word())
        assert is_strong_candidate(dual)

    def test_smallest_upper_entry_one(self):
        assert is_strong_candidate(from_gram(((1, 1, 3), (0, 1, 2), (0, 0, 1))))
        assert not is_strong_candidate(from_gram(((1, 1, 3), (0, 1, 0), (0, 0, 1))))


class TestFileFormat:
    def test_documented_shape(self):
        text = to_json_text(beilinson_collection(3))
        assert text == (
            '{"n":3,"gram":[[1,4,10,20],[0,1,4,10],[0,0,1,4],[0,0,0,1]],'
            '"classes":"identity"}\n'
        )

    def test_round_trip_identity_classes(self):
        c = beilinson_collection(3)
        assert from_json_text(to_json_text(c)) == c

    def test_round_trip_mutated(self):
        c = apply_word(beilinson_collection(3), parse_word("L0 R1 L2", 4))
        back = from_json_text(to_json_text(c))
        assert back == c
        assert to_json_text(back) == to_json_text(c)

    def test_save_load(self, tmp_path):
        c = apply_word(beilinson_collection(3), delta_word())
        path = tmp_path / "dual.json"
        save(c, path)
        assert load(path) == c

    def test_save_load_single_object(self, tmp_path):
        path = tmp_path / "point.json"
        path.write_text('{"n":0,"gram":[[1]],"classes":"identity"}\n')
        c = load(path)
        assert (c.n, c.gram, c.classes) == (0, ((1,),), ((1,),))
        save(c, tmp_path / "copy.json")
        assert (tmp_path / "copy.json").read_text() == path.read_text()

    def test_round_trip_past_digit_limit(self):
        rng = random.Random(0)
        word = BraidWord(4, tuple((rng.randrange(3), rng.choice((1, -1))) for _ in range(70)))
        c = apply_word(beilinson_collection(3), word)
        assert max(abs(x) for row in c.gram for x in row).bit_length() > 4300 * 3.33
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        text = to_json_text(c)
        back = from_json_text(text)
        assert back == c and to_json_text(back) == text
        assert limit() == before

    def test_save_serializes_before_opening(self, tmp_path, monkeypatch):
        path = tmp_path / "b3.json"
        save(beilinson_collection(3), path)
        before = path.read_text()

        def refuse(c):
            raise ValueError("cannot serialize")

        monkeypatch.setattr(collection, "to_json_text", refuse)
        with pytest.raises(ValueError):
            save(apply_word(beilinson_collection(3), delta_word()), path)
        assert path.read_text() == before

    @pytest.mark.parametrize("text", [
        '{"n":1,"gram":[[1.0,2.5],[0,1]],"classes":"identity"}',
        '{"n":1,"gram":[[1,2.0],[0,1]],"classes":"identity"}',
        '{"n":1,"gram":[[true,2],[0,1]],"classes":"identity"}',
        '{"n":1.0,"gram":[[1,2],[0,1]],"classes":"identity"}',
        '{"n":true,"gram":[[1,2],[0,1]],"classes":"identity"}',
        '{"n":1,"gram":[[1,2],[0,1]],"classes":[[1,0],[false,1]]}',
        '{"n":1,"gram":[[1,2],[0,1]],"classes":[[1,0.0],[0,1]]}',
    ])
    def test_rejects_floats_and_bools(self, text):
        with pytest.raises(ValueError, match="integer"):
            from_json_text(text)

    @pytest.mark.parametrize("gram, classes, message", [
        ("[[1,2.5],[0,1]]", '"identity"', "gram entries must be integers"),
        ("[[true,2],[0,1]]", '"identity"', "gram entries must be integers"),
        ("[[1,2],[0,1]]", "[[1,0],[false,1]]", "classes entries must be integers"),
        ("[[1,2],[0,1]]", "[[1,0.0],[0,1]]", "classes entries must be integers"),
    ])
    def test_inexact_entries_name_the_matrix(self, gram, classes, message):
        with pytest.raises(ValueError) as info:
            from_json_text(f'{{"n":1,"gram":{gram},"classes":{classes}}}')
        assert str(info.value) == message

    @pytest.mark.parametrize("classes, message", [
        ("[[2,0],[0,1]]", "classes matrix is not unimodular"),
        ("[[1,1],[1,1]]", "classes matrix is singular"),
        ("[[1,2],[3,4]]", "classes matrix is not unimodular"),
    ], ids=["[[2,0],[0,1]]", "[[1,1],[1,1]]", "[[1,2],[3,4]]"])
    def test_rejects_non_unimodular_classes(self, classes, message):
        with pytest.raises(ValueError) as info:
            from_json_text(f'{{"n":1,"gram":[[1,2],[0,1]],"classes":{classes}}}')
        assert str(info.value) == message

    def test_deep_nesting_is_malformed(self):
        with pytest.raises(ValueError, match="malformed collection file"):
            from_json_text("[" * 100_000)

    @pytest.mark.parametrize("text, message", [
        ("[1,2]", "expected a JSON object"),
        ('"abc"', "expected a JSON object"),
        ("7", "expected a JSON object"),
        ("null", "expected a JSON object"),
        ('{"n":3}', "missing key 'gram'"),
    ])
    def test_shape_errors_name_the_shape(self, text, message):
        # the message is the file's fault, not the interpreter's wording
        with pytest.raises(ValueError) as info:
            from_json_text(text)
        assert str(info.value) == f"malformed collection file: {message}"

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            from_json_text('{"n":3}')
        with pytest.raises(ValueError):
            from_json_text('{"n":2,"gram":[[1,0],[0,1]],"classes":"identity"}')
        with pytest.raises(ValueError):
            from_json_text(
                '{"n":1,"gram":[[1,2],[0,1]],"classes":[[2,0],[0,1]]}'
            )
