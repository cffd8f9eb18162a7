import random

import pytest
import sympy

from excol import _matrix
from excol.braid import BraidWord
from excol.collection import apply_word, from_gram, from_json_text, serre_matrix
from excol.pn import beilinson_collection


def random_unimodular(rng, n, steps=12):
    """A product of elementary row operations and row swaps."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j and rng.random() < 0.8:
            k = rng.randint(-3, 3)
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
        else:
            m[i], m[j] = m[j], m[i]
            m[i] = [-x for x in m[i]] if rng.random() < 0.5 else m[i]
    return _matrix.freeze(m)


def classes_file(classes):
    """A collection file holding an identity gram and the given classes."""
    n1 = len(classes)
    gram = [list(row) for row in _matrix.identity(n1)]
    return f'{{"n":{n1 - 1},"gram":{gram},"classes":{[list(row) for row in classes]}}}'


def random_singular(rng, n):
    """Random rows with the last one a combination of two others."""
    rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n - 1)]
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    return _matrix.freeze(rows)


class TestBareiss:
    def test_unimodular_determinant_matches_sympy(self):
        rng = random.Random(40)
        for _ in range(150):
            n = rng.randint(1, 7)
            a = random_unimodular(rng, n)
            assert _matrix.determinant(a) == sympy.Matrix(a).det()

    def test_determinant_matches_sympy(self):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(1, 6)
            a = _matrix.freeze([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            assert _matrix.determinant(a) == sympy.Matrix(a).det()

    def test_singular_matrices(self):
        rng = random.Random(42)
        for _ in range(100):
            a = random_singular(rng, rng.randint(2, 6))
            assert sympy.Matrix(a).det() == 0
            assert _matrix.determinant(a) == 0
            with pytest.raises(ValueError, match="^classes matrix is singular$"):
                from_json_text(classes_file(a))

    @pytest.mark.parametrize("a", [((2, 0), (0, 1)), ((1, 2), (3, 4)), ((3,),)])
    def test_not_unimodular(self, a):
        with pytest.raises(ValueError, match="^classes matrix is not unimodular$"):
            from_json_text(classes_file(a))

    def test_unimodular_classes_load(self):
        rng = random.Random(46)
        for _ in range(50):
            a = random_unimodular(rng, rng.randint(1, 6))
            assert from_json_text(classes_file(a)).classes == a

    def test_empty_matrix(self):
        assert _matrix.determinant(()) == 1

    def test_large_entries_from_long_word(self):
        # the classes made by the 70-letter word, entries of about 39k bits
        rng = random.Random(0)
        word = BraidWord(4, tuple((rng.randrange(3), rng.choice((1, -1))) for _ in range(70)))
        classes = apply_word(beilinson_collection(3), word).classes
        assert max(abs(x) for row in classes for x in row).bit_length() > 30000
        assert _matrix.determinant(classes) == sympy.Matrix(classes).det()


def random_unitriangular(rng, n, bits):
    return _matrix.freeze(
        [[int(i == j) if j <= i else rng.randint(-(1 << bits), 1 << bits) for j in range(n)]
         for i in range(n)]
    )


def random_matrix(rng, rows, cols, bits):
    return _matrix.freeze(
        [[rng.randint(-(1 << bits), 1 << bits) for _ in range(cols)] for _ in range(rows)]
    )


class TestUnitriangularSolve:
    """The one back substitution, kappa = G^-1 G^T, through ``serre_matrix``."""

    @pytest.mark.parametrize("bits", [3, 20, 1200])
    def test_matches_sympy(self, bits):
        # sizes 0-8; 20 bits bounds the entries by about +-10^6
        rng = random.Random(43 + bits)
        for _ in range(120):
            g = random_unitriangular(rng, rng.randint(0, 8), bits)
            kappa = serre_matrix(from_gram(g))
            assert sympy.Matrix(kappa) == sympy.Matrix(g).inv() * sympy.Matrix(g).T
            assert all(type(v) is int for row in kappa for v in row)

    def test_sparse_multipliers(self):
        # a gram with one nonzero entry off the diagonal: kappa by hand
        g = ((1, 0, 0, 5), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert serre_matrix(from_gram(g)) == (
            (-24, 0, 0, -5), (0, 1, 0, 0), (0, 0, 1, 0), (5, 0, 0, 1)
        )

    def test_gram_times_kappa_is_transpose(self):
        rng = random.Random(44)
        for _ in range(100):
            g = random_unitriangular(rng, rng.randint(1, 9), 4)
            assert _matrix.mat_mul(g, serre_matrix(from_gram(g))) == _matrix.transpose(g)

    def test_empty(self):
        assert serre_matrix(from_gram(())) == ()


class TestMatMul:
    @pytest.mark.parametrize("bits", [3, 1200])
    def test_matches_sympy(self, bits):
        rng = random.Random(45 + bits)
        for _ in range(120):
            r, k, c = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
            a, b = random_matrix(rng, r, k, bits), random_matrix(rng, k, c, bits)
            assert sympy.Matrix(_matrix.mat_mul(a, b)) == sympy.Matrix(a) * sympy.Matrix(b)
