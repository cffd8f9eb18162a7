import itertools
import math

import pytest
import sympy

from excol import _matrix
from excol.braid import parse_word
from excol.collection import apply_word, is_strong_candidate, serre_matrix
from excol.markov import eval_eq1, t_map
from excol.pn import (
    beilinson_collection,
    binom_poly,
    euler_chi_line,
    line_bundle_cohomology,
    serre_class_map,
    twist_matrix,
)


def monomial_count(n: int, m: int) -> int:
    """Independent oracle: count degree-m monomials in n+1 variables."""
    if m < 0:
        return 0
    return sum(
        1
        for exps in itertools.product(range(m + 1), repeat=n)
        if sum(exps) <= m
    )


class TestCohomology:
    def test_spot_values(self):
        assert line_bundle_cohomology(3, 1, 0) == 4
        assert line_bundle_cohomology(3, -4, 3) == 1
        assert all(line_bundle_cohomology(3, -2, i) == 0 for i in range(4))

    def test_h0_matches_monomial_count(self):
        for n in range(1, 4):
            for m in range(-3, 7):
                assert line_bundle_cohomology(n, m, 0) == monomial_count(n, m)

    def test_top_degree_via_pairing(self):
        # the perfect pairing gives dim H^n(O(m)) = dim H^0(O(-m-n-1))
        for n in range(1, 5):
            for m in range(-12, 13):
                assert line_bundle_cohomology(n, m, n) == line_bundle_cohomology(
                    n, -m - n - 1, 0
                )

    def test_middle_degrees_vanish(self):
        for n in range(2, 5):
            for m in range(-12, 13):
                for i in range(1, n):
                    assert line_bundle_cohomology(n, m, i) == 0

    def test_serre_duality_symmetry(self):
        for n in range(1, 5):
            for m in range(-12, 13):
                for i in range(n + 1):
                    assert line_bundle_cohomology(n, m, i) == line_bundle_cohomology(
                        n, -m - n - 1, n - i
                    )

    def test_degree_range_validated(self):
        with pytest.raises(ValueError):
            line_bundle_cohomology(3, 0, 4)
        with pytest.raises(ValueError):
            line_bundle_cohomology(0, 0, 0)


class TestEulerCharacteristic:
    def test_spot_values(self):
        assert euler_chi_line(3, 3) == 20
        assert euler_chi_line(3, -4) == -1
        assert euler_chi_line(3, 0) == 1

    def test_matches_alternating_sum(self):
        for n in range(1, 5):
            for d in range(-12, 13):
                total = sum(
                    (-1) ** i * line_bundle_cohomology(n, d, i) for i in range(n + 1)
                )
                assert euler_chi_line(n, d) == total

    def test_binomial_polynomial(self):
        for n in range(1, 5):
            for d in range(-12, 13):
                assert euler_chi_line(n, d) == binom_poly(n + d, n)

    def test_binom_poly_negative_argument(self):
        assert binom_poly(-1, 3) == -1
        assert binom_poly(-2, 2) == 3
        for a in range(0, 8):
            for b in range(0, 5):
                assert binom_poly(a, b) == math.comb(a, b)

    def test_binom_poly_is_the_falling_factorial(self):
        for a in range(-40, 41):
            for b in range(30):
                falling = math.prod(a - k for k in range(b))
                assert binom_poly(a, b) * math.factorial(b) == falling

    def test_binom_poly_rejects_negative_lower_index(self):
        with pytest.raises(ValueError, match="lower index must be nonnegative"):
            binom_poly(3, -1)


class TestBeilinson:
    def test_p3_tuple(self):
        assert beilinson_collection(3).upper_entries() == (4, 10, 20, 4, 10, 4)

    def test_p1_gram(self):
        assert beilinson_collection(1).gram == ((1, 2), (0, 1))

    def test_strong_for_all_n(self):
        for n in range(1, 6):
            assert is_strong_candidate(beilinson_collection(n))

    def test_eq1_vanishes(self):
        assert eval_eq1(t_map(beilinson_collection(3))) == 0


class TestTwist:
    def test_last_column_p3(self):
        tw = twist_matrix(3)
        assert tuple(row[3] for row in tw) == (-1, 4, -6, 4)
        # cross check: chi(O, O(4)) = 80 - 60 + 16 - 1 = 35 = C(7,3)
        gram = beilinson_collection(3).gram
        pairing = sum(gram[0][k] * tw[k][3] for k in range(4))
        assert pairing == 35 == math.comb(7, 3)

    def test_last_column_p1(self):
        assert tuple(row[1] for row in twist_matrix(1)) == (-1, 2)

    def test_shift_columns(self):
        tw = twist_matrix(3)
        for c in range(3):
            assert tuple(row[c] for row in tw) == tuple(
                1 if r == c + 1 else 0 for r in range(4)
            )

    def test_unimodular(self):
        for n in range(1, 6):
            assert _matrix.determinant(twist_matrix(n)) == 1

    def test_last_column_solves_the_euler_pairings(self):
        # reference: the class of O(n+1) solved from chi(O(i), O(n+1)) against the gram
        for n in range(1, 17):
            gram = beilinson_collection(n).gram
            pairings = tuple((euler_chi_line(n, n + 1 - i),) for i in range(n + 1))
            solved = sympy.Matrix(gram).upper_triangular_solve(sympy.Matrix(pairings))
            assert tuple(row[n] for row in twist_matrix(n)) == tuple(solved)

    def test_twist_by_m_is_the_mth_power(self):
        # reference: integer powers of T = twist_matrix(n), negative ones by sympy's inverse
        for n in range(1, 7):
            tw = sympy.Matrix(twist_matrix(n))
            for m in range(-n - 2, n + 3):
                assert sympy.Matrix(twist_matrix(n, m)) == tw ** m, (n, m)

    def test_twist_preserves_euler_pairings(self):
        # chi(E, F) = chi(E(1), F(1)): T^t A T == A on the ambient basis
        for n in range(1, 5):
            a = beilinson_collection(n).gram
            tw = twist_matrix(n)
            assert _matrix.mat_mul(_matrix.mat_mul(_matrix.transpose(tw), a), tw) == a

    def test_helix_rotation_acts_as_the_twist(self):
        # h = L0 L1 ... L{n-1} rotates the helix by one step, so h^-k sends
        # (O, ..., O(n)) to (O(k), ..., O(n+k)): the same gram, classes T^k
        for n in range(1, 9):
            b = beilinson_collection(n)
            h = parse_word(" ".join(f"L{i}" for i in range(n)), n + 1)
            for k in range(-n - 1, n + 2):
                c = apply_word(b, h ** -k)
                assert c.gram == b.gram, (n, k)
                assert c.classes == twist_matrix(n, k), (n, k)


class TestSerreClassMap:
    def test_matches_gram_formula(self):
        for n in range(1, 5):
            gram = beilinson_collection(n).gram
            kappa = serre_matrix(beilinson_collection(n))
            assert serre_class_map(n) == kappa
            assert sympy.Matrix(kappa) == sympy.Matrix(gram).inv() * sympy.Matrix(gram).T

    def test_p1_hand_value(self):
        assert serre_class_map(1) == ((-3, -2), (2, 1))

    def test_parity_unipotency(self):
        # (-1)^n kappa is the inverse twist power, always unipotent; the
        # sign of the nilpotency test therefore follows the parity of n
        for n in range(1, 6):
            sign = 1 if n % 2 else -1
            plus = sign * sympy.Matrix(serre_class_map(n)) + sympy.eye(n + 1)
            assert plus ** (n + 1) == sympy.zeros(n + 1)

    def test_commutes_with_twist(self):
        for n in range(1, 5):
            tw = twist_matrix(n)
            kappa = serre_class_map(n)
            assert _matrix.mat_mul(kappa, tw) == _matrix.mat_mul(tw, kappa)
