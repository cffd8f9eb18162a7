import random
import sys
import tracemalloc

import pytest
import sympy
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from excol import _matrix, collection, markov, suites
from excol.braid import BraidWord, is_trivial, parse_word
from excol.collection import (
    NumericalCollection,
    apply_word,
    from_gram,
    is_minus_kappa_unipotent,
    unipotent_grams,
)
from excol.markov import (
    MUTATION_LETTERS,
    SEED_BEILINSON,
    SEED_DUAL,
    CapExceededError,
    GWord,
    SixTuple,
    V,
    W2,
    W2_INV,
    W3,
    apply_g,
    check_equivariance,
    eval_eq1,
    eval_eq2,
    f_image,
    orbit,
    stabilizer_scan,
    t_map,
    tuple_gram,
    unipotency_oracle,
    unipotency_oracles,
)
from excol.pn import beilinson_collection, twist_matrix

ZERO = SixTuple(0, 0, 0, 0, 0, 0)

G_RELATORS = (
    GWord((V, V)),
    GWord((W2,) * 4),
    GWord((W3, W3)),
    GWord((W3, W2, W3, W2)),
    GWord((V, W3, W2, W2, W2) * 3),
    GWord((V, W3, V, W2, W2) * 2),
)

BRAID_RELATORS = tuple(
    parse_word(t, 4)
    for t in ("L0 L1 L0 R1 R0 R1", "L1 L2 L1 R2 R1 R2", "L0 L2 R0 R2", "L2 L0 R2 R0")
)


def reference_mat_mul(a, b):
    """The generator-of-products matrix product the oracle used to run on."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def reference_unitriangular_inverse(a):
    """Column-by-column back substitution, as the oracle used to invert."""
    n = len(a)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(a[i][k] * inv[k][j] for k in range(i + 1, j + 1))
    return tuple(tuple(row) for row in inv)


def reference_unipotent(gram):
    """The former oracle's kappa = G^-1 G^T, then whether (kappa + 1)^(n+1) is zero.

    The power is sympy's, on its integer ``DomainMatrix``, which runs the
    thousands of calls here several times faster than ``sympy.Matrix``.
    """
    n1 = len(gram)
    kappa = reference_mat_mul(reference_unitriangular_inverse(gram), _matrix.transpose(gram))
    plus = DomainMatrix.from_list(kappa, ZZ) + DomainMatrix.eye(n1, ZZ)
    return (plus ** n1).is_zero_matrix


def random_unitriangular(rng, size, lo=-9, hi=9):
    return tuple(
        tuple(1 if i == j else (rng.randint(lo, hi) if j > i else 0) for j in range(size))
        for i in range(size)
    )


def assert_matches_recursive_scan(c, max_len, cap):
    """The recursive depth-first search the scan replaced, kept as a reference."""
    letters = tuple((i, e) for e in (1, -1) for i in range(c.n))
    found, visited = [], 0

    def rec(state, path):
        nonlocal visited
        if len(path) == max_len:
            return
        for let in letters:
            if path and path[-1] == (let[0], -let[1]):
                continue
            visited += 1
            if visited > cap:
                raise CapExceededError("cap", found)
            nxt = apply_word(state, BraidWord(c.strands, (let,)))
            path.append(let)
            if nxt == c:
                found.append(BraidWord(c.strands, tuple(reversed(path))))
            rec(nxt, path)
            path.pop()

    try:
        rec(c, [])
        expected = sorted(found, key=lambda w: (len(w.letters), w.letters))
    except CapExceededError:
        expected = None
    if expected is not None:
        assert stabilizer_scan(c, max_len, cap=cap) == expected
    else:
        # the partial list is the whole scan at the longest length the cap covers
        with pytest.raises(CapExceededError) as exc:
            stabilizer_scan(c, max_len, cap=cap)
        reach = max(L for L in range(max_len + 1) if words_counted(len(letters), L) <= max(cap, 0))
        assert exc.value.partial == stabilizer_scan(c, reach)


def words_counted(alphabet, length):
    """The nonempty freely reduced words of length at most ``length``."""
    return sum(alphabet * (alphabet - 1) ** (k - 1) for k in range(1, length + 1))


def symbolic_tuple():
    return SixTuple(*sympy.symbols("a01 a02 a03 a12 a13 a23"))


def fixes_symbolically(gword: GWord) -> bool:
    t = symbolic_tuple()
    out = gword.apply(t)
    return all(sympy.expand(a - b) == 0 for a, b in zip(out, t))


class TestTMap:
    def test_beilinson(self):
        assert t_map(beilinson_collection(3)) == SEED_BEILINSON

    def test_dual(self):
        from excol.braid import delta_word

        assert t_map(apply_word(beilinson_collection(3), delta_word())) == SEED_DUAL

    def test_identity_gram(self):
        assert t_map(from_gram(_matrix.identity(4))) == ZERO

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            t_map(beilinson_collection(2))

    def test_tuple_gram_round_trip(self):
        assert t_map(from_gram(tuple_gram(SEED_DUAL))) == SEED_DUAL


class TestEquations:
    def test_eq1_values(self):
        # 136 - 384 + 256 - 8 and 648 - 1920 + 1280 - 8
        assert eval_eq1(SEED_DUAL) == 0
        assert eval_eq1(SEED_BEILINSON) == 0
        assert eval_eq1(ZERO) == -8

    def test_eq2_variants(self):
        assert eval_eq2(SEED_DUAL, "printed") == -720
        assert eval_eq2(SEED_DUAL, "corrected") == 0
        assert eval_eq2(ZERO, "printed") == -16
        assert eval_eq2(ZERO, "corrected") == -16
        assert eval_eq2(SEED_DUAL) == 0  # corrected is the default

    def test_eq2_unknown_variant(self):
        with pytest.raises(ValueError):
            eval_eq2(SEED_DUAL, "fixed")

    def test_oracle(self):
        assert unipotency_oracle(SEED_DUAL)
        assert unipotency_oracle(SEED_BEILINSON)
        assert not unipotency_oracle(SixTuple(1, 0, 0, 0, 0, 0))

    def test_oracle_arbitrates_eq2(self):
        # on the seed the printed variant disagrees with the oracle,
        # the corrected variant agrees
        assert unipotency_oracle(SEED_DUAL) and eval_eq2(SEED_DUAL, "printed") != 0
        assert eval_eq2(SEED_DUAL, "corrected") == 0

    def test_equations_are_the_characteristic_polynomial_of_kappa(self):
        # det G = 1, so det(x - kappa) = det(x G - G^T) for kappa = G^-1 G^T
        a = symbolic_tuple()
        x = sympy.Symbol("x")
        g = sympy.Matrix(tuple_gram(a))
        one, c1, c2, c3, c4 = sympy.Poly((x * g - g.T).det(method="berkowitz"), x).all_coeffs()
        assert one == 1 and sympy.expand(c3 - c1) == 0 and c4 == 1
        assert sympy.expand(eval_eq1(a) - (c1 - 4)) == 0
        assert sympy.expand(eval_eq2(a, "corrected") - (c2 + 2 * c1 - 14)) == 0
        # the printed variant is no affine combination of c1 and c2
        p, q, r = sympy.symbols("p q r")
        rest = sympy.Poly(sympy.expand(eval_eq2(a, "printed") - p * c1 - q * c2 - r), *a)
        assert sympy.linsolve(rest.coeffs(), [p, q, r]) == sympy.EmptySet


class TestOracleReference:
    """The one back substitution oracle against the former inverse-then-product one."""

    @pytest.mark.parametrize("seed,depth", [(SEED_DUAL, 14), (SEED_BEILINSON, 10)])
    def test_orbit_tuples(self, seed, depth):
        tuples = list(orbit(seed, depth))
        assert len(tuples) > 1000
        for t, bit in zip(tuples, unipotency_oracles(tuples), strict=True):
            assert bit is reference_unipotent(tuple_gram(t)) is True

    def test_random_tuples_both_outcomes(self):
        rng = random.Random(51)
        outcomes = set()
        for bound in [2] * 2000 + [9] * 1000:
            t = SixTuple(*(rng.randint(-bound, bound) for _ in range(6)))
            got = unipotency_oracle(t)
            assert got == reference_unipotent(tuple_gram(t))
            assert got == is_minus_kappa_unipotent(from_gram(tuple_gram(t)))
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_random_grams_both_outcomes(self):
        rng = random.Random(52)
        outcomes = set()
        for _ in range(1500):
            size = rng.randint(1, 10)
            if rng.random() < 0.5:
                gram = random_unitriangular(rng, size, -2, 2)
            else:  # a mutated Beilinson collection keeps its unipotency
                n = max(size - 1, 1)
                word = BraidWord(n + 1, tuple(
                    (rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))))
                gram = apply_word(beilinson_collection(n), word).gram
            got = is_minus_kappa_unipotent(from_gram(gram))
            assert got == reference_unipotent(gram)
            outcomes.add(got)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_beilinson(self, n):
        gram = beilinson_collection(n).gram
        assert is_minus_kappa_unipotent(beilinson_collection(n)) is (n % 2 == 1)
        assert reference_unipotent(gram) is (n % 2 == 1)


def mutated_beilinson_gram(rng, n):
    word = BraidWord(n + 1, tuple(
        (rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))))
    return apply_word(beilinson_collection(n), word).gram


class TestUnipotentGrams:
    """The batched kernel: its input contract, and agreement with the reference."""

    def test_empty(self):
        assert unipotent_grams([]) == []
        assert unipotency_oracles([]) == []

    def test_zero_by_zero_grams(self):
        # (kappa + 1)^0 of a 0 x 0 gram is the empty matrix, which is zero
        assert unipotent_grams([()] * 300) == [True] * 300

    @pytest.mark.parametrize("grams", [
        [_matrix.identity(3), _matrix.identity(4)],
        [_matrix.identity(4), _matrix.identity(3)],
        [((1, 2), (0, 1, 0))],
        [((1, 2, 3), (0, 1, 4))],
        [_matrix.identity(2)] * 300 + [_matrix.identity(3)],
    ])
    def test_sizes_must_agree(self, grams):
        with pytest.raises(ValueError, match="gram matrices must all be k x k"):
            unipotent_grams(grams)

    def test_order_and_duplicates(self):
        yes, no = beilinson_collection(3).gram, _matrix.identity(4)
        grams = [yes, no, no, yes, yes, no, yes]
        assert unipotent_grams(grams) == [g is yes for g in grams]
        ts = [SEED_DUAL, ZERO, SEED_DUAL, SixTuple(1, 0, 0, 0, 0, 0), SEED_BEILINSON]
        assert unipotency_oracles(ts) == [True, False, True, False, True]
        assert unipotency_oracles(ts) == [unipotency_oracle(t) for t in ts]

    @pytest.mark.parametrize("size", range(1, 11))
    def test_sizes_against_reference(self, size):
        rng = random.Random(60 + size)
        grams = [
            random_unitriangular(rng, size, -2, 2) if size == 1 or rng.random() < 0.5
            else mutated_beilinson_gram(rng, size - 1)
            for _ in range(80)
        ]
        got = unipotent_grams(grams)
        assert got == [reference_unipotent(g) for g in grams]
        # -kappa unipotent forces det(kappa) = (-1)^size, and det(kappa) = 1
        assert set(got) == ({True, False} if size % 2 == 0 else {False})

    @pytest.mark.parametrize("count", [255, 256, 257, 513])
    def test_block_boundaries(self, count):
        rng = random.Random(count)
        pool = [mutated_beilinson_gram(rng, 3) for _ in range(8)]
        pool += [random_unitriangular(rng, 4, -2, 2) for _ in range(8)]
        expected = [reference_unipotent(g) for g in pool]
        assert set(expected) == {True, False}
        picks = [rng.randrange(len(pool)) for _ in range(count)]
        assert unipotent_grams([pool[k] for k in picks]) == [expected[k] for k in picks]


class TestGroupAction:
    def test_stabilizer_letters(self):
        assert apply_g(SEED_DUAL, W2) == SEED_DUAL
        assert apply_g(SEED_DUAL, W3) == SEED_DUAL

    def test_v_on_seed(self):
        assert apply_g(SEED_DUAL, V) == SixTuple(4, 4, 6, 10, 20, 4)

    def test_w2_inverse(self):
        rng = random.Random(20)
        for _ in range(100):
            t = SixTuple(*(rng.randint(-9, 9) for _ in range(6)))
            assert apply_g(apply_g(t, W2), W2_INV) == t
            assert apply_g(apply_g(t, W2_INV), W2) == t

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            apply_g(SEED_DUAL, "w4")

    def test_coordinate_permutation_orders(self):
        # w2 has order 4 and w3 order 2 as coordinate permutations
        t = symbolic_tuple()
        w2_4 = GWord((W2,) * 4).apply(t)
        assert w2_4 == t
        assert GWord((W2, W2)).apply(t) != t
        assert GWord((W3, W3)).apply(t) == t

    def test_v_is_an_involution_symbolically(self):
        assert fixes_symbolically(GWord((V, V)))

    @pytest.mark.parametrize("relator", G_RELATORS)
    def test_relators_hold_on_all_of_z6(self, relator):
        # resolves the open question: the relators are polynomial
        # identities on the whole of Z^6, not just on the variety
        assert fixes_symbolically(relator)

    def test_relators_on_orbit_tuples(self):
        for seed in (SEED_DUAL, SEED_BEILINSON):
            for t in orbit(seed, 5):
                assert all(rel.apply(t) == t for rel in G_RELATORS)

    def test_gword_inverse(self):
        rng = random.Random(21)
        letters = (V, W2, W2_INV, W3)
        for _ in range(100):
            g = GWord(tuple(rng.choice(letters) for _ in range(rng.randint(0, 8))))
            t = SixTuple(*(rng.randint(-5, 5) for _ in range(6)))
            assert GWord(g.letters + g.inverse().letters).apply(t) == t


class TestHomomorphism:
    def test_displayed_rule(self):
        assert f_image(parse_word("R0", 4)) == GWord((W2, W2, V, W3))
        assert f_image(parse_word("R1", 4)) == GWord((W2, V, W3, W2))
        assert f_image(parse_word("R2", 4)) == GWord((V, W3, W2, W2))

    def test_left_letters_are_formal_inverses(self):
        for i in range(3):
            left = f_image(parse_word(f"L{i}", 4))
            right = f_image(parse_word(f"R{i}", 4))
            assert left == right.inverse()
            assert fixes_symbolically(GWord(left.letters + right.letters))

    def test_empty_word(self):
        assert f_image(BraidWord(4)) == GWord(())

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            f_image(BraidWord(3, ((0, 1),)))

    @pytest.mark.parametrize("relator", BRAID_RELATORS)
    def test_relator_images_act_trivially_symbolically(self, relator):
        assert fixes_symbolically(f_image(relator))

    def test_r2r1r0_acts_as_w2(self):
        word = f_image(parse_word("R2 R1 R0", 4))
        t = symbolic_tuple()
        assert word.apply(t) == apply_g(t, W2)

    def test_single_mutation_matches_g_action(self):
        # T(R_0 c) = f(R_2) T(c): mutations on a tuple's collection side
        # match the conjugated letter on the group side
        rng = random.Random(22)
        for _ in range(50):
            c = from_gram(
                tuple(
                    tuple(
                        1 if i == j else (rng.randint(-6, 6) if j > i else 0)
                        for j in range(4)
                    )
                    for i in range(4)
                )
            )
            for i in range(3):
                mutated = apply_word(c, parse_word(f"R{i}", 4))
                expected = f_image(parse_word(f"R{2 - i}", 4)).apply(t_map(c))
                assert t_map(mutated) == expected


class TestEquivariance:
    LETTERS = tuple(BraidWord(4, (let,)) for let in MUTATION_LETTERS)

    def test_single_right_mutation(self):
        assert check_equivariance(beilinson_collection(3), parse_word("R0", 4))

    def test_empty_word(self):
        assert check_equivariance(beilinson_collection(3), BraidWord(4))

    def test_all_letters_on_depth4_orbit(self):
        words = [BraidWord(4, (let,)) for let in MUTATION_LETTERS]
        for member in orbit(beilinson_collection(3), 4):
            assert all(check_equivariance(member, w) for w in words)

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            check_equivariance(beilinson_collection(2), BraidWord(3))

    @pytest.mark.parametrize("words", [(), (BraidWord(3), BraidWord(3))])
    def test_wrong_size_any_number_of_words(self, words):
        with pytest.raises(ValueError):
            check_equivariance(beilinson_collection(2), *words)

    def test_no_words(self):
        assert check_equivariance(beilinson_collection(3)) is True

    def test_words_are_all_one_word_calls_on_depth3_orbit(self):
        for member in orbit(beilinson_collection(3), 3):
            assert check_equivariance(member, *self.LETTERS) == all(
                check_equivariance(member, w) for w in self.LETTERS
            )

    def test_words_are_all_one_word_calls_on_random_grams(self):
        rng = random.Random(21)
        for _ in range(200):
            c = from_gram(suites.random_unitriangular(rng, 4))
            words = [suites.random_word(rng, 6) for _ in range(rng.randint(1, 4))]
            assert check_equivariance(c, *words) == all(
                check_equivariance(c, w) for w in words
            )

    def test_one_failing_word_fails_the_call(self, monkeypatch):
        # the identity holds for every gram, so break f on words of odd
        # length to see calls in which only some words fail
        f = markov.f_image
        monkeypatch.setattr(
            markov, "f_image", lambda w: f(w) if len(w.letters) % 2 == 0 else GWord((V,))
        )
        rng = random.Random(7)
        outcomes = set()
        for _ in range(100):
            c = from_gram(suites.random_unitriangular(rng, 4))
            words = [suites.random_word(rng, 6) for _ in range(rng.randint(1, 3))]
            singles = [check_equivariance(c, w) for w in words]
            assert check_equivariance(c, *words) == all(singles)
            outcomes.add((all(singles), any(singles)))
        assert outcomes == {(True, True), (False, True), (False, False)}

    def test_half_twist_of_c_once(self, monkeypatch):
        calls = []
        apply = markov.apply_word
        monkeypatch.setattr(markov, "apply_word", lambda c, w: calls.append(w) or apply(c, w))
        assert check_equivariance(beilinson_collection(3), *self.LETTERS)
        assert len(calls) == 1 + 2 * len(self.LETTERS)


class TestOrbit:
    def test_depth_zero(self):
        seed = SEED_DUAL
        assert orbit(seed, 0) == {seed: 0}
        c = beilinson_collection(3)
        assert orbit(c, 0) == {c: 0}

    def test_eq1_invariant_on_collection_orbit(self):
        members = orbit(beilinson_collection(3), 4)
        assert len(members) > 1
        for member, depth in members.items():
            assert eval_eq1(t_map(member)) == 0
            assert depth <= 4

    def test_depths_are_bfs_depths(self):
        members = orbit(SEED_DUAL, 2)
        assert members[SEED_DUAL] == 0
        for t, depth in members.items():
            if depth > 0:
                parents = [
                    u for u, d in members.items() if d == depth - 1
                    and any(apply_g(u, let) == t for let in (V, W2, W2_INV, W3))
                ]
                assert parents

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError) as exc:
            orbit(beilinson_collection(3), 4, cap=10)
        assert len(exc.value.partial) == 10

    def test_anticanonical_twist(self):
        c = beilinson_collection(3)
        word = parse_word("R2 R1 R0", 4) ** 4
        twisted = apply_word(c, word)
        assert twisted.gram == c.gram
        expected = sympy.Matrix(twist_matrix(3)) ** 4 * sympy.Matrix(c.classes)
        assert sympy.Matrix(twisted.classes) == expected

    def test_two_object_collection_orbit(self):
        # the mutation alphabet adapts to the collection size
        from excol.collection import from_gram

        members = orbit(from_gram(((1, 2), (0, 1))), 3)
        assert len(members) > 1
        for member in members:
            assert member.gram == ((1, 2), (0, 1))

    def test_collection_orbit_steps_bare_pairs(self, monkeypatch):
        # the orbit steps (gram, classes) pairs through the rank-2 kernel,
        # never through _mutate, and builds one collection per new member
        c = beilinson_collection(3)
        expected = orbit(c, 4)

        def fail(*args):
            raise AssertionError("orbit called _mutate")

        made = []
        make = NumericalCollection._make
        monkeypatch.setattr(collection, "_mutate", fail)
        monkeypatch.setattr(markov, "_mutate", fail, raising=False)
        monkeypatch.setattr(NumericalCollection, "_make",
                            classmethod(lambda cls, pair: made.append(pair) or make(pair)))
        members = orbit(c, 4)
        assert members == expected
        assert list(members.items()) == list(expected.items())
        assert all(type(m) is NumericalCollection for m in members)
        assert len(made) == len(members) - 1

    def test_partial_orbit_is_a_prefix(self):
        # past the cap the partial mapping holds exactly the first cap members
        full = list(orbit(SEED_DUAL, 6).items())
        for cap in (1, 2, 40, len(full) - 1):
            with pytest.raises(CapExceededError) as exc:
                orbit(SEED_DUAL, 6, cap=cap)
            assert list(exc.value.partial.items()) == full[:cap]
        assert list(orbit(SEED_DUAL, 6, cap=len(full)).items()) == full

    def test_tuple_members_are_six_tuples(self):
        assert all(type(t) is SixTuple for t in orbit(SEED_DUAL, 3))

    def test_bad_seed_type(self):
        with pytest.raises(TypeError):
            orbit((4, 6, 4, 4, 6, 4), 1)

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            orbit(SEED_DUAL, -1)


class TestStabilizerScan:
    def test_beilinson_short_scan_is_empty(self):
        assert stabilizer_scan(beilinson_collection(3), 2) == []

    def test_beilinson_returns_only_trivial_words(self):
        words = stabilizer_scan(beilinson_collection(3), 4)
        assert words, "far-commutation relators appear at length 4"
        assert all(is_trivial(w) for w in words)
        assert all(w.free_reduce() == w for w in words)

    def test_orthogonal_collection_has_nontrivial_stabilizer(self):
        # on an orthogonal pair a mutation is a swap with a sign, so the
        # fourth power of a single letter returns; sigma_i^4 is not
        # trivial in the braid group
        words = stabilizer_scan(from_gram(_matrix.identity(4)), 4)
        nontrivial = [w for w in words if not is_trivial(w)]
        assert parse_word("L0 L0 L0 L0", 4) in nontrivial
        assert parse_word("R2 R2 R2 R2", 4) in nontrivial

    def test_words_reproduce_fixture(self):
        c = beilinson_collection(3)
        for w in stabilizer_scan(c, 4):
            assert apply_word(c, w) == c

    def test_anticanonical_power_fixes_gram_but_not_classes(self):
        c = beilinson_collection(3)
        word = parse_word("R2 R1 R0", 4) ** 4
        image = apply_word(c, word)
        assert image.gram == c.gram and image.classes != c.classes

    def test_cap(self):
        with pytest.raises(CapExceededError):
            stabilizer_scan(beilinson_collection(3), 6, cap=100)

    @pytest.mark.parametrize("max_len,cap", [
        (0, 10), (1, 10), (4, 10_000), (5, 700), (6, 10**6), (0, -10), (1, 0), (2, 36), (3, 36),
    ])
    def test_matches_recursive_reference(self, max_len, cap):
        assert_matches_recursive_scan(from_gram(_matrix.identity(4)), max_len, cap)

    @pytest.mark.parametrize("max_len,cap", [
        (1, 10), (4, 10_000), (5, 10_000), (5, 700), (6, 10**6), (1, -10), (3, 185), (3, 186),
    ])
    def test_b3_matches_recursive_reference(self, max_len, cap):
        # along a word the classes of b3 change, those of the identity never do
        assert_matches_recursive_scan(beilinson_collection(3), max_len, cap)

    # 2 letters cover N(L) = 2L words; 4 letters 4, 16, 52, 160, 484, 1456
    @pytest.mark.parametrize("gram", [_matrix.identity(2), ((1, 1), (0, 1)), ((1, 2), (0, 1))])
    @pytest.mark.parametrize("max_len,cap", [
        (0, -1), (1, 1), (1, 2), (8, 15), (8, 16), (9, 10**6), (12, 23), (13, 24),
    ])
    def test_two_objects_match_recursive_reference(self, gram, max_len, cap):
        assert_matches_recursive_scan(from_gram(gram), max_len, cap)

    @pytest.mark.parametrize("gram", [
        _matrix.identity(3), ((1, 1, 0), (0, 1, 1), (0, 0, 1)), beilinson_collection(2).gram,
    ])
    @pytest.mark.parametrize("max_len,cap", [
        (1, 3), (1, 4), (3, 51), (3, 52), (4, 159), (6, 1455), (6, 1456), (6, 10**6),
    ])
    def test_three_objects_match_recursive_reference(self, gram, max_len, cap):
        assert_matches_recursive_scan(from_gram(gram), max_len, cap)

    @pytest.mark.parametrize("max_len", [1, 2, 3, 4, 5, 6, 7])
    def test_each_level_is_indexed_once(self, max_len):
        # the scan indexes level j once, for lengths 2j and 2j+1: 1 pair at
        # level 0 and 6 * 5^(j-1) at level j > 0 with 6 letters
        calls = []

        def count(frame, event, arg):
            if event == "c_call" and getattr(arg, "__name__", "") == "setdefault":
                calls.append(arg)

        sys.setprofile(count)
        try:
            stabilizer_scan(beilinson_collection(3), max_len)
        finally:
            sys.setprofile(None)
        assert len(calls) == 1 + sum(6 * 5 ** (j - 1) for j in range(1, max_len // 2 + 1))

    def test_negative_max_len(self):
        with pytest.raises(ValueError):
            stabilizer_scan(beilinson_collection(3), -3)
        with pytest.raises(ValueError):
            stabilizer_scan(beilinson_collection(3), -3, cap=-10)

    def test_single_object_never_exceeds_cap(self):
        # no letters, so no word is covered and no cap is exceeded
        c = from_gram(((1,),))
        assert stabilizer_scan(c, 5, cap=-10) == []
        assert stabilizer_scan(c, 10**18, cap=0) == []

    def test_two_objects_cover_two_words_per_length(self):
        # L0 and R0 turn the classes of an orthogonal pair by a quarter
        c = from_gram(_matrix.identity(2))
        quarter_turns = [parse_word(t, 2) for t in ("R0 " * 4, "L0 " * 4, "R0 " * 8, "L0 " * 8)]
        assert stabilizer_scan(c, 9, cap=18) == quarter_turns
        assert stabilizer_scan(c, 0, cap=-10) == []
        with pytest.raises(CapExceededError) as exc:
            stabilizer_scan(c, 9, cap=17)
        assert exc.value.partial == quarter_turns
        with pytest.raises(CapExceededError) as exc:
            stabilizer_scan(c, 10**18, cap=9)
        assert exc.value.partial == quarter_turns[:2]

    def test_two_object_scan_keeps_pairs_of_the_deepest_level_only(self):
        # 2 letters cover 10000 lengths under a cap of 20000, so 5000 levels
        # of half-sequences: keeping the pairs of every level peaks near
        # 7.5 MB, keeping those of the deepest level only near 1.1 MB
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError) as exc:
                stabilizer_scan(beilinson_collection(1), 10**6, cap=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.partial == []
        assert peak < 3 * 2**20

    def test_b3_length_10_words_are_trivial(self):
        c = beilinson_collection(3)
        words = stabilizer_scan(c, 10, cap=10**8)
        assert len(words) == 10_880
        assert all(is_trivial(w) for w in words)
        assert all(apply_word(c, w) == c for w in words)
