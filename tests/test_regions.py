import copy
import hashlib
import itertools
import math
import pickle
import random
from fractions import Fraction
from math import inf

import pytest

from excol.regions import (
    DegreeMatrix,
    FeasibilityResult,
    InequalitySystem,
    _certificate_valid,
    _pair_row,
    _region_rows,
    alpha,
    contains,
    is_feasible,
    lemma41_system,
    region_system,
    thm51_systems,
)

LEMMA41_WITNESS = (Fraction(0), Fraction(1, 2), Fraction(8, 5), Fraction(27, 10))


def alpha_by_chain_enumeration(d: DegreeMatrix, i: int, j: int):
    """Independent oracle: minimize over all chains i < l1 < ... < ls < j."""
    best = inf
    middles = range(i + 1, j)
    for r in range(len(middles) + 1):
        for chain in itertools.combinations(middles, r):
            nodes = (i,) + chain + (j,)
            total = sum(d.k(a, b) for a, b in zip(nodes, nodes[1:])) - r
            best = min(best, total)
    return best


def random_degree_matrix(rng, n):
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            rows[i][j] = inf if rng.random() < 0.2 else rng.randint(0, 4)
    return DegreeMatrix.from_rows(rows)


class TestAlpha:
    def test_full_chain_wins_on_strong_matrix(self):
        d = DegreeMatrix.all_zero(3)
        assert alpha(d, 0, 3) == -2
        assert alpha_by_chain_enumeration(d, 0, 3) == -2

    def test_adjacent_pairs(self):
        d = DegreeMatrix.all_zero(3)
        for i in range(3):
            assert alpha(d, i, i + 1) == 0

    def test_infinite_entry(self):
        d = DegreeMatrix.from_rows([[0, inf, 0], [0, 0, 0], [0, 0, 0]])
        assert alpha(d, 0, 1) == inf
        assert alpha(d, 0, 2) == 0

    def test_strong_case_formula(self):
        d = DegreeMatrix.all_zero(4)
        for i in range(5):
            for j in range(i + 1, 5):
                assert alpha(d, i, j) == -(j - i - 1)

    def test_against_chain_enumeration(self):
        rng = random.Random(30)
        for _ in range(200):
            n = rng.randint(1, 4)
            d = random_degree_matrix(rng, n)
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    assert alpha(d, i, j) == alpha_by_chain_enumeration(d, i, j)

    def test_bounded_by_direct_degree(self):
        rng = random.Random(31)
        for _ in range(100):
            d = random_degree_matrix(rng, 3)
            for i in range(4):
                for j in range(i + 1, 4):
                    assert alpha(d, i, j) <= d.k(i, j)

    def test_index_validation(self):
        d = DegreeMatrix.all_zero(3)
        with pytest.raises(IndexError):
            alpha(d, 2, 2)
        with pytest.raises(IndexError):
            alpha(d, 3, 1)


class TestRegionSystem:
    def test_strong_collection_constraints(self):
        system = region_system(DegreeMatrix.all_zero(3))
        assert system.dimension == 4
        seen = {}
        for coeffs, bound in system.constraints:
            i = coeffs.index(1)
            j = coeffs.index(-1)
            seen[(i, j)] = bound
        assert seen == {
            (i, j): -(j - i - 1) for i in range(4) for j in range(i + 1, 4)
        }

    def test_two_objects(self):
        system = region_system(DegreeMatrix.all_zero(1))
        assert system.constraints == (((Fraction(1), Fraction(-1)), Fraction(0)),)

    def test_infinite_pairs_drop_out(self):
        d = DegreeMatrix.from_rows([[0, inf, 0], [0, 0, 0], [0, 0, 0]])
        system = region_system(d)
        assert len(system.constraints) == 2

    @pytest.mark.parametrize("n", [-1, -5])
    def test_rejects_fewer_than_one_object(self, n):
        with pytest.raises(ValueError, match="^degree matrix needs at least one object$"):
            DegreeMatrix.all_zero(n)
        with pytest.raises(ValueError, match="^degree matrix needs at least one object$"):
            DegreeMatrix(n, ())


class TestDegreeMatrixInput:
    @pytest.mark.parametrize("entry", [0.5, 2.0, True, False, math.nan, -inf, Fraction(1), "1"])
    def test_rejects_non_integer_entries(self, entry):
        with pytest.raises(ValueError) as exc:
            DegreeMatrix.from_rows([[0, entry], [0, 0]])
        assert str(exc.value) == f"degree matrix entries must be ints or math.inf, got {entry!r}"

    def test_accepts_ints_and_inf(self):
        d = DegreeMatrix.from_rows([[0, inf, -3], [0, 0, float("inf")], [0, 0, 0]])
        assert alpha(d, 0, 2) == -3 and alpha(d, 0, 1) == inf and alpha(d, 1, 2) == inf


class TestLemma41System:
    def test_witness(self):
        assert contains(lemma41_system(0), LEMMA41_WITNESS)

    def test_shift_violation(self):
        bad = (Fraction(0), Fraction(3, 2), Fraction(3), Fraction(9, 2))
        assert not contains(lemma41_system(0), bad)
        # the violated row is the mutated-pair shift condition
        shift_row = ((Fraction(-1), Fraction(1), Fraction(0), Fraction(0)), Fraction(1))
        assert shift_row in lemma41_system(0).constraints
        coeffs, bound = shift_row
        assert sum(c * v for c, v in zip(coeffs, bad)) >= bound

    @pytest.mark.parametrize("kidx", [0, 1, 2])
    def test_feasible(self, kidx):
        res = is_feasible(lemma41_system(kidx))
        assert res.feasible
        assert contains(lemma41_system(kidx), res.witness)

    def test_index_range(self):
        with pytest.raises(IndexError):
            lemma41_system(3)


class TestThm51Systems:
    def test_all_feasible_with_verified_witnesses(self):
        for system in thm51_systems():
            res = is_feasible(system)
            assert res.feasible
            assert contains(system, res.witness)

    def test_dimensions(self):
        left, right, overlap = thm51_systems()
        assert left.dimension == 4
        assert right.dimension == 4
        assert overlap.dimension == 5

    def test_hand_witnesses(self):
        left, right, overlap = thm51_systems()
        assert contains(left, (0, Fraction(1, 2), Fraction(21, 10), Fraction(14, 5)))
        assert contains(right, (0, Fraction(1, 2), Fraction(8, 5), Fraction(51, 20)))
        assert contains(
            overlap, (0, Fraction(1, 2), Fraction(13, 5), Fraction(7, 2), 0)
        )

    def test_dropping_strong_conditions_enlarges(self):
        left = thm51_systems()[0]
        strong_rows = set()
        for i in range(4):
            for j in range(i + 1, 4):
                coeffs = [Fraction(0)] * 4
                coeffs[i], coeffs[j] = Fraction(1), Fraction(-1)
                strong_rows.add((tuple(coeffs), Fraction(-(j - i - 1))))
        extras = InequalitySystem(
            4, tuple(c for c in left.constraints if c not in strong_rows)
        )
        point = (Fraction(0), Fraction(-1, 2), Fraction(5, 2), Fraction(3))
        assert contains(extras, point)
        assert not contains(left, point)

    def test_mutated_phase_interval_robust(self):
        # any psi strictly inside the triangle interval extends a witness
        overlap = thm51_systems()[2]
        phi = (Fraction(0), Fraction(1, 2), Fraction(13, 5), Fraction(7, 2))
        lo = phi[1] - 1
        hi = min(phi[0] + 1, phi[2] - 2)
        assert lo < hi
        for k in range(1, 8):
            psi = lo + (hi - lo) * Fraction(k, 8)
            assert contains(overlap, phi + (psi,))


class TestFeasibility:
    def test_simple_feasible(self):
        system = InequalitySystem(2, [([1, -1], 0)])
        res = is_feasible(system)
        assert res.feasible and contains(system, res.witness)

    def test_opposite_pair_infeasible(self):
        system = InequalitySystem(2, [([1, -1], 0), ([-1, 1], 0)])
        res = is_feasible(system)
        assert not res.feasible
        assert res.certificate is not None
        combo = [Fraction(0)] * 2
        bound = Fraction(0)
        for mult, (coeffs, b) in zip(res.certificate, system.constraints):
            assert mult >= 0
            for k, c in enumerate(coeffs):
                combo[k] += mult * c
            bound += mult * b
        assert combo == [0, 0] and bound <= 0

    def test_zero_row_infeasible(self):
        system = InequalitySystem(1, [([0], -1)])
        res = is_feasible(system)
        assert not res.feasible

    def test_unconstrained_variable(self):
        system = InequalitySystem(3, [([1, -1, 0], -2)])
        res = is_feasible(system)
        assert res.feasible and contains(system, res.witness)

    def test_narrow_interval(self):
        # 0 < x < 1/1000 forces a genuinely interior rational witness
        system = InequalitySystem(
            1, [([-1], 0), ([1], Fraction(1, 1000))]
        )
        res = is_feasible(system)
        assert res.feasible
        assert Fraction(0) < res.witness[0] < Fraction(1, 1000)

    def test_random_systems_sound_both_ways(self):
        rng = random.Random(32)
        for _ in range(200):
            dim = rng.randint(1, 4)
            rows = []
            for _ in range(rng.randint(1, 6)):
                coeffs = [rng.randint(-3, 3) for _ in range(dim)]
                rows.append((coeffs, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
            system = InequalitySystem(dim, rows)
            res = is_feasible(system)
            if res.feasible:
                assert contains(system, res.witness)
            else:
                combo = [Fraction(0)] * dim
                bound = Fraction(0)
                assert any(m > 0 for m in res.certificate)
                for mult, (coeffs, b) in zip(res.certificate, system.constraints):
                    assert mult >= 0
                    for k, c in enumerate(coeffs):
                        combo[k] += mult * c
                    bound += mult * b
                assert all(x == 0 for x in combo) and bound <= 0

    def test_convexity_of_accepted_points(self):
        rng = random.Random(33)
        systems = [lemma41_system(k) for k in range(3)] + list(thm51_systems())
        for system in systems:
            base = is_feasible(system).witness
            # perturbations inside half the slack margin stay accepted
            margin = min(
                (bound - sum(c * v for c, v in zip(coeffs, base)))
                / sum(abs(c) for c in coeffs)
                for coeffs, bound in system.constraints
            )
            radius = margin / 2
            accepted = [base]
            for _ in range(9):
                jitter = tuple(
                    x + radius * Fraction(rng.randint(-8, 8), 8) for x in base
                )
                assert contains(system, jitter)
                accepted.append(jitter)
            for _ in range(100):
                p = rng.choice(accepted)
                q = rng.choice(accepted)
                lam = Fraction(rng.randint(0, 8), 8)
                mid = tuple(lam * a + (1 - lam) * b for a, b in zip(p, q))
                assert contains(system, mid)


class TestBuildInput:
    @pytest.mark.parametrize("rows", [
        [([1, 0.5], 0)],
        [([1, -1], 0.0)],
        [([True, -1], 0)],
        [([1, -1], False)],
        [([1, "1/2"], 0)],
    ])
    def test_rejects_floats_bools_and_other_types(self, rows):
        with pytest.raises(ValueError, match="^inequality entries must be ints or Fractions, got "):
            InequalitySystem(2, rows)

    def test_names_the_first_bad_entry(self):
        with pytest.raises(ValueError) as exc:
            InequalitySystem(2, [([1, -1], 0), ([0.25, True], 1.5)])
        assert str(exc.value) == "inequality entries must be ints or Fractions, got 0.25"

    def test_one_fraction_per_distinct_value(self):
        system = InequalitySystem(
            3, [([1, -1, 0], 0), ([Fraction(1), 0, -1], Fraction(-1, 2)), ([0, 1, -1], -1)]
        )
        entries = [x for coeffs, bound in system.constraints for x in coeffs + (bound,)]
        assert all(type(x) is Fraction for x in entries)
        assert len({id(x) for x in entries}) == len(set(entries)) == 4

    def test_constructor_is_exact(self):
        system = InequalitySystem(2, (((1, -1), 1), ((0, 1), 3)))
        assert system == InequalitySystem(2, [([1, -1], 1), ([0, 1], 3)])
        result = is_feasible(system)
        assert result.witness == (Fraction(3), Fraction(5, 2))
        assert all(type(x) is Fraction for x in result.witness)

    @pytest.mark.parametrize("rows, bad", [
        ((((1, -1), 0.5),), "0.5"),
        ((((True, -1), 0),), "True"),
    ])
    def test_constructor_rejects_floats_and_bools(self, rows, bad):
        with pytest.raises(ValueError) as exc:
            InequalitySystem(2, rows)
        assert str(exc.value) == f"inequality entries must be ints or Fractions, got {bad}"

    def test_sparse_rows_hold_the_nonzero_entries(self):
        system = InequalitySystem(3, [([1, 0, -1], 2), ([0, 0, 0], 1)])
        assert system.sparse_rows == (
            (((0, Fraction(1)), (2, Fraction(-1))), Fraction(2)),
            ((), Fraction(1)),
        )


class TestContains:
    @pytest.mark.parametrize("bad", [0.5, True, "1/2", float("nan")])
    def test_rejects_inexact_coordinates(self, bad):
        with pytest.raises(ValueError) as exc:
            contains(lemma41_system(0), (0, bad, Fraction(8, 5), Fraction(27, 10)))
        assert str(exc.value) == f"point coordinates must be ints or Fractions, got {bad!r}"

    def test_dimension_mismatch(self):
        system = InequalitySystem(2, [([1, -1], 0)])
        with pytest.raises(ValueError):
            contains(system, (0,))

    def test_boundary_rejected(self):
        system = InequalitySystem(2, [([1, -1], 0)])
        assert not contains(system, (Fraction(1), Fraction(1)))

    def test_serialized_rows(self):
        system = InequalitySystem(
            2, [([1, -1], Fraction(-3, 2))]
        )
        assert system.rows_text() == ["[1,-1 | -3/2]"]


class TestOneStoredForm:
    """The systems built from sparse rows against the same rows spelled out
    densely and passed through the public constructor."""

    @staticmethod
    def built_systems():
        rng = random.Random(37)
        systems = [region_system(random_degree_matrix(rng, n)) for n in range(9) for _ in range(4)]
        return systems + [lemma41_system(k) for k in range(3)] + list(thm51_systems())

    def test_only_the_sparse_rows_are_stored(self):
        assert InequalitySystem._fields == InequalitySystem.__slots__ == ("dimension", "sparse_rows")

    def test_built_and_constructed_systems_agree(self):
        for built in self.built_systems():
            rebuilt = InequalitySystem(built.dimension, built.constraints)
            assert built == rebuilt and hash(built) == hash(rebuilt)
            assert built.sparse_rows == rebuilt.sparse_rows
            assert repr(built) == repr(rebuilt)
            assert built.rows_text() == rebuilt.rows_text()
            assert is_feasible(built) == is_feasible(rebuilt)
            for clone in (copy.copy(built), copy.deepcopy(built),
                          pickle.loads(pickle.dumps(built))):
                assert type(clone) is InequalitySystem
                assert clone == built and repr(clone) == repr(built)


# ---------------------------------------------------------------------------
# dense-multiplier elimination, kept as the reference for the sparse one

def reference_is_feasible(s: InequalitySystem) -> FeasibilityResult:
    """Fourier-Motzkin with a dense Fraction multiplier vector on every row."""
    m = len(s.constraints)
    rows = [
        (list(coeffs), bound, [Fraction(int(i == k)) for i in range(m)])
        for k, (coeffs, bound) in enumerate(s.constraints)
    ]
    eliminated = []
    for var in range(s.dimension - 1, -1, -1):
        uppers = [r for r in rows if r[0][var] > 0]
        lowers = [r for r in rows if r[0][var] < 0]
        new_rows = [r for r in rows if r[0][var] == 0]
        bounds_for_var = [(r[0], r[1]) for r in rows if r[0][var] != 0]
        for lc, lb, lm in lowers:
            for uc, ub, um in uppers:
                lw, uw = uc[var], -lc[var]
                new_rows.append((
                    [lw * a + uw * b for a, b in zip(lc, uc)],
                    lw * lb + uw * ub,
                    [lw * a + uw * b for a, b in zip(lm, um)],
                ))
        eliminated.append((var, bounds_for_var))
        rows = new_rows
    for _, bound, mult in rows:
        if bound <= 0:
            total = sum(mult)
            certificate = tuple(x / total for x in mult)
            assert _certificate_valid(s, certificate)
            return FeasibilityResult(False, certificate=certificate)
    point = [Fraction(0)] * s.dimension
    for var, bounds in reversed(eliminated):
        lo, hi = None, None
        for coeffs, bound in bounds:
            rest = bound - sum(c * point[k] for k, c in enumerate(coeffs) if k != var)
            limit = rest / coeffs[var]
            if coeffs[var] > 0:
                hi = limit if hi is None else min(hi, limit)
            else:
                lo = limit if lo is None else max(lo, limit)
        if lo is None and hi is None:
            point[var] = Fraction(0)
        elif lo is None:
            point[var] = hi - 1
        elif hi is None:
            point[var] = lo + 1
        else:
            point[var] = (lo + hi) / 2
    assert contains(s, point)
    return FeasibilityResult(True, witness=tuple(point))


class TestSparseMultipliers:
    def test_random_systems_match_dense_reference(self):
        rng = random.Random(34)
        values = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2)]
        outcomes = []
        for _ in range(300):
            dim = rng.randint(1, 4)
            rows = [
                ([rng.choice(values) for _ in range(dim)], rng.choice(values + [Fraction(1, 3)]))
                for _ in range(rng.randint(1, 7))
            ]
            system = InequalitySystem(dim, rows)
            res = is_feasible(system)
            assert res == reference_is_feasible(system)
            outcomes.append(res.feasible)
        assert outcomes.count(True) >= 50 and outcomes.count(False) >= 50

    def test_cyclic_difference_systems_match_dense_reference(self):
        # a cycle makes every stage combine rows, so the back substitution
        # reads rows derived over several stages
        rng = random.Random(29)
        outcomes = []
        for _ in range(300):
            dim = rng.randint(2, 5)
            order = rng.sample(range(dim), dim)

            def pair_row(i, j, bound):
                coeffs = [0] * dim
                coeffs[i], coeffs[j] = 1, -1
                return coeffs, bound

            rows = [pair_row(i, j, rng.randint(-1, 4)) for i, j in zip(order, order[1:] + order[:1])]
            rows += [pair_row(*rng.sample(range(dim), 2), rng.randint(-2, 4))
                     for _ in range(rng.randint(0, 3))]
            system = InequalitySystem(dim, rows)
            res = is_feasible(system)
            assert res == reference_is_feasible(system)
            outcomes.append(res.feasible)
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize("n", [3, 8, 32])
    def test_strong_systems_match_dense_reference(self, n):
        system = region_system(DegreeMatrix.all_zero(n))
        assert len(system.constraints) == (n + 1) * n // 2
        assert is_feasible(system) == reference_is_feasible(system)

    def test_infeasible_strong_system_matches_dense_reference(self):
        # phi_8 < phi_0 - 7 contradicts the strong chain phi_0 < phi_8 - 7
        system = region_system(DegreeMatrix.all_zero(8))
        bad = InequalitySystem(
            9, [(list(c), b) for c, b in system.constraints] + [([-1] + [0] * 7 + [1], -7)]
        )
        res = is_feasible(bad)
        assert not res.feasible
        assert res == reference_is_feasible(bad)


# sha256 of the newline-joined rows_text() of each system, taken from the
# row generators before they shared one helper
ROW_DIGESTS = {
    "lemma41-0": "f1adf69d35754282699b66d76dea2bc34d67724f4299f736de2d327f16e79fe6",
    "lemma41-1": "f041502aec623f2a43f29e5d806e1bf7cdcfa5f4d3ab534c15c82a50181d07f1",
    "lemma41-2": "20de19a8d8671ff60ae778fd1a26783693cbf3da40b2a7fa66e714a6612daa27",
    "thm51-left": "8e26e198de9ec74cc0ef725054686a84124f89ef80bdb17b3feec3d00e132c6c",
    "thm51-right": "66e33ba77d2da0c8f1b816b51fec948e1363d8a134d2452f24395c1bfe64ed85",
    "thm51-overlap": "642dfb0c0f1bd64394c5e6a399072390316434e5e483a1c9b90ea77b89105a5e",
    "strong-3": "b712fb2856f80f6a128dec436ddb1b94603fc55785291ded402a474c4a17c26d",
    "strong-8": "94657c8a16b740cd994a1cbf2bd9482991bab244062666dcc9b9f47cc78b295b",
    "strong-32": "06226538151827a59914c5669e12232f92cde5120ef406a807bf192435592765",
}


def test_pinned_rows_text():
    systems = {f"lemma41-{k}": lemma41_system(k) for k in range(3)}
    systems.update(
        (f"thm51-{name}", s) for name, s in zip(("left", "right", "overlap"), thm51_systems())
    )
    systems.update(
        (f"strong-{n}", region_system(DegreeMatrix.all_zero(n))) for n in (3, 8, 32)
    )
    digests = {
        key: hashlib.sha256("\n".join(s.rows_text()).encode()).hexdigest()
        for key, s in systems.items()
    }
    assert digests == ROW_DIGESTS


# ---------------------------------------------------------------------------
# the sparse kernel against dense and pairwise references

def dense_contains(s: InequalitySystem, point) -> bool:
    """Strict membership with every product, zero coefficients included."""
    values = tuple(Fraction(x) for x in point)
    return all(
        sum(c * v for c, v in zip(coeffs, values)) < bound for coeffs, bound in s.constraints
    )


class TestSparseKernel:
    def test_one_pass_rows_match_chain_enumeration(self):
        rng = random.Random(35)
        for _ in range(150):
            n = rng.randint(0, 6)
            d = random_degree_matrix(rng, n)
            expected = [
                _pair_row(i, j, alpha_by_chain_enumeration(d, i, j))
                for i in range(n + 1)
                for j in range(i + 1, n + 1)
                if alpha_by_chain_enumeration(d, i, j) != inf
            ]
            assert _region_rows(d) == expected

    def test_contains_matches_dense_reference(self):
        rng = random.Random(36)
        values = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-5, 3)]
        on_boundary = 0
        for _ in range(400):
            dim = rng.randint(1, 5)
            point = tuple(rng.choice(values) for _ in range(dim))
            rows = []
            for _ in range(rng.randint(1, 6)):
                coeffs = [rng.choice(values) for _ in range(dim)]
                at_point = sum(c * v for c, v in zip(coeffs, point))
                # a bound of exactly <c, p> puts the point on the boundary
                bound = at_point + rng.choice((0, 0, Fraction(1, 7), Fraction(-1, 7)))
                rows.append((coeffs, bound))
            system = InequalitySystem(dim, rows)
            for p in (point, tuple(x + Fraction(1, 11) for x in point)):
                assert contains(system, p) == dense_contains(system, p)
            on_boundary += any(
                sum(c * v for c, v in zip(coeffs, point)) == bound
                for coeffs, bound in system.constraints
            )
        assert on_boundary >= 100

    def test_strong_system_at_64_is_feasible(self):
        system = region_system(DegreeMatrix.all_zero(64))
        assert len(system.constraints) == 65 * 64 // 2
        res = is_feasible(system)
        assert res.feasible
        assert contains(system, res.witness) and dense_contains(system, res.witness)
