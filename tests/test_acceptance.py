"""Acceptance gate: every criterion runs at its stated tolerance.

All comparisons are exact (integers and rationals); there are no
floating point tolerances anywhere.  Each test prints one PASS/FAIL
line for its criterion.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy

from excol.braid import BraidWord, center_word, delta_word, is_trivial, normal_form, parse_word
from excol.collection import (
    apply_word,
    conserves_pairing,
    from_gram,
    left_mutation,
    right_mutation,
    serre_matrix,
)
from excol.markov import (
    MUTATION_LETTERS,
    SEED_BEILINSON,
    SEED_DUAL,
    SixTuple,
    W2,
    apply_g,
    check_equivariance,
    eval_eq1,
    eval_eq2,
    f_image,
    orbit,
    stabilizer_scan,
    t_map,
    unipotency_oracle,
)
from excol.pn import beilinson_collection, line_bundle_cohomology, serre_class_map, twist_matrix
from excol.regions import (
    DegreeMatrix,
    InequalitySystem,
    contains,
    is_feasible,
    lemma41_system,
    region_system,
    thm51_systems,
)


def conclude(num: int, description: str, failures: list):
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {failures[:5]}"


def random_unitriangular(rng, size, lo=-9, hi=9):
    return tuple(
        tuple(1 if i == j else (rng.randint(lo, hi) if j > i else 0) for j in range(size))
        for i in range(size)
    )


@pytest.fixture(scope="module")
def depth4_orbit():
    return orbit(beilinson_collection(3), 4, cap=100_000)


@pytest.fixture(scope="module")
def tuple_pool(depth4_orbit):
    pool = {t_map(member) for member in depth4_orbit}
    pool.update(orbit(SEED_DUAL, 6))
    pool.update(orbit(SEED_BEILINSON, 6))
    return sorted(pool)


def test_criterion_1_dual_collection_tuple():
    failures = []
    dual = apply_word(beilinson_collection(3), delta_word())
    if t_map(dual) != SixTuple(4, 6, 4, 4, 6, 4):
        failures.append(f"rightmost-first delta action gave {t_map(dual)}")
    conclude(1, "delta sends the twist collection to the (4,6,4,4,6,4) tuple", failures)


def test_criterion_2_eq1_vanishing(depth4_orbit):
    failures = []
    for seed in (SEED_BEILINSON, SEED_DUAL):
        if eval_eq1(seed) != 0:
            failures.append(f"eq1({seed}) = {eval_eq1(seed)}")
    for member in depth4_orbit:
        value = eval_eq1(t_map(member))
        if value != 0:
            failures.append(f"eq1 = {value} at {t_map(member)}")
            break
    conclude(2, f"eq1 vanishes on the seeds and all {len(depth4_orbit)} depth-4 orbit members", failures)


def test_criterion_3_eq2_arbitration(depth4_orbit):
    failures = []
    if eval_eq2(SEED_DUAL, "printed") != -720:
        failures.append(f"printed variant gave {eval_eq2(SEED_DUAL, 'printed')}")
    if eval_eq2(SEED_DUAL, "corrected") != 0:
        failures.append(f"corrected variant gave {eval_eq2(SEED_DUAL, 'corrected')}")
    for member in depth4_orbit:
        t = t_map(member)
        if not unipotency_oracle(t):
            failures.append(f"oracle false at {t}")
            break
        if eval_eq2(t, "corrected") != 0:
            failures.append(f"corrected eq2 = {eval_eq2(t, 'corrected')} at {t}")
            break
    conclude(3, "printed eq2 = -720, corrected eq2 = 0, oracle true across the orbit", failures)


def test_criterion_4_serre_matrix():
    failures = []
    for n in range(1, 5):
        gram = beilinson_collection(n).gram
        kappa = serre_matrix(beilinson_collection(n))
        if sympy.Matrix(kappa) != sympy.Matrix(gram).inv() * sympy.Matrix(gram).T:
            failures.append(f"back substitution differs from the inverse at n={n}")
        expected = (-1) ** n * sympy.Matrix(twist_matrix(n)) ** -(n + 1)
        if sympy.Matrix(kappa) != expected or kappa != serre_class_map(n):
            failures.append(f"matrix identity fails at n={n}")
        zero, one = sympy.zeros(n + 1), sympy.eye(n + 1)
        plus_zero = (sympy.Matrix(kappa) + one) ** (n + 1) == zero
        minus_zero = (sympy.Matrix(kappa) - one) ** (n + 1) == zero
        if n % 2:
            # odd n: the paper's statement, -kappa unipotent
            if not plus_zero:
                failures.append(f"(kappa+1)^{n + 1} nonzero at n={n}")
        else:
            # even n: -kappa is provably not unipotent (trace is n+1, not
            # -(n+1)); the unipotent operator is +kappa.  See the
            # decisions ledger: the criterion text overgeneralizes the
            # P^3 statement, so the parity-correct fact is asserted.
            if plus_zero:
                failures.append(f"(kappa+1)^{n + 1} unexpectedly zero at n={n}")
            if not minus_zero:
                failures.append(f"(kappa-1)^{n + 1} nonzero at n={n}")
    print("note: criterion 4 unipotency asserted as (kappa+1)^(n+1)=0 for n=1,3 "
          "and (kappa-1)^(n+1)=0 for n=2,4 (parity of the Serre shift)")
    conclude(4, "Serre matrix equals the signed twist power; unipotency holds with the parity sign", failures)


def test_criterion_5_braid_algebra():
    failures = []
    delta = delta_word()
    for i in range(3):
        w = delta.inverse() * BraidWord(4, ((i, 1),)) * delta * BraidWord(4, ((2 - i, -1),))
        if not is_trivial(w):
            failures.append(f"delta conjugation fails for i={i}")
    center = center_word()
    for i in range(3):
        g = BraidWord(4, ((i, 1),))
        if not is_trivial(center * g * center.inverse() * g.inverse()):
            failures.append(f"center does not commute with sigma_{i}")
    if normal_form(center).infimum != 2 or normal_form(center).factors != ():
        failures.append("center normal form is not D^2")

    rng = random.Random(100)
    for trial in range(1000):
        c = from_gram(random_unitriangular(rng, 4))
        for i in (0, 1):
            lhs = apply_word(c, parse_word(f"L{i} L{i + 1} L{i}", 4))
            rhs = apply_word(c, parse_word(f"L{i + 1} L{i} L{i + 1}", 4))
            if lhs != rhs:
                failures.append(f"braid relation fails at trial {trial}, i={i}")
        if apply_word(c, parse_word("L0 L2", 4)) != apply_word(c, parse_word("L2 L0", 4)):
            failures.append(f"far commutation fails at trial {trial}")
        if failures:
            break
    conclude(5, "Garside decisions for delta and the center; matrix braid relations on 1000 grams", failures)


def test_criterion_6_homomorphism_equivariance(tuple_pool):
    failures = []
    relators = [
        parse_word(t, 4)
        for t in ("L0 L1 L0 R1 R0 R1", "L1 L2 L1 R2 R1 R2", "L0 L2 R0 R2", "L2 L0 R2 R0")
    ]
    rng = random.Random(101)
    samples = [rng.choice(tuple_pool) for _ in range(1000)]
    for rel in relators:
        image = f_image(rel)
        for t in samples:
            if image.apply(t) != t:
                failures.append(f"f({rel.to_text()}) moves {t}")
                break
    letters = [BraidWord(4, (let,)) for let in MUTATION_LETTERS]
    depth3 = orbit(beilinson_collection(3), 3)
    for member in depth3:
        for w in letters:
            if not check_equivariance(member, w):
                failures.append(f"equivariance fails for {w.to_text()}")
                break
        if failures:
            break
    conclude(6, f"relator images act trivially on 1000 tuples; equivariance on {len(depth3)} depth-3 members", failures)


def test_criterion_7_stabilizer_evidence(tuple_pool):
    failures = []
    b3 = beilinson_collection(3)
    words = stabilizer_scan(b3, 6)
    if not words:
        failures.append("scan found no stabilizing words at all")
    for w in words:
        if not is_trivial(w):
            failures.append(f"nontrivial stabilizer word {w.to_text()}")
            break
    word = parse_word("R2 R1 R0", 4) ** 4
    image = apply_word(b3, word)
    twist4 = sympy.Matrix(twist_matrix(3)) ** 4
    if image.gram != b3.gram:
        failures.append("(R2 R1 R0)^4 moved the gram")
    if sympy.Matrix(image.classes) != twist4 * sympy.Matrix(b3.classes):
        failures.append("(R2 R1 R0)^4 classes differ from twist^4")
    rng = random.Random(102)
    w2_image = f_image(parse_word("R2 R1 R0", 4))
    for t in (rng.choice(tuple_pool) for _ in range(1000)):
        if w2_image.apply(t) != apply_g(t, W2):
            failures.append(f"f(R2 R1 R0) differs from w2 at {t}")
            break
    conclude(7, f"{len(words)} stabilizer words all trivial; center letter twists by O(4); f(R2 R1 R0) = w2", failures)


def test_criterion_8_region_feasibility():
    failures = []
    witness = (Fraction(0), Fraction(1, 2), Fraction(8, 5), Fraction(27, 10))
    if not contains(lemma41_system(0), witness):
        failures.append("stated witness rejected for kidx=0")
    for kidx in range(3):
        res = is_feasible(lemma41_system(kidx))
        if not (res.feasible and contains(lemma41_system(kidx), res.witness)):
            failures.append(f"lemma 4.1 system infeasible at kidx={kidx}")
    for name, system in zip(("left", "right", "overlap"), thm51_systems()):
        res = is_feasible(system)
        if not (res.feasible and contains(system, res.witness)):
            failures.append(f"thm 5.1 {name} system infeasible")
    bad = InequalitySystem(2, [([1, -1], 0), ([-1, 1], 0)])
    res = is_feasible(bad)
    if res.feasible or res.certificate is None:
        failures.append("opposite pair not certified infeasible")
    else:
        combo = [Fraction(0)] * 2
        bound = Fraction(0)
        for mult, (coeffs, b) in zip(res.certificate, bad.constraints):
            if mult < 0:
                failures.append("negative multiplier in certificate")
            for k, c in enumerate(coeffs):
                combo[k] += mult * c
            bound += mult * b
        if any(combo) or bound > 0:
            failures.append("certificate does not re-sum to a contradiction")
    conclude(8, "all named systems feasible with verified witnesses; certificate verified", failures)


def test_criterion_9_cohomology_table():
    failures = []
    for n in range(1, 5):
        for m in range(-12, 13):
            for i in range(n + 1):
                value = line_bundle_cohomology(n, m, i)
                if i == 0 and m >= 0:
                    expected = math.comb(n + m, m)
                elif i == n and m <= -n - 1:
                    expected = math.comb(-m - 1, -n - m - 1)
                else:
                    expected = 0
                if value != expected:
                    failures.append(f"value at (n,m,i)=({n},{m},{i})")
                dual = line_bundle_cohomology(n, -m - n - 1, n - i)
                if value != dual:
                    failures.append(f"duality at (n,m,i)=({n},{m},{i})")
    conclude(9, "cohomology table and Serre duality symmetry exact on the grid", failures)


def test_criterion_10_property_suites():
    failures = []
    rng = random.Random(103)
    for trial in range(300):
        c = from_gram(random_unitriangular(rng, 4))
        i = rng.randrange(3)
        if right_mutation(left_mutation(c, i), i) != c or left_mutation(right_mutation(c, i), i) != c:
            failures.append(f"involution fails at trial {trial}")
            break
    for trial in range(300):
        c = from_gram(random_unitriangular(rng, 4))
        length = rng.randint(0, 20)
        word = BraidWord(
            4, tuple((rng.randrange(3), rng.choice((1, -1))) for _ in range(length))
        )
        if not conserves_pairing(apply_word(c, word), c.gram):
            failures.append(f"conservation fails at trial {trial}")
            break
    systems = [lemma41_system(k) for k in range(3)] + list(thm51_systems())
    systems.append(region_system(DegreeMatrix.all_zero(3)))
    for system in systems:
        base = is_feasible(system).witness
        margin = min(
            (bound - sum(c * v for c, v in zip(coeffs, base)))
            / sum(abs(c) for c in coeffs)
            for coeffs, bound in system.constraints
        )
        other = tuple(x + margin / 2 for x in base)
        mid = tuple((a + b) / 2 for a, b in zip(base, other))
        if not (contains(system, other) and contains(system, mid)):
            failures.append("midpoint escapes a feasible system")
    for trial in range(500):
        length = rng.randint(0, 25)
        w = BraidWord(
            4, tuple((rng.randrange(3), rng.choice((1, -1))) for _ in range(length))
        )
        nf = normal_form(w)
        if normal_form(nf.word()) != nf:
            failures.append(f"Garside round trip fails at trial {trial}")
            break
    conclude(10, "involution, conservation, convexity and Garside round trip, all exact", failures)
