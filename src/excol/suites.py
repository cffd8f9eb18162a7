"""Named verification suites and the run report they produce.

Each suite replays the invariants of one module as a list of named
checks with expected and actual values.  Randomized checks draw from an
explicitly seeded generator so reports are reproducible.

The suites are independent, so ``run_suite`` passes the ones it runs
(one, or every suite for ``"all"``) to ``run_shares``, the one share
planner, which ``excol orbit`` also uses for its records.  It deals
items round-robin into one share per usable CPU, none below a minimum
size, runs the first share in process and each other share in a forked
child pinned to the next usable CPU, and returns the values in item
order, so the checks come in ``SUITES`` order on any number of CPUs.
"""

from __future__ import annotations

import marshal
import os
import random
import sys
from collections import Counter
from fractions import Fraction
from math import inf
from typing import NamedTuple

from . import _matrix, markov, pn, regions
from .braid import BraidWord, center_word, delta_word, is_trivial, normal_form, parse_word
from .collection import (
    _nilpotent,
    apply_word,
    conserves_pairing,
    from_gram,
    is_minus_kappa_unipotent,
    is_strong_candidate,
    left_mutation,
    right_mutation,
    serre_matrix,
    unipotent_grams,
)
from .markov import (
    GWord,
    SEED_BEILINSON,
    SEED_DUAL,
    SixTuple,
    V, W2, W3,
    eval_eq1,
    eval_eq2,
    f_image,
    orbit,
    stabilizer_scan,
    t_map,
    unipotency_oracle,
    unipotency_oracles,
)


class Check(NamedTuple):
    name: str
    expected: str
    actual: str
    passed: bool


def check(name: str, expected, actual) -> Check:
    return Check(name, repr(expected), repr(actual), expected == actual)


def info(name: str, value) -> Check:
    """An informational line that cannot fail."""
    return Check(name, "-", repr(value), True)


class RunReport:
    def __init__(self, command: str, inputs: str, checks: list[Check] | None = None):
        self.command, self.inputs = command, inputs
        self.checks = [] if checks is None else checks

    @property
    def exit_status(self) -> int:
        return 0 if all(c.passed for c in self.checks) else 1

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"inputs: {self.inputs}"]
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{tag}] {c.name}: expected={c.expected} actual={c.actual}")
        failed = sum(1 for c in self.checks if not c.passed)
        lines.append(f"{len(self.checks) - failed}/{len(self.checks)} checks passed")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "checks": [c._asdict() for c in self.checks],
            "exit_status": self.exit_status,
        }


# ---------------------------------------------------------------------------
# shared generators

def random_word(rng: random.Random, max_len: int) -> BraidWord:
    """A word of at most ``max_len`` random letters on 4 strands."""
    length = rng.randint(0, max_len)
    letters = tuple((rng.randrange(3), rng.choice((1, -1))) for _ in range(length))
    return BraidWord(4, letters)


ENTRY_LO, ENTRY_HI = -9, 9  # bounds of each random strictly upper Gram entry


def random_unitriangular(rng: random.Random, size: int):
    return tuple(
        tuple(
            1 if i == j else (rng.randint(ENTRY_LO, ENTRY_HI) if j > i else 0)
            for j in range(size)
        )
        for i in range(size)
    )


BRAID_RELATORS_4 = tuple(
    parse_word(text, 4)
    for text in (
        "L0 L1 L0 R1 R0 R1",
        "L1 L2 L1 R2 R1 R2",
        "L0 L2 R0 R2",
    )
)


# ---------------------------------------------------------------------------
# suites

def braid_suite(seed: int = 0) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    delta = delta_word()
    center = center_word()
    checks.append(check("half twist normal form", "D^1", str(normal_form(delta))))
    checks.append(check("empty word normal form", "D^0", str(normal_form(BraidWord(4)))))
    for k, rel in enumerate(BRAID_RELATORS_4):
        checks.append(check(f"relator {k} trivial", True, is_trivial(rel)))
    for i in range(3):
        w = delta.inverse() * BraidWord(4, ((i, 1),)) * delta * BraidWord(4, ((2 - i, -1),))
        checks.append(check(f"delta conjugation sigma_{i} -> sigma_{2 - i}", True, is_trivial(w)))
    for i in range(3):
        g = BraidWord(4, ((i, 1),))
        w = center * g * center.inverse() * g.inverse()
        checks.append(check(f"center commutes with sigma_{i}", True, is_trivial(w)))
    rev = parse_word("L2 L1 L0", 4) ** 4
    checks.append(check("(s0 s1 s2)^4 = (s2 s1 s0)^4", True, is_trivial(center * rev.inverse())))
    trials = 1000
    good_inv = sum(
        1
        for _ in range(trials)
        if is_trivial((w := random_word(rng, 30)) * w.inverse())
    )
    checks.append(check(f"w * w^-1 trivial ({trials} random words)", trials, good_inv))
    good_round = 0
    good_insert = 0
    for _ in range(200):
        w = random_word(rng, 20)
        nf = normal_form(w)
        if normal_form(nf.word()) == nf:
            good_round += 1
        rel = rng.choice(BRAID_RELATORS_4)
        pos = rng.randint(0, len(w.letters))
        spliced = BraidWord(4, w.letters[:pos] + rel.letters + w.letters[pos:])
        if normal_form(spliced) == nf and normal_form(w.free_reduce()) == nf:
            good_insert += 1
    checks.append(check("normal form round trip (200 random words)", 200, good_round))
    checks.append(check("normal form stable under relator insertion and free reduction (200)", 200, good_insert))
    return checks


def mutation_suite(seed: int = 0) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    b3 = pn.beilinson_collection(3)
    checks.append(check("beilinson P3 six-tuple", (4, 10, 20, 4, 10, 4), b3.upper_entries()))
    checks.append(
        check("left mutation at 0 six-tuple", (4, 36, 70, 10, 20, 4),
              left_mutation(b3, 0).upper_entries())
    )
    checks.append(
        check("first class after left mutation", (4, -1, 0, 0),
              tuple(row[0] for row in left_mutation(b3, 0).classes))
    )
    dual = apply_word(b3, delta_word())
    checks.append(check("dual collection six-tuple", (4, 6, 4, 4, 6, 4), dual.upper_entries()))
    checks.append(check("dual collection strong candidate", True, is_strong_candidate(dual)))
    checks.append(check("identity gram not strong", False,
                        is_strong_candidate(from_gram(_matrix.identity(4)))))

    trials = 1000
    invol = 0
    braid_rel = 0
    for _ in range(trials):
        c = from_gram(random_unitriangular(rng, 4))
        i = rng.randrange(3)
        if right_mutation(left_mutation(c, i), i) == c and left_mutation(right_mutation(c, i), i) == c:
            invol += 1
    checks.append(check(f"mutation involution ({trials} random grams)", trials, invol))
    braid_sides = [
        (parse_word(f"L{i} L{i + 1} L{i}", 4), parse_word(f"L{i + 1} L{i} L{i + 1}", 4))
        for i in range(2)
    ]
    far_left, far_right = parse_word("L0 L2", 4), parse_word("L2 L0", 4)
    for _ in range(trials):
        c = from_gram(random_unitriangular(rng, 4))
        lhs_word, rhs_word = braid_sides[rng.randrange(2)]
        lhs = apply_word(c, lhs_word)
        rhs = apply_word(c, rhs_word)
        far = apply_word(c, far_left) == apply_word(c, far_right)
        if lhs == rhs and far:
            braid_rel += 1
    checks.append(check(f"braid and far-commutation relations ({trials} random grams)", trials, braid_rel))

    conserved = 0
    for _ in range(100):
        c = from_gram(random_unitriangular(rng, 4))
        image = apply_word(c, random_word(rng, 20))
        if conserves_pairing(image, c.gram) and _matrix.is_upper_unitriangular(image.gram) \
                and abs(_matrix.determinant(image.classes)) == 1:
            conserved += 1
    checks.append(check("conservation and unimodularity after random words (100)", 100, conserved))

    serre_ok = 0
    for _ in range(200):
        c = from_gram(random_unitriangular(rng, 4))
        kappa = serre_matrix(c)
        if _matrix.transpose(_matrix.mat_mul(c.gram, kappa)) == c.gram:
            serre_ok += 1
    checks.append(check("Serre identity A = (A kappa)^T (200 random grams)", 200, serre_ok))

    trivial_words = 0
    for _ in range(100):
        c = from_gram(random_unitriangular(rng, 4))
        rel = rng.choice(BRAID_RELATORS_4)
        h = random_word(rng, 5)
        w = h * rel * h.inverse()
        if apply_word(c, w) == c:
            trivial_words += 1
    checks.append(check("trivial words act trivially (100 random conjugated relators)", 100, trivial_words))

    depth5 = orbit(b3, 5)
    # the oracle runs once per distinct gram, and its bit counts once per
    # member with that gram
    grams = Counter(member.gram for member in depth5)
    unip = sum(n for n, bit in zip(grams.values(), unipotent_grams(grams)) if bit)
    checks.append(check("unipotency on depth-5 orbit", len(depth5), unip))
    checks.append(check("kappa = identity is not unipotent evidence", False,
                        is_minus_kappa_unipotent(from_gram(_matrix.identity(4)))))
    return checks


G_RELATORS = (
    GWord((V, V)),
    GWord((W2,) * 4),
    GWord((W3, W3)),
    GWord((W3, W2, W3, W2)),          # w3^-1 w2 w3 = w2^-1
    GWord((V, W3, W2, W2, W2) * 3),   # (v w3 w2^3)^3
    GWord((V, W3, V, W2, W2) * 2),    # (v w3 v w2^2)^2
)


def markov_suite(seed: int = 0) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    checks.append(check("eq1 on (4,6,4,4,6,4)", 0, eval_eq1(SEED_DUAL)))
    checks.append(check("eq1 on (4,10,20,4,10,4)", 0, eval_eq1(SEED_BEILINSON)))
    checks.append(check("eq1 on zero tuple", -8, eval_eq1(SixTuple(0, 0, 0, 0, 0, 0))))
    checks.append(check("eq2 printed on (4,6,4,4,6,4)", -720, eval_eq2(SEED_DUAL, "printed")))
    checks.append(check("eq2 corrected on (4,6,4,4,6,4)", 0, eval_eq2(SEED_DUAL, "corrected")))
    checks.append(check("eq2 on zero tuple", -16, eval_eq2(SixTuple(0, 0, 0, 0, 0, 0))))
    checks.append(check("oracle on (4,6,4,4,6,4)", True, unipotency_oracle(SEED_DUAL)))
    checks.append(check("oracle on (4,10,20,4,10,4)", True, unipotency_oracle(SEED_BEILINSON)))
    checks.append(check("oracle rejects (1,0,0,0,0,0)", False,
                        unipotency_oracle(SixTuple(1, 0, 0, 0, 0, 0))))
    checks.append(check("w2 fixes the dual seed", SEED_DUAL, markov.apply_g(SEED_DUAL, W2)))
    checks.append(check("w3 fixes the dual seed", SEED_DUAL, markov.apply_g(SEED_DUAL, W3)))
    checks.append(check("v on the dual seed", SixTuple(4, 4, 6, 10, 20, 4),
                        markov.apply_g(SEED_DUAL, V)))

    samples = list(orbit(SEED_DUAL, 5).keys()) + list(orbit(SEED_BEILINSON, 5).keys())
    rel_ok = sum(
        1 for t in samples if all(rel.apply(t) == t for rel in G_RELATORS)
    )
    checks.append(check(f"G relators fix orbit tuples ({len(samples)})", len(samples), rel_ok))
    eq_ok = sum(
        1 for t, oracle in zip(samples, unipotency_oracles(samples))
        if eval_eq1(t) == 0 and eval_eq2(t, "corrected") == 0 and oracle
    )
    checks.append(check("eq1, corrected eq2 and oracle on orbit tuples", len(samples), eq_ok))

    # each distinct drawn tuple is checked once and counts once per draw
    drawn = Counter(rng.choice(samples) for _ in range(1000))
    rel_images = [f_image(rel) for rel in BRAID_RELATORS_4]
    f_rel_ok = sum(
        n
        for t, n in drawn.items()
        if all(image.apply(t) == t for image in rel_images)
    )
    checks.append(check("f sends braid relators to the identity action (1000 samples)", 1000, f_rel_ok))
    w2_image = f_image(parse_word("R2 R1 R0", 4))
    w2_action = sum(n for t, n in drawn.items() if w2_image.apply(t) == markov.apply_g(t, W2))
    checks.append(check("f(R2 R1 R0) acts as w2 (1000 samples)", 1000, w2_action))

    b3 = pn.beilinson_collection(3)
    depth3 = list(orbit(b3, 3).keys())
    letters = [BraidWord(4, (let,)) for let in markov.MUTATION_LETTERS]
    equi = sum(1 for c in depth3 if markov.check_equivariance(c, *letters))
    checks.append(check(f"equivariance for all letters on depth-3 orbit ({len(depth3)})",
                        len(depth3), equi))

    stab = stabilizer_scan(b3, 6)
    all_trivial = all(is_trivial(w) for w in stab)
    checks.append(check(f"stabilizer words up to length 6 trivial in A4 ({len(stab)} found)",
                        True, all_trivial))

    center = parse_word("R2 R1 R0", 4) ** 4
    twisted = apply_word(b3, center)
    twist4 = pn.twist_matrix(3, 4)
    checks.append(check("(R2 R1 R0)^4 fixes the gram", b3.gram, twisted.gram))
    checks.append(check("(R2 R1 R0)^4 twists classes by O(4)", twist4, twisted.classes))
    return checks


def regions_suite(seed: int = 0) -> list[Check]:
    checks = []
    zero3 = regions.DegreeMatrix.all_zero(3)
    checks.append(check("alpha(0,3) on the strong degree matrix", -2, regions.alpha(zero3, 0, 3)))
    checks.append(check("alpha(i,i+1) on the strong degree matrix", (0, 0, 0),
                        tuple(regions.alpha(zero3, i, i + 1) for i in range(3))))
    d2 = regions.DegreeMatrix.from_rows(
        [[0, inf, 0], [0, 0, 0], [0, 0, 0]]
    )
    checks.append(check("alpha with an infinite degree", (inf, 0),
                        (regions.alpha(d2, 0, 1), regions.alpha(d2, 0, 2))))
    checks.append(check("infinite pairs contribute no constraint", 2,
                        len(regions.region_system(d2).sparse_rows)))

    strong_sys = regions.region_system(zero3)
    expected_bounds = {(i, j): -(j - i - 1) for i in range(4) for j in range(i + 1, 4)}
    actual_bounds = {(i, j): bound for ((i, _), (j, _)), bound in strong_sys.sparse_rows}
    checks.append(check("strong collection constraints", expected_bounds, actual_bounds))

    witness = tuple(Fraction(x) for x in (0, Fraction(1, 2), Fraction(8, 5), Fraction(27, 10)))
    sys0 = regions.lemma41_system(0)
    checks.append(check("witness (0, 1/2, 8/5, 27/10) satisfies the k=0 intersection system",
                        True, regions.contains(sys0, witness)))
    bad = (Fraction(0), Fraction(3, 2), Fraction(3), Fraction(9, 2))
    checks.append(check("point violating the shift condition rejected", False,
                        regions.contains(sys0, bad)))
    for k in range(3):
        res = regions.is_feasible(regions.lemma41_system(k))
        checks.append(check(f"k={k} intersection system feasible", True, res.feasible))

    names = ("left-left", "right-right mirror", "overlap with mutated phase")
    for name, system in zip(names, regions.thm51_systems()):
        res = regions.is_feasible(system)
        ok = res.feasible and regions.contains(system, res.witness)
        checks.append(check(f"{name} system feasible with verified witness", True, ok))

    left_sys = regions.thm51_systems()[0]
    relaxed_point = tuple(Fraction(x) for x in (0, Fraction(-1, 2), Fraction(5, 2), 3))
    strong_rows = set(strong_sys.sparse_rows)
    extras = regions.InequalitySystem._derived(
        4, tuple(r for r in left_sys.sparse_rows if r not in strong_rows)
    )
    sanity = regions.contains(extras, relaxed_point) and not regions.contains(left_sys, relaxed_point)
    checks.append(check("dropping the strong conditions enlarges the region", True, sanity))

    bad_sys = regions.InequalitySystem(2, [([1, -1], 0), ([-1, 1], 0)])
    res = regions.is_feasible(bad_sys)
    checks.append(check("opposite pair infeasible with certificate", True,
                        (not res.feasible) and res.certificate is not None))

    midpoints = 0
    systems = [regions.lemma41_system(k) for k in range(3)] + list(regions.thm51_systems())
    for system in systems:
        w1 = regions.is_feasible(system).witness
        shift = tuple(x + 1 for x in w1)
        w2_point = shift if regions.contains(system, shift) else w1
        mid = tuple((a + b) / 2 for a, b in zip(w1, w2_point))
        if regions.contains(system, mid):
            midpoints += 1
    checks.append(check("midpoints of witnesses accepted", len(systems), midpoints))
    return checks


def pn_suite(seed: int = 0) -> list[Check]:
    checks = []
    checks.append(check("dim H^0(P3, O(1))", 4, pn.line_bundle_cohomology(3, 1, 0)))
    checks.append(check("dim H^3(P3, O(-4))", 1, pn.line_bundle_cohomology(3, -4, 3)))
    checks.append(check("O(-2) has no cohomology on P3", (0, 0, 0, 0),
                        tuple(pn.line_bundle_cohomology(3, -2, i) for i in range(4))))

    grid_ok = True
    duality_ok = True
    for n in range(1, 5):
        for m in range(-12, 13):
            chi = sum((-1) ** i * pn.line_bundle_cohomology(n, m, i) for i in range(n + 1))
            if chi != pn.euler_chi_line(n, m):
                grid_ok = False
            for i in range(n + 1):
                if pn.line_bundle_cohomology(n, m, i) != pn.line_bundle_cohomology(
                    n, -m - n - 1, n - i
                ):
                    duality_ok = False
    checks.append(check("chi equals the alternating sum on the grid", True, grid_ok))
    checks.append(check("Serre duality symmetry on the grid", True, duality_ok))

    checks.append(check("class of O(4) on P3", (-1, 4, -6, 4),
                        tuple(row[3] for row in pn.twist_matrix(3))))
    checks.append(check("class of O(2) on P1", (-1, 2),
                        tuple(row[1] for row in pn.twist_matrix(1))))
    for n in range(1, 5):
        tw = pn.twist_matrix(n)
        checks.append(check(f"twist determinant on P{n}", 1, _matrix.determinant(tw)))
        beilinson = pn.beilinson_collection(n)
        kappa = serre_matrix(beilinson)
        checks.append(check(f"serre map equals A^-1 A^T on P{n}", kappa, pn.serre_class_map(n)))
        # (-1)^n kappa is the unipotent twist power, so the sign in the
        # nilpotency test follows the parity of n; a block of one member
        sign = 1 if n % 2 else -1
        plus = [[[sign * e + (i == j)] for j, e in enumerate(row)] for i, row in enumerate(kappa)]
        checks.append(check(f"((-1)^{n + 1} kappa + 1)^{n + 1} vanishes on P{n}", True,
                            _nilpotent(plus, 1)[0]))
        conj = _matrix.mat_mul(_matrix.mat_mul(pn.twist_matrix(n, -1), kappa), tw)
        checks.append(check(f"twist conjugation fixes kappa on P{n}", kappa, conj))
        checks.append(check(f"beilinson P{n} strong candidate", True,
                            is_strong_candidate(beilinson)))
    checks.append(check("beilinson P1 gram", ((1, 2), (0, 1)), pn.beilinson_collection(1).gram))
    checks.append(check("eq1 on the beilinson P3 tuple", 0,
                        eval_eq1(t_map(pn.beilinson_collection(3)))))
    return checks


SUITES = {
    "braid": braid_suite,
    "mutation": mutation_suite,
    "markov": markov_suite,
    "regions": regions_suite,
    "pn": pn_suite,
}


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pin(cpus) -> None:
    """Confine this process to the CPUs in ``cpus``; nothing when it is
    empty or the system refuses."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


_UNREAD = object()  # a child's value that did not arrive


def run_shares(work, items, min_share: int = 1) -> list:
    """``work(items)``, where ``work`` maps a list of items to a list of
    as many values that ``marshal`` can dump: one value per item, in order.

    The items are dealt round-robin into ``max(1, min(usable_cpus(),
    len(items) // min_share))`` shares.  The parent computes the first
    share while each other share runs in a forked child that sends its
    values back through a pipe.  A share whose child could not be forked,
    exits nonzero or sends an unreadable value is computed here, so an
    error of ``work`` is raised here.  Nothing is forked for one share,
    without ``os.fork`` or when the process already runs more than one
    thread: a child forked then can block on a lock that another thread
    held at the fork.  With ``os.sched_setaffinity``, share k runs pinned
    to ``cpus[k % len(cpus)]`` of the sorted usable CPUs, since the
    scheduler tends to leave a child on its parent's CPU; the parent
    takes back its own mask after its share.  A refused pin is ignored.
    On any exception, KeyboardInterrupt included, every unreaped child is
    killed and reaped.
    """
    items = list(items)
    count = max(1, min(usable_cpus(), len(items) // min_share))
    threading = sys.modules.get("threading")
    threaded = threading is not None and threading.active_count() > 1
    if count < 2 or threaded or not hasattr(os, "fork"):
        return work(items)
    shares = [items[k::count] for k in range(count)]
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    cpus = [{cpu} for cpu in sorted(mask)] or [set()]
    children = []  # (pid, read end) per share after the first; None once reaped or unforked
    try:
        for k, share in enumerate(shares[1:], 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                children.append(None)
                continue
            if pid == 0:
                status = 1
                try:
                    _pin(cpus[k % len(cpus)])
                    data = marshal.dumps(work(share))
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, open(r, "rb")))
        _pin(cpus[0])
        results = [work(shares[0])]
        _pin(mask)
        for k, share in enumerate(shares[1:]):
            value = _UNREAD
            if children[k] is not None:
                pid, pipe = children[k]
                with pipe:
                    data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                children[k] = None
                try:
                    value = marshal.loads(data) if status == 0 else _UNREAD
                except (EOFError, ValueError, TypeError):
                    pass
            results.append(work(share) if value is _UNREAD else value)
    finally:
        _pin(mask)
        if any(children):
            import signal  # here, so that importing the CLI does not load it

            for pid, pipe in filter(None, children):
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    values = [None] * len(items)
    for k, share_values in enumerate(results):
        values[k::count] = share_values
    return values


def run_suite(name: str, seed: int = 0) -> list[Check]:
    """The checks of suite ``name``; for ``"all"``, those of every suite
    labelled with its name, in ``SUITES`` order.

    ``run_shares`` deals the suites into at most one share per suite, so
    one suite forks nothing and an error reads the same on any number of
    CPUs.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    names = list(SUITES) if name == "all" else [name]

    def rows(share):
        return [[tuple(c) for c in SUITES[suite](seed)] for suite in share]

    by_suite = dict(zip(names, run_shares(rows, names)))
    if name != "all":
        return [Check(*c) for c in by_suite[name]]
    return [Check(f"{suite}: {c[0]}", *c[1:]) for suite in names for c in by_suite[suite]]
