"""Reference computations that check excol's output without importing excol.

Everything here is written from the mathematics, not from excol's code:
mutations as rank-2 column operations, the Markov-type polynomials and
the tuple action, the Serre-matrix unipotency test, an exhaustive
stabilizer search, Artin's action of the braid group on the free group,
permutations and the Burau matrix of braid words, the twist by O(1) on
K(P^n) from binomial coefficients, and exact checks of phase
inequalities.  Each ``check_*`` function takes what a command printed
and returns None when it is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from fractions import Fraction

# ---------------------------------------------------------------------------
# integer matrices as tuples of row tuples


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def transpose(a):
    return tuple(zip(*a))


def matpow(a, k):
    acc, base = None, a
    while k:
        if k & 1:
            acc = base if acc is None else matmul(acc, base)
        k >>= 1
        if k:
            base = matmul(base, base)
    return identity(len(a)) if acc is None else acc


def upper_entries(gram):
    n1 = len(gram)
    return tuple(gram[i][j] for i in range(n1) for j in range(i + 1, n1))


# ---------------------------------------------------------------------------
# projective space


def pn_gram(n):
    """Gram matrix of chi on (O, O(1), ..., O(n)): chi(O(i), O(j)) = C(n+j-i, n)."""
    return tuple(
        tuple(math.comb(n + j - i, n) if j >= i else 0 for j in range(n + 1))
        for i in range(n + 1)
    )


def twist_inverse(n):
    """Matrix of - (x) O(-1) on K(P^n) in the basis [O], ..., [O(n)].

    The Koszul relation sum_j (-1)^j C(n+1, j) [O(n-j)] = 0 over
    j = 0..n+1 gives the class of O(-1); the other basis classes shift
    down by one.  The inverse twist is checked against the twist itself.
    """
    o_minus_1 = [(-1) ** k * math.comb(n + 1, n - k) for k in range(n + 1)]
    cols = [o_minus_1] + [[int(r == c - 1) for r in range(n + 1)] for c in range(1, n + 1)]
    t_inv = transpose(tuple(tuple(col) for col in cols))
    o_n_plus_1 = [(-1) ** (n - k) * math.comb(n + 1, n + 1 - k) for k in range(n + 1)]
    cols = [[int(r == c + 1) for r in range(n + 1)] for c in range(n)] + [o_n_plus_1]
    t = transpose(tuple(tuple(col) for col in cols))
    if matmul(t, t_inv) != identity(n + 1):
        raise AssertionError(f"twist and inverse twist on P^{n} do not cancel")
    return t_inv


# ---------------------------------------------------------------------------
# mutations of (gram, classes)


def _pair_op(x, y, a, side):
    """New (slot i, slot i+1) from old (slot i, slot i+1) = (x, y).

    A left mutation puts a*E_i - E_{i+1} in slot i and E_i in slot i+1;
    a right mutation puts E_{i+1} in slot i and a*E_{i+1} - E_i in slot i+1.
    """
    if side == 1:
        return a * x - y, x
    return y, a * y - x


def mutate(gram, classes, i, side):
    """Mutate the pair (i, i+1) by a rank-2 column operation.

    The classes transform by the column operation, the Gram matrix by the
    congruence, i.e. the same operation on columns and then on rows.
    """
    a = gram[i][i + 1]
    g = []
    for row in gram:
        row = list(row)
        row[i], row[i + 1] = _pair_op(row[i], row[i + 1], a, side)
        g.append(row)
    new_i, new_j = zip(*(_pair_op(x, y, a, side) for x, y in zip(g[i], g[i + 1])))
    g[i], g[i + 1] = list(new_i), list(new_j)
    c = []
    for row in classes:
        row = list(row)
        row[i], row[i + 1] = _pair_op(row[i], row[i + 1], a, side)
        c.append(tuple(row))
    return tuple(tuple(row) for row in g), tuple(c)


def apply_letters(gram, classes, letters):
    """Act by a word given as (index, sign) letters; the rightmost acts first."""
    for i, e in reversed(letters):
        gram, classes = mutate(gram, classes, i, e)
    return gram, classes


def mutation_letters(n):
    return tuple((i, 1) for i in range(n)) + tuple((i, -1) for i in range(n))


def word_text(letters):
    return " ".join(("L" if e == 1 else "R") + str(i) for i, e in letters)


def parse_letters(text):
    return tuple((int(tok[1:]), 1 if tok[0] == "L" else -1) for tok in text.split())


def collection_orbit(gram, classes, depth):
    """Breadth-first orbit of (gram, classes): element -> first-seen depth."""
    letters = mutation_letters(len(gram) - 1)
    seen = {(gram, classes): 0}
    frontier = [(gram, classes)]
    for level in range(1, depth + 1):
        new = []
        for g, c in frontier:
            for i, e in letters:
                img = mutate(g, c, i, e)
                if img not in seen:
                    seen[img] = level
                    new.append(img)
        frontier = new
    return seen


def stabilizer_words(gram, classes, max_len):
    """All freely reduced words of length 1..max_len fixing (gram, classes).

    Iterative depth-first search over application sequences; a sequence
    applied first-to-last is the word read right to left.  Sorted by
    length, then by the (index, sign) letters.
    """
    letters = mutation_letters(len(gram) - 1)
    start = (gram, classes)
    found = []
    stack = [(start, ())]
    while stack:
        (g, c), path = stack.pop()
        if len(path) == max_len:
            continue
        for let in letters:
            if path and path[-1] == (let[0], -let[1]):
                continue
            img = mutate(g, c, *let)
            nxt = path + (let,)
            if img == start:
                found.append(tuple(reversed(nxt)))
            stack.append((img, nxt))
    found.sort(key=lambda w: (len(w), w))
    return found


# ---------------------------------------------------------------------------
# six-tuples on P^3


def eq1(t):
    a01, a02, a03, a12, a13, a23 = t
    return (a01 ** 2 + a02 ** 2 + a03 ** 2 + a12 ** 2 + a13 ** 2 + a23 ** 2
            - a01 * a12 * a02 - a01 * a13 * a03 - a02 * a23 * a03 - a12 * a23 * a13
            + a01 * a12 * a23 * a03 - 8)


def eq2_corrected(t):
    a01, a02, a03, a12, a13, a23 = t
    return ((a01 * a23) ** 2 + (a02 * a13) ** 2 + (a03 * a12) ** 2
            - 2 * a01 * a13 * a02 * a23 - 2 * a02 * a12 * a03 * a13
            + 2 * a01 * a12 * a23 * a03 - 16)


def tuple_action(t, letter):
    """The letters v, w2, w2^-1, w3 acting on (a01, a02, a03, a12, a13, a23)."""
    a01, a02, a03, a12, a13, a23 = t
    if letter == "v":
        return (a01, a03, a02, a01 * a03 - a13, a01 * a02 - a12, a23)
    if letter == "w2":
        return (a03, a13, a23, a01, a02, a12)
    if letter == "w2^-1":
        return (a12, a13, a01, a23, a02, a03)
    return (a23, a13, a03, a12, a02, a01)


def tuple_orbit(seed, depth):
    seen = {seed: 0}
    frontier = [seed]
    for level in range(1, depth + 1):
        new = []
        for t in frontier:
            for letter in ("v", "w2", "w2^-1", "w3"):
                img = tuple_action(t, letter)
                if img not in seen:
                    seen[img] = level
                    new.append(img)
        frontier = new
    return seen


def unitriangular_inverse(a):
    n = len(a)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(a[i][k] * inv[k][j] for k in range(i + 1, j + 1))
    return tuple(tuple(row) for row in inv)


def minus_kappa_unipotent(gram):
    """True iff (kappa + 1)^(n+1) = 0 for kappa = gram^-1 gram^T."""
    n1 = len(gram)
    kappa = matmul(unitriangular_inverse(gram), transpose(gram))
    plus_one = tuple(
        tuple(x + int(i == j) for j, x in enumerate(row)) for i, row in enumerate(kappa)
    )
    return all(x == 0 for row in matpow(plus_one, n1) for x in row)


def tuple_gram(t):
    a01, a02, a03, a12, a13, a23 = t
    return ((1, a01, a02, a03), (0, 1, a12, a13), (0, 0, 1, a23), (0, 0, 0, 1))


# ---------------------------------------------------------------------------
# braids: permutations, Artin's action on the free group, Burau at t = 2


def compose(p, q):
    """Permutation p followed by q, in one-line notation."""
    return tuple(q[x] for x in p)


def word_perm(strands, letters):
    p = tuple(range(strands))
    for i, _ in letters:
        g = list(range(strands))
        g[i], g[i + 1] = i + 1, i
        p = compose(p, tuple(g))
    return p


def perm_word(p):
    """A reduced positive word (generator indices) for a permutation braid."""
    p = list(p)
    word = []
    while True:
        i = next((k for k in range(len(p) - 1) if p[k] > p[k + 1]), None)
        if i is None:
            return word
        word.append(i)
        p[i], p[i + 1] = p[i + 1], p[i]


def _free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def artin_trivial(strands, letters):
    """True iff the word acts as the identity on the free group F_strands.

    sigma_i sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i; its inverse
    sends x_i to x_{i+1} and x_{i+1} to x_{i+1}^-1 x_i x_{i+1}.  Generators
    are 1..strands, inverses their negatives.
    """
    images = [(k,) for k in range(1, strands + 1)]
    for i, e in letters:
        a, b = i + 1, i + 2
        if e == 1:
            sub = {a: (a, b, -a), b: (a,)}
        else:
            sub = {a: (b,), b: (-b, a, b)}
        new = []
        for img in images:
            out = []
            for x in img:
                if abs(x) in sub:
                    piece = sub[abs(x)]
                    out.extend(piece if x > 0 else [-y for y in reversed(piece)])
                else:
                    out.append(x)
            new.append(_free_reduce(out))
        images = new
    return images == [(k,) for k in range(1, strands + 1)]


def burau_scaled(strands, letters):
    """(t^k B(w), k) for the unreduced Burau matrix B at t = 2.

    sigma_i acts on the block (i, i+1) by [[1-t, t], [1, 0]]; t times the
    matrix of sigma_i^-1 is t*I with the block [[0, t], [1, t-1]], so each
    inverse letter contributes one factor t to the returned scale k.
    """
    t = 2
    m = [[int(r == c) for c in range(strands)] for r in range(strands)]
    k = 0
    for i, e in letters:
        j = i + 1
        for row in m:
            x, y = row[i], row[j]
            if e == 1:
                row[i], row[j] = (1 - t) * x + y, t * x
            else:
                for c in range(strands):
                    if c != i and c != j:
                        row[c] *= t
                row[i], row[j] = y, t * x + (t - 1) * y
        if e == -1:
            k += 1
    return m, k


def parse_normal_form(text, strands):
    """Parse ``D^k . (p1) . (p2) ...`` into (k, factors as 0-based tuples)."""
    parts = text.split(" . ")
    if not parts[0].startswith("D^"):
        raise ValueError(f"normal form does not start with D^k: {text[:40]!r}")
    k = int(parts[0][2:])
    factors = []
    for part in parts[1:]:
        if not (part.startswith("(") and part.endswith(")")):
            raise ValueError(f"malformed factor {part!r}")
        perm = tuple(int(x) - 1 for x in part[1:-1].split())
        if sorted(perm) != list(range(strands)):
            raise ValueError(f"factor {part!r} is not a permutation of {strands} strands")
        factors.append(perm)
    return k, factors


def normal_form_letters(strands, k, factors):
    """A braid word for D^k . p1 . p2 ... as (index, sign) letters."""
    delta = perm_word(tuple(range(strands - 1, -1, -1)))
    letters = []
    if k >= 0:
        letters.extend((i, 1) for i in delta * k)
    else:
        letters.extend((i, -1) for i in list(reversed(delta)) * (-k))
    for f in factors:
        letters.extend((i, 1) for i in perm_word(f))
    return letters


# ---------------------------------------------------------------------------
# output checks, one per command


def _collection_file(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    n1 = payload["n"] + 1
    classes = payload["classes"]
    classes = identity(n1) if classes == "identity" else tuple(map(tuple, classes))
    return tuple(map(tuple, payload["gram"])), classes


def check_collection_file(path, gram):
    """The file a setup command wrote holds ``gram`` with identity classes."""
    try:
        got = _collection_file(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable collection file {path}: {exc}"
    if got != (gram, identity(len(gram))):
        return f"{path} does not hold the expected Gram matrix with identity classes"
    return None


def check_verify(out, suites):
    report = json.loads(out)
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    if failing:
        return f"{len(failing)} failing checks, first {failing[0]!r}"
    if report["exit_status"] != 0:
        return "report exit_status is not 0"
    names = [c["name"] for c in report["checks"]]
    missing = [s for s in suites if not any(n.startswith(s + ": ") for n in names)]
    if missing:
        return f"suites missing from the report: {missing}"
    return None


@functools.cache
def tuple_unipotent(t):
    """The unipotency test on the Gram matrix of a six-tuple, memoised."""
    return minus_kappa_unipotent(tuple_gram(t))


def parse_orbit_records(out):
    records = []
    for line in out.splitlines():
        depth, tup, e1, e2, oracle = line.split("\t")
        records.append((
            int(depth),
            tuple(int(x) for x in tup.strip("()").split(",")),
            int(e1.removeprefix("eq1=")),
            int(e2.removeprefix("eq2=")),
            int(oracle.removeprefix("oracle=")),
        ))
    return records


def check_orbit(out, expected):
    """``expected`` is a Counter of (depth, tuple) from the reference BFS."""
    records = parse_orbit_records(out)
    got = Counter((depth, t) for depth, t, _, _, _ in records)
    if got != expected:
        return (f"orbit records differ from the reference BFS: {len(records)} printed, "
                f"{sum(expected.values())} expected")
    for depth, t, e1, e2, bit in records:
        if e1 != 0 or eq1(t) != 0:
            return f"eq1 does not vanish on {t}"
        if e2 != 0 or eq2_corrected(t) != 0:
            return f"corrected eq2 does not vanish on {t}"
        if bit != int(tuple_unipotent(t)):
            return f"oracle bit {bit} on {t} disagrees with (kappa+1)^4"
    return None


def check_stabilizer(out, expected, require_trivial, must_contain=None):
    words = [parse_letters(line) for line in out.splitlines()]
    if words != expected:
        return f"{len(words)} words printed, reference search found {len(expected)}"
    if require_trivial:
        bad = next((w for w in words if not artin_trivial(4, w)), None)
        if bad is not None:
            return f"word {word_text(bad)!r} acts nontrivially on F_4"
    if must_contain is not None:
        if must_contain not in words:
            return f"{word_text(must_contain)!r} missing"
        if artin_trivial(4, must_contain):
            return f"{word_text(must_contain)!r} unexpectedly trivial in B4"
    return None


def check_mutate(out, path, gram, classes, ambient):
    """The collection written to ``path`` is (gram, classes) and the report agrees."""
    try:
        got_gram, got_classes = _collection_file(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output file: {exc}"
    if got_gram != gram:
        return "output Gram matrix differs from the reference"
    if got_classes != classes:
        return "output classes differ from the reference"
    if matmul(matmul(transpose(got_classes), ambient), got_classes) != got_gram:
        return "classes^T . ambient . classes != gram"
    lines = out.splitlines()
    upper = next((ln for ln in lines if ln.startswith("[PASS] gram upper entries:")), None)
    if upper is None or upper.split("actual=", 1)[1] != repr(upper_entries(gram)):
        return "report does not print the output's upper Gram entries"
    if any(ln.startswith("[FAIL]") for ln in lines):
        return "report has a failing line"
    return None


class WordInvariants:
    """Exponent sum, permutation and scaled Burau matrix of a braid word."""

    def __init__(self, strands, letters):
        self.strands = strands
        self.exponent_sum = sum(e for _, e in letters)
        self.perm = word_perm(strands, letters)
        self.burau, self.scale = burau_scaled(strands, letters)


def check_normal_form(out, ref):
    lines = out.splitlines()
    if len(lines) != 2:
        return f"expected two lines, got {len(lines)}"
    n = ref.strands
    k, factors = parse_normal_form(lines[0], n)
    w0 = tuple(range(n - 1, -1, -1))
    for f in factors:
        if f == tuple(range(n)) or f == w0:
            return "a factor is the identity or the half twist"
    for a, b in zip(factors, factors[1:]):
        pos = {v: i for i, v in enumerate(a)}
        starting = {i for i in range(n - 1) if b[i] > b[i + 1]}
        finishing = {i for i in range(n - 1) if pos[i + 1] < pos[i]}
        if not starting <= finishing:
            return "factors are not left weighted"
    letters = normal_form_letters(n, k, factors)
    if sum(e for _, e in letters) != ref.exponent_sum:
        return "exponent sums differ"
    if word_perm(n, letters) != ref.perm:
        return "permutation images differ"
    burau, scale = burau_scaled(n, letters)
    # t^scale B(nf) == t^ref.scale B(word) with t = 2
    lhs = [[x << ref.scale for x in row] for row in burau]
    rhs = [[x << scale for x in row] for row in ref.burau]
    if lhs != rhs:
        return "Burau matrices at t=2 differ"
    if lines[1] != f"trivial: {k == 0 and not factors}":
        return f"wrong triviality line {lines[1]!r}"
    return None


def check_region_strong(out, n):
    lines = out.splitlines()
    rows = []
    for line in lines[:-1]:
        coeffs, bound = line.strip("[]").split(" | ")
        rows.append((tuple(Fraction(x) for x in coeffs.split(",")), Fraction(bound)))
    expected = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            coeffs = [Fraction(0)] * (n + 1)
            coeffs[i], coeffs[j] = Fraction(1), Fraction(-1)
            expected.append((tuple(coeffs), Fraction(-(j - i - 1))))
    if rows != expected:
        return f"{len(rows)} rows printed, not the {len(expected)} rows phi_i - phi_j < -(j-i-1)"
    prefix = "feasible, witness: "
    if not lines[-1].startswith(prefix):
        return f"last line is not a witness: {lines[-1][:60]!r}"
    point = [Fraction(x) for x in lines[-1][len(prefix):].split(",")]
    for coeffs, bound in rows:
        if not sum(c * x for c, x in zip(coeffs, point)) < bound:
            return "witness violates a printed row"
    return None
