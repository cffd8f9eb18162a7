"""Integer six-tuple invariants of collections on P^3 and the group acting on them.

A collection of four objects maps to the six strictly upper entries of
its Gram matrix.  Tuples coming from collections satisfy a Markov-type
Diophantine equation, carry an action of a finitely presented group
generated by letters v, w2, w3, and the map intertwines mutations with
that action after passing to the dual collection.  This module also
provides bounded orbit enumeration and a stabilizer scan used as finite
evidence for the freeness of the mutation action.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Union

from . import _matrix
from ._value import Value
from .braid import BraidWord, Letter, delta_word
from .collection import NumericalCollection, _rank2, apply_word, unipotent_grams


class CapExceededError(RuntimeError):
    """An enumeration hit its element cap; partial results are attached."""

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial


class SixTuple(NamedTuple):
    """Strictly upper Gram entries (a01, a02, a03, a12, a13, a23)."""

    a01: int
    a02: int
    a03: int
    a12: int
    a13: int
    a23: int


SEED_DUAL = SixTuple(4, 6, 4, 4, 6, 4)
SEED_BEILINSON = SixTuple(4, 10, 20, 4, 10, 4)

V, W2, W2_INV, W3 = "v", "w2", "w2^-1", "w3"
G_LETTERS = (V, W2, W2_INV, W3)


def t_map(c: NumericalCollection) -> SixTuple:
    """Read off the six-tuple of a collection of four objects."""
    if c.n != 3:
        raise ValueError(f"t_map needs a collection of 4 objects, got {c.n + 1}")
    return SixTuple(*c.upper_entries())


def tuple_gram(t: SixTuple) -> _matrix.IntMatrix:
    """The unitriangular Gram matrix determined by a six-tuple."""
    a01, a02, a03, a12, a13, a23 = t
    return (
        (1, a01, a02, a03),
        (0, 1, a12, a13),
        (0, 0, 1, a23),
        (0, 0, 0, 1),
    )


def eval_eq1(t: SixTuple) -> int:
    """Left side of the first unipotency equation; zero on valid tuples."""
    a01, a02, a03, a12, a13, a23 = t
    return (
        a01 * a01 + a02 * a02 + a03 * a03 + a12 * a12 + a13 * a13 + a23 * a23
        - a01 * a12 * a02 - a01 * a13 * a03 - a02 * a23 * a03 - a12 * a23 * a13
        + a01 * a12 * a23 * a03 - 8
    )


def eval_eq2(t: SixTuple, variant: str = "corrected") -> int:
    """Left side of the second unipotency equation.

    ``printed`` evaluates the equation exactly as typeset (second term
    a02^2 a12^2); ``corrected`` uses a02^2 a13^2 instead, which vanishes
    on the seed tuples and agrees with the unipotency oracle.
    """
    a01, a02, a03, a12, a13, a23 = t
    if variant == "printed":
        second = a02 * a02 * a12 * a12
    elif variant == "corrected":
        second = a02 * a02 * a13 * a13
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return (
        a01 * a01 * a23 * a23 + second + a03 * a03 * a12 * a12
        - 2 * a01 * a13 * a02 * a23 - 2 * a02 * a12 * a03 * a13
        + 2 * a01 * a12 * a23 * a03 - 16
    )


def unipotency_oracle(t: SixTuple) -> bool:
    """Ground truth: rebuild the Gram matrix G and test (kappa+1)^4 = 0.

    A one-tuple call of ``collection.unipotent_grams``: kappa = G^-1 G^T
    comes from the one batched back substitution, the identity is added
    to it and the fourth power of kappa + 1 is tested for zero; no
    collection is built.  Many tuples are cheaper through
    ``unipotency_oracles``.
    """
    return unipotent_grams([tuple_gram(t)])[0]


def unipotency_oracles(ts: Iterable[SixTuple]) -> list[bool]:
    """``unipotency_oracle`` of each tuple, in order, by one batched kernel call."""
    return unipotent_grams(map(tuple_gram, ts))


# ---------------------------------------------------------------------------
# the group action on six-tuples

def apply_g(t: SixTuple, letter: str) -> SixTuple:
    """Apply one generator of the tuple group."""
    a01, a02, a03, a12, a13, a23 = t
    if letter == V:
        return SixTuple(a01, a03, a02, a01 * a03 - a13, a01 * a02 - a12, a23)
    if letter == W2:
        return SixTuple(a03, a13, a23, a01, a02, a12)
    if letter == W2_INV:
        return SixTuple(a12, a13, a01, a23, a02, a03)
    if letter == W3:
        return SixTuple(a23, a13, a03, a12, a02, a01)
    raise ValueError(f"unknown group letter {letter!r}")


class GWord(Value):
    """Word over the alphabet {v, w2, w2^-1, w3}, textual order."""

    _fields = __slots__ = ("letters",)

    def __init__(self, letters: tuple[str, ...] = ()):
        object.__setattr__(self, "letters", letters)
        self.__post_init__()

    def __post_init__(self):
        if type(self.letters) is not tuple:
            raise ValueError(f"letters must be a tuple, got {type(self.letters).__name__}")
        for let in self.letters:
            if let not in G_LETTERS:
                raise ValueError(f"unknown group letter {let!r}")

    def inverse(self) -> "GWord":
        inv = {V: (V,), W3: (W3,), W2: (W2_INV,), W2_INV: (W2,)}
        out: list[str] = []
        for let in reversed(self.letters):
            out.extend(inv[let])
        return GWord._derived(tuple(out))

    def apply(self, t: SixTuple) -> SixTuple:
        """Act on a tuple, rightmost letter first."""
        for let in reversed(self.letters):
            t = apply_g(t, let)
        return t


_R_IMAGES = {
    0: (W2, W2, V, W3),
    1: (W2, V, W3, W2),
    2: (V, W3, W2, W2),
}
_L_IMAGES = {i: GWord(img).inverse().letters for i, img in _R_IMAGES.items()}


def f_image(w: BraidWord) -> GWord:
    """Image of a braid word under the homomorphism to the tuple group.

    sigma_i^-1 maps by the displayed rule for a right mutation;
    sigma_i^+1 maps to the formal inverse of that rule.  Letter order is
    preserved, so the image acts rightmost first exactly like the word.
    """
    if w.strands != 4:
        raise ValueError("the homomorphism is defined on the 4-strand group")
    letters: list[str] = []
    for i, e in w.letters:
        letters.extend(_R_IMAGES[i] if e == -1 else _L_IMAGES[i])
    return GWord._derived(tuple(letters))


_DELTA = delta_word()


def check_equivariance(c: NumericalCollection, *words: BraidWord) -> bool:
    """Check T(delta(w(c))) == f(w) . T(delta(c)) exactly for every word w.

    T(delta(c)) is computed once and serves every word, so one call with
    several words does the work of one call per word minus the repeated
    half twist of c.  True when no word is given; raises ValueError
    unless c has 4 objects, with or without words.
    """
    if c.n != 3:
        raise ValueError("equivariance is a statement about collections of 4 objects")
    base = t_map(apply_word(c, _DELTA))
    return all(
        t_map(apply_word(apply_word(c, w), _DELTA)) == f_image(w).apply(base) for w in words
    )


# ---------------------------------------------------------------------------
# orbits and stabilizers

def _letters_for(n: int) -> tuple[Letter, ...]:
    """The mutation alphabet L_0..L_{n-1}, R_0..R_{n-1} of n+1 objects."""
    return tuple((i, 1) for i in range(n)) + tuple((i, -1) for i in range(n))


MUTATION_LETTERS = _letters_for(3)

OrbitSeed = Union[SixTuple, NumericalCollection]

# Default caps (orbit members, stabilizer words); the CLI's --cap reads them too.
ORBIT_CAP = 100_000
STABILIZER_CAP = 1_000_000


def orbit(seed: OrbitSeed, depth: int, cap: int = ORBIT_CAP) -> dict:
    """Breadth-first closure of a seed under its generating letters.

    Each seed type has one step, ``step(element, letter)``: collections
    expand under their mutation letters through the rank-2 kernel
    ``collection._rank2``, which returns a bare (gram, classes) pair, and
    tuples under the four group letters through ``apply_g``.  A pair
    hashes and compares like the collection holding it, so only a new
    member becomes a ``NumericalCollection``.  Returns an
    insertion-ordered mapping from each distinct element to the depth at
    which it first appeared; raises CapExceededError (with the partial
    mapping attached) past ``cap``.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if isinstance(seed, SixTuple):
        letters, step, member = G_LETTERS, apply_g, SixTuple._make
    elif isinstance(seed, NumericalCollection):
        letters, step, member = _letters_for(seed.n), _rank2, NumericalCollection._make
    else:
        raise TypeError(f"cannot enumerate an orbit of {type(seed).__name__}")

    seen: dict = {seed: 0}
    frontier = [seed]
    for level in range(1, depth + 1):
        new: list = []
        for elem in frontier:
            for letter in letters:
                img = step(elem, letter)
                if img not in seen:
                    if len(seen) >= cap:
                        raise CapExceededError(
                            f"orbit exceeded cap of {cap} elements", seen
                        )
                    img = member(img)
                    seen[img] = level
                    new.append(img)
        if not new:
            break
        frontier = new
    return seen


def stabilizer_scan(
    c: NumericalCollection, max_len: int, cap: int = STABILIZER_CAP
) -> list[BraidWord]:
    """All freely reduced words up to ``max_len`` fixing (gram, classes).

    Meets in the middle, one length m at a time: the freely reduced
    sequences of k = ceil(m/2) mutation letters are applied one at a
    time by the rank-2 kernel, ``collection._rank2(pair, letter)`` on
    bare (gram, classes) pairs, and those of j = floor(m/2) letters are indexed by the pair they
    reach.  A word whose applied letters are y then v, with len(y) = k,
    fixes the pair exactly when y reaches the same pair as the sequence u
    of the inverses of v's letters, applied in reverse; the word is
    freely reduced exactly when the last applied letters of y and u
    differ.  A ``BraidWord`` is built only for such a match.  The empty
    word is omitted.  Results come back sorted by length then letters.

    ``cap`` bounds the freely reduced words covered: with 2n letters
    there are N(L) = sum_{k=1..L} 2n (2n-1)^(k-1) of length 1..L.  If
    N(max_len) > max(cap, 0), raises CapExceededError with the complete
    sorted result for the largest L' with N(L') <= cap attached.  Each
    half-sequence keeps its predecessor and last letter, and only the
    deepest level keeps the pairs it reaches: within a small factor of
    sqrt(cap) pairs with 4 or more letters, two with the 2 letters of a
    2-object collection (N(L) = 2L, so up to cap/4 levels of two
    sequences each).  Raises ValueError if ``max_len`` is negative.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    # letter code k stands for alphabet[k]; the inverse of code k is k ^ 1,
    # and codes compare as the letters do
    alphabet = sorted(_letters_for(c.n))
    a = len(alphabet)
    if not a:  # a single object admits no mutation: N = 0
        return []
    # steps[k]: (index of the predecessor in steps[k-1], last applied code)
    # for each freely reduced sequence of k applied letters; pairs: the pair
    # each sequence of the deepest level reaches; index: the positions in
    # steps[j] of each pair that level j reaches, built once per level (at
    # m = 1 for level 0, at m = 2j for the others)
    steps = [[(-1, -1)]]
    pairs = [(c.gram, c.classes)]

    def applied(k: int, pos: int) -> list[int]:
        """The codes applied by steps[k][pos], last first."""
        out = []
        while k:
            pos, code = steps[k][pos]
            out.append(code)
            k -= 1
        return out

    found: list[BraidWord] = []
    covered = 0
    for m in range(1, max_len + 1):
        covered += a * (a - 1) ** (m - 1)
        if covered > cap:
            raise CapExceededError(f"stabilizer scan exceeded cap of {cap} words", found)
        k, j = (m + 1) // 2, m // 2
        if m == 1 or m == 2 * j:
            index: dict = {}
            for pos, pair in enumerate(pairs):
                index.setdefault(pair, []).append(pos)
        if k == len(steps):
            steps.append([
                (p, code)
                for p, (_, last) in enumerate(steps[-1])
                for code in range(a)
                if code != last ^ 1
            ])
            pairs = [_rank2(pairs[p], alphabet[code]) for p, code in steps[-1]]
        spellings = []
        for pos, (pair, (_, last)) in enumerate(zip(pairs, steps[k])):
            # the seam is freely reduced when the last applied codes differ
            matches = [u for u in index.get(pair, ()) if steps[j][u][1] != last]
            if not matches:
                continue
            tail = applied(k, pos)
            for upos in matches:
                # textual order: the inverses of u's codes in applied order,
                # then y's codes last applied first
                head = [code ^ 1 for code in applied(j, upos)]
                head.reverse()
                spellings.append(tuple(head + tail))
        spellings.sort()
        found.extend(BraidWord._derived(c.strands, tuple(map(alphabet.__getitem__, w)))
                     for w in spellings)
    return found
