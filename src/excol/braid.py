"""Words in the Artin braid group and their left Garside normal form.

The braid group on ``strands`` strands is generated by sigma_0, ...,
sigma_{strands-2} subject to sigma_i sigma_{i+1} sigma_i =
sigma_{i+1} sigma_i sigma_{i+1} and far commutation.  A word is a
sequence of letters (generator index, exponent +-1) kept in textual
order; whenever a word acts on something the rightmost letter acts
first.

The word problem is decided through the classical Garside structure
(Epstein et al., Word Processing in Groups, ch. 9): every braid is
uniquely  D^k . p_1 . ... . p_m  where D is the positive half twist,
every factor p_i is a permutation braid other than the identity and D,
and each adjacent pair is left weighted.  Since D q = tau(q) D, the half
twists stay outside the factor list: the braid read so far is
D^s . fs . D^t  with fs left weighted.  sigma_i appends tau^t(sigma_i);
sigma_i^-1 = D^-1 (D sigma_i^-1) lowers t by one, then appends
tau^t(D sigma_i^-1).  Each append makes one right-to-left pass of pair
left-weightings that stops at the first pair it leaves unchanged.  A
factor that the pass turns into D moves to the nearer end, D^s or D^t,
conjugating by tau the factors it passes.  The form is
D^(s+t) . tau^t(fs).  Permutation braids are stored as permutations in
one-line notation, composed left to right (p then q) as in word order.
The pass reads them interned as small ints in one table, which fills on
read the factor each letter appends, the left-weighted pair of two ids
and tau of an id.  The table is replaced when a word has another strand
count, or when it holds more than 4096 permutations and pairs.  The
factors become permutations again once, for the ``GarsideForm``.  The
table is the module's only cache, and ``_left_weighted_pair`` is its one
left-weighting: it fills the table and checks a ``GarsideForm`` built
from outside input.  Words and forms derived from checked words are not
checked again.
"""

from __future__ import annotations

from ._value import Value

Perm = tuple[int, ...]
Letter = tuple[int, int]

_TOKEN_ALIASES = {"L": 1, "R": -1}

# The normal form's table may hold this many permutations and pairs
# before it is replaced; it bounds nothing else.  A 4-strand table holds
# at most 24 permutations and 576 pairs, while a long word on many
# strands would otherwise keep every permutation it ever visits.
_TABLE_LIMIT = 4096


class WordSyntaxError(ValueError):
    """Malformed braid word text or generator index out of range."""


def _check_strands(strands) -> None:
    if type(strands) is not int:
        raise ValueError(f"strands must be an int, got {strands!r}")
    if strands < 1:
        raise ValueError(f"strand count must be positive, got {strands}")


# ---------------------------------------------------------------------------
# permutation plumbing, word-order composition: (p * q)(x) = q(p(x))

def _identity_perm(n: int) -> Perm:
    return tuple(range(n))


def _w0(n: int) -> Perm:
    return tuple(range(n - 1, -1, -1))


def _gen(n: int, i: int) -> Perm:
    img = list(range(n))
    img[i], img[i + 1] = img[i + 1], img[i]
    return tuple(img)


def _mul(p: Perm, q: Perm) -> Perm:
    return tuple(q[i] for i in p)


def _inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _tau(p: Perm) -> Perm:
    """Conjugation by the half twist: D^-1 p D at the permutation level."""
    n = len(p)
    return tuple(n - 1 - p[n - 1 - j] for j in range(n))


def _left_weighted_pair(x: Perm, y: Perm) -> tuple[Perm, Perm]:
    """Shift weight leftward until the pair (x, y) is left weighted.

    Works on x^-1 and y as lists: sigma_i can move from y to x while
    y[i] > y[i+1] (it starts y) and x^-1[i] < x^-1[i+1] (it does not
    finish x), and moving it swaps entries i, i+1 of both lists.  The
    left-weighted pair is unique, so the order of the moves does not
    matter.
    """
    n = len(x)
    xi = list(_inv(x))
    ys = list(y)
    moved = False
    i = 0
    while i < n - 1:
        if ys[i] > ys[i + 1] and xi[i] < xi[i + 1]:
            ys[i], ys[i + 1] = ys[i + 1], ys[i]
            xi[i], xi[i + 1] = xi[i + 1], xi[i]
            moved = True
            if i:
                i -= 1  # the swap may have made sigma_{i-1} movable
        else:
            i += 1
    if not moved:
        return x, y
    return _inv(xi), tuple(ys)


# ---------------------------------------------------------------------------
# words

class BraidWord(Value):
    """A word in the Artin generators, letters in textual order."""

    _fields = __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[Letter, ...] = ()):
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)
        self.__post_init__()

    def __post_init__(self):
        _check_strands(self.strands)
        if type(self.letters) is not tuple:
            raise ValueError(f"letters must be a tuple, got {type(self.letters).__name__}")
        top = self.strands - 1
        for let in self.letters:
            if type(let) is not tuple:
                raise ValueError(f"letters must hold tuples, got {let!r}")
            if len(let) != 2 or type(let[0]) is not int or type(let[1]) is not int:
                raise ValueError(f"letter {let!r} must be a pair of ints")
            i, e = let
            if not 0 <= i < top:
                raise WordSyntaxError(
                    f"generator index {i} out of range for {self.strands} strands"
                )
            if e not in (1, -1):
                raise ValueError(f"letter exponent must be +-1, got {e}")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("cannot multiply words on different strand counts")
        return BraidWord._derived(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord._derived(
            self.strands, tuple((i, -e) for i, e in reversed(self.letters))
        )

    def __pow__(self, k: int) -> "BraidWord":
        base = self if k >= 0 else self.inverse()
        return BraidWord._derived(self.strands, base.letters * abs(k))

    def free_reduce(self) -> "BraidWord":
        """Cancel adjacent sigma_i sigma_i^-1 pairs until none remain."""
        stack: list[Letter] = []
        for let in self.letters:
            if stack and stack[-1][0] == let[0] and stack[-1][1] == -let[1]:
                stack.pop()
            else:
                stack.append(let)
        return BraidWord._derived(self.strands, tuple(stack))

    def to_text(self) -> str:
        return " ".join(("L" if e == 1 else "R") + str(i) for i, e in self.letters)


def parse_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated tokens ``L<i>`` / ``R<i>`` / ``s<i>`` / ``s<i>^-1``.

    ``L<i>`` and ``s<i>`` mean sigma_i, ``R<i>`` and ``s<i>^-1`` mean its
    inverse, with ``<i>`` in ASCII digits.  Letters are kept in textual
    order; the rightmost acts first.  Generator indices are checked once
    every token has parsed, so a malformed token is reported first.  The
    loop checks all that ``BraidWord`` would, so the word is built once,
    by ``_derived``.
    """
    _check_strands(strands)
    letters: list[Letter] = []
    out_of_range = None
    for token in text.split():
        kind = token[0]
        if kind in _TOKEN_ALIASES:
            body, exp = token[1:], _TOKEN_ALIASES[kind]
        elif kind == "s":
            if token.endswith("^-1"):
                body, exp = token[1:-3], -1
            else:
                body, exp = token[1:], 1
        else:
            raise WordSyntaxError(f"malformed token {token!r}")
        if not (body.isascii() and body.isdigit()):
            raise WordSyntaxError(f"malformed token {token!r}")
        digits = body.lstrip("0") or "0"
        # an index longer than the strand count is out of range; int() never sees it
        if len(digits) > len(str(strands)) or int(digits) > strands - 2:
            out_of_range = out_of_range or digits
        else:
            letters.append((int(digits), exp))
    if out_of_range:
        raise WordSyntaxError(f"generator index {out_of_range} out of range for {strands} strands")
    return BraidWord._derived(strands, tuple(letters))


def delta_word() -> BraidWord:
    """The half twist on 4 strands, written as (s0 s1 s2)(s0 s1) s0."""
    return parse_word("L0 L1 L2 L0 L1 L0", 4)


def center_word() -> BraidWord:
    """Generator (s0 s1 s2)^4 of the center of the 4-strand group."""
    return parse_word("L0 L1 L2", 4) ** 4


# ---------------------------------------------------------------------------
# normal forms

class GarsideForm(Value):
    """Left Garside normal form D^infimum . factors, factors left weighted."""

    _fields = __slots__ = ("strands", "infimum", "factors")

    def __init__(self, strands: int, infimum: int, factors: tuple[Perm, ...] = ()):
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "infimum", infimum)
        object.__setattr__(self, "factors", factors)
        self.__post_init__()

    def __post_init__(self):
        _check_strands(self.strands)
        if type(self.infimum) is not int:
            raise ValueError(f"infimum must be an int, got {self.infimum!r}")
        w0 = _w0(self.strands)
        e = _identity_perm(self.strands)
        if type(self.factors) is not tuple:
            raise ValueError(f"factors must be a tuple, got {type(self.factors).__name__}")
        for f in self.factors:
            if type(f) is not tuple:
                raise ValueError(f"factors must hold tuples, got {f!r}")
            if tuple(sorted(f)) != e:
                raise ValueError(f"factor {f!r} is not a permutation of {self.strands} strands")
            if f == e or f == w0:
                raise ValueError("factors may not be trivial or the half twist")
        for a, b in zip(self.factors, self.factors[1:]):
            if _left_weighted_pair(a, b)[0] is not a:
                raise ValueError("factors are not left weighted")

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    def is_trivial(self) -> bool:
        return self.infimum == 0 and not self.factors

    def word(self) -> BraidWord:
        """Some braid word representing the same group element."""
        letters: list[Letter] = []
        half = [(i, 1) for i in _factor_letters(_w0(self.strands))]
        if self.infimum >= 0:
            letters.extend(half * self.infimum)
        else:
            inv_half = [(i, -1) for i, _ in reversed(half)]
            letters.extend(inv_half * (-self.infimum))
        for f in self.factors:
            letters.extend((i, 1) for i in _factor_letters(f))
        return BraidWord._derived(self.strands, tuple(letters))

    def __str__(self) -> str:
        parts = [f"D^{self.infimum}"]
        parts.extend(_one_line(f) for f in self.factors)
        return " . ".join(parts)


def _factor_letters(p: Perm) -> list[int]:
    """A reduced positive word for a permutation braid (generator indices):
    the swaps of an insertion sort, each at the first descent left."""
    word = []
    p = list(p)
    for j in range(1, len(p)):
        while j and p[j - 1] > p[j]:
            p[j - 1], p[j] = p[j], p[j - 1]
            j -= 1
            word.append(j)
    return word


def _one_line(p: Perm) -> str:
    return "(" + " ".join(str(v + 1) for v in p) + ")"


class _Filled(dict):
    """A dict that computes a missing value as ``fill(key)`` and keeps it."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Table:
    """The permutations of one strand count that normal forms met, interned as ids.

    Ids index ``perms``; the identity is id 0.  ``tau`` maps an id to the
    id of tau of its permutation, ``factors`` maps a letter to the id of
    the factor it appends while t is even (tau of it while t is odd), and
    ``pairs`` maps two ids to the ids of their left-weighted pair.  Each
    fills a missing entry from ``_tau``, ``_gen`` and ``_mul``, or
    ``_left_weighted_pair`` when it is first read.
    """

    __slots__ = ("n", "perms", "ids", "tau", "factors", "pairs", "w0")

    def __init__(self, n: int):
        self.n = n
        self.perms: list[Perm] = []
        self.ids: dict[Perm, int] = {}
        self.tau = _Filled(self._tau_id)
        self.factors = _Filled(self._factor_id)
        self.pairs = _Filled(self._pair_ids)
        self.intern(_identity_perm(n))
        self.w0 = self.intern(_w0(n))

    def intern(self, p: Perm) -> int:
        k = self.ids.get(p)
        if k is None:
            k = self.ids[p] = len(self.perms)
            self.perms.append(p)
        return k

    def _tau_id(self, k: int) -> int:
        t = self.intern(_tau(self.perms[k]))
        self.tau[t] = k  # tau is an involution
        return t

    def _factor_id(self, letter: Letter) -> int:
        """sigma_i, or D sigma_i^-1 for an inverse letter."""
        i, sign = letter
        q = _gen(self.n, i)
        if sign < 0:
            q = _mul(_w0(self.n), q)
        return self.intern(q)

    def _pair_ids(self, pair: tuple[int, int]) -> tuple[int, int]:
        x, y = pair
        px = self.perms[x]
        nx, ny = _left_weighted_pair(px, self.perms[y])
        # a pair that is left weighted already comes back as it went in
        return pair if nx is px else (self.intern(nx), self.intern(ny))

    def __len__(self) -> int:
        return len(self.perms) + len(self.pairs)


# The table of the strand count in use; normal_form replaces it when a
# word has another strand count or the table has grown past _TABLE_LIMIT.
_TABLE = _Table(4)


def normal_form(w: BraidWord) -> GarsideForm:
    """The unique left Garside normal form of the word, computed over interned ids."""
    global _TABLE
    n = w.strands
    table = _TABLE
    if table.n != n or len(table) > _TABLE_LIMIT:
        table = _TABLE = _Table(n)
    tau, pairs, factors, w0 = table.tau, table.pairs, table.factors, table.w0
    tau_of = tau.__getitem__
    s = t = 0
    fs: list[int] = []  # the braid read so far is D^s . fs . D^t; the identity is id 0
    for letter in w.letters:
        if letter[1] < 0:
            # sigma_i^-1 = D^-1 (D sigma_i^-1), the parenthesis is positive
            t -= 1
        # D^t q = tau^t(q) D^t
        q = factors[letter]
        if t & 1:
            q = tau[q]
        if q == w0:  # only on 2 strands, where the identity is popped below
            t += 1
            continue
        fs.append(q)
        k = len(fs) - 2
        while k >= 0:
            x = fs[k]
            nx, ny = pairs[x, q]
            if nx == x:
                break
            fs[k + 1] = ny
            if nx == w0:
                del fs[k]
                if 2 * k < len(fs):  # D leaves by the nearer end
                    s += 1
                    fs[:k] = map(tau_of, fs[:k])
                else:
                    t += 1
                    fs[k:] = map(tau_of, fs[k:])
                break
            fs[k] = q = nx
            k -= 1
        if not fs[-1]:
            fs.pop()
    if t & 1:
        fs = map(tau_of, fs)
    return GarsideForm._derived(n, s + t, tuple(map(table.perms.__getitem__, fs)))


def is_trivial(w: BraidWord) -> bool:
    """Decide the word problem: true iff w is the identity braid."""
    return normal_form(w).is_trivial()
