"""Exceptional collections reduced to exact integer data.

A collection of n+1 objects is stored through the Gram matrix of the
Euler form chi in the collection basis together with the unimodular
integer matrix whose column j expresses the class of the j-th object in
a fixed ambient basis of the K group.  A mutation of the pair
(E_i, E_{i+1}) is a unimodular operation on two columns, and one rule
serves both sides.  Let a = chi(E_i, E_{i+1}) and name the slots
(p, q) = (i, i+1) for a left mutation, (i+1, i) for a right one: the
rule sends the entries (x_p, x_q) to (a*x_p - x_q, x_p).  The classes
take it on their column pair; the Gram matrix transforms by congruence,
the rule on its column pair and then on its row pair.  One step
therefore costs O(n) entry updates.  The rule runs in place on lists of
row lists; a single step copies a pair's rows and freezes them back to
tuples, and a word copies once, runs the rule for every letter and
freezes once.  All arithmetic is arbitrary-precision integer.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Sequence

from . import _matrix
from ._matrix import IntMatrix
from .braid import BraidWord, Letter


class NumericalCollection(NamedTuple):
    """Euler-form Gram matrix and K-theory classes."""

    gram: IntMatrix
    classes: IntMatrix

    @property
    def n(self) -> int:
        return len(self.gram) - 1

    @property
    def strands(self) -> int:
        return len(self.gram)

    def upper_entries(self) -> tuple[int, ...]:
        """The strictly upper Gram entries, row by row."""
        n1 = len(self.gram)
        return tuple(
            self.gram[i][j] for i in range(n1) for j in range(i + 1, n1)
        )


def conserves_pairing(c: NumericalCollection, form: IntMatrix) -> bool:
    """Check classes^T . form . classes == gram for an Euler form on the K group."""
    ct = _matrix.transpose(c.classes)
    return _matrix.mat_mul(_matrix.mat_mul(ct, form), c.classes) == c.gram


def _int_entries(rows, what: str) -> IntMatrix:
    """Freeze a matrix whose entries are all ints; floats and bools are rejected."""
    m = _matrix.freeze(rows)
    if any(type(x) is not int for row in m for x in row):
        raise ValueError(f"{what} entries must be integers")
    return m


def from_gram(gram) -> NumericalCollection:
    """Build a collection with identity classes from its integer Gram matrix."""
    g = _int_entries(gram, "gram")
    if not _matrix.is_upper_unitriangular(g):
        raise ValueError("gram matrix must be upper triangular with unit diagonal")
    return NumericalCollection(g, _matrix.identity(len(g)))


def _rank2_rows(gram: list, classes: list, letter: Letter) -> None:
    """One letter (i, side) on lists of row lists, in place, by the rule of the module docstring.

    Side +1, a left mutation, takes slots (p, q) = (i, i+1); side -1, a
    right one, takes (i+1, i).  Every row of both matrices takes the rule
    at (p, q), then so do the Gram rows: row p becomes a*row_p - row_q
    and row q becomes row_p.  Rows must be distinct lists.  The index is
    not checked.
    """
    i, side = letter
    p, q = (i, i + 1) if side == 1 else (i + 1, i)
    a = gram[i][i + 1]
    for row in gram:
        row[p], row[q] = a * row[p] - row[q], row[p]
    for row in classes:
        row[p], row[q] = a * row[p] - row[q], row[p]
    gram[p], gram[q] = [a * x - y for x, y in zip(gram[p], gram[q])], gram[p]


def _rank2(pair: tuple[IntMatrix, IntMatrix], letter: Letter) -> tuple[IntMatrix, IntMatrix]:
    """One letter on a frozen (gram, classes) pair, by ``_rank2_rows`` on a copy.

    A ``NumericalCollection`` is such a pair.  The index is not checked.
    """
    gram, classes = list(map(list, pair[0])), list(map(list, pair[1]))
    _rank2_rows(gram, classes, letter)
    return tuple(map(tuple, gram)), tuple(map(tuple, classes))


def _mutate(c: NumericalCollection, i: int, side: int) -> NumericalCollection:
    """Mutate the pair (i, i+1); side=+1 left, -1 right."""
    if not 0 <= i <= c.n - 1:
        raise IndexError(f"mutation index {i} out of range for n={c.n}")
    return NumericalCollection(*_rank2(c, (i, side)))


def left_mutation(c: NumericalCollection, i: int) -> NumericalCollection:
    """Replace (E_i, E_{i+1}) by (L E_{i+1}, E_i) at the class level."""
    return _mutate(c, i, 1)


def right_mutation(c: NumericalCollection, i: int) -> NumericalCollection:
    """Replace (E_i, E_{i+1}) by (E_{i+1}, R E_i) at the class level."""
    return _mutate(c, i, -1)


def apply_word(c: NumericalCollection, w: BraidWord) -> NumericalCollection:
    """Act by a braid word, rightmost letter first; sigma_i is a left mutation."""
    if w.strands != c.strands:
        raise ValueError(
            f"word on {w.strands} strands cannot act on a collection of {c.strands} objects"
        )
    # indices were checked when w was built; the rows are copied once and frozen once
    gram, classes = list(map(list, c.gram)), list(map(list, c.classes))
    for letter in reversed(w.letters):
        _rank2_rows(gram, classes, letter)
    return NumericalCollection(tuple(map(tuple, gram)), tuple(map(tuple, classes)))


def _serre_block(block: Sequence[IntMatrix]) -> list:
    """kappa = G^-1 G^T of every gram G in a block of upper unitriangular grams.

    Entry (i, j) of the result is a list over the block.  Back substitution,
    bottom up: row i of kappa is row i of G^T minus g[i][k] times row k of
    kappa for every k > i, in exact integers.
    """
    # g[i][j] holds entry (i, j) of every gram in the block
    g = [list(zip(*rows)) for rows in zip(*block)]
    n1 = len(g)
    x: list = [None] * n1
    for i in range(n1 - 1, -1, -1):
        gi = g[i]
        row = []
        for col in range(n1):
            acc = g[col][i]
            for k in range(i + 1, n1):
                acc = map(sub, acc, map(mul, gi[k], x[k][col]))
            row.append(list(acc))
        x[i] = row
    return x


def serre_matrix(c: NumericalCollection) -> IntMatrix:
    """The Serre functor's action on the K group: kappa = gram^-1 . gram^T, exact."""
    return tuple(tuple(e[0] for e in row) for row in _serre_block([c.gram]))


_BLOCK = 256  # grams per pass: the kernel holds one block's entry lists at a time


def _block_mul(a: list, b: list) -> list:
    """Product of block matrices whose entries are lists over one block of grams."""
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            terms = zip(row, col)
            x, y = next(terms)
            acc = map(mul, x, y)
            for x, y in terms:
                acc = map(add, acc, map(mul, x, y))
            out_row.append(list(acc))
        out.append(out_row)
    return out


def _nilpotent(x: list, count: int) -> list[bool]:
    """Whether each of the ``count`` members of a block matrix is nilpotent.

    Entry (i, j) of ``x`` is a list over the block.  A k x k matrix is
    nilpotent iff its 2^j-th power vanishes for 2^j >= k, so ``x`` is
    squared ceil(log2(k)) times and tested for zero, in exact integers.
    """
    for _ in range((len(x) - 1).bit_length()):
        x = _block_mul(x, x)
    # a 0 x 0 block has no entries; its members are the empty matrix, which is zero
    return [not any(e) for e in zip(*chain.from_iterable(x))] or [True] * count


def unipotent_grams(grams: Iterable[IntMatrix]) -> list[bool]:
    """For each upper unitriangular gram, whether (kappa + 1)^(n+1) vanishes.

    kappa comes from the one batched back substitution, ``_serre_block``,
    the identity is added to its diagonal, and the one nilpotency test,
    ``_nilpotent``, decides the block; the pn suite's check of
    ((-1)^(n+1) kappa + 1)^(n+1) is its other caller.  Grams are drawn
    ``_BLOCK`` at a time and each matrix entry is held as a list over the
    block, so one ``map`` over two entry lists serves the whole block.
    Results come back in input order.  Raises ValueError unless all grams
    are k x k for one k.
    """
    grams = iter(grams)
    out: list[bool] = []
    sizes: set[int] = set()  # row counts and row lengths seen so far
    while block := list(islice(grams, _BLOCK)):
        sizes.update(map(len, block), map(len, chain.from_iterable(block)))
        if len(sizes) > 1:
            raise ValueError("gram matrices must all be k x k")
        x = _serre_block(block)
        for i, row in enumerate(x):
            row[i] = [v + 1 for v in row[i]]
        out += _nilpotent(x, len(block))
    return out


def is_minus_kappa_unipotent(c: NumericalCollection) -> bool:
    """True iff (kappa + 1)^(n+1) vanishes, by ``unipotent_grams`` on a block of one."""
    return unipotent_grams([c.gram])[0]


def is_strong_candidate(c: NumericalCollection) -> bool:
    """True iff every strictly upper Gram entry is positive.

    Positivity means the chi values can be honest Hom dimensions and no
    pair is orthogonal; this is the numerical shadow of strongness.
    """
    return all(x > 0 for x in c.upper_entries())


# ---------------------------------------------------------------------------
# file format

def to_json_text(c: NumericalCollection) -> str:
    """Serialize as the collection file format (one JSON object)."""
    n1 = len(c.gram)
    classes = (
        "identity" if c.classes == _matrix.identity(n1)
        else [list(row) for row in c.classes]
    )
    payload = {"n": c.n, "gram": [list(row) for row in c.gram], "classes": classes}
    with _matrix.unlimited_int_digits():
        return json.dumps(payload, separators=(",", ":")) + "\n"


def _square_array(raw, size: int, what: str) -> list:
    """Check that a JSON value is a size x size array of arrays."""
    if not isinstance(raw, list) or any(not isinstance(row, list) for row in raw):
        raise ValueError(f"malformed collection file: {what} must be an array of arrays")
    if len(raw) != size or any(len(row) != size for row in raw):
        raise ValueError(f"{what} matrix must be {size}x{size} for n={size - 1}")
    return raw


def from_json_text(text: str) -> NumericalCollection:
    """Parse the collection file format.

    Every number must be a JSON integer and the classes unimodular.
    """
    try:
        with _matrix.unlimited_int_digits():
            payload = json.loads(text)
    except RecursionError as exc:  # arrays nested past the interpreter's stack
        raise ValueError(f"malformed collection file: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("malformed collection file: expected a JSON object")
    for key in ("n", "gram", "classes"):
        if key not in payload:
            raise ValueError(f"malformed collection file: missing key {key!r}")
    n, raw_gram, raw_classes = payload["n"], payload["gram"], payload["classes"]
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    c = from_gram(_square_array(raw_gram, n + 1, "gram"))
    if raw_classes == "identity":
        return c
    classes = _int_entries(_square_array(raw_classes, n + 1, "classes"), "classes")
    det = _matrix.determinant(classes)
    if det not in (1, -1):
        raise ValueError("classes matrix is " + ("not unimodular" if det else "singular"))
    return NumericalCollection(c.gram, classes)


def load(path) -> NumericalCollection:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_text(fh.read())


def save(c: NumericalCollection, path) -> None:
    """Write the collection file; serializing first leaves the target intact on error."""
    text = to_json_text(c)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
