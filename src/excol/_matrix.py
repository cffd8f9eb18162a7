"""Exact arithmetic on small square matrices.

Matrices are immutable tuples of row tuples.  Integer matrices stay
integer: the one elimination, ``determinant``, is fraction free, and
no floating point is used anywhere.  The Serre matrix G^-1 G^T of an
upper unitriangular Gram matrix G needs no elimination; its back
substitution lives with the Gram kernels in ``collection``, and so
does the one nilpotency test, ``collection._nilpotent``, which
``unipotent_grams`` and the pn suite's check of
((-1)^(n+1) kappa + 1)^(n+1) both call.
"""

from __future__ import annotations

import contextlib
import functools
import operator
import sys
from typing import Sequence

IntMatrix = tuple[tuple[int, ...], ...]


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift CPython's int<->str digit limit for a block, then restore it.

    Mutation entries outgrow the default limit of 4300 digits after a
    few dozen letters; exact text I/O must still round-trip them.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def freeze(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Copy a matrix-like object into nested tuples."""
    return tuple(tuple(row) for row in rows)


@functools.lru_cache(maxsize=8)  # immutable, so one copy per size serves every caller
def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: IntMatrix) -> IntMatrix:
    return tuple(zip(*a))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = transpose(b)
    mul = operator.mul
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_neg(a: IntMatrix) -> IntMatrix:
    return tuple(tuple(-x for x in row) for row in a)


def is_upper_unitriangular(a: IntMatrix) -> bool:
    n = len(a)
    if any(len(row) != n for row in a):
        return False
    return all(
        (a[i][j] == (1 if i == j else 0)) for i in range(n) for j in range(i + 1)
    )


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free elimination (Bareiss 1968).

    Each step replaces every row r below the pivot row by
    (p * r - m * pivot_row) / p_prev, where p is the new pivot, m the
    entry of r in the pivot column and p_prev the previous pivot.  Every
    entry is then a minor of a, so the division is exact and entries stay
    integers no longer than those minors.  The last pivot is det(a) up to
    the sign of the row swaps.
    """
    m = [list(row) for row in a]
    n = len(m)
    prev, sign = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        top = m[col]
        p = top[col]
        for r in range(col + 1, n):
            row = m[r]
            f = row[col]
            m[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return sign * prev

