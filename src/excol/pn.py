"""Concrete K-theoretic input data for projective space.

Line bundle cohomology on P^n, Euler pairings between twists, the
collection {O, O(1), ..., O(n)} as a numerical collection, and the
matrices of the twist and of the Serre functor on K(P^n) in the basis
[O], [O(1)], ..., [O(n)].
"""

from __future__ import annotations

import math

from . import _matrix, collection
from ._matrix import IntMatrix
from .collection import NumericalCollection


def binom_poly(a: int, b: int) -> int:
    """The binomial polynomial a(a-1)...(a-b+1)/b!, valid for negative a."""
    if b < 0:
        raise ValueError("lower index must be nonnegative")
    num = 1
    for k in range(b):
        num *= a - k
    return num // math.factorial(b)


def line_bundle_cohomology(n: int, m: int, i: int) -> int:
    """dim H^i(P^n, O(m)).

    Nonzero only for i = 0 with m >= 0, where it is C(n+m, m), and for
    i = n with m <= -n-1, where it is C(-m-1, -n-m-1).
    """
    if n < 1:
        raise ValueError("projective space dimension must be at least 1")
    if not 0 <= i <= n:
        raise ValueError(f"cohomological degree {i} out of range for P^{n}")
    if i == 0 and m >= 0:
        return math.comb(n + m, m)
    if i == n and m <= -n - 1:
        return math.comb(-m - 1, -n - m - 1)
    return 0


def euler_chi_line(n: int, d: int) -> int:
    """chi(O(a), O(b)) for d = b - a; equals the polynomial C(n+d, n)."""
    return binom_poly(n + d, n)


def beilinson_collection(n: int) -> NumericalCollection:
    """The collection {O, O(1), ..., O(n)} with identity classes."""
    if n < 1:
        raise ValueError("projective space dimension must be at least 1")
    gram = [
        [euler_chi_line(n, j - i) if j >= i else 0 for j in range(n + 1)]
        for i in range(n + 1)
    ]
    return collection.from_gram(gram)


def twist_matrix(n: int) -> IntMatrix:
    """Matrix of - (x) O(1) on K(P^n) in the basis [O], ..., [O(n)].

    Columns 0..n-1 shift the basis.  The last column is the class of
    O(n+1), read off the exact Koszul complex
    0 -> O -> O(1)^C(n+1,1) -> ... -> O(n)^C(n+1,n) -> O(n+1) -> 0:
    [O(n+1)] = sum_k (-1)^(n-k) C(n+1, k) [O(k)].
    """
    last = [(-1) ** (n - k) * math.comb(n + 1, k) for k in range(n + 1)]
    cols = [[1 if r == c + 1 else 0 for r in range(n + 1)] for c in range(n)]
    cols.append(last)
    return _matrix.transpose(_matrix.freeze(cols))


def serre_class_map(n: int) -> IntMatrix:
    """Matrix of the Serre functor - (x) O(-n-1)[n] on K(P^n)."""
    tw_inv = _matrix.inverse_unimodular(twist_matrix(n))
    m = _matrix.mat_pow(tw_inv, n + 1)
    return m if n % 2 == 0 else _matrix.mat_neg(m)
