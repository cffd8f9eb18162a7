"""Concrete K-theoretic input data for projective space.

Line bundle cohomology on P^n, Euler pairings between twists, the
collection {O, O(1), ..., O(n)} as a numerical collection, and the
matrices of the twists - (x) O(m) and of the Serre functor on K(P^n) in
the basis [O], [O(1)], ..., [O(n)], all from one closed form.
"""

from __future__ import annotations

import math

from . import _matrix, collection
from ._matrix import IntMatrix
from .collection import NumericalCollection


def binom_poly(a: int, b: int) -> int:
    """The binomial polynomial a(a-1)...(a-b+1)/b!, valid for negative a.

    For a < 0 it is (-1)^b C(b-a-1, b): negate each factor of the product.
    """
    if b < 0:
        raise ValueError("lower index must be nonnegative")
    return math.comb(a, b) if a >= 0 else (-1) ** b * math.comb(b - a - 1, b)


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


def twist_matrix(n: int, m: int = 1) -> IntMatrix:
    """Matrix of - (x) O(m) on K(P^n) in the basis [O], ..., [O(n)], any integer m.

    Column j is the class of O(j+m).  A class is fixed by its Hilbert
    polynomial t -> chi(O(d+t)), of degree n, and Lagrange interpolation on
    the nodes t = 0..n gives, with binomial polynomials,
    [O(d)] = sum_k (-1)^(n-k) C(d, k) C(d-k-1, n-k) [O(k)].
    For 0 <= d <= n that is [O(d)] itself, so those columns are unit
    vectors; for d = n+1 it is the Koszul relation
    [O(n+1)] = sum_k (-1)^(n-k) C(n+1, k) [O(k)].
    """
    cols = [
        [0] * d + [1] + [0] * (n - d) if 0 <= d <= n else
        [(-1) ** (n - k) * binom_poly(d, k) * binom_poly(d - k - 1, n - k) for k in range(n + 1)]
        for d in range(m, m + n + 1)
    ]
    return _matrix.transpose(_matrix.freeze(cols))


def serre_class_map(n: int) -> IntMatrix:
    """Matrix of the Serre functor - (x) O(-n-1)[n] on K(P^n): (-1)^n T^-(n+1)."""
    tw = twist_matrix(n, -n - 1)
    return tw if n % 2 == 0 else _matrix.mat_neg(tw)
