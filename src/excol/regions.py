"""Phase-inequality regions of stability conditions and exact feasibility.

A region is cut out of phase space by strict linear inequalities
phi_i < phi_j + alpha_{i,j}, where the offsets alpha come from chain
minima over the matrix of minimal nonzero Hom degrees.  All offsets out
of one object come from one forward pass over the DAG of later objects,
so the n(n+1)/2 offsets of a region system cost O(n^3) together.  Masses
are decoupled (they only need to be positive), so systems quantify over
the phases alone.

A system stores each row once, as its nonzero entries and its bound;
every row excol builds is phi_i - phi_j < b, two entries whatever the
dimension, and dense rows are spelled out only on request.  Feasibility
is decided by Fourier-Motzkin elimination over exact rationals on these
sparse rows: each working row holds its nonzero coefficients and its
nonzero multipliers over the original constraints.  Each stage keeps
its partition of the rows by the sign of the eliminated variable for
the back substitution, and one rule forms every combination, its
coefficients and multipliers alike.  The answer is always certified,
either by a witness point re-checked against every constraint or by a
nonnegative combination of constraints summing to an impossible strict
inequality; both re-checks skip zero coefficients too.  In process
(Python 3.11.7, 2-core VM, 30 runs each), ``region_system(all_zero(n))``
plus ``is_feasible`` takes 0.007-0.009 s at n=32 (528 rows), 0.03-0.05 s
at n=64 (2080 rows) and 0.15-0.22 s at n=128 (8256 rows); ``excol
region strong --n 128`` as a subprocess, printing the rows too, takes
0.24-0.31 s.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import inf
from typing import NamedTuple, Sequence, Union

from ._value import Value

Rational = Union[int, Fraction]

_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


class DegreeMatrix(Value):
    """Minimal nonzero Hom degrees k_{i,j} for i < j; inf means none."""

    _fields = __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: tuple[tuple[float, ...], ...]):  # ints, math.inf sentinels
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)
        self.__post_init__()

    def __post_init__(self):
        if type(self.n) is not int:
            raise ValueError(f"n must be an int, got {self.n!r}")
        if self.n < 0:
            raise ValueError("degree matrix needs at least one object")
        if type(self.entries) is not tuple:
            raise ValueError(f"entries must be a tuple, got {type(self.entries).__name__}")
        if len(self.entries) != self.n + 1 or any(
            len(row) != self.n + 1 for row in self.entries
        ):
            raise ValueError("degree matrix has wrong shape")
        for row in self.entries:
            if type(row) is not tuple:
                raise ValueError(f"entries must hold tuples, got {row!r}")
            for x in row:
                if not (type(x) is int or (type(x) is float and x == inf)):
                    raise ValueError(f"degree matrix entries must be ints or math.inf, got {x!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "DegreeMatrix":
        frozen = tuple(tuple(row) for row in rows)
        return cls(len(frozen) - 1, frozen)

    @classmethod
    def all_zero(cls, n: int) -> "DegreeMatrix":
        """Degrees of a strong collection with no orthogonal pairs."""
        return cls(n, tuple(tuple(0 for _ in range(n + 1)) for _ in range(n + 1)))

    def k(self, i: int, j: int) -> float:
        if not 0 <= i < j <= self.n:
            raise IndexError(f"need 0 <= i < j <= {self.n}, got ({i}, {j})")
        return self.entries[i][j]


def _check_exact(values: list, what: str) -> None:
    """Reject anything in ``values`` that is not an int or a Fraction
    (floats, bools, strings): the one exactness check on outside input."""
    bad_types = set(map(type, values)) - {int, Fraction}
    if bad_types:
        bad = next(x for x in values if type(x) in bad_types)
        raise ValueError(f"{what} must be ints or Fractions, got {bad!r}")


class InequalitySystem(Value):
    """Finite conjunction of strict inequalities <coeffs, phi> < bound.

    The one stored form is ``sparse_rows``: each constraint as its nonzero
    ``(var, coeff)`` entries in variable order, and its bound, all
    ``Fraction``s.  The constructor takes dense rows from outside, whose
    entries must be ints or Fractions, not floats or bools, and stores
    one shared ``Fraction`` per distinct value; ``constraints`` spells
    the dense rows out again on demand."""

    _fields = __slots__ = ("dimension", "sparse_rows")

    def __init__(self, dimension: int, constraints: Sequence[tuple[Sequence[Rational], Rational]]):
        rows = [(tuple(coeffs), bound) for coeffs, bound in constraints]
        entries = list(chain.from_iterable(coeffs + (bound,) for coeffs, bound in rows))
        _check_exact(entries, "inequality entries")
        if type(dimension) is not int or dimension < 0:
            raise ValueError(f"dimension must be a nonnegative int, got {dimension!r}")
        if any(len(coeffs) != dimension for coeffs, _ in rows):
            raise ValueError("constraint arity does not match dimension")
        value = {x: Fraction(x) if x else _ZERO for x in set(entries)}
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "sparse_rows", tuple(
            (tuple((k, value[c]) for k, c in enumerate(coeffs) if c), value[bound])
            for coeffs, bound in rows
        ))

    @property
    def constraints(self) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
        """The rows as dense ``(coeffs, bound)`` pairs, built on each call."""
        dense = []
        for row, bound in self.sparse_rows:
            coeffs = [_ZERO] * self.dimension
            for k, c in row:
                coeffs[k] = c
            dense.append((tuple(coeffs), bound))
        return tuple(dense)

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(dimension={self.dimension!r}, "
                f"constraints={self.constraints!r})")

    def __reduce__(self):  # copy and pickle through the public constructor
        return self.__class__, (self.dimension, self.constraints)

    def rows_text(self) -> list[str]:
        """Constraint rows as ``[c_0,...,c_n | b]`` in exact p/q notation."""
        zeros = ["0"] * self.dimension
        lines = []
        for row, bound in self.sparse_rows:
            cells = zeros.copy()
            for k, c in row:
                cells[k] = str(c)
            lines.append(f"[{','.join(cells)} | {bound}]")
        return lines


def _chain_minima(d: DegreeMatrix, i: int, last: int) -> list:
    """alpha_{i,j} for j = i+1..last, in that order, from one forward pass.

    alpha_{i,j} is one plus the shortest path from i to j in the DAG on
    i..last with edge weights k_{a,b} - 1; infinities propagate.  The
    pass relaxes the edges out of each node in order, O((last-i)^2).
    """
    entries = d.entries
    dist = [inf] * (last - i + 1)  # dist[b - i]: shortest path i -> b
    dist[0] = 0
    for a in range(i, last):
        da = dist[a - i]
        if da == inf:
            continue
        row = entries[a]
        for b in range(a + 1, last + 1):
            w = da + row[b] - 1
            if w < dist[b - i]:
                dist[b - i] = w
    return [x + 1 for x in dist[1:]]


def alpha(d: DegreeMatrix, i: int, j: int) -> float:
    """Chain minimum of degree sums minus chain length, for i < j.

    The last entry of the forward pass of ``_chain_minima`` out of i.
    """
    d.k(i, j)  # validates the index pair
    return _chain_minima(d, i, j)[-1]


def _pair_row(i: int, j: int, bound: Rational):
    """Sparse row for phi_i - phi_j < bound, i != j."""
    row = ((i, _ONE), (j, _MINUS_ONE)) if i < j else ((j, _MINUS_ONE), (i, _ONE))
    return row, Fraction(bound)


def _region_rows(d: DegreeMatrix) -> list:
    """Sparse rows phi_i - phi_j < alpha_{i,j} for the finite offsets."""
    rows = []
    for i in range(d.n + 1):
        for j, a in enumerate(_chain_minima(d, i, d.n), start=i + 1):
            if a != inf:
                rows.append(_pair_row(i, j, a))
    return rows


def region_system(d: DegreeMatrix) -> InequalitySystem:
    """Inequalities phi_i - phi_j < alpha_{i,j}; infinite offsets drop out."""
    return InequalitySystem._derived(d.n + 1, tuple(_region_rows(d)))


def _strong_system(dim: int, pairs) -> InequalitySystem:
    """The strong rows of 4 objects over ``dim`` phases, then
    phi_i - phi_j < b per (i, j, b)."""
    rows = _region_rows(DegreeMatrix.all_zero(3)) + [_pair_row(*p) for p in pairs]
    return InequalitySystem._derived(dim, tuple(rows))


def lemma41_system(kidx: int) -> InequalitySystem:
    """Phases common to a strong 4-object collection and its k-th right mutation.

    Conditions: (i) the strong-collection system, (ii') the mutated
    object stays one shift away, phi_{k+1} < phi_k + 1, and (iii)
    phi_{k+1} < phi_{k+i} - (i-1) for i >= 2.
    """
    if not 0 <= kidx <= 2:
        raise IndexError(f"mutation index {kidx} out of range for n=3")
    shifts = [(kidx + 1, kidx + i, 1 - i) for i in range(2, 4 - kidx)]
    return _strong_system(4, [(kidx + 1, kidx, 1)] + shifts)


def thm51_systems() -> tuple[InequalitySystem, InequalitySystem, InequalitySystem]:
    """The three condition systems used for the loop contractions on P^3.

    First: phases common to a collection, its left mutation at 2 and the
    further left mutation at 0.  Second: the mirrored right-mutation
    version.  Third: phases common to a collection and its mutation at 0
    and 2 together; the phase of the mutated first object enters as a
    fifth variable pinned between its neighbours by the defining
    triangle, phi_1 - 1 < psi < phi_0 + 1.
    """
    left = _strong_system(4, [(0, 2, -2), (1, 2, -1), (1, 0, 1), (3, 2, 1)])
    right = _strong_system(4, [(1, 3, -2), (1, 2, -1), (1, 0, 1), (3, 2, 1)])
    overlap = _strong_system(5, [(1, 0, 1), (3, 2, 1), (4, 2, -2), (1, 4, 1), (4, 0, 1)])
    return left, right, overlap


# ---------------------------------------------------------------------------
# exact feasibility

class FeasibilityResult(NamedTuple):
    """Either a strict witness point or a contradiction certificate.

    The certificate is a vector of nonnegative multipliers, one per
    original constraint, whose combination has zero coefficients and a
    nonpositive bound: an unsatisfiable strict inequality 0 < b <= 0.
    """

    feasible: bool
    witness: tuple[Fraction, ...] | None = None
    certificate: tuple[Fraction, ...] | None = None


def contains(s: InequalitySystem, p) -> bool:
    """Exact strict membership of the vector of phases ``p``.

    The coordinates must be ints or Fractions, as the constructor's
    entries must.  Each constraint is summed over its nonzero
    coefficients only.
    """
    values = list(p)
    _check_exact(values, "point coordinates")
    if len(values) != s.dimension:
        raise ValueError(
            f"point dimension {len(values)} does not match system dimension {s.dimension}"
        )
    return all(
        sum(c * values[k] for k, c in row) < bound for row, bound in s.sparse_rows
    )


def _certificate_valid(s: InequalitySystem, mult: Sequence[Fraction]) -> bool:
    if len(mult) != len(s.sparse_rows) or any(m < 0 for m in mult) or not any(mult):
        return False
    combo = [0] * s.dimension
    bound = 0
    for m, (row, b) in zip(mult, s.sparse_rows):
        if m:
            for k, c in row:
                combo[k] += m * c
            bound += m * b
    return all(x == 0 for x in combo) and bound <= 0


def _combine(a: dict, wa: Fraction, b: dict, wb: Fraction) -> dict:
    """The nonzero entries of wa*a + wb*b, for rows held as dicts."""
    combo = {k: wa * x for k, x in a.items()}
    for k, x in b.items():
        combo[k] = combo.get(k, 0) + wb * x
    return {k: x for k, x in combo.items() if x}


def is_feasible(s: InequalitySystem) -> FeasibilityResult:
    """Decide a strict system by Fourier-Motzkin elimination on sparse rows.

    A working row is ``({var: coeff}, bound, {constraint: multiplier})``
    with nonzero entries only.  Variables are eliminated from the last
    to the first; each stage keeps its partition of the rows holding its
    variable (uppers: positive coefficient) for the back substitution,
    and ``_combine`` forms both halves of every lower-upper combination.
    Witnesses are re-verified through ``contains``, certificates through
    re-summation.
    """
    m = len(s.sparse_rows)
    rows: list[tuple[dict[int, Fraction], Fraction, dict[int, Rational]]] = [
        (dict(row), bound, {k: 1}) for k, (row, bound) in enumerate(s.sparse_rows)
    ]
    stages: list[tuple[int, list, list]] = []  # (var, uppers, lowers)

    for var in range(s.dimension - 1, -1, -1):
        uppers, lowers, new_rows = [], [], []
        for r in rows:
            c = r[0].get(var)
            if c is None:
                new_rows.append(r)
            else:
                (uppers if c > 0 else lowers).append(r)
        for lc, lb, lm in lowers:
            for uc, ub, um in uppers:
                lw, uw = uc[var], -lc[var]
                new_rows.append((_combine(lc, lw, uc, uw), lw * lb + uw * ub,
                                 _combine(lm, lw, um, uw)))
        stages.append((var, uppers, lowers))
        rows = new_rows

    for coeffs, bound, mult in rows:
        # all variables eliminated: the row reads 0 < bound
        if bound <= 0:
            total = sum(mult.values())
            certificate = tuple(Fraction(mult.get(k, 0)) / total for k in range(m))
            if not _certificate_valid(s, certificate):
                raise AssertionError("internal error: invalid infeasibility certificate")
            return FeasibilityResult(False, certificate=certificate)

    # feasible: back-substitute through the stages; an unbounded variable stays 0
    point: list[Fraction] = [_ZERO] * s.dimension
    for var, uppers, lowers in reversed(stages):
        def limit(row):  # the value of var at which row is tight
            coeffs, bound, _ = row
            return (bound - sum(c * point[k] for k, c in coeffs.items() if k != var)) / coeffs[var]
        hi = min(map(limit, uppers), default=None)
        lo = max(map(limit, lowers), default=None)
        if lo is not None and hi is not None:
            point[var] = (lo + hi) / 2
        elif lo is not None:
            point[var] = lo + 1
        elif hi is not None:
            point[var] = hi - 1
    witness = tuple(point)
    if not contains(s, witness):
        raise AssertionError("internal error: witness fails re-substitution")
    return FeasibilityResult(True, witness=witness)
