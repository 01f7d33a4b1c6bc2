"""Exact rational linear algebra in Python ints, by one of two routes.

Each row of [A | B] is scaled by the lcm of its denominators, and then:

* a lower-triangular A with no zero on its diagonal is solved by
  fraction-free forward substitution over one common denominator, in
  O(n^2) products a column of B.  This is the power basis W of every
  distance-regular scheme in its distance order, where P_i has degree i;
* every other A, a triangular one with a zero pivot included, is
  eliminated by Bareiss' method (Bareiss, *Math. Comp.* 22, 1968): after
  k pivots every entry below the pivot rows is a (k+1) x (k+1) minor of
  the scaled input, so each division by the previous pivot is exact.  It
  steps past columns without a pivot, so a singular A reports its exact
  rank.

A nonsingular A has one solution, and a Fraction holds it in lowest terms,
so both routes return the same Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import SingularSystem


def rational_solve(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list[Fraction]]:
    """Solve A X = B exactly over the rationals; X comes back as Fractions.

    A lower-triangular A with a nonzero diagonal takes forward substitution
    (``_forward_substitute``), O(n^2) a column of B; any other A takes
    Bareiss elimination (``_bareiss``), O(n^3).  The solution is unique, so
    the Fractions do not depend on the route.  A zero on the diagonal falls
    through to Bareiss, which counts the exact rank.

    Raises
    ------
    SingularSystem
        If A is rank deficient; ``rank`` is its exact rank, as elimination
        steps past columns without a pivot.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("coefficient matrix must be square")
    if len(b) != n:
        raise ValueError("right-hand side has incompatible row count")
    m = _scaled_rows(a, b)
    if all(row[i] and not any(row[i + 1:n]) for i, row in enumerate(m)):
        return _forward_substitute(m, n)
    return _bareiss(m, n)


def _scaled_rows(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list[int]]:
    """The rows of [A | B], each scaled by the lcm of its denominators."""
    m = []
    for row in ([x if isinstance(x, int) else Fraction(x) for x in (*ra, *rb)]
                for ra, rb in zip(a, b)):
        scale = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (scale // x.denominator) for x in row])
    return m


def _forward_substitute(m: list[list[int]], n: int) -> list[list[Fraction]]:
    """X from the scaled rows [A | B] of a lower-triangular A, nonzero diagonal.

    Row i gives A[i][i] det X[i] = det B[i] - sum_{j<i} A[i][j] det X[j].
    When the pivot does not divide the right side, det grows by the
    pivot over their gcd, and so do the rows already solved.
    """
    det, scaled = 1, []  # scaled[i] = det * X[i]
    for i, row in enumerate(m):
        terms = [(a, scaled[j]) for j, a in enumerate(row[:i]) if a]
        sums = [det * v - sum(a * x[k] for a, x in terms) for k, v in enumerate(row[n:])]
        pivot = row[i]
        grow = abs(pivot) // gcd(pivot, *sums)
        if grow != 1:
            det *= grow
            scaled = [[v * grow for v in values] for values in scaled]
        scaled.append([v * grow // pivot for v in sums])
    return [[Fraction(v, det) for v in values] for values in scaled]


def _bareiss(m: list[list[int]], n: int) -> list[list[Fraction]]:
    """X from the scaled rows [A | B] by Bareiss elimination.

    Back-substitution gives det X = adj(A) B in ints, det the last pivot,
    by exact divisions.
    """
    rank, previous = 0, 1
    for col in range(n):
        pivot = next((r for r in range(rank, n) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p, tail = top[col], top[col + 1:]
        for row in m[rank + 1:]:  # entries left of col + 1 are never read again
            f = row[col]
            row[col + 1:] = [(p * x - f * y) // previous
                             for x, y in zip(row[col + 1:], tail)]
        previous = p
        rank += 1
    if rank < n:
        raise SingularSystem(rank, n)

    det, scaled = previous, [None] * n  # scaled[i] = det * X[i]
    for i in reversed(range(n)):
        row = m[i]
        scaled[i] = [(det * row[n + k] - sum(row[j] * scaled[j][k]
                                               for j in range(i + 1, n))) // row[i]
                     for k in range(len(row) - n)]
    return [[Fraction(v, det) for v in values] for values in scaled]
