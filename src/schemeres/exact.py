"""Exact rational linear algebra by one fraction-free elimination.

Each row of [A | B] is scaled by the lcm of its denominators and eliminated
in Python ints by Bareiss' method (Bareiss, *Math. Comp.* 22, 1968): after
k pivots every entry below the pivot rows is a (k+1) x (k+1) minor of the
scaled input, so each division by the previous pivot is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import SingularSystem


def rational_solve(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list[Fraction]]:
    """Solve A X = B exactly over the rationals; X comes back as Fractions.

    Back-substitution gives det X = adj(A) B in ints, det the last pivot,
    by exact divisions.

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

    m = []
    for row in ([x if isinstance(x, int) else Fraction(x) for x in (*ra, *rb)]
                for ra, rb in zip(a, b)):
        scale = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (scale // x.denominator) for x in row])
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
