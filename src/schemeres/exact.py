"""Exact rational dense linear algebra.

Matrices here are lists of rows of ``fractions.Fraction`` (or Python ints,
which embed in the rationals).  Sizes are small, at most (d+1) x (d+1) for a
d-class scheme, so plain Gauss-Jordan elimination is entirely adequate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import SingularSystem

RationalMatrix = list[list[Fraction]]


def as_rational_matrix(rows: Sequence[Sequence]) -> RationalMatrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity_rational(n: int) -> RationalMatrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def rational_solve(a: Sequence[Sequence], b: Sequence[Sequence]) -> RationalMatrix:
    """Solve A X = B exactly over the rationals.

    Raises
    ------
    SingularSystem
        If A is rank deficient (reports the rank reached).
    """
    m = as_rational_matrix(a)
    rhs = as_rational_matrix(b)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("coefficient matrix must be square")
    if len(rhs) != n:
        raise ValueError("right-hand side has incompatible row count")

    aug = [m[i] + rhs[i] for i in range(n)]
    width = len(aug[0])
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem(f"system is singular (rank {col} of {n})")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:width] for row in aug]


def rational_inverse(a: Sequence[Sequence]) -> RationalMatrix:
    return rational_solve(a, identity_rational(len(a)))


def rational_matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> RationalMatrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum((Fraction(a[i][k]) * b[k][j] for k in range(inner)), Fraction(0))
         for j in range(cols)]
        for i in range(rows)
    ]
