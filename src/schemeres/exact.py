"""Exact rational dense linear algebra.

Matrices here are lists of rows of ``fractions.Fraction`` (or Python ints,
which embed in the rationals).  Sizes are small, at most (d+1) x (d+1) for a
d-class scheme, so plain Gauss-Jordan elimination is entirely adequate.
``integer_matrix_powers`` and ``power_traces`` also accept integer numpy
arrays of full network size and keep every intermediate value exact; the
engines no longer use them (they work in the intersection algebra), but
they remain as an independent N x N witness for the tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import SingularSystem

RationalMatrix = list[list[Fraction]]

_INT64_SAFE = 2**62


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


def _exact_int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer matmul that never silently overflows.

    Stays on the fast int64 path while a safe a-priori bound holds, otherwise
    falls back to Python-int (object dtype) arithmetic.
    """
    n = a.shape[0]
    bound = int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0)) * n
    if a.dtype != object and b.dtype != object and bound < _INT64_SAFE:
        return a.astype(np.int64) @ b.astype(np.int64)
    return a.astype(object) @ b.astype(object)


def integer_matrix_powers(a: np.ndarray, max_power: int) -> list[np.ndarray]:
    """[A^0, A^1, ..., A^max_power] with exact integer entries."""
    arr = np.asarray(a)
    n = arr.shape[0]
    if arr.shape != (n, n):
        raise ValueError("matrix must be square")
    eye = np.eye(n, dtype=np.int64)
    powers = [eye]
    for _ in range(max_power):
        powers.append(_exact_int_matmul(powers[-1], arr))
    return powers


def power_traces(a, max_power: int) -> list:
    """[tr(A^0), ..., tr(A^max_power)], exactly.

    Accepts an integer numpy array or a rational matrix (rows of
    Fractions/ints).  Traces come back as ints or Fractions, never floats.
    """
    arr = np.asarray(a, dtype=object) if _is_rational_rows(a) else np.asarray(a)
    if np.issubdtype(arr.dtype, np.floating):
        raise ValueError("power_traces is exact; pass integer or Fraction entries")
    if arr.dtype == object:
        n = arr.shape[0]
        cur = np.array([[Fraction(int(i == j)) for j in range(n)] for i in range(n)],
                       dtype=object)
        traces = [_object_trace(cur)]
        for _ in range(max_power):
            cur = cur @ arr
            traces.append(_object_trace(cur))
        return traces
    powers = integer_matrix_powers(arr, max_power)
    return [sum(int(x) for x in np.diagonal(p)) for p in powers]


def _object_trace(m: np.ndarray):
    total = m[0, 0] * 0
    for i in range(m.shape[0]):
        total += m[i, i]
    return total


def _is_rational_rows(a) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == object
    try:
        first = a[0][0]
    except (TypeError, IndexError, KeyError):
        return False
    return isinstance(first, Fraction)
