"""The paper's closed forms for strata 1..5 of a distance-regular network.

The library computes every stratum with Biggs' sum (``drg_closed_table``).
These expressions, written out case by case in the paper's parameters, are
kept as the reproduction record: the tests prove them equal to Biggs' sum
symbolically and compare them with the library on concrete arrays."""

from __future__ import annotations

from fractions import Fraction

from schemeres.errors import OutOfRange


def paper_closed_form(m: int, big_n, b, c):
    """R^(m), m = 1..5, unit class-1 conductance, from N, b_0..b_{d-1} and
    c_1..c_d, with kappa = b_0 and a_i = kappa - b_i - c_i.

    The entries may be Fractions or sympy symbols.
    """
    d = len(c)
    if not 1 <= m <= 5 or m > d:
        raise OutOfRange(f"closed forms cover 1 <= m <= min(5, d); got m={m}, d={d}")
    kappa = b[0]
    # b[i] = b_i and c[i - 1] = c_i; a_i takes b_d = 0 and c_0 = 0
    a = [kappa - (b[i] if i < d else 0) - (c[i - 1] if i else 0)
         for i in range(d + 1)]

    if m == 1:
        return 2 * (big_n - 1) / (big_n * kappa)

    b1, c2 = b[1], c[1]
    if m == 2:
        return 2 / (kappa * b1) * (b1 + 1 - (kappa + b1 + 1) / big_n)

    b2, c3 = b[2], c[2]
    if m == 3:
        free = b1 * b2 + b2 + c2
        over_n = (kappa + 1) * (b2 + c2) + b1 * (kappa + b2)
        return 2 / (kappa * b1 * b2) * (free - over_n / big_n)

    a1, a2, a3 = a[1], a[2], a[3]
    i1 = a1 * (2 * kappa + a1 ** 2 + 2 * b1 * c2) + b1 * c2 * a2
    i2 = c2 * (kappa + a1 ** 2 + b1 * c2 + a2 * (a1 + a2) + b2 * c3)
    s3 = a1 + a2 + a3
    w1 = i1 - a1 * i2 / c2 + s3 * (a1 * a2 - kappa - b1 * c2)
    w2 = i2 / c2 - s3 * (a1 + a2)

    b3 = b[3]
    if m == 4:
        return 2 / (kappa * b1 * b2 * b3) * (
            -w1 * (1 - 1 / big_n)
            - kappa * w2 * (1 - 2 / big_n)
            - kappa * s3 * (kappa + 1 - 3 * kappa / big_n)
            + kappa ** 3 * (1 - 4 / big_n)
            + kappa * (kappa + a1)
        )

    a4, b4, c4 = a[4], b[4], c[3]
    i0 = kappa * (kappa + a1 ** 2 + b1 * c2)
    i3 = c2 * c3 * s3
    q = c2 * c3 * c4
    j1 = i0 + a1 * i1 + b1 * i2
    j2 = c2 * i1 + a2 * i2 + b2 * i3
    j3 = c3 * i2 + a3 * i3 + b3 * q
    j4 = c4 * i3 + a4 * q
    v1 = j1 - j2 * a1 / c2 + j3 * (a1 * a2 - kappa - b1 * c2) / (c2 * c3) - j4 * w1 / q
    v2 = j2 / c2 - j3 * (a1 + a2) / (c2 * c3) - j4 * w2 / q
    v3 = j3 / (c2 * c3) - j4 * s3 / q
    v4 = j4 / q
    t1 = big_n - 1
    t2 = kappa * (big_n - 2)
    t3 = (kappa ** 2 + kappa) * big_n - 3 * kappa ** 2
    t4 = (kappa ** 3 + kappa ** 2 + kappa * a1) * big_n - 4 * kappa ** 3
    t5 = (kappa ** 4 + kappa ** 3 + kappa ** 2 * a1 + i0) * big_n - 5 * kappa ** 4
    return 2 / (big_n * kappa * b1 * b2 * b3 * b4) * (
        -v1 * t1 - v2 * t2 - v3 * t3 - v4 * t4 + t5)


def paper_drg_closed(array, n_vertices: int, m: int) -> Fraction:
    """``paper_closed_form`` on an ``IntersectionArray``, in exact Fractions."""
    return paper_closed_form(m, Fraction(n_vertices),
                             [Fraction(x) for x in array.b],
                             [Fraction(x) for x in array.c])
