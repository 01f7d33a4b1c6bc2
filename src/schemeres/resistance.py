"""Effective-resistance engines.

Four routes to the per-class two-point resistances of a scheme's
underlying resistor network:

* ``resistance_oracle``      - Laplacian pseudo-inverse, floating point;
* ``resistance_spectral``    - eigenmatrix formula, floating point;
* ``resistance_polynomial``  - spectrum-free trace formula, exact rationals;
* ``resistance_drg_closed``  - closed forms from an intersection array,
  exact rationals (distance-regular networks, strata 1..5).

``oracle`` is the only engine that works on the N x N relation matrices; it
shares nothing with the intersection numbers p^k_ij, so it witnesses them.
The other three all derive from p: ``spectral`` through the eigenmatrices
computed in the intersection algebra, ``polynomial`` through powers of the
intersection matrix B_1, and ``closed`` through the intersection array.
Agreement with the oracle is asserted wholesale in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (
    CertificationFailed,
    Disconnected,
    FewerEigenvalues,
    MethodPreconditionViolated,
    OutOfRange,
    SingularSystem,
    ZeroDenominator,
)
from .exact import rational_inverse
from .scheme import AssociationScheme, IntersectionArray, SpectralData

#: relative cutoff below which a Laplacian eigenvalue counts as zero
ZERO_EIGENVALUE_CUTOFF = 1e-8
#: within-stratum resistance spread the oracle certifies
STRATUM_SPREAD_TOL = 1e-9


@dataclass(frozen=True)
class ConductanceVector:
    """Per-class conductances c_1..c_d (class 0 carries none)."""

    values: tuple

    @classmethod
    def coerce(cls, values, d: int) -> "ConductanceVector":
        if isinstance(values, ConductanceVector):
            values = values.values
        vals = tuple(Fraction(v) for v in values)
        if len(vals) != d:
            raise ValueError(f"expected {d} conductances, got {len(vals)}")
        if any(v < 0 for v in vals):
            raise ValueError("conductances must be nonnegative")
        if all(v == 0 for v in vals):
            raise ValueError("at least one conductance must be positive")
        return cls(vals)

    @property
    def support(self) -> tuple:
        return tuple(i + 1 for i, v in enumerate(self.values) if v > 0)

    def as_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.values])


@dataclass(frozen=True)
class ResistanceTable:
    """Per-class effective resistances with method provenance.

    ``values[l-1]`` is R between a vertex and any vertex in its l-th stratum;
    class 0 is 0 by convention.  ``exact`` marks rational-arithmetic tables.
    """

    values: tuple
    method: str
    exact: bool

    @property
    def d(self) -> int:
        return len(self.values)

    def value(self, class_index: int):
        if class_index == 0:
            return Fraction(0) if self.exact else 0.0
        return self.values[class_index - 1]

    def as_floats(self) -> tuple:
        return tuple(float(v) for v in self.values)


def _require_connected_support(scheme: AssociationScheme,
                               cond: ConductanceVector) -> None:
    if not scheme.relation_connected(cond.support):
        raise Disconnected(
            f"classes {cond.support} do not span a connected network")


# --------------------------------------------------------------------------
# oracle: Laplacian pseudo-inverse
# --------------------------------------------------------------------------

def laplacian(scheme: AssociationScheme, conductances) -> np.ndarray:
    """L = (sum_i c_i kappa_i) I - sum_i c_i A_i, as floats."""
    cond = ConductanceVector.coerce(conductances, scheme.d)
    c = cond.as_floats()
    diag = float(sum(ci * ki for ci, ki in zip(c, scheme.valencies[1:])))
    l = diag * np.eye(scheme.n)
    for i, ci in enumerate(c, start=1):
        if ci:
            l -= ci * scheme.relations[i].astype(float)
    return l


def pseudo_inverse(scheme: AssociationScheme, conductances) -> np.ndarray:
    """Moore-Penrose inverse of the scheme Laplacian over nonzero eigenspaces.

    Raises
    ------
    Disconnected
        If L has two or more (near-)zero eigenvalues.
    """
    lap = laplacian(scheme, conductances)
    w, v = np.linalg.eigh(lap)
    cutoff = ZERO_EIGENVALUE_CUTOFF * max(1.0, float(np.abs(w).max()))
    zero = np.abs(w) <= cutoff
    if zero.sum() != 1:
        raise Disconnected(
            f"Laplacian has {int(zero.sum())} zero eigenvalues at cutoff")
    keep = ~zero
    return (v[:, keep] / w[keep]) @ v[:, keep].T


def oracle_resistance_matrix(scheme: AssociationScheme, conductances) -> np.ndarray:
    """Full N x N matrix of two-point resistances R_ab = Lp_aa+Lp_bb-2Lp_ab.

    Raises
    ------
    CertificationFailed
        If the diagonal of Lp spreads by more than ``STRATUM_SPREAD_TOL``.
    """
    cond = ConductanceVector.coerce(conductances, scheme.d)
    _require_connected_support(scheme, cond)
    lp = pseudo_inverse(scheme, conductances)
    diag = np.diag(lp)
    spread = float(diag.max() - diag.min())
    if spread > STRATUM_SPREAD_TOL:
        raise CertificationFailed(f"pseudo-inverse diagonal spread {spread:.3e}")
    return diag[:, None] + diag[None, :] - lp - lp.T


def resistance_oracle(scheme: AssociationScheme, conductances) -> ResistanceTable:
    """Per-class resistances via the pseudo-inverse, one representative pair.

    The representative is vertex 0 against the first vertex of each stratum;
    the choice is immaterial and is certified here: over all vertex pairs of
    each class the resistance spread must stay below ``STRATUM_SPREAD_TOL``,
    else ``CertificationFailed`` is raised.
    """
    return _oracle_table(scheme, conductances)[0]


def _oracle_table(scheme: AssociationScheme, conductances
                  ) -> tuple[ResistanceTable, float]:
    """The oracle table and its largest within-class resistance spread."""
    rmat = oracle_resistance_matrix(scheme, conductances)
    values = []
    worst = 0.0
    for l in range(1, scheme.d + 1):
        members = rmat[scheme.relations[l].astype(bool)]
        spread = float(members.max() - members.min())
        if spread > STRATUM_SPREAD_TOL:
            raise CertificationFailed(f"class {l} resistance spread {spread:.3e}")
        worst = max(worst, spread)
        beta = int(np.flatnonzero(scheme.classmap[0] == l)[0])
        values.append(float(rmat[0, beta]))
    return ResistanceTable(tuple(values), method="oracle", exact=False), worst


# --------------------------------------------------------------------------
# spectral: eigenmatrix formula
# --------------------------------------------------------------------------

def resistance_spectral(scheme: AssociationScheme, spectral: SpectralData,
                        conductances) -> ResistanceTable:
    """R^(l) = (2/(N kappa_l)) sum_k m_k (kappa_l - P[k,l]) / D_k
    with D_k = sum_i c_i (kappa_i - P[k,i]) over the nontrivial eigenspaces.

    Raises
    ------
    ZeroDenominator
        If some D_k vanishes relative to the conductance scale
        sum_i c_i kappa_i (the conductance support is disconnected).
    """
    cond = ConductanceVector.coerce(conductances, scheme.d)
    c = cond.as_floats()
    n, d = scheme.n, scheme.d
    kappa = np.array(scheme.valencies, dtype=float)
    p = spectral.p_matrix
    mults = np.array(spectral.multiplicities, dtype=float)

    denoms = ((kappa[1:] - p[1:, 1:]) * c).sum(axis=1)  # index k-1
    small = np.abs(denoms) <= 1e-12 * float(c @ kappa[1:])
    if small.any():
        raise ZeroDenominator(
            f"eigenspace {1 + int(np.argmax(small))} has vanishing denominator")

    values = []
    for l in range(1, d + 1):
        total = float((mults[1:] * (kappa[l] - p[1:, l]) / denoms).sum())
        values.append(float(2.0 / (n * kappa[l]) * total))
    return ResistanceTable(tuple(values), method="spectral", exact=False)


# --------------------------------------------------------------------------
# polynomial: spectrum-free exact route
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialCoefficients:
    """Exact change of basis between relation matrices and powers of A_1.

    ``c[m][n]`` expands A_m = sum_n c[m][n] A^n;
    ``c_inv[l][k]`` expands A^l = sum_k c_inv[l][k] A_k.
    The two matrices are exact mutual inverses.
    """

    c: tuple
    c_inv: tuple

    @property
    def d(self) -> int:
        return len(self.c) - 1

    def trace_of_power(self, n_vertices: int, l: int) -> Fraction:
        return n_vertices * self.c_inv[l][0]


def polynomial_coefficients(scheme: AssociationScheme) -> PolynomialCoefficients:
    """Expand each relation as an exact polynomial in A_1, spectrum-free.

    The class coefficients of A^n are B_1^n e_0, with B_1 the intersection
    matrix of class 1, so A^0..A^d are expanded in exact integers without
    touching an N x N matrix; that rational system is then inverted.

    Raises
    ------
    FewerEigenvalues
        If the power-expansion matrix is singular, i.e. A_1 has fewer than
        d+1 distinct eigenvalues and does not generate the algebra.
    CertificationFailed
        If the expansion does not give A_0 = A^0 and A_1 = A^1.
    """
    d = scheme.d
    b1 = scheme.intersection_matrix(1).tolist()  # Python ints, so powers never overflow
    powers = [[int(k == 0) for k in range(d + 1)]]
    for _ in range(d):
        powers.append([sum(x * y for x, y in zip(bk, powers[-1])) for bk in b1])
    rows = [[Fraction(x) for x in row] for row in powers]
    try:
        inv = rational_inverse(rows)
    except SingularSystem:
        rank = int(np.linalg.matrix_rank(
            np.array([[float(x) for x in row] for row in rows])))
        raise FewerEigenvalues(
            f"A_1 generates a rank-{rank} subalgebra of dimension {d + 1}")
    c = tuple(tuple(row) for row in inv)
    c_inv = tuple(tuple(row) for row in rows)
    for m in (0, 1):  # A_0 = A^0 and A_1 = A^1
        if c[m] != tuple(Fraction(int(j == m)) for j in range(d + 1)):
            raise CertificationFailed(f"A_{m} is not expanded as A^{m}")
    return PolynomialCoefficients(c=c, c_inv=c_inv)


def resistance_polynomial(scheme: AssociationScheme,
                          coeffs: Optional[PolynomialCoefficients] = None
                          ) -> ResistanceTable:
    """Exact per-class resistances for unit conductance on class 1 only.

    Uses R^(m) = (2/(N kappa_m)) sum_n c_mn (sum_i kappa^{n-i} tr(A^{i-1})
    - n kappa^{n-1}) with tr(A^l) read off the exact power expansions; no
    eigenvalues enter at any point.
    """
    if not scheme.relation_connected([1]):
        raise Disconnected("class-1 graph is not connected")
    if coeffs is None:
        coeffs = polynomial_coefficients(scheme)
    n, d = scheme.n, scheme.d
    kappa = Fraction(scheme.valencies[1])
    traces = [coeffs.trace_of_power(n, l) for l in range(d + 1)]

    t = [Fraction(0)]  # t[n] for n >= 1
    for m in range(1, d + 1):
        val = sum(kappa ** (m - i) * traces[i - 1] for i in range(1, m + 1))
        t.append(val - m * kappa ** (m - 1))

    values = []
    for m in range(1, d + 1):
        total = sum(coeffs.c[m][nn] * t[nn] for nn in range(1, d + 1))
        values.append(Fraction(2, n * scheme.valencies[m]) * total)
    return ResistanceTable(tuple(values), method="polynomial", exact=True)


def unit_class_one(scheme: AssociationScheme) -> ConductanceVector:
    """The implicit conductance vector of the polynomial route: c_1 = 1."""
    return ConductanceVector.coerce(
        [1] + [0] * (scheme.d - 1), scheme.d)


def require_unit_class_one(scheme: AssociationScheme, conductances) -> None:
    """Reject conductances other than (1, 0, ..., 0) for exact methods."""
    cond = ConductanceVector.coerce(conductances, scheme.d)
    if cond.values != unit_class_one(scheme).values:
        raise MethodPreconditionViolated(
            "polynomial/closed-form methods need unit conductance on class 1 only")


# --------------------------------------------------------------------------
# closed forms from an intersection array
# --------------------------------------------------------------------------

def resistance_drg_closed(array: IntersectionArray, n_vertices: int,
                          m: int) -> Fraction:
    """Closed-form R^(m) of a distance-regular network, unit class-1 conductance.

    Exact rational in the array entries; covers strata m = 1..5.

    Raises
    ------
    OutOfRange
        If m > 5 or m exceeds the diameter.
    """
    d = array.d
    if not 1 <= m <= 5 or m > d:
        raise OutOfRange(f"closed forms cover 1 <= m <= min(5, d); got m={m}, d={d}")
    if any(x <= 0 for x in array.b) or any(x <= 0 for x in array.c):
        raise ValueError("intersection array entries must be positive")
    array.valencies()  # raises on infeasible kappa chain

    big_n = Fraction(n_vertices)
    kappa = Fraction(array.kappa)
    b = [Fraction(x) for x in array.b]
    c = [Fraction(x) for x in array.c]
    a = [Fraction(array.a(i)) for i in range(d + 1)]

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


def drg_closed_table(array: IntersectionArray, n_vertices: int) -> ResistanceTable:
    """Closed-form table for every stratum the formulas cover (d <= 5 only)."""
    if array.d > 5:
        raise OutOfRange("closed-form table only covers diameters up to 5")
    values = tuple(resistance_drg_closed(array, n_vertices, m)
                   for m in range(1, array.d + 1))
    return ResistanceTable(values, method="closed_form", exact=True)


# --------------------------------------------------------------------------
# sum rule
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FosterReport:
    """Outcome of the conductance-weighted resistance sum rule."""

    lhs: float
    expected: float
    residual: float
    passed: bool


def foster_sum(scheme: AssociationScheme, conductances,
               table: ResistanceTable, tol: float = 1e-9) -> FosterReport:
    """Check (N/2) sum_l c_l kappa_l R^(l) = N - 1.

    Exact tables with exact conductances are compared exactly; floating
    tables within ``tol``.
    """
    cond = ConductanceVector.coerce(conductances, scheme.d)
    if table.exact:
        lhs = Fraction(scheme.n, 2) * sum(
            ci * ki * ri for ci, ki, ri in
            zip(cond.values, scheme.valencies[1:], table.values))
        residual = abs(float(lhs - (scheme.n - 1)))
        passed = lhs == scheme.n - 1
    else:
        lhs = scheme.n / 2 * sum(
            float(ci) * ki * ri for ci, ki, ri in
            zip(cond.values, scheme.valencies[1:], table.values))
        residual = abs(lhs - (scheme.n - 1))
        passed = residual <= tol
    return FosterReport(lhs=float(lhs), expected=float(scheme.n - 1),
                        residual=float(residual), passed=bool(passed))
