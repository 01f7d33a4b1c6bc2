"""Effective-resistance engines.

Four routes to the per-class two-point resistances of a scheme's
underlying resistor network:

* ``resistance_oracle``      - one row of the Laplacian's inverse, floating point;
* ``resistance_spectral``    - eigenmatrix formula, floating point;
* ``resistance_polynomial``  - spectrum-free trace formula, exact rationals;
* ``resistance_drg_closed``  - Biggs' sum over an intersection array,
  exact rationals (distance-regular networks, every stratum).

``oracle`` is the only engine that works at the vertex level: it reads the
Laplacian off d+1 rows of the class map, those p was counted from
(``AssociationScheme.representative_rows``), and does not read the
intersection numbers p^k_ij, so it witnesses them.  Because ``verify_scheme`` certified
closure, the inverse of L + sJ/N lies in the Bose-Mesner algebra and one
row decides it: connectivity is decided on the d+1 classes of vertex 0,
one (d+1) x (d+1) quotient solve gives y = (L + sJ/N)^-1 e_0 and
R^(l) = 2(y_0 - y_x) for x in class l, and the residual
(L + sJ/N) y - e_0 bounds the error of every entry.  Closure makes that
residual constant on each class of vertex 0, so it is evaluated at one
row per class.  O((d+1) N + d^3) work and no N x N array.

The other three all derive from p: ``spectral`` through the eigenmatrices
computed in the intersection algebra, ``polynomial`` through one exact solve
in the power basis of B_1, and ``closed`` through the intersection array.
Agreement with the oracle is asserted wholesale in the test suite.
A ``ConductanceVector`` computes its floats once, as it validates its
values, and the floating engines and ``foster_sum`` read them (``as_floats``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import (
    BadParameter,
    CertificationFailed,
    Disconnected,
    FewerEigenvalues,
    MethodPreconditionViolated,
    OutOfRange,
    SingularSystem,
    ZeroDenominator,
)
from .exact import rational_solve
from .scheme import AssociationScheme, IntersectionArray, SpectralData, _reachable_classes

#: largest error bound the oracle certifies on a resistance
STRATUM_SPREAD_TOL = 1e-9


@dataclass(frozen=True)
class ConductanceVector:
    """Per-class conductances c_1..c_d (class 0 carries none), held as
    Fractions, and as the read-only floats that ``as_floats`` returns.

    Validated once, in the loop that computes the floats: each value must
    be a nonnegative number that ``Fraction`` takes, not a bool, with a
    finite float, and one must be positive (``ValueError``, naming the
    index of a bad value).
    """

    values: tuple
    _floats: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals, floats = [], []
        for k, v in enumerate(self.values):
            try:
                if isinstance(v, bool):  # Fraction reads True as 1
                    raise TypeError
                v = v if isinstance(v, Fraction) else Fraction(v)
                floats.append(v.numerator / v.denominator)
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                raise ValueError(f"conductance {k} is not a number with a finite float: "
                                 f"{self.values[k]!r}") from None
            if v.numerator < 0:
                raise ValueError(f"conductances must be nonnegative: conductance {k} is {v}")
            vals.append(v)
        if not any(vals):
            raise ValueError("at least one conductance must be positive")
        floats = np.array(floats)
        floats.flags.writeable = False
        object.__setattr__(self, "values", tuple(vals))
        object.__setattr__(self, "_floats", floats)

    @classmethod
    def coerce(cls, values, d: int) -> "ConductanceVector":
        """``values`` as a vector of d conductances; an existing vector is
        returned as it is, once its length is checked."""
        cond = values if isinstance(values, ConductanceVector) else cls(values)
        if len(cond.values) != d:
            raise ValueError(f"expected {d} conductances, got {len(cond.values)}")
        return cond

    def as_floats(self) -> np.ndarray:
        return self._floats


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
        """R on class ``class_index``; ``OutOfRange`` outside 0..d."""
        if not 0 <= class_index <= self.d:
            raise OutOfRange(f"class index {class_index} lies outside 0..{self.d}")
        if class_index == 0:
            return Fraction(0) if self.exact else 0.0
        return self.values[class_index - 1]

    def as_floats(self) -> tuple:
        return tuple(float(v) for v in self.values)


# --------------------------------------------------------------------------
# oracle: one row of the Laplacian's inverse
# --------------------------------------------------------------------------

def _laplacian_weights(scheme: AssociationScheme, conductances) -> np.ndarray:
    """The entry of L on each class: s = sum_i c_i kappa_i on class 0 and
    -c_i on class i."""
    cond = ConductanceVector.coerce(conductances, scheme.d)
    c = cond.as_floats()
    weights = np.zeros(scheme.d + 1)
    weights[0] = sum(ci * ki for ci, ki in zip(c, scheme.valencies[1:]))
    weights[1:] -= c  # a class without conductance stays +0.0, not -0.0
    return weights


def resistance_oracle(scheme: AssociationScheme, conductances) -> ResistanceTable:
    """Per-class resistances from the Laplacian, read off the class map
    alone, with a certified bound on the error of every entry.

    With s = L_00, M = L + sJ/N is symmetric positive definite once the
    support connects the network, and R(x, z) = Lp_xx + Lp_zz - 2 Lp_xz for
    Lp = M^-1 - J/(sN).  ``verify_scheme`` certified closure, so the A_k
    span an algebra that holds M, hence M^-1 = sum_k alpha_k A_k, and:

    * the diagonal of M^-1 is alpha_0;
    * every row's absolute sum is sum_k kappa_k |alpha_k| = ||y*||_1, with
      y* = M^-1 e_0, since each A_k has kappa_k ones in every row;
    * R(x, z) = 2 (alpha_0 - alpha_k) for every pair (x, z) of class k.

    Only one row is computed.  With r_k the first vertex of class k in row 0:

    * connectivity: a vertex x of class k of vertex 0 has p^k_lj vertices of
      class l of vertex 0 in class j of its own, a count that depends on k
      alone.  So class l is one conducting step (L < 0) from class k exactly
      when it is one from r_k, and the component of vertex 0 is the union
      of the classes reached from class 0 (``_reachable_classes``, in log
      depth).
    * the solve: Q[k, l] = sum of M[r_k, z] over z in class l is M acting on
      class-constant vectors, and Q y_q = e_0 gives y = y_q[classmap[0]],
      with y_q = alpha in exact arithmetic.
    * the certificate: r = M y - e_0, evaluated at the r_k alone.  y is
      constant on each class of vertex 0, and for x in class k closure gives
      (A_j y)_x = sum_l p^k_jl y_q[l], so the exact r is constant on each
      class and its largest entry is at some r_k.  y - y* = M^-1 r, so
      ||y - y*||_inf <= ||y*||_1 ||r||_inf by the row sums above, and since
      ||y*||_1 <= ||y||_1 + N ||y - y*||_inf,
      |y - y*| <= ||y||_1 ||r||_inf / (1 - N ||r||_inf) entrywise, to first
      order in the rounding of r.  Every computed R^(l) = 2 (y_0 - y_x) is
      then within four times that of the exact value, which is the same for
      every pair of class l.

    O((d+1) N + d^3) work and no N x N array.  The intersection numbers p
    are not read.

    Raises
    ------
    Disconnected
        If the conductance support does not reach every vertex.
    CertificationFailed
        If N ||r||_inf >= 1, or the bound exceeds ``STRATUM_SPREAD_TOL``.
    """
    n, d = scheme.n, scheme.d
    weights = _laplacian_weights(scheme, conductances)
    classes = scheme.representative_rows  # [k, z], r_k the first of class k in row 0
    row = classes[0]
    rows = weights[classes]  # [k, z] = L[r_k, z]
    cells = np.add(row, np.arange(0, (d + 1) ** 2, d + 1)[:, None])  # [k, z] = k (d+1) + l

    step = np.bincount(cells[rows < 0], minlength=(d + 1) ** 2).reshape(d + 1, d + 1) > 0
    reached = _reachable_classes(step)
    if not reached.all():
        count = sum(kappa for kappa, hit in zip(scheme.valencies, reached) if hit)
        raise Disconnected(f"conductance support reaches {count} of {n} "
                           "vertices, so L has repeated zero eigenvalues")

    s = weights[0]
    quotient = np.bincount(cells.ravel(), weights=(rows + s / n).ravel(),
                           minlength=(d + 1) ** 2).reshape(d + 1, d + 1)
    e0 = np.zeros(d + 1)
    e0[0] = 1.0
    yq = np.linalg.solve(quotient, e0)
    y = yq[row]

    residual = rows @ y + s / n * y.sum()  # r at r_0..r_d
    residual[0] -= 1.0
    worst = float(np.abs(residual).max())
    if n * worst >= 1:
        raise CertificationFailed(f"row-0 residual {worst:.3e} is not below 1/N")
    bound = 4 * float(np.abs(y).sum()) * worst / (1 - n * worst)
    if bound > STRATUM_SPREAD_TOL:
        raise CertificationFailed(f"row-0 resistance error bound {bound:.3e}")
    values = tuple((2 * (yq[0] - yq[1:])).tolist())
    return ResistanceTable(values, method="oracle", exact=False)


# --------------------------------------------------------------------------
# spectral: eigenmatrix formula
# --------------------------------------------------------------------------

def resistance_spectral(scheme: AssociationScheme, spectral: SpectralData,
                        conductances) -> ResistanceTable:
    """R^(l) = (2/(N kappa_l)) sum_k m_k (kappa_l - P[k,l]) / D_k
    with D_k = sum_i c_i (kappa_i - P[k,i]) over the nontrivial eigenspaces.

    Raises
    ------
    BadParameter
        If ``spectral`` does not list d+1 multiplicities summing to N, or
        row 0 of its P is not the valencies within 1e-7: it belongs to
        another scheme.
    ZeroDenominator
        If some D_k vanishes relative to the conductance scale
        sum_i c_i kappa_i (the conductance support is disconnected).
    """
    cond = ConductanceVector.coerce(conductances, scheme.d)
    c = cond.as_floats()
    n, d = scheme.n, scheme.d
    mults = spectral.multiplicities
    if len(mults) != d + 1 or sum(mults) != n:
        raise BadParameter(f"spectral data of {len(mults)} eigenspaces on {sum(mults)} "
                           f"vertices do not fit a scheme with d = {d} on {n} vertices")
    kappa = np.array(scheme.valencies, dtype=float)
    p = spectral.p_matrix
    gap = kappa - p  # [k, l] = kappa_l - P[k, l]; row 0 is 0 for this scheme's data
    if np.abs(gap[0]).max() > 1e-7:
        row = ", ".join(f"{x:g}" for x in p[0])
        raise BadParameter(f"spectral data with row 0 of P ({row}) do not fit a scheme "
                           f"with valencies {scheme.valencies}")
    mults = np.array(mults, dtype=float)

    denoms = (gap[1:, 1:] * c).sum(axis=1)  # index k-1
    small = np.abs(denoms) <= 1e-12 * float(c @ kappa[1:])
    if small.any():
        raise ZeroDenominator(
            f"eigenspace {1 + int(np.argmax(small))} has vanishing denominator")

    # terms[l-1, k-1] = m_k (kappa_l - P[k,l]) / D_k, in C order so that
    # each row is summed pairwise, exactly as a 1-D sum over k
    terms = mults[1:] * np.ascontiguousarray(gap[1:, 1:].T) / denoms
    values = 2.0 / (n * kappa[1:]) * terms.sum(axis=1)
    return ResistanceTable(tuple(values.tolist()), method="spectral", exact=False)


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


def _power_rows(scheme: AssociationScheme) -> list:
    """W[l] = B_1^l e_0 for l = 0..d: the class coefficients of A^l, in
    Python ints, so the powers never overflow.

    Row k of B_1 holds p^k_1j, which sum to kappa_1 over j, so it has at
    most kappa_1 nonzeros; each of the d powers multiplies by those alone,
    in O(kappa_1 d^2) work in all rather than the dense O(d^3).
    """
    entries = [[(j, v) for j, v in enumerate(row) if v]  # [k] = the (j, p^k_1j > 0)
               for row in scheme.intersection_matrix(1).tolist()]
    rows = [[int(k == 0) for k in range(scheme.d + 1)]]
    for _ in range(scheme.d):
        last = rows[-1]
        rows.append([sum(v * last[j] for j, v in row) for row in entries])
    return rows


def _singular_power_rows(scheme: AssociationScheme, singular: SingularSystem) -> Exception:
    """The error for singular power rows W: ``Disconnected`` if the class-1
    graph is not connected, else ``FewerEigenvalues`` with W's exact rank,
    the number of distinct eigenvalues of A_1.  W[l][k] counts the walks
    of l class-1 steps to a fixed vertex of class k, so a class that class
    1 never reaches is a zero column: a nonsingular W proves connectivity.
    """
    if not scheme.relation_connected([1]):
        return Disconnected("class-1 graph is not connected")
    return FewerEigenvalues(
        f"A_1 generates a rank-{singular.rank} subalgebra of dimension {scheme.d + 1}")


def polynomial_coefficients(scheme: AssociationScheme) -> PolynomialCoefficients:
    """Expand each relation as an exact polynomial in A_1, spectrum-free.

    The class coefficients of A^n are B_1^n e_0, with B_1 the intersection
    matrix of class 1, so A^0..A^d are expanded in exact integers without
    touching an N x N matrix, in O(kappa_1 d^2) (``_power_rows``); that
    system W is then inverted by one exact solve W C = I, certified by its
    residual in integers.

    Raises
    ------
    Disconnected, FewerEigenvalues
        If W is singular, as in ``resistance_polynomial``: A_1 then has
        fewer than d+1 distinct eigenvalues and does not generate the algebra.
    CertificationFailed
        If W (sC) differs from sI, s the common denominator of C.  Then
        C = W^-1, and rows 0 and 1 of C are e_0 and e_1, since W[0] = e_0
        and W[1] = B_1 e_0 = e_1 by the identity axiom.
    """
    rows = _power_rows(scheme)
    size = len(rows)
    try:
        inv = rational_solve(rows, [[int(i == j) for j in range(size)]
                                    for i in range(size)])
    except SingularSystem as exc:
        raise _singular_power_rows(scheme, exc) from None
    c = tuple(tuple(row) for row in inv)
    c_inv = tuple(tuple(Fraction(x) for x in row) for row in rows)
    s = lcm(*(x.denominator for row in c for x in row))
    scaled = [[x.numerator * (s // x.denominator) for x in row] for row in c]
    if any(sum(w * y for w, y in zip(row, column)) != s * (i == j)
           for i, row in enumerate(rows) for j, column in enumerate(zip(*scaled))):
        raise CertificationFailed("power-basis inverse leaves a residual W C - I")
    return PolynomialCoefficients(c=c, c_inv=c_inv)


def resistance_polynomial(scheme: AssociationScheme) -> ResistanceTable:
    """Exact, spectrum-free per-class resistances for unit class-1 conductance.

    R^(m) = (2/(N kappa_m)) x_m with W x = t: row l of W holds the class
    coefficients of A^l, t_n = sum_{i<=n} kappa^{n-i} tr(A^{i-1}) -
    n kappa^{n-1} and tr(A^l) = N W[l][0].  One exact solve, certified by its
    residual (``CertificationFailed``).  Building W costs O(kappa_1 d^2)
    (``_power_rows``).

    Connectivity is decided only when W is singular (``_singular_power_rows``).

    Raises
    ------
    Disconnected
        If W is singular and the class-1 graph is not connected.
    FewerEigenvalues
        If W is singular and the class-1 graph is connected: A_1 has fewer
        than d+1 distinct eigenvalues (the rank is W's).
    CertificationFailed
        If the exact solve leaves a residual W x - t.
    """
    n, d, kappa = scheme.n, scheme.d, scheme.valencies[1]
    rows = _power_rows(scheme)
    t, partial = [0], 0
    for m in range(1, d + 1):  # Horner: partial = sum_i kappa^{m-i} tr(A^{i-1})
        partial = kappa * partial + n * rows[m - 1][0]
        t.append(partial - m * kappa ** (m - 1))
    try:
        x = [row[0] for row in rational_solve(rows, [[v] for v in t])]
    except SingularSystem as exc:
        raise _singular_power_rows(scheme, exc) from None
    if any(sum(w * xk for w, xk in zip(row, x)) != v for row, v in zip(rows, t)):
        raise CertificationFailed("power-basis solve leaves a residual W x - t")
    values = tuple(2 * x[m] / (n * scheme.valencies[m]) for m in range(1, d + 1))
    return ResistanceTable(values, method="polynomial", exact=True)


#: the entries of ``unit_class_one``, shared by every vector it builds
_ONE, _ZERO = Fraction(1), Fraction(0)


def unit_class_one(scheme: AssociationScheme) -> ConductanceVector:
    """The implicit conductance vector of the polynomial route: c_1 = 1."""
    return ConductanceVector.coerce((_ONE,) + (_ZERO,) * (scheme.d - 1), scheme.d)


def require_unit_class_one(scheme: AssociationScheme, conductances) -> None:
    """Reject conductances other than (1, 0, ..., 0) for exact methods."""
    cond = ConductanceVector.coerce(conductances, scheme.d)
    if cond.values != unit_class_one(scheme).values:
        raise MethodPreconditionViolated(
            "polynomial/closed-form methods need unit conductance on class 1 only")


# --------------------------------------------------------------------------
# closed forms from an intersection array
# --------------------------------------------------------------------------

def drg_closed_table(array: IntersectionArray, n_vertices: int) -> ResistanceTable:
    """Closed-form R^(1..d) of a distance-regular network, unit class-1 conductance.

    Biggs' sum R^(m) = (2/N) sum_{i<m} (N - kappa_0 - ... - kappa_i) /
    (kappa_i b_i) (Biggs, "Potential theory on distance-regular graphs",
    Combin. Probab. Comput. 2, 1993), accumulated over i = 0..d-1 in one
    exact pass.

    Raises
    ------
    ValueError
        If b and c differ in length, an entry is not positive, the valency
        chain is infeasible, or ``n_vertices`` is not the valencies' sum.
    """
    if len(array.b) != len(array.c):
        raise ValueError(f"intersection array lists {len(array.b)} b_i and {len(array.c)} c_i")
    if any(x <= 0 for x in array.b) or any(x <= 0 for x in array.c):
        raise ValueError("intersection array entries must be positive")
    valencies = array.valencies()
    if n_vertices != sum(valencies):
        raise ValueError(f"the intersection array has {sum(valencies)} vertices, not {n_vertices}")
    remaining = n_vertices
    total = Fraction(0)
    values = []
    for kappa_i, b_i in zip(valencies, array.b):
        remaining -= kappa_i
        total += Fraction(2 * remaining, n_vertices * kappa_i * b_i)
        values.append(total)
    return ResistanceTable(tuple(values), method="closed_form", exact=True)


def resistance_drg_closed(array: IntersectionArray, n_vertices: int,
                          m: int) -> Fraction:
    """Entry R^(m) of ``drg_closed_table``.

    Raises
    ------
    OutOfRange
        If m lies outside 1..d.
    """
    if not 1 <= m <= array.d:
        raise OutOfRange(f"closed forms cover 1 <= m <= d; got m={m}, d={array.d}")
    return drg_closed_table(array, n_vertices).values[m - 1]


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
            ci * ki * ri for ci, ki, ri in
            zip(cond.as_floats().tolist(), scheme.valencies[1:], table.values))
        residual = abs(lhs - (scheme.n - 1))
        passed = residual <= tol
    return FosterReport(lhs=float(lhs), expected=float(scheme.n - 1),
                        residual=float(residual), passed=bool(passed))
