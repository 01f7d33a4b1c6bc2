"""N x N reference implementations that the library replaced with
computations on the intersection numbers p or on row 0 of the class map.
The tests compare the library against them."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

import schemeres as sr
from schemeres.errors import (
    CertificationFailed,
    Disconnected,
    NotClosed,
    NotPartition,
    NotSymmetric,
    SchemeresError,
)
from schemeres.spectra import CLUSTER_TOL

COMMUTE_TOL = 1e-9
_COMBO_SEED = 0x5CE11E
_INT64_SAFE = 2**62


class NotCommuting(SchemeresError):
    """Family handed to the joint diagonalizer does not commute."""


# --------------------------------------------------------------------------
# exact N x N matrix powers and traces
# --------------------------------------------------------------------------

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


# --------------------------------------------------------------------------
# the oracle's former route: the full N x N pseudo-inverse
# --------------------------------------------------------------------------

def laplacian(scheme, conductances) -> np.ndarray:
    """L = (sum_i c_i kappa_i) I - sum_i c_i A_i, as floats, one relation
    matrix at a time."""
    c = sr.ConductanceVector.coerce(conductances, scheme.d).as_floats()
    lap = float(sum(ci * ki for ci, ki in zip(c, scheme.valencies[1:]))) * np.eye(scheme.n)
    for i, ci in enumerate(c, start=1):
        if ci:
            lap -= ci * scheme.relations[i].astype(float)
    return lap


def pseudo_inverse(scheme, conductances) -> np.ndarray:
    """Moore-Penrose inverse of the scheme Laplacian,
    Lp = (L + (s/N) J)^-1 - J/(sN) with s = L_00, after a breadth-first
    search over the conducting pairs L_xy < 0 (``Disconnected`` if it
    misses a vertex)."""
    lap, n = laplacian(scheme, conductances), scheme.n
    conducting = lap < 0  # the diagonal is positive
    reached = frontier = np.arange(n) == 0
    while frontier.any():
        frontier = conducting[frontier].any(axis=0) & ~reached
        reached = reached | frontier
    if not reached.all():
        raise Disconnected(f"conductance support reaches {reached.sum()} of {n} "
                           "vertices, so L has repeated zero eigenvalues")
    s = lap[0, 0]
    return np.linalg.inv(lap + s / n) - 1 / (s * n)


def oracle_resistance_matrix(scheme, conductances) -> np.ndarray:
    """Full N x N matrix of two-point resistances R_ab = Lp_aa+Lp_bb-2Lp_ab;
    ``CertificationFailed`` if the diagonal of Lp spreads by more than
    ``STRATUM_SPREAD_TOL``."""
    lp = pseudo_inverse(scheme, conductances)
    diag = np.diag(lp)
    spread = float(diag.max() - diag.min())
    if spread > sr.resistance.STRATUM_SPREAD_TOL:
        raise CertificationFailed(f"pseudo-inverse diagonal spread {spread:.3e}")
    return np.add.outer(diag, diag) - lp - lp.T


def nxn_oracle_table(scheme, conductances):
    """The oracle table and its worst within-class spread, read class by
    class through an N x N mask of the class map."""
    rmat = oracle_resistance_matrix(scheme, conductances)
    values = []
    worst = 0.0
    for l in range(1, scheme.d + 1):
        members = rmat[scheme.classmap == l]
        spread = float(members.max() - members.min())
        if spread > sr.resistance.STRATUM_SPREAD_TOL:
            raise CertificationFailed(f"class {l} resistance spread {spread:.3e}")
        worst = max(worst, spread)
        beta = int(np.flatnonzero(scheme.classmap[0] == l)[0])
        values.append(float(rmat[0, beta]))
    return sr.ResistanceTable(tuple(values), method="oracle", exact=False), worst


# --------------------------------------------------------------------------
# stratification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Stratification:
    """Partition of vertices by their relation to a reference vertex."""

    reference: int
    strata: tuple           # index arrays, strata[i] lists Gamma_i(reference)
    unit_vectors: np.ndarray  # (d+1, n); row i is the i-th stratum unit vector


def stratify(scheme, reference: int = 0) -> Stratification:
    """Strata and stratum unit vectors for one reference vertex.

    Also certifies, in exact integer arithmetic, the matrix-element identity
    <phi_l| A_i |phi_j> = sqrt(kappa_l / kappa_j) * p^l_{ij} for all l, i, j.
    """
    n, d = scheme.n, scheme.d
    if not 0 <= reference < n:
        raise ValueError("reference vertex out of range")
    row = scheme.classmap[reference].astype(np.intp)  # wide enough for ``cell``
    strata = tuple(np.flatnonzero(row == i) for i in range(d + 1))
    for i, s in enumerate(strata):
        if len(s) != scheme.valencies[i]:
            raise NotPartition(f"stratum {i} has size {len(s)}, not kappa_{i}")

    indicators = np.zeros((d + 1, n))
    for i, s in enumerate(strata):
        indicators[i, s] = 1.0
    kappa = np.array(scheme.valencies, dtype=float)
    unit_vectors = indicators / np.sqrt(kappa)[:, None]

    # integer form of the matrix-element identity: the pairs (x, y) with x in
    # stratum l, y in stratum j and (x, y) in class i number kappa_l p^l_{ij}
    cell = (row[:, None] * (d + 1) + row) * (d + 1) + scheme.classmap
    counts = np.bincount(cell.ravel(), minlength=(d + 1) ** 3).reshape(d + 1, d + 1, d + 1)
    expected = (np.array(scheme.valencies) * scheme.p).transpose(2, 1, 0)  # [l, j, i]
    off = np.flatnonzero((counts != expected).any(axis=(0, 1)))
    if off.size:
        raise NotClosed(f"stratification matrix elements of A_{off[0]} are off")

    return Stratification(reference, strata, unit_vectors)


# --------------------------------------------------------------------------
# the spectral certificate, one class at a time
# --------------------------------------------------------------------------

def per_class_eigenspace_residual(scheme, data) -> np.ndarray:
    """[j, k] = max_l |(B_j E_k)_l - P[k, j] (E_k)_l|: the (d+1)^4 residual
    of A_j E_k = P[k, j] E_k in the class basis, one B_j at a time."""
    coeffs = data.q_matrix / scheme.n  # column k holds the class coefficients of E_k
    return np.array([
        np.abs(scheme.intersection_matrix(j) @ coeffs - coeffs * data.p_matrix[:, j]).max(axis=0)
        for j in range(scheme.d + 1)])


def per_class_certificate_accepts(scheme, data, tol: float = 1e-7) -> bool:
    """The former certificate of ``spectral_data``: every B_j, at the
    tolerance tol max(1, max kappa)."""
    scale = max(1.0, float(max(scheme.valencies)))
    return not (per_class_eigenspace_residual(scheme, data) > tol * scale).any()


# --------------------------------------------------------------------------
# certified symmetric eigendecomposition
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a symmetric matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns, matching order

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T


def eig_sym(m, *, sym_tol: float = 1e-12) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, certified by the residual
    M V = V diag(w).

    Raises
    ------
    NotSymmetric
        If max|M - M^T| exceeds ``sym_tol``.
    CertificationFailed
        If the residual exceeds 1e-9 times the largest entry (at least 1).
    """
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSymmetric("input is not a square matrix")
    asym = float(np.abs(arr - arr.T).max(initial=0.0))
    if asym > sym_tol:
        raise NotSymmetric(f"max|M - M^T| = {asym:.3e} exceeds {sym_tol:.1e}")
    w, v = np.linalg.eigh(arr)
    scale = max(1.0, float(np.abs(arr).max(initial=0.0)))
    residual = float(np.abs(arr @ v - v * w).max(initial=0.0))
    if residual > 1e-9 * scale:
        raise CertificationFailed(f"eigh residual {residual:.3e} out of bound")
    return EigenDecomposition(w, v)


# --------------------------------------------------------------------------
# joint diagonalization, connectivity and distance regularity
# --------------------------------------------------------------------------


def _cluster_breaks(values: np.ndarray, tol: float) -> list[int]:
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    breaks = [0]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > tol * scale:
            breaks.append(i)
    breaks.append(len(values))
    return breaks


def _refine(basis: np.ndarray, members: Sequence[np.ndarray], start: int,
            tol: float) -> list[np.ndarray]:
    """Split a cluster basis until every member acts as a scalar on it."""
    if basis.shape[1] == 1 or start == len(members):
        return [basis]
    block = basis.T @ members[start] @ basis
    w, v = np.linalg.eigh((block + block.T) / 2)
    breaks = _cluster_breaks(w, tol)
    if len(breaks) == 2:  # member is scalar here; move on to the next one
        return _refine(basis, members, start + 1, tol)
    out: list[np.ndarray] = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        out.extend(_refine(basis @ v[:, lo:hi], members, start + 1, tol))
    return out


def simultaneous_eigenbasis(family: Sequence[np.ndarray], *,
                            cluster_tol: float = CLUSTER_TOL,
                            commute_tol: float = COMMUTE_TOL,
                            seed: int = _COMBO_SEED) -> list[np.ndarray]:
    """Orthogonal projectors onto the common eigenspaces of the family.

    Every member is (numerically) a real linear combination of the returned
    projectors, the projectors are mutually orthogonal, and they resolve the
    identity.

    Raises
    ------
    NotCommuting
        If some pair fails to commute; the message carries the worst
        commutator norm.
    """
    mats = [np.asarray(m, dtype=float) for m in family]
    if not mats:
        raise ValueError("family must be non-empty")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise NotSymmetric("family members must share one square shape")
        if np.abs(m - m.T).max(initial=0.0) > 1e-12:
            raise NotSymmetric("family members must be symmetric")

    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            scale = max(1.0, float(np.abs(mats[i]).max()) * float(np.abs(mats[j]).max()))
            worst = max(worst, float(np.abs(comm).max(initial=0.0)) / scale)
    if worst > commute_tol:
        raise NotCommuting(f"max commutator norm {worst:.3e} exceeds {commute_tol:.1e}")

    rng = np.random.default_rng(seed)
    weights = rng.standard_normal(len(mats))
    combo = sum(w * m for w, m in zip(weights, mats))
    decomp = eig_sym(combo, sym_tol=1e-10)

    projectors = []
    breaks = _cluster_breaks(decomp.eigenvalues, cluster_tol)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        for basis in _refine(decomp.eigenvectors[:, lo:hi], mats, 0, cluster_tol):
            projectors.append(basis @ basis.T)
    return projectors


def nxn_relation_connected(scheme, classes: Sequence[int]) -> bool:
    """True if the union of the listed relations is a connected graph, by a
    breadth-first search over the N x N relation matrices."""
    adj = np.zeros((scheme.n, scheme.n), dtype=bool)
    for k in classes:
        adj |= scheme.relations[k].astype(bool)
    seen = np.zeros(scheme.n, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        nxt = adj[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = np.flatnonzero(nxt)
    return bool(seen.all())


def nxn_check_distance_regular(scheme):
    """Intersection array by the N x N route: the p^i_{j1} band, a BFS on
    the class-1 graph, the array identities, and A_1 recounted on the
    strata of vertex 0."""
    d = scheme.d
    if d < 1:
        return None
    for j in range(d + 1):
        for i in range(d + 1):
            if abs(i - j) > 1 and scheme.p[j, 1, i] != 0:
                return None
    if not nxn_relation_connected(scheme, [1]):
        return None

    kappa = scheme.valencies[1]
    b = tuple(int(scheme.p[1, i + 1, i]) for i in range(d))
    c = tuple(int(scheme.p[1, i - 1, i]) for i in range(1, d + 1))
    a = tuple(int(scheme.p[1, i, i]) for i in range(1, d + 1))

    if b[0] != kappa or c[0] != 1:
        return None
    for i in range(1, d + 1):
        bi = b[i] if i < d else 0
        if a[i - 1] + bi + c[i - 1] != kappa:
            return None
        if scheme.valencies[i - 1] * b[i - 1] != scheme.valencies[i] * c[i - 1]:
            return None

    # A_1 must act tridiagonally on the stratum unit vectors
    strat = stratify(scheme, 0)
    indicators = (strat.unit_vectors > 0).astype(float)
    counts = indicators @ scheme.relations[1].astype(float) @ indicators.T
    off = np.triu(counts, 2)
    if off.any() or np.tril(counts, -2).any():
        return None

    return sr.IntersectionArray(b=b, c=c)
