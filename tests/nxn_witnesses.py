"""N x N reference implementations that the library replaced with
computations on the intersection numbers p.  The tests compare the
library against them."""

from __future__ import annotations

from typing import Sequence

import numpy as np

import schemeres as sr
from schemeres.errors import NotCommuting, NotSymmetric
from schemeres.spectra import CLUSTER_TOL, eig_sym

COMMUTE_TOL = 1e-9
_COMBO_SEED = 0x5CE11E


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
    if not scheme.relation_connected([1]):
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
    strat = sr.stratify(scheme, 0)
    indicators = (strat.unit_vectors > 0).astype(float)
    counts = indicators @ scheme.relations[1].astype(float) @ indicators.T
    off = np.triu(counts, 2)
    if off.any() or np.tril(counts, -2).any():
        return None

    return sr.IntersectionArray(b=b, c=c)
