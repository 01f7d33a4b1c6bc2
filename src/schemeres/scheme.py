"""Association-scheme data model.

``verify_scheme`` is the only constructor: it checks every defining axiom in
exact integer arithmetic and computes the intersection numbers on the way.
Matrix products are taken in float64 (BLAS) for speed.  Each packs a run of
classes into base-``base`` digits, base = max kappa + 1, and the run is cut
so that base**run <= 2**53: every entry and partial sum stays an integer
below 2**53, so the products are exact and the axiom checks bit-exact.

Everything after verification reads p alone: ``spectral_data`` takes P, Q
and the multiplicities from one eigendecomposition of a generic element of
the (d+1)-dimensional intersection algebra, and ``check_distance_regular``
reads the intersection array off p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateSplit,
    IdentityMissing,
    NotClosed,
    NotCommutative,
    NotPartition,
    NotSymmetric,
)
from .spectra import CLUSTER_TOL, eig_sym


@dataclass(frozen=True, eq=False)
class AssociationScheme:
    """A verified symmetric association scheme on n vertices with d classes.

    Attributes
    ----------
    valencies : row sums kappa_0..kappa_d
    p : (d+1, d+1, d+1) array, ``p[i, j, k]`` = coefficient of A_k in A_i A_j
    classmap : (n, n) int16 array mapping a vertex pair to its class index
    relations : int8 matrices A_0..A_d, derived from ``classmap`` on access
    """

    n: int
    d: int
    valencies: tuple
    p: np.ndarray
    classmap: np.ndarray
    class_names: tuple

    @cached_property
    def relations(self) -> tuple:
        return tuple((self.classmap == k).astype(np.int8) for k in range(self.d + 1))

    def intersection_matrix(self, i: int) -> np.ndarray:
        """B_i with (B_i)[k, j] = p^k_{ij}; columns track A_i A_j."""
        return self.p[i, :, :].T.copy()

    def relation_connected(self, classes: Sequence[int]) -> bool:
        """True if the union of the listed relations is a connected graph.

        A step along class j leads from class i of vertex 0 to the classes k
        with p^k_ij > 0, and reaches every pair of each, so the closure of
        {0} under these steps is exactly the classes reachable from vertex 0.
        """
        step = self.p[:, list(classes), :].any(axis=1)  # [i, k]
        reached = np.arange(self.d + 1) == 0
        for _ in range(self.d):  # a round that changes anything adds a class
            reached = reached | step[reached].any(axis=0)
        return bool(reached.all())


def verify_scheme(relations, class_names: Optional[Sequence[str]] = None
                  ) -> AssociationScheme:
    """Validate a scheme, given as its d+1 relation matrices or as one (n, n)
    integer numpy array mapping each vertex pair to its class, and build it.

    Relation matrices must be nonempty, 0/1 and partition the vertex pairs;
    they are reduced to their class map.  The class map is checked in exact
    integer arithmetic: class 0 is exactly the diagonal, the map is
    symmetric, no class in 0..d is empty, each is regular (kappa_k read off
    row 0), the family is closed with nonnegative integer coefficients and
    p is commutative.  Closure costs sum_i ceil((d+1-i) / run) N x N
    products, with each product packing ``run`` classes; see
    ``_intersection_numbers``.

    Raises
    ------
    IdentityMissing, NotPartition, NotSymmetric, NotClosed, NotCommutative
        Naming the violated axiom: a skipped label is ``NotPartition``, a
        negative one ``IdentityMissing``, a non-regular relation ``NotClosed``.
    """
    if isinstance(relations, np.ndarray) and relations.ndim == 2:
        classmap = relations
    else:
        classmap = _relation_classmap(relations)
    n = classmap.shape[0]
    if classmap.shape != (n, n) or not np.issubdtype(classmap.dtype, np.integer):
        raise NotPartition("the class map is not a square integer array")

    # the diagonal is class 0, and no other entry is 0 or below
    if np.diagonal(classmap).any() or np.count_nonzero(classmap < 1) != n:
        raise IdentityMissing("class 0 is not exactly the diagonal")

    asymmetric = classmap != classmap.T
    if asymmetric.any():
        x, y = np.argwhere(asymmetric)[0]
        raise NotSymmetric(f"relation {classmap[x, y]} is not symmetric")

    d = int(classmap.max())
    if d >= n:  # every class meets every vertex, so there are at most n
        raise NotPartition(f"{d + 1} class labels on {n} vertices")
    # counts[x, k] = number of vertices in class k of vertex x
    counts = np.bincount((np.arange(n)[:, None] * (d + 1) + classmap).ravel(),
                         minlength=n * (d + 1)).reshape(n, d + 1)
    empty = np.flatnonzero(counts.sum(axis=0) == 0)
    if empty.size:
        raise NotPartition(f"relation {empty[0]} is empty")
    irregular = np.flatnonzero((counts != counts[0]).any(axis=0))
    if irregular.size:
        raise NotClosed(f"relation {irregular[0]} is not regular")
    valencies = tuple(int(v) for v in counts[0])

    classmap = classmap.astype(np.int16 if d < 2 ** 15 else np.int32)
    p = _intersection_numbers(classmap, valencies)
    if (p != p.transpose(1, 0, 2)).any():
        raise NotCommutative("p^k_{ij} != p^k_{ji} for some i, j, k")

    names = tuple(class_names) if class_names is not None else tuple(
        f"A{k}" for k in range(d + 1))
    if len(names) != d + 1:
        raise ValueError("class_names length must be d+1")

    return AssociationScheme(n=n, d=d, valencies=valencies, p=p,
                             classmap=classmap, class_names=names)


def _relation_classmap(relations: Sequence) -> np.ndarray:
    """The class map of d+1 nonempty relation matrices with 0/1 entries that
    partition the vertex pairs (``NotPartition`` otherwise)."""
    rels = [np.asarray(r) for r in relations]
    if not rels:
        raise NotPartition("no relations given")
    n = rels[0].shape[0]
    classmap = np.zeros((n, n), dtype=np.int16)
    covered = np.zeros((n, n), dtype=np.int64)
    for k, r in enumerate(rels):
        if r.ndim != 2 or r.shape != (n, n):
            raise NotPartition(f"relation {k} is not {n}x{n}")
        if r.dtype == object or not np.issubdtype(r.dtype, np.integer):
            cast = r.astype(np.int64)
            if (cast != r).any():
                raise NotPartition(f"relation {k} has non-integer entries")
            r = cast
        if ((r != 0) & (r != 1)).any():
            raise NotPartition(f"relation {k} has entries outside {{0, 1}}")
        if not r.any():  # a class map cannot show an empty last relation
            raise NotPartition(f"relation {k} is empty")
        covered += r
        classmap[r.astype(bool)] = k
    if (covered != 1).any():
        raise NotPartition("relations do not partition the vertex pairs")
    return classmap


def _intersection_numbers(classmap: np.ndarray, valencies: tuple) -> np.ndarray:
    """Certify A_i A_j = sum_k p^k_ij A_k for all i <= j and return p.

    The relations must already be certified symmetric and regular, so every
    entry of A_i A_j is an integer in [0, kappa_i] and below ``base`` =
    max kappa + 1.  A run of classes j0..j1-1 then packs into one product:
    A_i W with W = sum_q base^q A_{j0+q} holds A_i A_{j0+q} as base-``base``
    digit q.  ``run`` is the largest length with base**run <= 2**53, so
    every entry and every partial sum of the float64 product is a
    nonnegative integer below 2**53 and the product is exact.  Because each
    digit is below ``base``, a packed entry equals the packed coefficients
    of its class exactly when every digit does, i.e. when each A_i A_j in
    the run lies in the span of the relations.  That takes
    sum_i ceil((d+1-i) / run) products instead of (d+1)(d+2)/2.
    """
    d = len(valencies) - 1
    base = max(valencies) + 1
    run = 1
    while base ** (run + 1) <= 2 ** 53:
        run += 1
    powers = np.array([base ** q for q in range(run)], dtype=np.int64)
    # every class meets row 0, since each relation is regular and nonempty
    reps = np.argmax(classmap[0] == np.arange(d + 1)[:, None], axis=1)

    index = classmap.astype(np.intp)  # gathers run about twice as fast on intp
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for i in range(d + 1):
        a_i = (classmap == i).astype(np.float64)
        for j0 in range(i, d + 1, run):
            j1 = min(j0 + run, d + 1)
            weights = np.zeros(d + 1)
            weights[j0:j1] = powers[:j1 - j0]
            packed = a_i @ weights[index]  # exact integers, so compared as floats
            coef = packed[0, reps]
            expected = coef[index]
            if (packed != expected).any():
                x, y = np.argwhere(packed != expected)[0]
                pair = np.array([packed[x, y], expected[x, y]], dtype=np.int64)
                digits = pair[:, None] // powers[:j1 - j0] % base
                j = j0 + int(np.argmax(digits[0] != digits[1]))
                raise NotClosed(f"A_{i} A_{j} is outside the span of the relations")
            digits = coef.astype(np.int64) // powers[:j1 - j0, None] % base
            p[i, j0:j1, :] = digits  # [q, k] = p^k_{i, j0+q}
            p[j0:j1, i, :] = digits  # product of symmetric matrices, transposed
    return p


# --------------------------------------------------------------------------
# spectral data
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralData:
    """Eigenmatrices and primitive idempotents of the Bose-Mesner algebra.

    ``p_matrix`` rows index common eigenspaces (row 0 is the all-ones
    eigenspace, so ``P[0, j] = kappa_j`` and ``P[k, 0] = 1``); columns index
    classes.  ``multiplicities[k]`` is the rank of ``idempotents[k]``.
    ``idempotents`` are the N x N matrices E_k = (1/N) sum_j Q[j, k] A_j;
    they are built from ``classmap`` on first access only, since nothing
    else in the package needs them.
    """

    p_matrix: np.ndarray
    q_matrix: np.ndarray
    multiplicities: tuple
    classmap: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def d(self) -> int:
        return self.p_matrix.shape[0] - 1

    @cached_property
    def idempotents(self) -> tuple:
        n = sum(self.multiplicities)
        return tuple(self.q_matrix[self.classmap, k] / n for k in range(self.d + 1))


#: seed of the generic weights, so that every call draws the same sequence
_COMBO_SEED = 0x5CE11E
#: generic combinations tried before the split is declared degenerate
_WEIGHT_DRAWS = 3


def _weight_draws(count: int):
    """The seeded generic weight vectors, ``count`` weights each."""
    rng = np.random.default_rng(_COMBO_SEED)
    for _ in range(_WEIGHT_DRAWS):
        yield rng.standard_normal(count)


def spectral_data(scheme: AssociationScheme, *, validate: bool = True) -> SpectralData:
    """Compute P, Q and the multiplicities in the intersection algebra.

    Multiplication by A_i acts on coefficient vectors as the intersection
    matrix B_i; with K = diag(kappa), the matrices K^1/2 B_i K^-1/2 are
    symmetric and commute.  Their common eigenvectors are the characters of
    the (d+1)-dimensional algebra, each of multiplicity one, so one generic
    combination S = sum_i w_i K^1/2 B_i K^-1/2 separates them all.  Each
    eigenvector v_k of S gives q = K^-1/2 v_k, proportional to Q[:, k], hence
    P[k, l] = kappa_l q_l / q_0 and, by the orthogonality relations,
    m_k = N / sum_l P[k, l]^2 / kappa_l.  Only (d+1) x (d+1) matrices are
    touched.

    Eigenspace 0 is the span of the all-ones vector; the remaining
    eigenspaces are ordered by decreasing eigenvalue on A_1 (ties broken by
    the later columns), which reproduces the conventional ordering on
    distance-regular schemes.

    Raises
    ------
    NotClosed
        If the intersection numbers break kappa_k p^k_ij = kappa_j p^j_ik.
    DegenerateSplit
        If no seeded combination has every relative eigenvalue gap above
        ``spectra.CLUSTER_TOL``, or a multiplicity is not close to a
        positive integer.
    """
    n, d = scheme.n, scheme.d
    kappa = np.array(scheme.valencies, dtype=np.int64)
    weighted = kappa[None, None, :] * scheme.p  # [i, j, k] = kappa_k p^k_ij
    if (weighted != weighted.transpose(0, 2, 1)).any():
        raise NotClosed("kappa_k p^k_ij != kappa_j p^j_ik for some i, j, k")
    root = np.sqrt(np.outer(kappa, kappa).astype(float))

    widest = 0.0
    for weights in _weight_draws(d + 1):
        # S[k, j] = sum_i w_i kappa_k p^k_ij / sqrt(kappa_k kappa_j)
        combo = np.tensordot(weights, weighted, axes=1) / root
        decomp = eig_sym((combo + combo.T) / 2)  # symmetric to the last bit
        values = decomp.eigenvalues
        scale = max(1.0, float(np.abs(values).max()))
        gap = float(np.diff(values).min(initial=np.inf)) / scale
        if gap > CLUSTER_TOL:
            break
        widest = max(widest, gap)
    else:
        raise DegenerateSplit(
            f"in the best of {_WEIGHT_DRAWS} seeded combinations the smallest relative "
            f"eigenvalue gap {widest:.3e} is not above CLUSTER_TOL = {CLUSTER_TOL:.1e}")

    q = decomp.eigenvectors / np.sqrt(kappa)[:, None]  # column k is parallel to Q[:, k]
    raw_p = kappa * q.T / q[0][:, None]                # [k, l] = kappa_l q_l / q_0
    norms = (raw_p ** 2 / kappa).sum(axis=1)
    mults = []
    for t in n / norms:
        m = round(float(t))
        if abs(t - m) >= 1e-6 or m < 1:
            raise DegenerateSplit(f"multiplicity {float(t)!r} is not a positive integer")
        mults.append(m)

    k0 = int(np.argmin(np.abs(raw_p - kappa).max(axis=1)))
    rest = [k for k in range(d + 1) if k != k0]
    rest.sort(key=lambda k: tuple(-np.round(raw_p[k, 1:], 9)))
    order = [k0] + rest

    p_matrix = raw_p[order]
    multiplicities = tuple(mults[k] for k in order)

    q_matrix = (p_matrix.T * multiplicities).T  # temporary: m_k * P[k, l]
    q_matrix = q_matrix.T / kappa[:, None]      # Q[l, j] = m_j P[j, l] / kappa_l

    data = SpectralData(p_matrix, q_matrix, multiplicities, scheme.classmap)
    if validate:
        _validate_spectral(scheme, data)
    return data


def _validate_spectral(scheme: AssociationScheme, data: SpectralData) -> None:
    """Certify the tables against the exact intersection numbers.

    B_j Q[:, k] = P[k, j] Q[:, k] is A_j E_k = P[k, j] E_k read in the class
    basis, so it is equivalent to the N x N identity once p is exact.
    """
    n, d = scheme.n, scheme.d
    P, Q = data.p_matrix, data.q_matrix
    if data.multiplicities[0] != 1 or sum(data.multiplicities) != n:
        raise DegenerateSplit("multiplicities do not resolve the vertex count")
    if np.abs(P @ Q - n * np.eye(d + 1)).max() > 1e-7 * n:
        raise DegenerateSplit("P Q != N I at tolerance")
    if np.abs(Q[:, 0] - 1.0).max() > 1e-8 * n:
        raise DegenerateSplit("eigenspace 0 is not J/N")
    if np.abs(P[0] - np.array(scheme.valencies)).max() > 1e-7:
        raise DegenerateSplit("row 0 of P does not list the valencies")
    if np.abs(P[:, 0] - 1.0).max() > 1e-7:
        raise DegenerateSplit("column 0 of P is not all ones")
    scale = max(float(v) for v in scheme.valencies)
    coeffs = Q / n  # column k holds the class coefficients of E_k
    # [j, k, l] = (B_j E_k)_l - P[k, j] (E_k)_l, since (B_j)[l, i] = p[j, i, l]
    residual = np.matmul(coeffs.T, scheme.p)
    residual -= P.T[:, :, None] * coeffs.T[None, :, :]
    worst = np.abs(residual, out=residual).max(axis=2)
    if (worst > 1e-7 * max(1.0, scale)).any():
        j, k = np.unravel_index(int(np.argmax(worst)), worst.shape)
        raise DegenerateSplit(f"A_{j} E_{k} != P[{k},{j}] E_{k} at tolerance")


# --------------------------------------------------------------------------
# stratification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Stratification:
    """Partition of vertices by their relation to a reference vertex."""

    reference: int
    strata: tuple           # index arrays, strata[i] lists Gamma_i(reference)
    unit_vectors: np.ndarray  # (d+1, n); row i is the i-th stratum unit vector


def stratify(scheme: AssociationScheme, reference: int = 0) -> Stratification:
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
# distance regularity
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IntersectionArray:
    """{b_0, ..., b_{d-1}; c_1, ..., c_d} of a distance-regular graph."""

    b: tuple
    c: tuple

    @property
    def d(self) -> int:
        return len(self.c)

    @property
    def kappa(self) -> int:
        return self.b[0]

    def a(self, i: int) -> int:
        """a_i = kappa - b_i - c_i, with b_d = 0 and c_0 = 0."""
        bi = self.b[i] if i < self.d else 0
        ci = self.c[i - 1] if i >= 1 else 0
        return self.kappa - bi - ci

    def valencies(self):
        """kappa_0..kappa_d from kappa_{i-1} b_{i-1} = kappa_i c_i."""
        out = [1]
        for i in range(1, self.d + 1):
            num = out[-1] * self.b[i - 1]
            if num % self.c[i - 1] != 0:
                raise ValueError("intersection array is not feasible")
            out.append(num // self.c[i - 1])
        return tuple(out)


def check_distance_regular(scheme: AssociationScheme) -> Optional[IntersectionArray]:
    """Intersection array of the scheme, or None when it is not one.

    A pure function of p.  Requires p^i_{j1} = 0 whenever |i - j| > 1, so
    A_1 acts tridiagonally on the strata, and c_i = p^i_{1,i-1} >= 1 for
    i = 1..d, so every vertex of class i has a class-1 neighbour in class
    i - 1 and the class-1 graph is connected.  On success the standard
    identities a_i + b_i + c_i = kappa and kappa_{i-1} b_{i-1} = kappa_i c_i
    are certified.
    """
    d = scheme.d
    if d < 1:
        return None
    p1 = scheme.p[:, 1, :]  # [j, i] = p^i_{j1}
    if np.triu(p1, 2).any() or np.tril(p1, -2).any():
        return None

    kappa = scheme.valencies[1]
    b = tuple(int(scheme.p[1, i + 1, i]) for i in range(d))
    c = tuple(int(scheme.p[1, i - 1, i]) for i in range(1, d + 1))
    a = tuple(int(scheme.p[1, i, i]) for i in range(1, d + 1))

    if b[0] != kappa or min(c) < 1:
        return None
    for i in range(1, d + 1):
        bi = b[i] if i < d else 0
        if a[i - 1] + bi + c[i - 1] != kappa:
            return None
        if scheme.valencies[i - 1] * b[i - 1] != scheme.valencies[i] * c[i - 1]:
            return None

    return IntersectionArray(b=b, c=c)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def scheme_to_dict(scheme: AssociationScheme) -> dict:
    """JSON-ready document; relations are row-major 0/1 integer lists."""
    return {
        "n": scheme.n,
        "d": scheme.d,
        "class_names": list(scheme.class_names),
        "relations": [r.astype(int).reshape(-1).tolist() for r in scheme.relations],
    }


def scheme_from_dict(doc: dict) -> AssociationScheme:
    """Parse and re-verify a scheme document produced by ``scheme_to_dict``."""
    n = int(doc["n"])
    rels = [np.array(flat, dtype=np.int64).reshape(n, n) for flat in doc["relations"]]
    names = doc.get("class_names")
    scheme = verify_scheme(rels, class_names=names)
    if scheme.d != int(doc["d"]):
        raise NotPartition("declared class count does not match the relations")
    return scheme
