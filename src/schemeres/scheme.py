"""Association-scheme data model.

``verify_scheme`` is the only constructor: it checks every defining axiom in
exact integer arithmetic and computes the intersection numbers on the way.
It takes a ``Translation``, a ``Pairs`` or an N x N class map, on one of
three routes:

* a translation scheme (``Translation``: the cycle, hypercube, square,
  hexagonal and Z_5 x Z_5 builders) is given by generator matrices of a
  point group H of automorphisms of G = Z_m^r alone.  Its classes are the
  H-orbits on G: row 0 labels each point with its orbit, and
  class(x, y) = row0[x - y].  That is the orbital scheme of G x| H, closed
  by construction (Delsarte 1973; Brouwer, Cohen and Neumaier 1989,
  section 2.9), and symmetric when each orbit is closed under negation,
  which row 0 decides.  All of it is O(N |gens|) a round, then O((d+1) N).
* a triangular scheme J(n, 2) (``Pairs``: the triangular builder) is given
  by its number of points alone.  Its vertices are the 2-subsets, and the
  class of (s, t) is 2 - |s & t|: the orbitals of Sym(n), a transitive
  group, so the scheme is closed and symmetric by construction (Brouwer,
  Cohen and Neumaier 1989, section 9.1), and row 0 gives the valencies in
  O(N).

  On both routes no N x N array is built: the class map is a view that
  the realisation derives through its ``row0`` and ``rows``.
* a class map (the group-scheme builders; documents; relations A_k by
  hand, as sum_k k A_k): the axioms are checked over all N^2 entries, and
  every entry of A_i A_j is compared with p on exact float64 (BLAS) N x N
  products (``_certify_closure``).  Each packs a run of classes into
  base-``base`` digits, base = max kappa + 1, and the run is cut so that
  base**run <= 2**53: every entry and partial sum stays an integer below
  2**53, so the products are exact and the comparison bit-exact.  That is
  O((d+1)^2 N^3 / run) work, and the only proof for an arbitrary map.

On every route p^k_ij is counted at one representative r_k per class,
#{z : class(0, z) = i, class(r_k, z) = j}, in O((d+1) N), by one call in
``verify_scheme`` (``_representative_intersection_numbers``).  The scheme
keeps r_0..r_d, and their rows when one block counted them all, for the
oracle; the realisation keeps only its definition.  Of the axioms, a
translation scheme can break only symmetry, with the error the class-map
route gives on its class map, and a pairs scheme none.  The closure they
certify is all that the oracle (``resistance.resistance_oracle``) needs to
solve from row 0; it does not need the generators.  Everything after
verification reads p alone: ``spectral_data`` takes P, Q and the
multiplicities from one eigendecomposition of a generic element of the
(d+1)-dimensional intersection algebra and certifies them with one seeded
combination of the B_j in O(d^3), and ``check_distance_regular`` reads the
intersection array off p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    BadParameter,
    DegenerateSplit,
    IdentityMissing,
    NotClosed,
    NotPartition,
    NotSymmetric,
)
from .spectra import CLUSTER_TOL


@dataclass(frozen=True, eq=False)
class Translation:
    """A translation scheme on G = Z_m^r, given by a point group H.

    The point with coordinates (x_0, ..., x_{r-1}) is vertex
    sum_t x_t m^(r-1-t), the first coordinate most significant.
    ``generators`` are r x r integer matrices acting on coordinate columns
    mod m, and the classes are the orbits on G of the group H they generate:
    the pair (x, y) lies in class ``row0[x - y]``.  ``verify_scheme``
    certifies the generators and derives ``row0``, the orbit labelling
    (read-only; None before then).  ``rows(xs)`` derives rows of the class
    map without building the rest of it, once ``row0`` is derived.
    """

    modulus: int
    rank: int
    generators: tuple = ()
    row0: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def rows(self, xs) -> np.ndarray:
        """Rows ``xs`` (a vertex or a 1-D array of them) of the class map.

        Row x holds row0[x - z] at z.  The index x - z is assembled digit by
        digit, most significant first: digit t of x - z is a function of
        digit t of z alone, so it varies along its own axis of the grid of
        z, and the partial index of the first t digits has only m^t entries
        a row until the last digit.  For m = 2, x - z is x xor z.
        """
        if self.row0 is None:
            raise BadParameter("row 0 is derived by verify_scheme")
        xs = np.asarray(xs)
        m, r = self.modulus, self.rank
        if m == 2:  # digit-wise subtraction is exclusive or: one step, not r
            return self.row0[xs[..., None] ^ np.arange(len(self.row0))]
        places = m ** np.arange(r - 1, -1, -1)
        # [..., t, z_t] = digit t of x - z
        digits = (xs[..., None, None] // places[:, None] - np.arange(m)) % m
        index = digits[..., 0, :]
        for t in range(1, r):
            index = (index[..., :, None] * m + digits[..., t, None, :]).reshape(xs.shape + (-1,))
        return self.row0[index]


@dataclass(frozen=True, eq=False)
class Pairs:
    """The triangular scheme J(points, 2) on the 2-subsets of 0..points-1.

    Vertex x is the x-th 2-subset {a, b}, a < b, in lexicographic order
    (``itertools.combinations``, or ``np.triu_indices(points, 1)``), and the
    pair (s, t) lies in class 2 - |s & t|.  ``verify_scheme`` derives
    ``row0`` (read-only; None before then).  ``rows(xs)`` derives rows of
    the class map without building the rest of it, once ``row0`` is derived.
    """

    points: int
    row0: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def rows(self, xs) -> np.ndarray:
        """Rows ``xs`` (a vertex or a 1-D array of them) of the class map,
        2 - |s & t| from the four endpoint comparisons, O(len(xs) N)."""
        if self.row0 is None:
            raise BadParameter("row 0 is derived by verify_scheme")
        return self._classes(xs)

    def _classes(self, xs) -> np.ndarray:
        a, b = np.triu_indices(self.points, 1)
        xs = np.asarray(xs)
        s, t = a[xs][..., None], b[xs][..., None]
        overlap = (s == a).astype(_label_dtype(2))
        overlap += s == b
        overlap += t == a
        overlap += t == b
        return 2 - overlap


@dataclass(frozen=True, eq=False)
class AssociationScheme:
    """A verified symmetric association scheme on n vertices with d classes,
    its arrays read-only (a class map given to ``verify_scheme`` is copied).

    Attributes
    ----------
    valencies : row sums kappa_0..kappa_d
    p : (d+1, d+1, d+1) array, ``p[i, j, k]`` = coefficient of A_k in A_i A_j
    realisation : the (n, n) int16 (int32 when d >= 2**15) array of pair
        classes, or a ``Translation`` or ``Pairs`` that derives it, row by
        row, through its ``row0`` and ``rows``
    classmap : that array, derived from a ``Translation`` or ``Pairs`` on
        access
    relations : int8 matrices A_0..A_d, derived from ``classmap`` on access
    representatives : r_0..r_d, r_k the first vertex of class k
        in row 0, where p was counted; ``representative_rows`` are their rows,
        kept from a one-block count (``_counted_rows``) or derived on access
    """

    n: int
    d: int
    valencies: tuple
    p: np.ndarray
    realisation: object
    class_names: tuple
    representatives: np.ndarray
    _counted_rows: Optional[np.ndarray] = field(default=None, repr=False)

    @cached_property
    def representative_rows(self) -> np.ndarray:
        if self._counted_rows is not None:
            return self._counted_rows
        t, reps = self.realisation, self.representatives
        return _read_only(t[reps] if isinstance(t, np.ndarray) else t.rows(reps))

    @cached_property
    def classmap(self) -> Optional[np.ndarray]:
        if isinstance(self.realisation, np.ndarray):
            return self.realisation
        return _read_only(self.realisation.rows(np.arange(self.n)))

    @cached_property
    def relations(self) -> tuple:
        return tuple(_read_only((self.classmap == k).astype(np.int8)) for k in range(self.d + 1))

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
        return bool(_reachable_classes(step).all())


#: most classes whose reachability ``_reachable_classes`` squares as booleans;
#: above it a float32 BLAS product is faster, below it the BLAS call costs
#: more than numpy's own boolean product (one BLAS thread, d = 2 to 64)
_BOOLEAN_SQUARE_MAX = 16


def _reachable_classes(step: np.ndarray) -> np.ndarray:
    """The classes reachable from class 0, given whether one step leads from
    class i to class k as a boolean (d+1) x (d+1) array ``step[i, k]``.

    Squaring R = step | I r times covers every walk of up to 2^r steps, and
    a reachable class is at most d steps away, so ceil(log2(d+1)) squarings
    suffice; row 0 of the result is the answer.  Up to
    ``_BOOLEAN_SQUARE_MAX`` classes a square is numpy's boolean product (an
    or of ands); above it, a float32 product thresholded at > 0, whose
    entries are sums of d + 1 products of zeros and ones, integers that
    float32 holds exactly up to 2**24.
    """
    reach = step | np.eye(len(step), dtype=bool)
    for _ in range((len(step) - 1).bit_length()):  # ceil(log2(d+1)) squarings
        if len(step) > _BOOLEAN_SQUARE_MAX:
            square = reach.astype(np.float32)
            reach = square @ square > 0
        else:
            reach = reach @ reach
    return reach[0]


def verify_scheme(given, class_names: Optional[Union[list, tuple]] = None) -> AssociationScheme:
    """Validate a scheme, given as a ``Translation``, as a ``Pairs`` or as one
    (n, n) integer numpy array mapping each vertex pair to its class, and
    build it.

    A set of 0/1 relation matrices A_0..A_d is given as its class map
    sum_k k A_k.  The class map is checked in exact integer arithmetic:
    class 0 is exactly the diagonal, the map is symmetric, no class in 0..d
    is empty, each is regular (kappa_k read off row 0) and the family is
    closed with nonnegative integer coefficients, hence commutative:
    A_i A_j = (A_i A_j)^T = A_j A_i for symmetric A_i.

    The axioms are certified on one of three routes:

    * a ``Translation`` needs integers m >= 2 and r >= 1 (not bools or
      floats) with r (m-1)^2 < 2^53, and r x r integer generators, each a
      bijection of G mod m.  Row 0, their orbit labelling (O(N |gens|) a
      round), proves the axioms in O(N) (see ``_verify_translation``); the
      class map is derived on access, never built here.
    * a ``Pairs`` needs an integer ``points`` >= 2, not a bool.  Its classes
      are the orbitals of Sym(points), so the axioms hold by construction;
      row 0 gives the valencies in O(N) (see ``_verify_pairs``), and the
      class map is derived on access, never built here.
    * a class map has its axioms checked over all N^2 entries (see
      ``_classmap_axioms``), and closure against p costs
      sum_i ceil((d+1-i) / run) packed N x N products
      (``_certify_closure``).

    On every route p is then counted at the representatives of the classes
    in O((d+1) N) (``_representative_intersection_numbers``).

    Raises
    ------
    IdentityMissing, NotPartition, NotSymmetric, NotClosed
        Naming the violated axiom: a skipped label, an empty map, or
        anything but a ``Translation``, a ``Pairs`` or a square integer
        ndarray (a list of relation matrices too), is ``NotPartition``, a
        negative label ``IdentityMissing``, a non-regular relation
        ``NotClosed``.  A translation scheme raises only ``NotSymmetric``,
        when some orbit of H is not closed under negation, with the message
        the class-map route gives on its class map.
    BadParameter
        If a translation's m, r or images are out of range, or a generator
        is malformed or singular mod m (naming the first); if ``points`` is
        not an integer >= 2; or if ``class_names`` is not a list or tuple
        (a bare string included), has an entry that is not a ``str`` (naming
        the first), or does not name d+1 classes.
    """
    if isinstance(given, Translation):
        realisation, valencies = _verify_translation(given)
    elif isinstance(given, Pairs):
        realisation, valencies = _verify_pairs(given)
    else:
        realisation, valencies = _verify_classmap(given)
    dense = isinstance(realisation, np.ndarray)
    p, reps, counted = _representative_intersection_numbers(
        realisation[0] if dense else realisation.row0,
        realisation.__getitem__ if dense else realisation.rows, valencies)
    if dense:  # a class map is closed only once each A_i A_j matches p
        _certify_closure(realisation, valencies, p)
    n, d = sum(valencies), len(valencies) - 1

    if class_names is None:
        names = tuple(f"A{k}" for k in range(d + 1))
    elif isinstance(class_names, (list, tuple)):
        names = tuple(class_names)
    else:  # a string, a mapping or a number would pass tuple() or fail untyped
        raise BadParameter(f"class_names is not a list or tuple of names: {class_names!r}")
    for k, name in enumerate(names):
        if not isinstance(name, str):
            raise BadParameter(f"class name {k} is not a string: {name!r}")
    if len(names) != d + 1:
        raise BadParameter(f"class_names length must be d+1 = {d + 1}, not {len(names)}")

    return AssociationScheme(n=n, d=d, valencies=valencies, p=p, realisation=realisation,
                             class_names=names, representatives=reps, _counted_rows=counted)


def _verify_classmap(classmap) -> tuple:
    """(class map, valencies) on the class-map route of ``verify_scheme``.

    The axioms are checked on the given dtype, so that no label is narrowed
    before it is certified; the scheme keeps a read-only copy.
    """
    if not (isinstance(classmap, np.ndarray) and np.issubdtype(classmap.dtype, np.integer)
            and classmap.ndim == 2 and classmap.shape[0] == classmap.shape[1]):
        raise NotPartition("the class map is not a square integer array")
    if classmap.shape[0] == 0:
        raise NotPartition("the class map has no vertices")
    d, valencies = _classmap_axioms(classmap)
    # a copy, which the caller's array no longer reaches
    return _read_only(classmap.astype(_label_dtype(d))), valencies


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only in place."""
    array.flags.writeable = False
    return array


def _label_dtype(d: int) -> type:
    return np.int16 if d < 2 ** 15 else np.int32


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool, which Python
    counts as an int, and for a float, even a whole one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _verify_translation(given: Translation) -> tuple:
    """(the translation with its derived row 0, valencies) on the
    translation route of ``verify_scheme``.

    Each generator must be an r x r integer matrix and a bijection of G (a
    ``bincount`` of its images), hence an automorphism.  Row 0 labels every
    point with its H-orbit, numbered in order of its least point
    (``_orbit_labels``); H fixes 0, so class 0 is {0}, and every label 0..d
    is used.  The classes are then the orbitals of G x| H, a transitive
    group, so the scheme is closed by construction; the translations act
    transitively on its class map, so row 0 (row0[-z]) and column 0 (row0)
    decide symmetry and give the valencies in O(N).
    """
    m, r = given.modulus, given.rank
    if not (_is_integer(m) and _is_integer(r) and m >= 2 and r >= 1):
        raise BadParameter(f"a translation scheme needs modulus >= 2 and rank >= 1, "
                           f"integers, not {m!r} and {r!r}")
    m, r = int(m), int(r)
    if r * (m - 1) ** 2 >= 2 ** 53:  # before any N-sized array: N = m^r is huge here
        raise BadParameter(f"a translation scheme needs rank (modulus - 1)^2 < 2^53, so that "
                           f"its images are exact in float64, not {r} ({m} - 1)^2")
    n = m ** r
    gens, images = [], []
    for k, h in enumerate(given.generators):
        h = np.asarray(h)
        if h.shape != (r, r) or not np.issubdtype(h.dtype, np.integer):
            raise BadParameter(f"generator {k} is not a {r} x {r} integer matrix")
        h = _read_only(h.astype(np.int64))
        image = _image(h, m, r)
        if np.bincount(image, minlength=n).max() > 1:
            raise BadParameter(f"generator {k} is singular mod {m}")
        gens.append(h)
        images.append(image)

    row0 = _orbit_labels(images, n)
    row0 = _read_only(row0.astype(_label_dtype(int(row0.max()))))
    translation = Translation(m, r, tuple(gens))
    object.__setattr__(translation, "row0", row0)
    return translation, _row_zero_axioms(translation.rows(0), row0)


def _image(h: np.ndarray, m: int, r: int) -> np.ndarray:
    """The vertex h z of every vertex z of Z_m^r, h an r x r integer matrix,
    by float64 products of blocks of coordinates mod m, exact since every
    partial sum is an integer at most r (m-1)^2 < 2**53.

    For m = 2, h z is the exclusive or, over the set bits of z, of the
    codes of h's columns mod 2, so the images of the first 2^b vertices and
    one code give the next 2^b: N exclusive ors in all, and no products.
    """
    n = m ** r
    places = m ** np.arange(r - 1, -1, -1)
    out = np.empty(n, dtype=np.intp)
    if m == 2:
        codes = places @ (h % 2)  # [t] = the code of column t, the image of vertex 2^(r-1-t)
        out[0] = 0
        for b, code in enumerate(codes[::-1]):
            out[1 << b:2 << b] = out[:1 << b] ^ code
        return out
    h = (h % m).astype(np.float64)
    step = max(1, _ROW_ZERO_BLOCK // r)
    for z0 in range(0, n, step):
        coords = np.arange(z0, min(z0 + step, n)) // places[:, None] % m  # [s, z]
        out[z0:z0 + coords.shape[1]] = places @ ((h @ coords).astype(np.intp) % m)
    return out


def _verify_pairs(given: Pairs) -> tuple:
    """(the pairs scheme with its derived row 0, valencies) on the pairs
    route of ``verify_scheme``.

    The classes 2 - |s & t| are the orbitals of Sym(points) on 2-subsets: a
    permutation keeps |s & t|, and Sym(points) is transitive on the ordered
    pairs of 2-subsets with a given overlap (Brouwer, Cohen and Neumaier
    1989, section 9.1).  So the scheme is the orbital scheme of a transitive
    group, closed by construction, and symmetric, since |s & t| is.  Row 0
    (for the symmetric map, also column 0) gives the valencies in O(N).
    """
    points = given.points
    if not _is_integer(points) or points < 2:
        raise BadParameter(f"a pairs scheme needs an integer points >= 2, not {points!r}")
    pairs = Pairs(int(points))
    row0 = _read_only(pairs._classes(0))
    object.__setattr__(pairs, "row0", row0)
    return pairs, _row_zero_axioms(row0, row0)


def _representative_intersection_numbers(row0: np.ndarray, rows, valencies: tuple) -> tuple:
    """(p, the representatives, their rows or None) for a symmetric class
    map with row 0 ``row0`` and rows ``rows(xs)``: a ``Translation`` or
    ``Pairs`` and its ``rows``, or an (n, n) class map and its
    ``__getitem__``.  p^k_ij = #{z : class(0, z) = i, class(r_k, z) = j},
    with r_k the first vertex of class k in row 0.  All three are read-only.

    By symmetry class(r_k, z) = class(z, r_k), so that counts the z with
    class(0, z) = i and class(z, y) = j for y = r_k: entry (0, r_k) of
    A_i A_j, which is p^k_ij when the scheme is closed.  A translation or
    pairs scheme is closed by construction; a class map is certified closed
    afterwards by ``_certify_closure``, which compares every entry of each
    A_i A_j, j >= i, with these counts, row 0 included.

    One ``bincount`` counts a block of classes k at once, over the rows r_k
    of the class map, so the work is O((d+1) N) and no N x N array is built.
    A block holds as many classes as keep its cells (N a class) within
    ``_ROW_ZERO_BLOCK``, and one class at least; its bins are its slice of
    p, and a block of every class is p, returned with the rows it read.
    """
    n, d = len(row0), len(valencies) - 1
    reps = _read_only(np.unique(row0, return_index=True)[1])
    left = row0.astype(np.intp) * (d + 1)  # [z] = i (d+1), i the class of z
    step = max(1, _ROW_ZERO_BLOCK // n)
    p = None
    for k0 in range(0, d + 1, step):
        width = min(step, d + 1 - k0)
        block = rows(reps[k0:k0 + width])
        # [k, z] counts in bin (i (d+1) + j) width + k - k0
        cells = (left + block) * width
        cells += np.arange(width)[:, None]
        counts = np.bincount(cells.ravel(), minlength=(d + 1) ** 2 * width
                             ).reshape(d + 1, d + 1, width)
        if width == d + 1:
            return _read_only(counts), reps, _read_only(block)
        if p is None:
            p = np.empty((d + 1, d + 1, d + 1), dtype=np.int64)
        p[:, :, k0:k0 + width] = counts
    return _read_only(p), reps, None


def _classmap_axioms(classmap: np.ndarray) -> tuple:
    """(d, valencies) of a square integer class map, after checking over all
    N^2 entries that class 0 is exactly the diagonal, that the map is
    symmetric, and that each of the classes 0..d is nonempty and regular."""
    n = classmap.shape[0]
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
    # counts[x, k] = number of vertices in class k of vertex x, counted in
    # blocks of rows so that no N x N index array is built
    counts = np.empty((n, d + 1), dtype=np.int64)
    step = max(1, _ROW_ZERO_BLOCK // n)
    for x0 in range(0, n, step):
        block = classmap[x0:x0 + step]
        cells = np.add(block, np.arange(0, len(block) * (d + 1), d + 1)[:, None])
        counts[x0:x0 + step] = np.bincount(cells.ravel(), minlength=len(block) * (d + 1)
                                           ).reshape(len(block), d + 1)
    empty = np.flatnonzero(counts.sum(axis=0) == 0)
    if empty.size:
        raise NotPartition(f"relation {empty[0]} is empty")
    irregular = np.flatnonzero((counts != counts[0]).any(axis=0))
    if irregular.size:
        raise NotClosed(f"relation {irregular[0]} is not regular")
    return d, tuple(int(v) for v in counts[0])


def _row_zero_axioms(row: np.ndarray, column: np.ndarray) -> tuple:
    """The valencies of a translation or pairs scheme from row 0 and column
    0 of its class map, after checking symmetry with the error that
    ``_classmap_axioms`` raises on the whole map.

    The realisation's group acts transitively on the class map: for
    x = s(0), classmap[x, y] = classmap[0, s^-1 y] and
    classmap[y, x] = classmap[s^-1 y, 0], so an asymmetric pair (x, y) gives
    the asymmetric pair (0, s^-1 y), and the first one in row-major order
    lies in row 0.  Row 0 is an orbit labelling numbered from 0, so class 0
    is {0}, every label is used, and the valencies are its label counts.
    """
    asymmetric = np.flatnonzero(row != column)
    if asymmetric.size:
        raise NotSymmetric(f"relation {row[asymmetric[0]]} is not symmetric")
    return tuple(np.bincount(row).tolist())


def _certify_closure(classmap: np.ndarray, valencies: tuple, p: np.ndarray) -> None:
    """Certify A_i A_j = sum_k p^k_ij A_k for all i <= j, p the counts at the
    representatives (``_representative_intersection_numbers``).

    The relations must already be certified symmetric and regular, so every
    entry of A_i A_j, and every p^k_ij, is an integer in [0, kappa_i] and
    below ``base`` = max kappa + 1.  A run of classes j0..j1-1 then packs
    into one product: A_i W with W = sum_q base^q A_{j0+q} holds
    A_i A_{j0+q} as base-``base`` digit q.  ``run`` is the largest length
    with base**run <= 2**53, so every entry and partial sum of the float64
    product is an integer below 2**53 and the product is exact; an entry
    equals sum_q base^q p^k_{i, j0+q}, k its class, exactly when every digit
    does.  That takes sum_i ceil((d+1-i) / run) products instead of
    (d+1)(d+2)/2.  j < i needs none: A_j A_i = (A_i A_j)^T is then
    sum_k p^k_ij A_k, so its counts at the representatives give
    p^k_ji = p^k_ij.
    """
    d = len(valencies) - 1
    base = max(valencies) + 1
    run = 1
    while base ** (run + 1) <= 2 ** 53:
        run += 1
    powers = np.array([base ** q for q in range(run)], dtype=np.int64)

    index = classmap.astype(np.intp)  # gathers run about twice as fast on intp
    for i in range(d + 1):
        a_i = (classmap == i).astype(np.float64)
        for j0 in range(i, d + 1, run):
            j1 = min(j0 + run, d + 1)
            weights = np.zeros(d + 1)
            weights[j0:j1] = powers[:j1 - j0]
            packed = a_i @ weights[index]  # exact integers, so compared as floats
            expected = (powers[:j1 - j0] @ p[i, j0:j1]).astype(np.float64)[index]
            if (packed != expected).any():
                x, y = np.argwhere(packed != expected)[0]
                pair = np.array([packed[x, y], expected[x, y]], dtype=np.int64)
                digits = pair[:, None] // powers[:j1 - j0] % base
                j = j0 + int(np.argmax(digits[0] != digits[1]))
                raise NotClosed(f"A_{i} A_{j} is outside the span of the relations")


def _orbit_labels(gens: Sequence[np.ndarray], n: int) -> np.ndarray:
    """The orbit of each of the points 0..n-1 under the group that the
    permutations ``gens`` (arrays of images) generate, numbered in order of
    their least points.

    From the identity, a round lowers least[x] to least[g x] for each g in
    turn, then jumps least[x] to least[least[x]] (the hooking and
    shortcutting of Shiloach and Vishkin, *J. Algorithms* 3, 1982), until a
    round changes nothing.  No step raises an entry or lets least[x]
    exceed x, so the rounds end, and at the fixpoint least is the least
    point of each orbit:

    * least[x] only ever holds a point of x's orbit;
    * least[x] <= least[g x] for every g, and g permutes a finite set, so
      least is constant on the cycles of each g, hence on every orbit;
    * the orbit's minimum m keeps least[m] = m.
    """
    points = np.arange(n)
    least, last = points, None
    while not np.array_equal(least, last):
        last = least
        for g in gens:
            least = np.minimum(least, least[g])
        least = least[least]
    return (np.cumsum(least == points) - 1)[least]  # [m] = least points <= m, less one


#: most cells of one ``bincount`` in ``_representative_intersection_numbers``
#: (256 KiB of int64), which keeps its blocks of classes cache-sized.  It
#: also sizes the row blocks of ``_classmap_axioms``' regularity count
#: and of ``_image``
_ROW_ZERO_BLOCK = 2 ** 15


# --------------------------------------------------------------------------
# spectral data
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralData:
    """Eigenmatrices and primitive idempotents of the Bose-Mesner algebra.

    ``p_matrix`` rows index common eigenspaces (row 0 is the all-ones
    eigenspace, so ``P[0, j] = kappa_j`` and ``Q[j, 0] = 1`` exactly, and
    ``P[k, 0] = 1``); columns index classes.  ``multiplicities[k]`` is the
    rank of ``idempotents[k]``, the N x N matrix
    E_k = (1/N) sum_j Q[j, k] A_j, built from the class map of ``scheme`` on
    first access only, since nothing else in the package needs them, so the
    class map of a translation scheme is not derived until then.  P, Q and
    the E_k are read-only.
    """

    p_matrix: np.ndarray
    q_matrix: np.ndarray
    multiplicities: tuple
    scheme: Optional[AssociationScheme] = field(default=None, repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.p_matrix.shape[0] - 1

    @cached_property
    def idempotents(self) -> tuple:
        n = sum(self.multiplicities)
        classmap = self.scheme.classmap
        return tuple(_read_only(self.q_matrix[classmap, k] / n) for k in range(self.d + 1))


#: seed of the generic weights, so that every call draws the same sequence
_COMBO_SEED = 0x5CE11E
#: generic combinations tried before the split is declared degenerate
_WEIGHT_DRAWS = 3
#: seed of the certificate's weights, drawn apart from the decomposition's
_CERTIFICATE_SEED = 0xF4E1


@lru_cache(maxsize=256)
def _weight_draws(count: int) -> tuple:
    """The seeded generic weight vectors, ``count`` weights each: drawn once
    per size and shared read-only."""
    rng = np.random.default_rng(_COMBO_SEED)
    return tuple(_read_only(rng.standard_normal(count)) for _ in range(_WEIGHT_DRAWS))


@lru_cache(maxsize=256)
def _certificate_weights(count: int) -> np.ndarray:
    """The seeded weights of ``_certify_eigenspaces``, ``count`` of them in
    [1, 2], so that every class carries weight; shared read-only."""
    return _read_only(np.random.default_rng(_CERTIFICATE_SEED).uniform(1.0, 2.0, count))


def spectral_data(scheme: AssociationScheme) -> SpectralData:
    """Compute P, Q and the multiplicities in the intersection algebra.

    Multiplication by A_i acts on coefficient vectors as the intersection
    matrix B_i; with K = diag(kappa), the matrices K^1/2 B_i K^-1/2 are
    symmetric and commute.  Their common eigenvectors are the characters of
    the (d+1)-dimensional algebra, each of multiplicity one, so one generic
    combination S = sum_i w_i K^1/2 B_i K^-1/2 separates them all.  Each
    eigenvector v_k of S gives q = K^-1/2 v_k, proportional to Q[:, k], hence
    P[k, l] = kappa_l q_l / q_0 and, by the orthogonality relations,
    m_k = N / sum_l P[k, l]^2 / kappa_l.  Only (d+1) x (d+1) matrices are
    touched: p is read in slices of classes i, and contracted with the
    weights by a buffered ``einsum``, so no (d+1)^3 temporary is built.
    The first draw and the weights of ``_certify_eigenspaces`` share one
    pass over p; a later draw, needed only after a small gap, takes its own.

    Eigenspace 0 is the span of the all-ones vector; the remaining
    eigenspaces are ordered by decreasing eigenvalue on A_1 (ties broken by
    the later columns), which reproduces the conventional ordering on
    distance-regular schemes.

    Verification implies three facts, so none is checked:

    * S is symmetric: closure gives kappa_k p^k_ij = kappa_j p^j_ik, as the
      pairs (y, z) with class(x, y) = k, class(y, z) = i and
      class(x, z) = j number kappa_k p^k_ij counted by y and
      kappa_j p^j_ik counted by z.  Only a p set by hand breaks it, and the
      certificate still reads that p.
    * Row 0 of P is kappa, written exactly: A_i J = kappa_i J, so the
      coefficients of E_0 = J/N are all ones, and Q[:, 0] = 1 as m_0 = 1.
      Any other row sums to 0, as J vanishes on E_k for k >= 1, so some
      entry is N/(d+1) or more from kappa, far beyond eigh's rounding;
      ``_eigenspace_order`` takes the row nearest kappa.
    * (P Q)[k, k] = N round(m_k) / m_k for the unrounded m_k, so the
      multiplicity test |m_k - round(m_k)| <= 1e-7 m_k is the diagonal of
      P Q = N I.

    Its off-diagonal is checked: (P Q)[k, j] = N sqrt(m_j / m_k) (v_k . v_j)
    for eigh's unit vectors v, whose orthogonality LAPACK bounds only as
    O((d+1) eps), and sqrt(m_j / m_k) reaches sqrt(N), so no bound below
    1e-7 N holds for every N and d (4.2e-14 N on hypercube 20).

    Raises
    ------
    DegenerateSplit
        If no seeded combination has every relative eigenvalue gap above
        ``spectra.CLUSTER_TOL``; a multiplicity is not within 1e-6, and
        1e-7 of itself, of a positive integer; m_0 is not 1 or the
        multiplicities do not sum to N; P Q is off N I by over 1e-7 N; or
        ``_certify_eigenspaces`` rejects a column of Q.
    """
    n, d = scheme.n, scheme.d
    kappa = np.array(scheme.valencies, dtype=np.int64)
    ratio = np.sqrt(kappa / kappa[:, None])  # [j, k] = sqrt(kappa_k / kappa_j)

    draws = tuple(_weight_draws(d + 1))
    # [0] = the first draw's sum_i w_i B_i^T, [1] = the certificate's B_w^T
    first, certificate = np.einsum(
        "wi,ijk->wjk", np.stack((draws[0], _certificate_weights(d + 1))), scheme.p)
    widest = 0.0
    for attempt, weights in enumerate(draws):
        # S[j, k] = sum_i w_i p^k_ij sqrt(kappa_k / kappa_j), symmetric by closure
        combo = (np.einsum("i,ijk->jk", weights, scheme.p) if attempt else first) * ratio
        values, vectors = np.linalg.eigh((combo + combo.T) / 2)  # symmetric to the last bit
        scale = max(1.0, float(np.abs(values).max()))
        gap = float(np.diff(values).min(initial=np.inf)) / scale
        if gap > CLUSTER_TOL:
            break
        widest = max(widest, gap)
    else:
        raise DegenerateSplit(
            f"in the best of {_WEIGHT_DRAWS} seeded combinations the smallest relative "
            f"eigenvalue gap {widest:.3e} is not above CLUSTER_TOL = {CLUSTER_TOL:.1e}")

    q = vectors / np.sqrt(kappa)[:, None]  # column k is parallel to Q[:, k]
    raw_p = kappa * q.T / q[0][:, None]    # [k, l] = kappa_l q_l / q_0
    norms = (raw_p ** 2 / kappa).sum(axis=1)
    mults = n / norms
    nearest = np.round(mults)
    miss = np.abs(mults - nearest)
    off = np.flatnonzero(~((miss < 1e-6) & (miss <= 1e-7 * mults)) | (nearest < 1))
    if off.size:
        raise DegenerateSplit(f"multiplicity {float(mults[off[0]])!r} is not a positive integer")

    order = _eigenspace_order(raw_p, kappa)
    multiplicities = tuple(nearest[order].astype(int).tolist())
    if multiplicities[0] != 1 or sum(multiplicities) != n:
        raise DegenerateSplit("multiplicities do not resolve the vertex count")
    p_matrix = raw_p[order]
    p_matrix[0] = kappa

    q_matrix = (p_matrix.T * multiplicities).T  # temporary: m_k * P[k, l]
    q_matrix = q_matrix.T / kappa[:, None]      # Q[l, j] = m_j P[j, l] / kappa_l
    gram = p_matrix @ q_matrix
    np.fill_diagonal(gram, 0.0)  # tested with the multiplicities
    if np.abs(gram).max() > 1e-7 * n:
        raise DegenerateSplit("P Q != N I off its diagonal at tolerance")

    data = SpectralData(_read_only(p_matrix), _read_only(q_matrix), multiplicities, scheme)
    _certify_eigenspaces(scheme, data, certificate)
    return data


def _eigenspace_order(raw_p: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Row order of P: the row nearest the valencies (the all-ones
    eigenspace) first, then the others by decreasing P[k, 1:] rounded to 9
    digits, compared column by column; rows that tie keep their order."""
    k0 = int(np.argmin(np.abs(raw_p - kappa).max(axis=1)))
    # np.lexsort takes its primary key last, so the columns go d, ..., 1
    keys = -np.round(raw_p[:, :0:-1].T, 9)
    order = np.lexsort((np.arange(len(raw_p)), *keys))  # the row index breaks ties
    return np.concatenate(([k0], order[order != k0]))


def _certify_eigenspaces(scheme: AssociationScheme, data: SpectralData,
                         combo: np.ndarray) -> None:
    """Certify A_j E_k = P[k, j] E_k for every j and k, in O(d^3).

    Read in the class basis, A_j E_k = P[k, j] E_k is
    B_j Q[:, k] = P[k, j] Q[:, k], equivalent to the N x N identity once p
    is exact.  It is checked for one seeded combination
    B_w = sum_j w_j B_j, w in [1, 2]^(d+1) drawn apart from the
    decomposition's weights: B_w Q[:, k] = (P w)_k Q[:, k].  The residual
    of column k is sum_j w_j times that of B_j, so a column that fails for
    some j fails for B_w unless w lies on a hyperplane, a set of measure
    zero (the idea of Freivalds' check, *Proc. MFCS* 1977).  The tolerance
    is 1e-7 max(1, max kappa), not scaled by w.  On failure, the residual of
    every B_j names the worst j and k.  ``combo`` is B_w^T, with [i, l] =
    (B_w)[l, i] as (B_j)[l, i] = p[j, i, l], from ``spectral_data``.
    """
    n, P = scheme.n, data.p_matrix
    coeffs = data.q_matrix / n  # column k holds the class coefficients of E_k
    tol = 1e-7 * max(1.0, float(max(scheme.valencies)))
    weights = _certificate_weights(scheme.d + 1)
    residual = coeffs.T @ combo  # [k, l] = (B_w E_k)_l
    residual -= (P @ weights)[:, None] * coeffs.T
    if np.abs(residual).max() > tol:
        # [j, k, l] = (B_j E_k)_l - P[k, j] (E_k)_l
        each = np.matmul(coeffs.T, scheme.p) - P.T[:, :, None] * coeffs.T[None, :, :]
        worst = np.abs(each).max(axis=2)
        j, k = np.unravel_index(int(np.argmax(worst)), worst.shape)
        raise DegenerateSplit(f"A_{j} E_{k} != P[{k},{j}] E_{k} at tolerance")


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
        """kappa_0..kappa_d from kappa_{i-1} b_{i-1} = kappa_i c_i; a
        ``ValueError`` names the first c_i that is not positive, or says the
        chain is not integral."""
        out = [1]
        for i in range(1, self.d + 1):
            if self.c[i - 1] <= 0:
                raise ValueError(f"c_{i} = {self.c[i - 1]} is not positive")
            num = out[-1] * self.b[i - 1]
            if num % self.c[i - 1] != 0:
                raise ValueError("intersection array is not feasible")
            out.append(num // self.c[i - 1])
        return tuple(out)


def check_distance_regular(scheme: AssociationScheme) -> Optional[IntersectionArray]:
    """Intersection array of the scheme, or None when it is not one.

    A pure function of p, read off p^i_{1j}.  Requires p^i_{1j} = 0
    whenever |i - j| > 1, so A_1 acts tridiagonally on the strata, and
    c_i = p^i_{1,i-1} >= 1 for i = 1..d, so every vertex of class i has a
    class-1 neighbour in class i - 1 and the class-1 graph is connected.
    The standard identities (Brouwer, Cohen and Neumaier 1989, section 4.1)
    then hold on every verified scheme, where p^k_ij = #{z : class(0, z) =
    i, class(r_k, z) = j} and r_0 = 0:

    * b_0 = p^0_{11} counts class 1 of vertex 0, so b_0 = kappa_1;
    * a_i + b_i + c_i = sum_j p^i_{1j}, the other terms being 0, counts it
      too, so it is kappa_1;
    * closure gives kappa_k p^k_ij = kappa_j p^j_ik (``spectral_data``), and
      i = 1, k = i - 1, j = i is kappa_{i-1} b_{i-1} = kappa_i c_i.
    """
    d = scheme.d
    if d < 1:
        return None
    p1 = scheme.p[1]  # [j, i] = p^i_{1j}
    if np.triu(p1, 2).any() or np.tril(p1, -2).any():
        return None
    b = tuple(int(p1[i + 1, i]) for i in range(d))
    c = tuple(int(p1[i - 1, i]) for i in range(1, d + 1))
    if min(c) < 1:
        return None
    return IntersectionArray(b=b, c=c)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def scheme_to_dict(scheme: AssociationScheme) -> dict:
    """JSON-ready document.  A translation scheme lists its ``modulus``,
    ``rank`` and ``generators``, a pairs scheme its ``points``; any other
    lists the N^2 labels of its ``classmap`` row-major."""
    doc = {"n": scheme.n, "d": scheme.d, "class_names": list(scheme.class_names)}
    t = scheme.realisation
    if isinstance(t, Translation):
        doc.update(modulus=t.modulus, rank=t.rank, generators=[h.tolist() for h in t.generators])
    elif isinstance(t, Pairs):
        doc["points"] = t.points
    else:
        doc["classmap"] = scheme.classmap.reshape(-1).tolist()
    return doc


#: the fields of each document form besides ``n``, ``d`` and ``class_names``;
#: a document is of the first form that it lists a field of
_DOCUMENT_FORMS = {"translation": ("modulus", "rank", "generators"),
                   "pairs": ("points",),
                   "class-map": ("classmap",)}


def _document_array(values, error: Exception, shape: Optional[tuple] = None) -> np.ndarray:
    """``values`` as an array, reshaped to ``shape`` unless it is None; a
    boolean among them, a ragged nesting, or a count of entries that
    ``shape`` does not hold raises ``error``, since ``np.asarray`` reads a
    true among ints as 1."""
    try:
        entries = np.asarray(values, dtype=object)
        array = np.asarray(values)
    except ValueError:
        raise error from None
    if any(isinstance(x, bool) for x in entries.flat):
        raise error
    if shape is None:
        return array
    if array.size != math.prod(shape):
        raise error
    return array.reshape(shape)


def scheme_from_dict(doc: dict) -> AssociationScheme:
    """Parse and re-verify a scheme document produced by ``scheme_to_dict``.

    Besides ``n``, ``d`` and optional ``class_names`` (d+1 strings, checked
    by ``verify_scheme``), a document lists ``modulus``, ``rank`` and
    ``generators``, or ``points``, or ``classmap``, and nothing else: a
    field of no form, or of another form, raises ``BadParameter`` naming
    it, and so does a missing field of the document's form, the first form
    it lists a field of.  ``n``, ``d``, ``modulus``, ``rank`` and ``points``
    must be integers, not booleans, and ``n`` at least 1 (``BadParameter``
    naming the field).  A translation document is
    certified by its generators, taken as given, so that ``verify_scheme``
    names a wrongly shaped one; a pairs document by Sym(points); a class map
    by the packed N x N products.  Entries are not cast, so a non-integer
    one, a JSON boolean included, fails verification (``NotPartition`` for a
    label, ``BadParameter`` for a generator entry)."""
    kind = next((kind for kind, fields in _DOCUMENT_FORMS.items()
                 if any(name in doc for name in fields)), "class-map")
    fields = ("n", "d") + _DOCUMENT_FORMS[kind]
    for name in doc:
        if name not in fields + ("class_names",):
            raise BadParameter(f"a {kind} document has no field {name!r}")
    for name in fields:
        if name not in doc:
            raise BadParameter(f"a {kind} document lacks the field {name!r}")
        # int() would truncate a float and read a boolean as 0 or 1
        if name not in ("generators", "classmap") and not _is_integer(doc[name]):
            raise BadParameter(f"field {name!r} is not an integer: {doc[name]!r}")
    n = doc["n"]
    if n < 1:
        raise BadParameter(f"field 'n' must be >= 1, not {n}")
    if kind == "translation":
        m, r = doc["modulus"], doc["rank"]
        given = Translation(m, r, tuple(_document_array(h, BadParameter(
            f"generator {k} is not a {r} x {r} integer matrix"))
            for k, h in enumerate(doc["generators"])))
    elif kind == "pairs":
        given = Pairs(doc["points"])
    else:
        given = _document_array(doc["classmap"], NotPartition(
            "the class map is not a square integer array"), (n, n))
    scheme = verify_scheme(given, class_names=doc.get("class_names"))
    if scheme.n != n:
        raise NotPartition(f"declared vertex count {n} does not match the {scheme.n} vertices")
    if scheme.d != doc["d"]:
        raise NotPartition("declared class count does not match the class map")
    return scheme
