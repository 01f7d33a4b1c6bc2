"""Constructors for every concrete scheme the package ships.

All builders return fully verified ``AssociationScheme`` objects: each
hands its scheme to ``verify_scheme``, so a builder can never hand out an
object violating the axioms.  Every shipped scheme is vertex-transitive.

The cycle, hypercube, square, hexagonal and Z_5 x Z_5 schemes are
translation schemes on G = Z_m^r: each builder passes only generator
matrices of a point group H of automorphisms of G (a ``Translation``), and
its classes are the H-orbits, numbered in order of their least point:

* cycle on Z_n: the negation (-1);
* hypercube on Z_2^n: the transposition (0 1) and the n-cycle of the
  coordinates, which generate every coordinate permutation;
* square on Z_m^2: the swap ((0, 1), (1, 0)) and the reflection
  ((1, 0), (0, -1)), which generate ``square_point_group``;
* hexagonal on Z_m^2: ((1, -1), (0, -1)) and ((0, -1), (-1, 0)), which
  generate ``hexagonal_point_group``;
* Z_5 x Z_5: the rotation ((0, 1), (-1, 1)) of order 6.

``verify_scheme`` certifies the generators and derives row 0, the orbit
labelling, so the scheme is the orbital scheme of G x| H, in
O(N |gens| + (d+1) N) work with no N x N class map.

The triangular scheme J(n, 2) passes only its number of points (a
``Pairs``): its classes 2 - |s & t| on 2-subsets are the orbitals of
Sym(n), so ``verify_scheme`` derives row 0 and counts p in O((d+1) N),
again with no N x N class map.

The group-scheme builders compute the N x N class map and pass it alone:
``verify_scheme`` checks its axioms over all N^2 entries and certifies
closure by packed N x N products, as for any class map.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BadParameter,
    NotAmbivalent,
    NotLatinSquare,
    OddOrder,
    TooLarge,
    TooSmall,
)
from .scheme import AssociationScheme, Pairs, Translation, _is_integer, verify_scheme


# --------------------------------------------------------------------------
# group schemes
# --------------------------------------------------------------------------

def build_group_scheme(table: Sequence[Sequence[int]],
                       class_partition: Sequence[Iterable[int]],
                       class_names: Optional[Sequence[str]] = None
                       ) -> AssociationScheme:
    """Scheme whose relations are class sums in the regular representation.

    ``table[g][h]`` is the index of g*h, and ``class_partition`` lists
    element-index classes with class 0 = {identity}.  The table is checked
    to be a Latin square with a two-sided identity and inverses, which are
    read off the checked array.  The class map is then verified like any
    other, by packed N x N products: about sum_i ceil((d+1-i) / run) of
    them, O((d+1)^2 N^3 / run) work.  That is nothing at the S4 presets
    (N = 24), but it grows with the order: the cyclic group of order 240
    with its 121 inverse-closed classes (d = 120) builds in 0.2-0.3 s on
    one BLAS thread of an x86-64 core.

    Raises
    ------
    NotLatinSquare
        If a row or column is not a permutation, or the table has no
        two-sided identity, or an element has no two-sided inverse.
    ValueError
        If the classes do not partition the elements, or class 0 is not
        the singleton {identity}.
    NotAmbivalent
        If some class is not closed under inversion (the scheme would not
        be symmetric).
    """
    order = len(table)
    if any(len(row) != order for row in table):
        raise NotLatinSquare("a row of the table is not a permutation")
    mult = np.asarray(table).reshape(order, order)
    full = np.arange(order)
    if (np.sort(mult, axis=1) != full).any():
        raise NotLatinSquare("a row of the table is not a permutation")
    if (np.sort(mult, axis=0) != full[:, None]).any():
        raise NotLatinSquare("a column of the table is not a permutation")

    two_sided = (mult == full).all(axis=1) & (mult.T == full).all(axis=1)
    if not two_sided.any():
        raise NotLatinSquare("table has no two-sided identity")
    identity = int(np.argmax(two_sided))
    # inverse[g] is the first h with g h = h g = identity
    inverts = (mult == identity) & (mult.T == identity)
    lacking = np.flatnonzero(~inverts.any(axis=1))
    if lacking.size:
        raise NotLatinSquare(f"element {lacking[0]} has no inverse")
    inverse = np.argmax(inverts, axis=1)

    classes = [sorted(c) for c in class_partition]
    if sorted(g for c in classes for g in c) != list(range(order)):
        raise ValueError("class partition must cover every element once")
    if classes[0] != [identity]:
        raise ValueError("class 0 must be the singleton {identity}")
    label = np.empty(order, dtype=np.int16)
    for k, members in enumerate(classes):
        label[members] = k
    # inversion is a bijection, so a class is inverse-closed when it maps
    # every member into itself
    open_classes = label[label[inverse] != label]
    if open_classes.size:
        raise NotAmbivalent(f"class {open_classes.min()} is not inverse-closed")
    # the pair (g h, h) lies in the class of g
    classmap = np.empty((order, order), dtype=np.int16)
    classmap[mult, full] = label[:, None]
    return verify_scheme(classmap, class_names=class_names)


def cyclic_group_table(n: int, class_partition: Sequence[Iterable[int]]) -> tuple:
    """(table, classes) of Z_n, for ``build_group_scheme``."""
    return np.add.outer(np.arange(n), np.arange(n)) % n, class_partition


# ---- symmetric group on four points ---------------------------------------

#: base-4 place values: a permutation of 0..3 as one code below 4**4
_BASE4 = np.array([64, 16, 4, 1])

#: class names of each S4 partition, in class order: a cycle type (e, 2, 3,
#: 2+2, 4), with m or f when the class holds the elements that move or fix
#: point 0
_S4_NAMES = {
    "conjugacy": ("e", "2", "3", "2+2", "4"),
    "stabilizer": ("e", "2m", "3m", "2f", "4", "2+2", "3f"),
    "stabilizer-4c": ("e", "4", "2m", "3m", "2f", "2+2", "3f"),
}


def s4_group_table(partition: str = "conjugacy") -> tuple:
    """(table, classes) of S4 with one of three class partitions.

    The elements are the permutations of 0..3 in lexicographic order, and
    g*h is the composition x -> g(h(x)).

    ``conjugacy``
        the five conjugacy classes, ordered (e, transpositions, 3-cycles,
        double transpositions, 4-cycles);
    ``stabilizer``
        the seven orbits of conjugation by the stabilizer of point 0,
        ordered (e, transpositions moving 0, 3-cycles moving 0,
        transpositions fixing 0, 4-cycles, double transpositions,
        3-cycles fixing 0);
    ``stabilizer-4c``
        the same seven classes with the 4-cycles promoted to class 1.
    """
    if partition not in _S4_NAMES:
        raise ValueError(f"unknown partition {partition!r}")
    perms = np.array(list(itertools.permutations(range(4))))
    index_of_code = np.empty(4 ** 4, dtype=np.intp)
    index_of_code[perms @ _BASE4] = np.arange(len(perms))
    # perms[:, perms][g, h, x] = g(h(x))
    mult = index_of_code[perms[:, perms] @ _BASE4]

    # 4, 2 and 1 fixed points make e, 2 and 3; of the fixed-point-free
    # elements, the involutions are 2+2 and the rest 4
    fixed = (perms == np.arange(4)).sum(axis=1)
    involution = (np.take_along_axis(perms, perms, axis=1) == np.arange(4)).all(axis=1)
    cycle_type = {"e": fixed == 4, "2": fixed == 2, "3": fixed == 1,
                  "2+2": (fixed == 0) & involution, "4": (fixed == 0) & ~involution}
    moves = perms[:, 0] != 0
    side = {"m": moves, "f": ~moves}
    classes = [np.flatnonzero(cycle_type[name.rstrip("mf")]
                              & side.get(name[-1], True)).tolist()
               for name in _S4_NAMES[partition]]
    return mult, classes


def build_s4_scheme(partition: str = "conjugacy") -> AssociationScheme:
    return build_group_scheme(*s4_group_table(partition), _S4_NAMES[partition])


# --------------------------------------------------------------------------
# cycle, hypercube, triangular
# --------------------------------------------------------------------------

def build_cycle(n: int) -> AssociationScheme:
    """Cycle C_n with n = 2k vertices; classes are the k graph distances."""
    if not _is_integer(n):  # a float would reach the class names untyped
        raise BadParameter(f"cycle scheme needs an integer number of vertices, not {n!r}")
    if n % 2 != 0:
        raise OddOrder("cycle scheme is built for an even number of vertices")
    if n < 4:
        raise TooSmall("cycle scheme needs at least 4 vertices")
    names = tuple(str(i) for i in range(n // 2 + 1))
    return verify_scheme(Translation(n, 1, ([[-1]],)), class_names=names)


def build_hypercube(n: int) -> AssociationScheme:
    """Binary Hamming scheme H(n, 2); classes are Hamming distances."""
    if not _is_integer(n):  # a float would reach the class names untyped
        raise BadParameter(f"hypercube needs an integer n, not {n!r}")
    if n < 1:
        raise TooSmall("hypercube needs n >= 1")
    if n > 20:
        raise TooLarge("hypercube supported up to n = 20 (1048576 vertices)")
    names = tuple(f"w{i}" for i in range(n + 1))
    # the transposition (0 1) and the n-cycle, as permutation matrices
    swap = list(range(n))
    swap[:2] = swap[1::-1]
    transposition = np.eye(n, dtype=np.int64)[swap]
    rotation = np.roll(np.eye(n, dtype=np.int64), 1, axis=0)
    return verify_scheme(Translation(2, n, (transposition, rotation)), class_names=names)


def build_triangular(n: int) -> AssociationScheme:
    """Johnson-type scheme on the 2-subsets of an n-set (three classes)."""
    if n < 4:
        raise TooSmall("triangular scheme needs n >= 4")
    return verify_scheme(Pairs(n), class_names=("0", "1", "2"))


def krawtchouk(l: int, x: int, n: int) -> int:
    """K_l(x) = sum_i C(x, i) C(n-x, l-i) (-1)^i for the binary scheme."""
    if not (0 <= l <= n and 0 <= x <= n):
        raise ValueError("krawtchouk needs 0 <= l, x <= n")
    return sum(math.comb(x, i) * math.comb(n - x, l - i) * (-1) ** i
               for i in range(l + 1))


# --------------------------------------------------------------------------
# translation schemes on Z_m x Z_m
# --------------------------------------------------------------------------

def square_point_group() -> tuple:
    """The eight signed-swap matrices acting on Z^2."""
    mats = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            mats.append(((s1, 0), (0, s2)))
            mats.append(((0, s2), (s1, 0)))
    return tuple(mats)


def hexagonal_point_group() -> tuple:
    """Order-12 group permuting the vectors e1, e2, -e1-e2, times +-1."""
    vecs = ((1, 0), (0, 1), (-1, -1))
    mats = []
    for pi in itertools.permutations(range(3)):
        a, b = vecs[pi[0]], vecs[pi[1]]
        m = ((a[0], b[0]), (a[1], b[1]))
        mats.append(m)
        mats.append(((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1])))
    return tuple(mats)


def orbit_of(vec, mats, modulus: Optional[int] = None) -> tuple:
    """Sorted orbit of an integer vector under 2x2 matrices, mod m if given."""
    out = set()
    for m in mats:
        w = (m[0][0] * vec[0] + m[0][1] * vec[1],
             m[1][0] * vec[0] + m[1][1] * vec[1])
        if modulus is not None:
            w = (w[0] % modulus, w[1] % modulus)
        out.add(w)
    return tuple(sorted(out))


def _orbit_scheme(m: int, generators) -> AssociationScheme:
    """Translation scheme whose classes are the orbits on Z_m x Z_m of the
    point group that ``generators`` generate.

    ``verify_scheme`` numbers the orbits in order of their least point
    (a, b), by code a m + b, which puts (0,0) first and the orbit of (0,1)
    second; each class is named after that point, its first vertex in
    row 0, the representative that p was counted at.
    """
    scheme = verify_scheme(Translation(m, 2, generators))
    names = tuple(f"({a},{b})" for a, b in zip(*np.divmod(scheme.representatives, m)))
    return replace(scheme, class_names=names)


#: the swap and a reflection, which generate ``square_point_group()``
_SQUARE_GENERATORS = (((0, 1), (1, 0)), ((1, 0), (0, -1)))
#: two reflections, which generate ``hexagonal_point_group()``
_HEXAGONAL_GENERATORS = (((1, -1), (0, -1)), ((0, -1), (-1, 0)))


def build_square_lattice(m: int) -> AssociationScheme:
    """Periodic square lattice on m^2 vertices, classes = signed-swap orbits."""
    if m < 3:
        raise TooSmall("square lattice needs period m >= 3")
    return _orbit_scheme(m, _SQUARE_GENERATORS)


def build_hexagonal_lattice(m: int) -> AssociationScheme:
    """Periodic triangular (hexagonal point group) lattice on m^2 vertices."""
    if m < 4:
        raise TooSmall("hexagonal lattice needs period m >= 4")
    return _orbit_scheme(m, _HEXAGONAL_GENERATORS)


def build_orbit_scheme_z5z5() -> AssociationScheme:
    """The 25-vertex, 4-class translation scheme on Z_5 x Z_5: the orbits of
    the rotation ((0, 1), (-1, 1)) of order 6, each inverse-closed; classes
    2 and 4 are the doublings of classes 1 and 3."""
    names = ("(0,0)", "(1,0)", "(2,0)", "(1,2)", "(1,3)")
    return verify_scheme(Translation(5, 2, (((0, 1), (-1, 1)),)), class_names=names)
