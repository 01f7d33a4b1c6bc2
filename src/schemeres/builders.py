"""Constructors for every concrete scheme the package ships.

All builders return fully verified ``AssociationScheme`` objects; each
computes the N x N class map of its scheme and runs it through
``verify_scheme``, so a builder can never hand out an object violating the
axioms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    NotAmbivalent,
    NotLatinSquare,
    OddOrder,
    TooLarge,
    TooSmall,
)
from .scheme import AssociationScheme, verify_scheme


# --------------------------------------------------------------------------
# group schemes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupTable:
    """Finite group as a multiplication table plus a class partition.

    ``mult[g][h]`` is the index of g*h, ``inverse[g]`` of g**-1, and
    ``class_partition`` lists element-index classes with class 0 = {identity}.
    """

    mult: tuple
    inverse: tuple
    class_partition: tuple

    @property
    def order(self) -> int:
        return len(self.mult)

    @classmethod
    def from_mult(cls, mult: Sequence[Sequence[int]],
                  class_partition: Sequence[Iterable[int]]) -> "GroupTable":
        order = len(mult)
        rows = tuple(tuple(row) for row in mult)
        full = frozenset(range(order))
        for row in rows:
            if frozenset(row) != full:
                raise NotLatinSquare("a row of the table is not a permutation")
        for j in range(order):
            if frozenset(row[j] for row in rows) != full:
                raise NotLatinSquare("a column of the table is not a permutation")

        identity = next((e for e in range(order)
                         if all(rows[e][h] == h and rows[h][e] == h
                                for h in range(order))), None)
        if identity is None:
            raise NotLatinSquare("table has no two-sided identity")
        inverse = []
        for g in range(order):
            inv = next((h for h in range(order)
                        if rows[g][h] == identity and rows[h][g] == identity), None)
            if inv is None:
                raise NotLatinSquare(f"element {g} has no inverse")
            inverse.append(inv)

        classes = tuple(tuple(sorted(c)) for c in class_partition)
        flat = sorted(g for c in classes for g in c)
        if flat != list(range(order)):
            raise ValueError("class partition must cover every element once")
        if classes[0] != (identity,):
            raise ValueError("class 0 must be the singleton {identity}")
        return cls(mult=rows, inverse=tuple(inverse), class_partition=classes)


def build_group_scheme(table: GroupTable,
                       class_names: Optional[Sequence[str]] = None
                       ) -> AssociationScheme:
    """Scheme whose relations are class sums in the regular representation.

    Raises
    ------
    NotAmbivalent
        If some class is not closed under inversion (the scheme would not
        be symmetric).
    """
    order = table.order
    for k, cls_elems in enumerate(table.class_partition):
        if sorted(table.inverse[g] for g in cls_elems) != list(cls_elems):
            raise NotAmbivalent(f"class {k} is not inverse-closed")
    label = np.empty(order, dtype=np.int16)
    for k, cls_elems in enumerate(table.class_partition):
        label[list(cls_elems)] = k
    # the pair (g h, h) lies in the class of g
    classmap = np.empty((order, order), dtype=np.int16)
    classmap[np.array(table.mult), np.arange(order)] = label[:, None]
    return verify_scheme(classmap, class_names=class_names)


def cyclic_group_table(n: int, class_partition: Sequence[Iterable[int]]) -> GroupTable:
    mult = [[(i + j) % n for j in range(n)] for i in range(n)]
    return GroupTable.from_mult(mult, class_partition)


# ---- symmetric group on four points ---------------------------------------

def _s4_elements():
    return list(itertools.permutations(range(4)))


def _compose(p, q):
    return tuple(p[q[x]] for x in range(4))


def _cycle_type(p):
    seen = [False] * 4
    lens = []
    for start in range(4):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


def s4_group_table(partition: str = "conjugacy") -> GroupTable:
    """S4 multiplication table with one of three class partitions.

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
    perms = _s4_elements()
    index = {p: i for i, p in enumerate(perms)}
    mult = [[index[_compose(p, q)] for q in perms] for p in perms]

    by_type = {}
    for p in perms:
        by_type.setdefault(_cycle_type(p), []).append(index[p])
    moving = lambda p: p[0] != 0

    if partition == "conjugacy":
        classes = [by_type[t] for t in
                   ((1, 1, 1, 1), (2, 1, 1), (3, 1), (2, 2), (4,))]
    else:
        t_mov = [index[p] for p in perms if _cycle_type(p) == (2, 1, 1) and moving(p)]
        t_fix = [index[p] for p in perms if _cycle_type(p) == (2, 1, 1) and not moving(p)]
        c3_mov = [index[p] for p in perms if _cycle_type(p) == (3, 1) and moving(p)]
        c3_fix = [index[p] for p in perms if _cycle_type(p) == (3, 1) and not moving(p)]
        base = [by_type[(1, 1, 1, 1)], t_mov, c3_mov, t_fix,
                by_type[(4,)], by_type[(2, 2)], c3_fix]
        if partition == "stabilizer":
            classes = base
        elif partition == "stabilizer-4c":
            classes = [base[0], base[4], base[1], base[2], base[3], base[5], base[6]]
        else:
            raise ValueError(f"unknown partition {partition!r}")
    return GroupTable.from_mult(mult, classes)


_S4_NAMES = {
    "conjugacy": ("e", "2", "3", "2+2", "4"),
    "stabilizer": ("e", "2m", "3m", "2f", "4", "2+2", "3f"),
    "stabilizer-4c": ("e", "4", "2m", "3m", "2f", "2+2", "3f"),
}


def build_s4_scheme(partition: str = "conjugacy") -> AssociationScheme:
    return build_group_scheme(s4_group_table(partition), _S4_NAMES[partition])


# --------------------------------------------------------------------------
# cycle, hypercube, triangular
# --------------------------------------------------------------------------

def build_cycle(n: int) -> AssociationScheme:
    """Cycle C_n with n = 2k vertices; classes are the k graph distances."""
    if n % 2 != 0:
        raise OddOrder("cycle scheme is built for an even number of vertices")
    if n < 4:
        raise TooSmall("cycle scheme needs at least 4 vertices")
    ahead = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    names = tuple(str(i) for i in range(n // 2 + 1))
    return verify_scheme(np.minimum(ahead, n - ahead), class_names=names)


def build_hypercube(n: int) -> AssociationScheme:
    """Binary Hamming scheme H(n, 2); classes are Hamming distances."""
    if n < 1:
        raise TooSmall("hypercube needs n >= 1")
    if n > 12:
        raise TooLarge("hypercube supported up to n = 12 (4096 vertices)")
    xs = np.arange(2 ** n, dtype=np.int16)
    xor = xs[:, None] ^ xs[None, :]
    weight = np.zeros_like(xor)
    for bit in range(n):
        weight += (xor >> bit) & 1
    names = tuple(f"w{i}" for i in range(n + 1))
    return verify_scheme(weight, class_names=names)


def build_triangular(n: int) -> AssociationScheme:
    """Johnson-type scheme on the 2-subsets of an n-set (three classes)."""
    if n < 4:
        raise TooSmall("triangular scheme needs n >= 4")
    pairs = np.array(list(itertools.combinations(range(n), 2)))
    # incidence[s, x] = 1 when point x lies in the s-th 2-subset
    incidence = np.zeros((len(pairs), n), dtype=np.int64)
    incidence[np.arange(len(pairs))[:, None], pairs] = 1
    overlap = incidence @ incidence.T  # overlap[s, t] = |pair_s & pair_t|
    return verify_scheme(2 - overlap, class_names=("0", "1", "2"))


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


def _orbit_scheme(m: int, mats) -> AssociationScheme:
    """Translation scheme whose classes are point-group orbits on Z_m x Z_m.

    Classes are ordered by their lexicographically smallest representative,
    which puts (0,0) first and the orbit of (1,0) second.
    """
    orbit_index = {}
    orbits = []
    for a in range(m):
        for b in range(m):
            if (a, b) in orbit_index:
                continue
            orb = orbit_of((a, b), mats, modulus=m)
            for g in orb:
                orbit_index[g] = len(orbits)
            orbits.append(orb)

    coords = np.arange(m * m)
    xa, xb = coords // m, coords % m
    da = (xa[:, None] - xa[None, :]) % m
    db = (xb[:, None] - xb[None, :]) % m
    lookup = np.zeros((m, m), dtype=np.int16)
    for g, k in orbit_index.items():
        lookup[g] = k
    names = tuple(str(orb[0]).replace(" ", "") for orb in orbits)
    return verify_scheme(lookup[da, db], class_names=names)


def build_square_lattice(m: int) -> AssociationScheme:
    """Periodic square lattice on m^2 vertices, classes = signed-swap orbits."""
    if m < 3:
        raise TooSmall("square lattice needs period m >= 3")
    return _orbit_scheme(m, square_point_group())


def build_hexagonal_lattice(m: int) -> AssociationScheme:
    """Periodic triangular (hexagonal point group) lattice on m^2 vertices."""
    if m < 4:
        raise TooSmall("hexagonal lattice needs period m >= 4")
    return _orbit_scheme(m, hexagonal_point_group())


# Each class is inverse-closed and the five classes partition Z_5 x Z_5;
# classes 2 and 4 are the doublings of classes 1 and 3.
_Z5Z5_CLASSES = (
    ((0, 0),),
    ((1, 0), (0, 1), (1, 1), (4, 0), (0, 4), (4, 4)),
    ((2, 0), (0, 2), (2, 2), (3, 0), (0, 3), (3, 3)),
    ((1, 2), (2, 1), (1, 4), (4, 1), (3, 4), (4, 3)),
    ((1, 3), (3, 1), (2, 3), (3, 2), (2, 4), (4, 2)),
)


def build_orbit_scheme_z5z5() -> AssociationScheme:
    """The 25-vertex, 4-class translation scheme on Z_5 x Z_5."""
    m = 5
    lookup = np.zeros((m, m), dtype=np.int16)
    for k, cls_elems in enumerate(_Z5Z5_CLASSES):
        for g in cls_elems:
            lookup[g] = k
    coords = np.arange(m * m)
    xa, xb = coords // m, coords % m
    classmap = lookup[(xa[:, None] - xa[None, :]) % m, (xb[:, None] - xb[None, :]) % m]
    names = ("(0,0)", "(1,0)", "(2,0)", "(1,2)", "(1,3)")
    return verify_scheme(classmap, class_names=names)
