"""Constructors for every concrete scheme the package ships.

All builders return fully verified ``AssociationScheme`` objects; each
computes the N x N class map of its scheme and runs it through
``verify_scheme``, so a builder can never hand out an object violating the
axioms.  Every shipped scheme is vertex-transitive, and each builder also
passes a few generators of a transitive automorphism group:

* cycle: the rotation x -> x + 1;
* hypercube: the flip of bit 0 and the cyclic rotation of the n bits,
  whose conjugates r^t f r^-t give every bit flip;
* triangular: the transposition (0 1) and the n-cycle, acting on 2-subsets;
* square, hexagonal and Z_5 x Z_5: the two unit shifts of Z_m x Z_m;
* group schemes: right multiplications x -> x s, by a generating set.

``verify_scheme`` certifies them (each a permutation fixing the class map,
their orbit of vertex 0 every vertex; ``BadParameter`` otherwise) and then
proves closure on row 0 in O(N^2) work per generator, instead of the
N x N products that a class map without generators needs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    NotAmbivalent,
    NotLatinSquare,
    OddOrder,
    TooLarge,
    TooSmall,
)
from .scheme import AssociationScheme, _orbit, verify_scheme


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
    #: ``mult`` as a read-only ndarray, which the scheme builder indexes
    _table: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        table = np.array(self.mult if self._table is None else self._table)
        table.flags.writeable = False
        object.__setattr__(self, "_table", table)

    @property
    def order(self) -> int:
        return len(self.mult)

    @classmethod
    def from_mult(cls, mult: Sequence[Sequence[int]],
                  class_partition: Sequence[Iterable[int]]) -> "GroupTable":
        order = len(mult)
        if any(len(row) != order for row in mult):
            raise NotLatinSquare("a row of the table is not a permutation")
        table = np.asarray(mult).reshape(order, order)
        full = np.arange(order)
        if (np.sort(table, axis=1) != full).any():
            raise NotLatinSquare("a row of the table is not a permutation")
        if (np.sort(table, axis=0) != full[:, None]).any():
            raise NotLatinSquare("a column of the table is not a permutation")

        two_sided = (table == full).all(axis=1) & (table.T == full).all(axis=1)
        if not two_sided.any():
            raise NotLatinSquare("table has no two-sided identity")
        identity = int(np.argmax(two_sided))
        # inverse[g] is the first h with g h = h g = identity
        inverts = (table == identity) & (table.T == identity)
        lacking = np.flatnonzero(~inverts.any(axis=1))
        if lacking.size:
            raise NotLatinSquare(f"element {lacking[0]} has no inverse")
        inverse = np.argmax(inverts, axis=1)

        classes = tuple(tuple(sorted(c)) for c in class_partition)
        flat = sorted(g for c in classes for g in c)
        if flat != list(range(order)):
            raise ValueError("class partition must cover every element once")
        if classes[0] != (identity,):
            raise ValueError("class 0 must be the singleton {identity}")
        return cls(mult=tuple(map(tuple, table.tolist())), inverse=tuple(inverse.tolist()),
                   class_partition=classes, _table=table)


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
    mult = table._table
    classmap = np.empty((order, order), dtype=np.int16)
    classmap[mult, np.arange(order)] = label[:, None]
    return verify_scheme(classmap, class_names=class_names,
                         automorphisms=_right_multiplications(mult, table.class_partition[0][0]))


def _right_multiplications(mult: np.ndarray, identity: int) -> list:
    """Right multiplications x -> x s by a generating set of the group.

    They fix the class of x y^-1, hence the class map.  The set is picked
    greedily: s joins when it lies outside the subgroup that the earlier
    picks generate, the orbit of the identity under them.  Each pick at
    least doubles that subgroup, so there are at most log2(order) picks.
    """
    gens, subgroup = [], {identity}
    for s in range(len(mult)):
        if s not in subgroup:
            gens.append(mult[:, s])
            subgroup = _orbit(gens, subgroup)
    return gens


def cyclic_group_table(n: int, class_partition: Sequence[Iterable[int]]) -> GroupTable:
    return GroupTable.from_mult(np.add.outer(np.arange(n), np.arange(n)) % n,
                                class_partition)


# ---- symmetric group on four points ---------------------------------------

#: base-4 place values: a permutation of 0..3 as one code below 4**4
_BASE4 = np.array([64, 16, 4, 1])


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
    perms = list(itertools.permutations(range(4)))
    table = np.array(perms)
    index_of_code = np.empty(4 ** 4, dtype=np.intp)
    index_of_code[table @ _BASE4] = np.arange(len(perms))
    # table[:, table][g, h, x] = g(h(x))
    mult = index_of_code[table[:, table] @ _BASE4]

    by_type = {}
    for i, p in enumerate(perms):
        by_type.setdefault(_cycle_type(p), []).append(i)
    moving = lambda t, moves: [i for i in by_type[t] if (perms[i][0] != 0) == moves]

    if partition == "conjugacy":
        classes = [by_type[t] for t in
                   ((1, 1, 1, 1), (2, 1, 1), (3, 1), (2, 2), (4,))]
    else:
        base = [by_type[(1, 1, 1, 1)], moving((2, 1, 1), True), moving((3, 1), True),
                moving((2, 1, 1), False), by_type[(4,)], by_type[(2, 2)],
                moving((3, 1), False)]
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
    distance = np.minimum(ahead, n - ahead).astype(np.int16 if n // 2 < 2 ** 15 else np.int32)
    names = tuple(str(i) for i in range(n // 2 + 1))
    rotation = (np.arange(n) + 1) % n
    return verify_scheme(distance, class_names=names, automorphisms=[rotation])


def build_hypercube(n: int) -> AssociationScheme:
    """Binary Hamming scheme H(n, 2); classes are Hamming distances."""
    if n < 1:
        raise TooSmall("hypercube needs n >= 1")
    if n > 12:
        raise TooLarge("hypercube supported up to n = 12 (4096 vertices)")
    # the Hamming distances of 2s vertices, from those of s: the top bit
    # adds 1 between the two halves
    weight = np.zeros((1, 1), dtype=np.int16)
    for _ in range(n):
        s = len(weight)
        doubled = np.empty((2 * s, 2 * s), dtype=np.int16)
        doubled[:s, :s] = doubled[s:, s:] = weight
        np.add(weight, 1, out=doubled[:s, s:])
        doubled[s:, :s] = doubled[:s, s:]
        weight = doubled
    xs = np.arange(2 ** n, dtype=np.int16)
    names = tuple(f"w{i}" for i in range(n + 1))
    # the flip of bit 0 and the rotation of the bits: r^t f r^-t flips bit t
    rotation = (xs << 1 | xs >> (n - 1)) & (2 ** n - 1)
    return verify_scheme(weight, class_names=names, automorphisms=[xs ^ 1, rotation])


def build_triangular(n: int) -> AssociationScheme:
    """Johnson-type scheme on the 2-subsets of an n-set (three classes)."""
    if n < 4:
        raise TooSmall("triangular scheme needs n >= 4")
    a, b = np.array(list(itertools.combinations(range(n), 2))).T
    # overlap[s, t] = |pair_s & pair_t|, from the four endpoint comparisons
    overlap = (a[:, None] == a).astype(np.int16)
    overlap += a[:, None] == b
    overlap += b[:, None] == a
    overlap += b[:, None] == b
    # index[x, y] = the index of the 2-subset {x, y}
    index = np.zeros((n, n), dtype=np.intp)
    index[a, b] = index[b, a] = np.arange(len(a))
    swap = np.arange(n)
    swap[:2] = 1, 0
    cycle = (np.arange(n) + 1) % n
    return verify_scheme(2 - overlap, class_names=("0", "1", "2"),
                         automorphisms=[index[pi[a], pi[b]] for pi in (swap, cycle)])


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


def _translation_scheme(m: int, lookup: np.ndarray, names) -> AssociationScheme:
    """Translation scheme on Z_m x Z_m: the pair (x, y) lies in class
    ``lookup[x - y]``, with ``lookup`` an (m, m) label array."""
    diff = np.subtract.outer(np.arange(m), np.arange(m)) % m
    # classmap[(a, b), (c, d)] = lookup[a - c, b - d]: block (a, c) is the
    # circulant lookup[(a - c) % m, diff], one of m such blocks
    classmap = lookup[:, diff][diff].transpose(0, 2, 1, 3).reshape(m * m, m * m)
    xa, xb = np.divmod(np.arange(m * m), m)
    shifts = [(xa + 1) % m * m + xb, xa * m + (xb + 1) % m]
    return verify_scheme(classmap, class_names=names, automorphisms=shifts)


def _orbit_scheme(m: int, mats) -> AssociationScheme:
    """Translation scheme whose classes are point-group orbits on Z_m x Z_m.

    Each point's images under the group have codes a m + b, and their
    minimum, the lexicographically smallest point of the orbit, names its
    class.  Classes are ordered by that representative, which puts (0,0)
    first and the orbit of (1,0) second.
    """
    points = np.array(np.divmod(np.arange(m * m), m))  # [coordinate, point]
    images = np.array(mats) @ points % m              # [matrix, coordinate, point]
    reps, label = np.unique((images[:, 0] * m + images[:, 1]).min(axis=0),
                            return_inverse=True)
    names = tuple(f"({a},{b})" for a, b in zip(*np.divmod(reps, m)))
    return _translation_scheme(m, label.astype(np.int16).reshape(m, m), names)


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
    names = ("(0,0)", "(1,0)", "(2,0)", "(1,2)", "(1,3)")
    lookup = np.zeros((5, 5), dtype=np.int16)
    for k, elems in enumerate(_Z5Z5_CLASSES):
        lookup[tuple(zip(*elems))] = k
    return _translation_scheme(5, lookup, names)
