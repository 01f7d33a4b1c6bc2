"""Reference values the benchmark computes apart from the program.

Nothing in this module imports schemeres.  Every expected table comes from a
textbook formula or from a dense solve on a graph built here:

* cycles: R(l) = l (n - l) / n;
* distance-regular networks: Biggs' sum
  R(m) = (2/N) sum_{i<m} (N - k_0 - ... - k_i) / (k_i b_i)
  (Biggs, Combin. Probab. Comput. 2, 1993) over the textbook intersection
  arrays {n-i; i} (hypercube) and {2(n-2), n-3; 1, 4} (triangular scheme);
* periodic square and triangular lattices: a cosine sum over the characters
  of Z_m x Z_m;
* group schemes (S4, Z5 x Z5) and arbitrary conductances on a given class
  map: a grounded-Laplacian solve, which inverts L with one vertex removed
  (LU, not the eigendecomposition the program uses);
* infinite lattices: R_line(l) = l and the closed values of Cserti,
  Am. J. Phys. 68 (2000).

``check_table`` compares a program table with a reference and also checks
the sum rule (N/2) sum_l c_l k_l R(l) = N - 1, exactly on exact tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

#: relative tolerance for floating tables against a reference
FLOAT_RTOL = 1e-8
#: spread a reference table may show within one class before it is refused
REFERENCE_SPREAD_RTOL = 1e-9
#: tolerance requested from, and applied to, the 2-D lattice quadrature
LATTICE_TOL = 1e-7
#: absolute tolerance on the infinite-line quadrature (program default 1e-10)
LINE_TOL = 1e-9

#: infinite-lattice values R(l1, l2) with unit conductance per edge
LATTICE_VALUES = {
    ("square", 1, 0): 0.5,
    ("square", 1, 1): 2.0 / math.pi,
    ("square", 2, 0): 2.0 - 4.0 / math.pi,
    ("square", 2, 1): 4.0 / math.pi - 0.5,
    ("hexagonal", 1, 0): 1.0 / 3.0,
    ("hexagonal", 2, 0): 8.0 / 3.0 - 4.0 * math.sqrt(3.0) / math.pi,
}

SQUARE_NEIGHBOURS = ((1, 0), (-1, 0), (0, 1), (0, -1))
TRIANGULAR_NEIGHBOURS = SQUARE_NEIGHBOURS + ((1, 1), (-1, -1))


@dataclass(frozen=True)
class Expected:
    """Reference table for one operation.

    ``values[l-1]`` is R(l); ``weights[l-1]`` is c_l k_l, the conductance of
    class l times its valency, which the sum rule needs.  ``exact`` tables
    hold Fractions and are compared exactly.
    """

    n: int
    values: tuple
    weights: tuple
    exact: bool


# --------------------------------------------------------------------------
# comparisons
# --------------------------------------------------------------------------

def check_table(got: Sequence, expected: Expected, label: str) -> list:
    """Problems found in one program table; an empty list means it passed."""
    got = tuple(got)
    if len(got) != len(expected.values):
        return [f"{label}: {len(got)} classes, expected {len(expected.values)}"]
    problems = []
    exact = expected.exact and all(isinstance(v, Fraction) for v in got)
    for l, (g, e) in enumerate(zip(got, expected.values), start=1):
        if exact:
            ok = g == e
        else:
            ok = abs(float(g) - float(e)) <= FLOAT_RTOL * abs(float(e))
        if not ok:
            problems.append(f"{label}: R({l}) = {g}, reference {e}")
    residual = sum_rule_residual(expected.n, expected.weights, got)
    limit = 0 if exact else FLOAT_RTOL * (expected.n - 1)
    if residual > limit:
        problems.append(f"{label}: sum rule off by {float(residual):.3e}")
    return problems


def sum_rule_residual(n: int, weights: Sequence, values: Sequence):
    """|(N/2) sum_l c_l k_l R(l) - (N - 1)|, exact when every input is."""
    if all(isinstance(x, (int, Fraction)) for x in (*weights, *values)):
        lhs = Fraction(n, 2) * sum(Fraction(w) * v for w, v in zip(weights, values))
        return abs(lhs - (n - 1))
    lhs = n / 2 * sum(float(w) * float(v) for w, v in zip(weights, values))
    return abs(lhs - (n - 1))


def check_lattice(kind: str, l1: int, l2: int, value: float) -> list:
    """Infinite-lattice value within the quadrature tolerance."""
    ref = LATTICE_VALUES[(kind, l1, l2)]
    if abs(value - ref) > LATTICE_TOL:
        return [f"{kind} R({l1},{l2}) = {value!r}, reference {ref!r}"]
    return []


def check_line(l: int, value: float) -> list:
    if abs(value - l) > LINE_TOL:
        return [f"line R({l}) = {value!r}, reference {l}"]
    return []


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def cycle_expected(n: int) -> Expected:
    """C_n with unit conductance per edge: R(l) = l (n - l) / n."""
    d = n // 2
    values = tuple(Fraction(l * (n - l), n) for l in range(1, d + 1))
    return Expected(n, values, (2,) + (0,) * (d - 1), True)


def hypercube_array(n: int) -> tuple:
    return tuple(n - i for i in range(n)), tuple(range(1, n + 1))


def triangular_array(n: int) -> tuple:
    return (2 * (n - 2), n - 3), (1, 4)


def biggs_expected(b: Sequence[int], c: Sequence[int]) -> Expected:
    """Per-class resistances of a distance-regular graph from {b; c}."""
    d = len(c)
    k = [Fraction(1)]
    for i in range(1, d + 1):
        k.append(k[-1] * b[i - 1] / c[i - 1])
    n = sum(k)
    if n.denominator != 1 or any(x.denominator != 1 for x in k):
        raise ValueError("intersection array is not feasible")
    n = int(n)
    values, partial, running = [], Fraction(0), Fraction(0)
    for i in range(d):
        running += k[i]
        partial += (n - running) / (k[i] * b[i])
        values.append(Fraction(2, n) * partial)
    return Expected(n, tuple(values), (int(k[1]),) + (0,) * (d - 1), True)


# --------------------------------------------------------------------------
# dense solves
# --------------------------------------------------------------------------

def grounded_resistances(weights: np.ndarray) -> np.ndarray:
    """R(0, v) for every vertex v of a network with conductance matrix W.

    Grounds vertex 0: R(0, v) = (L_00^-1)[v, v], with L_00 the Laplacian
    minus row and column 0.
    """
    lap = np.diag(weights.sum(axis=1)) - weights
    inv = np.linalg.inv(lap[1:, 1:])
    return np.concatenate([[0.0], np.diag(inv)])


def _class_values(r: np.ndarray, members: Sequence[np.ndarray]) -> tuple:
    values = []
    for l, idx in enumerate(members, start=1):
        block = r[idx]
        top = float(np.abs(block).max())
        if float(block.max() - block.min()) > REFERENCE_SPREAD_RTOL * top:
            raise ArithmeticError(f"reference spread in class {l} is too wide")
        values.append(float(block.mean()))
    return tuple(values)


def classmap_expected(classmap: np.ndarray, conductances: Sequence) -> Expected:
    """Reference for any conductances c_1..c_d on a given class map."""
    d = len(conductances)
    c = np.array([0.0] + [float(x) for x in conductances])
    r = grounded_resistances(c[classmap])
    row = classmap[0]
    members = [np.flatnonzero(row == l) for l in range(1, d + 1)]
    weights = tuple(x * len(m) for x, m in zip(conductances, members))
    return Expected(classmap.shape[0], _class_values(r, members), weights, False)


def cayley_expected(elements: Sequence, compose, classes: Sequence[Sequence]) -> Expected:
    """Group scheme with unit conductance on ``classes[0]``.

    ``classes`` lists the elements of relation 1..d; x ~ y when x y^-1 lies
    in classes[0].  ``elements[0]`` must be the identity.
    """
    index = {g: i for i, g in enumerate(elements)}
    n = len(elements)
    w = np.zeros((n, n))
    for y in elements:
        for s in classes[0]:
            w[index[compose(s, y)], index[y]] = 1.0
    if (w != w.T).any():
        raise ValueError("connection set is not inverse-closed")
    r = grounded_resistances(w)
    members = [np.array([index[g] for g in cls]) for cls in classes]
    values = _class_values(r, members)
    return Expected(n, values, (len(classes[0]),) + (0,) * (len(classes) - 1), False)


def torus_expected(m: int, neighbours: Sequence, vectors: Sequence) -> Expected:
    """Periodic m x m lattice with unit edges: a cosine sum over characters.

    R(0, v) = (1/N) sum_{chi != 0} 2 (1 - cos chi.v) / sum_u (1 - cos chi.u).
    """
    k = 2.0 * np.pi * np.arange(m) / m
    x, y = np.meshgrid(k, k, indexing="ij")
    mu = sum(1.0 - np.cos(x * u1 + y * u2) for u1, u2 in neighbours)
    mu[0, 0] = 1.0
    values = []
    for v1, v2 in vectors:
        num = 2.0 * (1.0 - np.cos(x * v1 + y * v2))
        values.append(float((num / mu).sum()) / (m * m))
    weights = (len(neighbours),) + (0,) * (len(vectors) - 1)
    return Expected(m * m, tuple(values), weights, False)


def parse_vector(name: str) -> tuple:
    """'(a,b)' -> (a, b), the class names of translation schemes."""
    a, b = name.strip("()").split(",")
    return int(a), int(b)


# --------------------------------------------------------------------------
# group schemes built here
# --------------------------------------------------------------------------

def _cycle_type(p) -> tuple:
    seen, lens = set(), []
    for start in range(len(p)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = p[x]
            length += 1
        if length:
            lens.append(length)
    return tuple(sorted(lens, reverse=True))


# class names of the S4 presets (past the identity) -> membership test
_S4_CLASSES = {
    "2": lambda p: _cycle_type(p) == (2, 1, 1),
    "3": lambda p: _cycle_type(p) == (3, 1),
    "2+2": lambda p: _cycle_type(p) == (2, 2),
    "4": lambda p: _cycle_type(p) == (4,),
    "2m": lambda p: _cycle_type(p) == (2, 1, 1) and p[0] != 0,
    "2f": lambda p: _cycle_type(p) == (2, 1, 1) and p[0] == 0,
    "3m": lambda p: _cycle_type(p) == (3, 1) and p[0] != 0,
    "3f": lambda p: _cycle_type(p) == (3, 1) and p[0] == 0,
}


def s4_expected(class_names: Sequence[str]) -> Expected:
    """S4 with the named classes (e, transpositions, ...; m/f = moves/fixes 0)."""
    perms = list(itertools.permutations(range(4)))
    compose = lambda p, q: tuple(p[q[x]] for x in range(4))
    classes = [[p for p in perms if _S4_CLASSES[name](p)] for name in class_names[1:]]
    return cayley_expected(perms, compose, classes)


def z5z5_expected(class_names: Sequence[str]) -> Expected:
    """Z5 x Z5 with classes +-{(1,0), (0,1), (1,1)}, +-{(1,2), (2,1), (1,4)}
    and their doublings; each named class is the one holding its vector."""
    base1 = [(1, 0), (0, 1), (1, 1)]
    base3 = [(1, 2), (2, 1), (1, 4)]
    own = []
    for base in (base1, base3):
        for t in (1, 2):
            own.append({((t * s * a) % 5, (t * s * b) % 5)
                        for a, b in base for s in (1, -1)})
    elements = [(a, b) for a in range(5) for b in range(5)]
    classes = []
    for name in class_names[1:]:
        v = parse_vector(name)
        classes.append(sorted(next(c for c in own if v in c)))
    add = lambda g, h: ((g[0] + h[0]) % 5, (g[1] + h[1]) % 5)
    return cayley_expected(elements, add, classes)


def scaled(expected: Expected, t: Fraction) -> Expected:
    """Reference at conductances t*c from the one at c: R(tc) = R(c)/t."""
    tf = float(t)
    return Expected(expected.n, tuple(v / tf for v in expected.values),
                    tuple(w * t for w in expected.weights), False)
