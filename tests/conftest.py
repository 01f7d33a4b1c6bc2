import itertools
from fractions import Fraction

import numpy as np
import pytest

import schemeres as sr

_SPECTRAL_CACHE = {}


def spectral_of(scheme):
    """Session-wide memo so each preset is diagonalized once."""
    key = id(scheme)
    if key not in _SPECTRAL_CACHE:
        _SPECTRAL_CACHE[key] = sr.spectral_data(scheme)
    return _SPECTRAL_CACHE[key]


@pytest.fixture(scope="session")
def cycle8():
    return sr.build_cycle(8)


@pytest.fixture(scope="session")
def hypercube3():
    return sr.build_hypercube(3)


@pytest.fixture(scope="session")
def triangular6():
    return sr.build_triangular(6)


@pytest.fixture(scope="session")
def s4():
    return sr.build_s4_scheme("conjugacy")


@pytest.fixture(scope="session")
def s4_refined_a():
    return sr.build_s4_scheme("stabilizer")


@pytest.fixture(scope="session")
def s4_refined_b():
    return sr.build_s4_scheme("stabilizer-4c")


@pytest.fixture(scope="session")
def z5z5():
    return sr.build_orbit_scheme_z5z5()


@pytest.fixture(scope="session")
def square4():
    return sr.build_square_lattice(4)


@pytest.fixture(scope="session")
def hexagonal7():
    return sr.build_hexagonal_lattice(7)


@pytest.fixture(scope="session")
def presets(cycle8, hypercube3, triangular6, s4, s4_refined_a, s4_refined_b,
            z5z5, square4, hexagonal7):
    return {
        "cycle": cycle8,
        "hypercube": hypercube3,
        "triangular": triangular6,
        "s4": s4,
        "s4-refined-a": s4_refined_a,
        "s4-refined-b": s4_refined_b,
        "z5z5": z5z5,
        "square": square4,
        "hexagonal": hexagonal7,
    }


@pytest.fixture(scope="session")
def chang():
    """A Chang graph, SRG(28, 12, 6, 4), as a two-class scheme verified
    from its class map: the triangular graph T(8) = J(8, 2) switched on the
    2-subsets {01, 23, 45, 67}, so that a pair of them and a pair of the
    other 24 vertices swap adjacency.  Its vertices lie in 32 or 36 K4s, so
    no group of automorphisms is transitive on them."""
    pairs = list(itertools.combinations(range(8), 2))
    adjacent = np.array([[len(set(a) & set(b)) == 1 for b in pairs] for a in pairs])
    switched = np.array([p in {(0, 1), (2, 3), (4, 5), (6, 7)} for p in pairs])
    adjacent ^= switched[:, None] != switched[None, :]
    return sr.verify_scheme(np.where(adjacent, 1, 2) - 2 * np.eye(len(pairs), dtype=np.int64))


def classmap_of(relations):
    """The class map sum_k k A_k of 0/1 relation matrices A_0, A_1, ...: the
    form in which ``verify_scheme`` takes relations written by hand."""
    return sum(k * np.asarray(r, dtype=np.int64) for k, r in enumerate(relations))


def two_cliques(m):
    """The imprimitive scheme 2 x K_m on 2m vertices: class 1 joins vertices
    within a copy, class 2 across."""
    copy = np.arange(2 * m) // m
    same = copy[:, None] == copy[None, :]
    return sr.verify_scheme(np.where(same, 1, 2) - np.eye(2 * m, dtype=np.int64))


def pair_permutations(pairs):
    """The transposition (0 1) and the n-cycle of the points, acting on the
    2-subsets of a ``Pairs`` as vertex permutations.  They generate
    Sym(points), whose orbitals are the classes of the scheme."""
    n = pairs.points
    a, b = np.triu_indices(n, 1)
    index = np.zeros((n, n), dtype=np.intp)  # [x, y] = the vertex {x, y}
    index[a, b] = index[b, a] = np.arange(len(a))
    swap = np.arange(n)
    swap[:2] = 1, 0
    cycle = (np.arange(n) + 1) % n
    return [index[pi[a], pi[b]] for pi in (swap, cycle)]


def assert_transitive_automorphisms(classmap, gens):
    """Assert, apart from the library, that the vertex permutations ``gens``
    fix ``classmap`` and that words in them move vertex 0 to every vertex:
    the group they generate is then a transitive group of automorphisms."""
    n = len(classmap)
    for g in gens:
        assert np.array_equal(np.sort(g), np.arange(n))
        assert np.array_equal(classmap[np.ix_(g, g)], classmap)
    reached, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            if int(g[x]) not in reached:
                reached.add(int(g[x]))
                frontier.append(int(g[x]))
    assert len(reached) == n


def build_packed(build, *args):
    """``build(*args)`` verified again from its class map alone, derived for
    a translation or pairs builder: certified by the packed N x N
    products."""
    scheme = build(*args)
    return sr.verify_scheme(scheme.classmap, class_names=scheme.class_names)


def rational_matmul(a, b):
    """Exact product of two rational matrices given as lists of rows."""
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum((Fraction(a[i][k]) * b[k][j] for k in range(inner)), Fraction(0))
         for j in range(cols)]
        for i in range(rows)
    ]


def random_connected_conductances(scheme, rng, sparse=False):
    """A nonnegative conductance vector whose support connects the network."""
    while True:
        values = rng.uniform(0.1, 2.0, size=scheme.d)
        if sparse:
            mask = rng.random(scheme.d) < 0.5
            if not mask.any():
                continue
            values = values * mask
        support = [i + 1 for i, v in enumerate(values) if v > 0]
        if support and scheme.relation_connected(support):
            return [round(float(v), 6) for v in values]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        import acceptance_registry
    except ImportError:
        return
    lines = acceptance_registry.summary_lines()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
