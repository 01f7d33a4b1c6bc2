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


def two_cliques(m):
    """The imprimitive scheme 2 x K_m on 2m vertices: class 1 joins vertices
    within a copy, class 2 across."""
    copy = np.arange(2 * m) // m
    same = copy[:, None] == copy[None, :]
    return sr.verify_scheme(np.where(same, 1, 2) - np.eye(2 * m, dtype=np.int64))


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
