import dataclasses
import functools
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import schemeres as sr
from schemeres.errors import (
    BadParameter,
    CertificationFailed,
    Disconnected,
    FewerEigenvalues,
    MethodPreconditionViolated,
    OutOfRange,
    ZeroDenominator,
)

from conftest import classmap_of, random_connected_conductances, spectral_of, two_cliques
from nxn_witnesses import (
    integer_matrix_powers,
    laplacian,
    nxn_oracle_table,
    nxn_relation_connected,
    oracle_resistance_matrix,
    power_traces,
    pseudo_inverse,
)
from paper_closed_forms import paper_closed_form, paper_drg_closed

F = Fraction


def complete_scheme(n):
    eye = np.eye(n, dtype=np.int64)
    return sr.verify_scheme(classmap_of([eye, np.ones((n, n), dtype=np.int64) - eye]))


#: schemes whose class supports include disconnected ones
SUPPORT_SCHEMES = {
    "cycle12": lambda: sr.build_cycle(12),
    "square4": lambda: sr.build_square_lattice(4),
    "2xK3": lambda: two_cliques(3),
    "hypercube4": lambda: sr.build_hypercube(4),
    "z5z5": sr.build_orbit_scheme_z5z5,
    "hypercube6": lambda: sr.build_hypercube(6),
    "square9": lambda: sr.build_square_lattice(9),
}


@functools.cache
def support_scheme(name):
    return SUPPORT_SCHEMES[name]()


#: the exact-drg ladder of the benchmark
POLYNOMIAL_LADDER = (
    [(sr.build_cycle, n) for n in (16, 32, 48, 64)]
    + [(sr.build_hypercube, n) for n in range(3, 9)]
    + [(sr.build_triangular, n) for n in (5, 8, 12, 16, 20, 24)])


#: the test presets and the query-mix schemes of the benchmark
GROUPED_SCHEMES = {
    "cycle8": lambda: sr.build_cycle(8),
    "hypercube3": lambda: sr.build_hypercube(3),
    "triangular6": lambda: sr.build_triangular(6),
    "s4": lambda: sr.build_s4_scheme("conjugacy"),
    "s4-refined-a": lambda: sr.build_s4_scheme("stabilizer"),
    "s4-refined-b": lambda: sr.build_s4_scheme("stabilizer-4c"),
    "z5z5": sr.build_orbit_scheme_z5z5,
    "square4": lambda: sr.build_square_lattice(4),
    "hexagonal7": lambda: sr.build_hexagonal_lattice(7),
    "cycle32": lambda: sr.build_cycle(32),
    "hypercube6": lambda: sr.build_hypercube(6),
    "hypercube7": lambda: sr.build_hypercube(7),
    "triangular10": lambda: sr.build_triangular(10),
    "triangular16": lambda: sr.build_triangular(16),
    "square10": lambda: sr.build_square_lattice(10),
    "hexagonal9": lambda: sr.build_hexagonal_lattice(9),
}


@functools.cache
def generatorless_scheme(name):
    """``GROUPED_SCHEMES[name]`` verified without generators, as a document
    reloads it: closure certified by the packed N x N products."""
    scheme = row_zero_scheme(name)
    return sr.verify_scheme(scheme.classmap, class_names=scheme.class_names)


def random_rational_conductances(scheme, rng):
    """Conductances p/q (1 <= p, q <= 9) on a random connected support."""
    while True:
        values = [F(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
                  if rng.random() < 0.5 else F(0) for _ in range(scheme.d)]
        support = [l for l, v in enumerate(values, start=1) if v]
        if support and scheme.relation_connected(support):
            return values


def contraction_table(scheme):
    """R^(m) = (2/(N kappa_m)) sum_n c_mn t_n through the full inverse c of
    ``polynomial_coefficients``, the engine's former route."""
    coeffs = sr.polynomial_coefficients(scheme)
    n, d = scheme.n, scheme.d
    kappa = F(scheme.valencies[1])
    traces = [coeffs.trace_of_power(n, l) for l in range(d + 1)]
    t = [F(0)] + [
        sum(kappa ** (m - i) * traces[i - 1] for i in range(1, m + 1))
        - m * kappa ** (m - 1) for m in range(1, d + 1)]
    return tuple(
        F(2, n * scheme.valencies[m]) * sum(coeffs.c[m][k] * t[k] for k in range(1, d + 1))
        for m in range(1, d + 1))


class TestConductanceVector:
    def test_fractions_kept(self):
        given_values = (F(1, 3), F(0), F(22, 7))
        cond = sr.ConductanceVector.coerce(given_values, 3)
        assert all(a is b for a, b in zip(cond.values, given_values))
        assert sr.ConductanceVector.coerce([1, "1/2", 0.25], 3).values == (
            F(1), F(1, 2), F(1, 4))

    @pytest.mark.parametrize("values, message", [
        ([F(1), F(-1, 2)], "nonnegative"),
        ([1, -1e-300], "nonnegative"),
        ([F(0), 0], "positive"),
        ([0.0, F(0, 5)], "positive"),
        ([1], "expected 2 conductances"),
    ])
    def test_rejected(self, values, message):
        with pytest.raises(ValueError, match=message):
            sr.ConductanceVector.coerce(values, 2)

    @pytest.mark.parametrize("values, message", [
        ((-1, 2), "nonnegative"),
        ((0, 0), "positive"),
        ((F(1), F(-1, 2)), "nonnegative"),
        ((), "positive"),
    ])
    def test_rejected_on_construction(self, values, message):
        with pytest.raises(ValueError, match=message):
            sr.ConductanceVector(values)

    def test_constructed_as_fractions(self):
        cond = sr.ConductanceVector((1, "1/2", 0.25))
        assert cond.values == (F(1), F(1, 2), F(1, 4))
        assert all(type(v) is F for v in cond.values)
        assert cond == sr.ConductanceVector.coerce([1, F(1, 2), F(1, 4)], 3)

    def test_existing_vector_reused(self):
        cond = sr.ConductanceVector((F(1, 3), F(0), F(2)))
        assert sr.ConductanceVector.coerce(cond, 3) is cond

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_existing_vector_wrong_length(self, d):
        cond = sr.ConductanceVector((F(1, 3), F(0), F(2)))
        with pytest.raises(ValueError, match=f"^expected {d} conductances, got 3$"):
            sr.ConductanceVector.coerce(cond, d)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(min_value=0, max_value=10**300, max_denominator=10**30)
                    | st.integers(0, 10**400).map(lambda k: F(k, 3 ** 700)),
                    min_size=1, max_size=6).filter(any))
    def test_as_floats_is_float(self, values):
        cond = sr.ConductanceVector.coerce(values, len(values))
        floats = cond.as_floats()
        assert floats.dtype == np.float64
        assert floats.tolist() == [float(v) for v in values]
        # one shared read-only view, byte-equal to the floats once built per call
        assert cond.as_floats() is floats and not floats.flags.writeable
        former = np.array([v.numerator / v.denominator for v in cond.values])
        assert floats.tobytes() == former.tobytes()

    @pytest.mark.parametrize("values, index", [
        ((1, float("inf")), 1), ((float("-inf"),), 0), ((float("nan"), 1), 0),
        ((None, 1), 0), ((True, 0), 0), ((1, np.True_), 1), ((0, 1, "1/0"), 2),
        ((1, "one"), 1), ((F(10 ** 400), 1), 0), ((1, [1]), 1)])
    def test_bad_value_named(self, values, index):
        with pytest.raises(ValueError, match=f"^conductance {index} is not a number"):
            sr.ConductanceVector(values)

    def test_negative_value_named(self):
        with pytest.raises(ValueError, match="^conductances must be nonnegative: "
                                             "conductance 1 is -1/2$"):
            sr.ConductanceVector((1, F(-1, 2)))


class TestTableValue:
    def test_index_outside_classes(self, cycle8):
        # a negative index used to read another class: value(-1) was R(3)
        for table in (sr.resistance_oracle(cycle8, sr.unit_class_one(cycle8)),
                      sr.resistance_polynomial(cycle8)):
            assert table.value(0) == 0 and table.value(4) == table.values[3]
            for index in (-1, -4, -5, 5, 100):
                with pytest.raises(OutOfRange,
                                   match=rf"^class index {index} lies outside 0\.\.4$"):
                    table.value(index)


class TestOracle:
    def test_complete_graph(self):
        table = sr.resistance_oracle(complete_scheme(3), [1])
        assert abs(table.value(1) - F(2, 3)) < 1e-12

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_cycle_first_stratum(self, n):
        scheme = sr.build_cycle(n)
        table = sr.resistance_oracle(scheme, [1] + [0] * (scheme.d - 1))
        assert abs(table.value(1) - (n - 1) / n) < 1e-12

    def test_same_node_zero(self, s4):
        assert sr.resistance_oracle(s4, [1, 0, 0, 0]).value(0) == 0.0
        rmat = oracle_resistance_matrix(s4, [1, 0, 0, 0])
        assert np.abs(np.diag(rmat)).max() < 1e-12

    def test_disconnected_support(self, square4):
        # the (2,2) class of the m=4 square lattice is a single involution
        names = square4.class_names
        k = names.index("(2,2)")
        c = [0] * square4.d
        c[k - 1] = 1
        with pytest.raises(Disconnected, match="zero eigenvalues"):
            sr.resistance_oracle(square4, c)

    @pytest.mark.parametrize("case", ["cycle8-4", "2xK3-1"])
    def test_disconnected_support_found_without_p(self, cycle8, case):
        # the oracle does not consult p: it searches L's support in row 0
        scheme, k = (cycle8, 4) if case == "cycle8-4" else (two_cliques(3), 1)
        c = [0] * scheme.d
        c[k - 1] = 1
        assert not scheme.relation_connected([k])
        with pytest.raises(Disconnected, match="zero eigenvalues"):
            sr.resistance_oracle(scheme, c)

    @pytest.mark.parametrize("preset", ["cycle", "hypercube", "triangular", "s4",
                                        "s4-refined-a", "s4-refined-b", "z5z5",
                                        "square", "hexagonal"])
    def test_laplacian_matches_relation_loop(self, presets, preset):
        scheme = presets[preset]
        rng = np.random.default_rng(11)
        for sparse in (False, True):
            c = random_connected_conductances(scheme, rng, sparse=sparse)
            # the oracle's class weights read through the class map, against
            # the diagonal sum minus c_i A_i per class
            got = sr.resistance._laplacian_weights(scheme, c)[scheme.classmap]
            assert got.tobytes() == laplacian(scheme, c).tobytes()

    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(sorted(SUPPORT_SCHEMES)), data=st.data())
    def test_disconnected_exactly_when_support_splits(self, name, data):
        scheme = support_scheme(name)
        # one or two classes at unit conductance split the larger schemes often
        sparse = st.sets(st.integers(1, scheme.d), min_size=1, max_size=2).map(
            lambda classes: [int(l in classes) for l in range(1, scheme.d + 1)])
        c = data.draw(st.lists(st.integers(0, 4), min_size=scheme.d,
                               max_size=scheme.d).filter(any) | sparse, label="c")
        support = [i for i, ci in enumerate(c, start=1) if ci]
        if not scheme.relation_connected(support):
            with pytest.raises(Disconnected, match="zero eigenvalues"):
                sr.resistance_oracle(scheme, c)
            return
        table = np.array(sr.resistance_oracle(scheme, c).values)
        for t in (F(1, 10**9), F(1, 10**12)):  # no scale reads as disconnected
            try:
                scaled = sr.resistance_oracle(scheme, [t * ci for ci in c])
            except CertificationFailed:  # an absolute bound (ROADMAP item 5)
                continue
            got = np.array(scaled.values) * float(t)
            assert np.abs(got - table).max() <= 1e-9 * np.abs(table).max()

    @pytest.mark.parametrize("preset", ["cycle", "hypercube", "triangular", "s4",
                                        "s4-refined-a", "s4-refined-b", "z5z5",
                                        "square", "hexagonal"])
    def test_pseudo_inverse_matches_pinv(self, presets, preset):
        # the N x N witness that the oracle is compared against, then the
        # oracle itself
        scheme = presets[preset]
        rng = np.random.default_rng(5)
        for sparse in (False, True):
            c = random_connected_conductances(scheme, rng, sparse=sparse)
            want = np.linalg.pinv(laplacian(scheme, c))
            got = pseudo_inverse(scheme, c)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert_matches_pinv(scheme, rng)

    def test_certification_errors_are_typed(self, s4):
        assert issubclass(CertificationFailed, sr.errors.SchemeresError)
        assert issubclass(CertificationFailed, AssertionError)
        with pytest.raises(CertificationFailed, match="row-0 resistance error bound"):
            sr.resistance_oracle(s4, [1e-7, 0, 0, 0])

    def test_multi_conductance_matches_spectral(self, s4):
        rng = np.random.default_rng(11)
        data = spectral_of(s4)
        for _ in range(3):
            c = random_connected_conductances(s4, rng)
            a = sr.resistance_oracle(s4, c).as_floats()
            b = sr.resistance_spectral(s4, data, c).as_floats()
            assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9


#: presets with N = 66, 81, 100, 128 and 276, checked against np.linalg.pinv
PINV_SCHEMES = {
    "triangular12": lambda: sr.build_triangular(12),
    "hexagonal9": lambda: sr.build_hexagonal_lattice(9),
    "square10": lambda: sr.build_square_lattice(10),
    "hypercube7": lambda: sr.build_hypercube(7),
    "triangular24": lambda: sr.build_triangular(24),
}


def relative_error(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


def assert_matches_pinv(scheme, rng):
    """The oracle table against R read off ``np.linalg.pinv`` of the N x N
    Laplacian, at random conductances on every class and on about half."""
    for sparse in (False, True):
        c = random_connected_conductances(scheme, rng, sparse=sparse)
        lp = np.linalg.pinv(laplacian(scheme, c))
        reps = np.unique(scheme.classmap[0], return_index=True)[1][1:]
        want = lp[0, 0] + np.diag(lp)[reps] - 2 * lp[0, reps]
        got = np.array(sr.resistance_oracle(scheme, c).values)
        assert relative_error(got, want) <= 1e-12


#: every preset and the ladder networks up to N = 1024 not listed above
ROW_ZERO_SCHEMES = {
    **GROUPED_SCHEMES,
    **PINV_SCHEMES,
    "cycle24": lambda: sr.build_cycle(24),
    "cycle64": lambda: sr.build_cycle(64),
    "hypercube8": lambda: sr.build_hypercube(8),
    "square9": lambda: sr.build_square_lattice(9),
    "square12": lambda: sr.build_square_lattice(12),
    "hexagonal12": lambda: sr.build_hexagonal_lattice(12),
    "square24": lambda: sr.build_square_lattice(24),
    "hypercube10": lambda: sr.build_hypercube(10),
}


@functools.cache
def row_zero_scheme(name):
    return ROW_ZERO_SCHEMES[name]()


def assert_matches_witness(scheme, rng):
    """The oracle table within 1e-12 relative of the N x N witness, at unit
    class-1 conductance and at three random rational vectors."""
    cases = [[F(1)] + [F(0)] * (scheme.d - 1)]
    cases += [random_rational_conductances(scheme, rng) for _ in range(3)]
    for c in cases:
        table = sr.resistance_oracle(scheme, c)
        want, _ = nxn_oracle_table(scheme, c)
        assert table.method == "oracle" and not table.exact
        assert relative_error(np.array(table.values), np.array(want.values)) <= 1e-12


def hidden_from_row_zero(q, yq, a=1, b=2):
    """yq shifted along Q[0, b] e_a - Q[0, a] e_b, which leaves row 0 of the
    quotient residual as it is."""
    shift = np.zeros_like(yq)
    shift[a], shift[b] = q[0, b], -q[0, a]
    return yq + 1e-6 * np.abs(yq).max() * shift / np.abs(shift).max()


class TestRowZeroOracle:
    """The oracle from row 0: one quotient solve and its residual."""

    @pytest.mark.parametrize("name", ROW_ZERO_SCHEMES)
    def test_matches_full_route(self, name):
        assert_matches_witness(row_zero_scheme(name), np.random.default_rng(1616))
        if name in GROUPED_SCHEMES:  # as reloaded from a document
            assert_matches_witness(generatorless_scheme(name), np.random.default_rng(1616))

    @pytest.mark.parametrize("name", PINV_SCHEMES)
    def test_matches_pinv(self, name):
        assert_matches_pinv(row_zero_scheme(name), np.random.default_rng(1414))

    @pytest.mark.parametrize("name", ["hypercube7", "triangular24"])
    def test_oracle_matches_polynomial(self, name):
        scheme = row_zero_scheme(name)
        exact = sr.resistance_polynomial(scheme).as_floats()
        got = sr.resistance_oracle(scheme, [1] + [0] * (scheme.d - 1)).as_floats()
        assert relative_error(np.array(got), np.array(exact)) <= 1e-12

    @pytest.mark.parametrize("name", ["hypercube6", "square10", "triangular12"])
    def test_table_without_p(self, name):
        scheme = row_zero_scheme(name)
        stripped = dataclasses.replace(scheme, p=None)
        rng = np.random.default_rng(1617)
        for c in [[1] + [0] * (scheme.d - 1), random_rational_conductances(scheme, rng)]:
            assert sr.resistance_oracle(stripped, c) == sr.resistance_oracle(scheme, c)

    @pytest.mark.parametrize("tamper, message", [
        (lambda q, yq: yq + 1e-6 * np.abs(yq).max() * (np.arange(len(yq)) == 1),
         "row-0 resistance error bound"),
        (lambda q, yq: 2 * yq, "row-0 residual .* is not below 1/N"),
        (hidden_from_row_zero, "row-0 resistance error bound")],
        ids=["shifted", "doubled", "hidden-from-row-0"])
    def test_tampered_solve(self, monkeypatch, tamper, message):
        scheme = row_zero_scheme("hypercube6")
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: tamper(a, real(a, b)))
        with pytest.raises(CertificationFailed, match=message):
            sr.resistance_oracle(scheme, [1] + [0] * (scheme.d - 1))

    @pytest.mark.parametrize("name, k, count", [
        ("hypercube6", 2, 32), ("hypercube6", 6, 2), ("cycle64", 2, 32), ("cycle64", 32, 2),
        ("square9", 3, 9), ("hexagonal12", 6, 4), ("hexagonal12", 18, 3)])
    def test_disconnected_count(self, name, k, count):
        scheme = row_zero_scheme(name)
        bare = sr.verify_scheme(scheme.classmap, class_names=scheme.class_names)
        c = [int(l == k) for l in range(1, scheme.d + 1)]
        message = f"^conductance support reaches {count} of {scheme.n} vertices"
        for route in (scheme, bare):  # verified with and without generators
            with pytest.raises(Disconnected, match=message):
                sr.resistance_oracle(route, c)

    @pytest.mark.parametrize("name", ROW_ZERO_SCHEMES)
    def test_held_rows_give_the_derived_rows_table(self, name):
        # the rows verify_scheme kept from the count of p give, bit for bit,
        # the table of rows derived again from row 0
        scheme = row_zero_scheme(name)
        t = scheme.realisation
        if isinstance(t, np.ndarray):
            rows = t[np.unique(t[0], return_index=True)[1]]
        else:
            rows = t.rows(np.unique(t.row0, return_index=True)[1])
        derived = dataclasses.replace(scheme)
        derived.__dict__["representative_rows"] = rows
        rng = np.random.default_rng(2727)
        cases = [sr.unit_class_one(scheme)]
        cases += [random_rational_conductances(scheme, rng) for _ in range(3)]
        for c in cases:
            held, again = sr.resistance_oracle(scheme, c), sr.resistance_oracle(derived, c)
            assert [v.hex() for v in held.values] == [v.hex() for v in again.values]

    def test_scaled_hypercube6_still_fails(self):
        scheme = row_zero_scheme("hypercube6")
        with pytest.raises(CertificationFailed, match="row-0 resistance error bound"):
            sr.resistance_oracle(scheme, [F(1, 10**9)] + [F(0)] * (scheme.d - 1))


@pytest.mark.parametrize("name", [*GROUPED_SCHEMES, "chang"])
def test_residual_is_class_constant(name, request):
    """The premise of the oracle's certificate: M y is constant on each
    class of vertex 0 when y is, checked in integers over all N rows at
    random integer conductances and class values."""
    scheme = request.getfixturevalue("chang") if name == "chang" else generatorless_scheme(name)
    rng = np.random.default_rng(2020)
    for _ in range(3):
        c = rng.integers(0, 10, scheme.d)
        weights = np.concatenate([[c @ scheme.valencies[1:]], -c])
        y = rng.integers(-1000, 1000, scheme.d + 1)[scheme.classmap[0]]
        product = weights[scheme.classmap] @ y
        reps = np.unique(scheme.classmap[0], return_index=True)[1]
        assert (product == product[reps][scheme.classmap[0]]).all()


class TestChangGraph:
    """The oracle needs closure only: a Chang graph's scheme has no
    transitive automorphism group."""

    def test_verified_without_generators(self, chang):
        assert chang.n == 28 and chang.valencies == (1, 12, 15)
        assert chang.p[1, 1].tolist() == [12, 6, 4]  # lambda = 6, mu = 4

    def test_not_vertex_transitive(self, chang):
        adjacent = chang.classmap == 1
        k4 = [sum(adjacent[a, b] and adjacent[a, c] and adjacent[b, c]
                  for a, b, c in itertools.combinations(np.flatnonzero(adjacent[x]), 3))
              for x in range(chang.n)]
        assert k4[0] == 32 and sorted(set(k4)) == [32, 36]

    def test_oracle_matches_witness(self, chang):
        assert_matches_witness(chang, np.random.default_rng(2812))
        exact = sr.resistance_polynomial(chang)
        assert exact.values == (F(9, 56), F(5, 28))
        got = sr.resistance_oracle(chang, [1, 0]).as_floats()
        assert relative_error(np.array(got), np.array(exact.as_floats())) <= 1e-12


class TestSpectral:
    def test_s4_unit_conductance(self, s4):
        table = sr.resistance_spectral(s4, spectral_of(s4), [1, 0, 0, 0])
        expected = (F(23, 72), F(35, 96), F(3, 8), F(55, 144))
        for got, want in zip(table.values, expected):
            assert abs(got - want) < 1e-12

    def test_hypercube2(self):
        scheme = sr.build_hypercube(2)
        table = sr.resistance_spectral(scheme, sr.spectral_data(scheme), [1, 0])
        assert abs(table.value(1) - 0.75) < 1e-12

    def test_zero_denominator(self, square4):
        k = square4.class_names.index("(2,2)")
        c = [0] * square4.d
        c[k - 1] = 1
        with pytest.raises(ZeroDenominator):
            sr.resistance_spectral(square4, spectral_of(square4), c)

    @pytest.mark.parametrize("build, other, message", [
        (lambda: sr.build_cycle(6), lambda: sr.build_hypercube(3),
         "of 4 eigenspaces on 8 vertices do not fit a scheme with d = 3 on 6 vertices"),
        (sr.build_s4_scheme, lambda: sr.build_cycle(6),
         "of 4 eigenspaces on 6 vertices do not fit a scheme with d = 4 on 24 vertices"),
        # Z_8 with classes {0}, {4}, {2, 6} and the odd residues: d = 3 and
        # N = 8 as on the 3-cube, whose data gave 0.3125, 0.2656 and 0.2266
        # where the oracle gives 0.25
        (lambda: sr.build_group_scheme(*sr.cyclic_group_table(
            8, [(0,), (4,), (2, 6), (1, 3, 5, 7)])), lambda: sr.build_hypercube(3),
         "with row 0 of P (1, 3, 3, 1) do not fit a scheme with valencies (1, 1, 2, 4)"),
    ], ids=["same-d", "other-d", "same-d-and-n"])
    def test_data_of_another_scheme(self, build, other, message):
        # another scheme's data once ended in numpy's broadcast ValueError, or
        # in a table at the wrong N or with the wrong valencies
        scheme = build()
        with pytest.raises(BadParameter, match=f"^{re.escape(f'spectral data {message}')}$"):
            sr.resistance_spectral(scheme, spectral_of(other()), [1] * scheme.d)


class TestPolynomialCoefficients:
    def test_s4_rows(self, s4):
        coeffs = sr.polynomial_coefficients(s4)
        assert coeffs.c[2] == (F(-4), F(0), F(13, 12), F(0), F(-1, 48))
        assert coeffs.c[3] == (F(3), F(0), F(-9, 8), F(0), F(1, 32))
        assert coeffs.c[4] == (F(0), F(-5, 4), F(0), F(1, 16), F(0))

    def test_z5z5_rows(self, z5z5):
        coeffs = sr.polynomial_coefficients(z5z5)
        assert coeffs.c[2] == (F(-60, 11), F(-78, 11), F(27, 22), F(19, 22),
                               F(-3, 22))
        assert coeffs.c[3] == (F(-3, 11), F(28, 11), F(-5, 44), F(-19, 44),
                               F(3, 44))
        # the sign of the cubic term is forced by exact reconstruction
        assert coeffs.c[4] == (F(51, 11), F(71, 22), F(-29, 22), F(-9, 22),
                               F(1, 11))

    def test_refined_a_rows(self, s4_refined_a):
        coeffs = sr.polynomial_coefficients(s4_refined_a)
        z = F(0)
        assert coeffs.c[2] == (F(-3), z, F(1), z, z, z, z)
        assert coeffs.c[3] == (z, F(-22, 5), z, F(3, 2), z, F(-1, 10), z)
        assert coeffs.c[4] == (z, F(19, 5), z, F(-2), z, F(1, 5), z)
        assert coeffs.c[5] == (F(3), z, F(-27, 5), z, F(3, 2), z, F(-1, 10))
        assert coeffs.c[6] == (F(-1), z, F(68, 15), z, F(-5, 3), z, F(2, 15))

    @pytest.mark.parametrize("preset", ["s4", "z5z5", "cycle", "triangular"])
    def test_unit_rows(self, presets, preset):
        coeffs = sr.polynomial_coefficients(presets[preset])
        d = coeffs.d
        assert coeffs.c[0] == tuple(F(int(j == 0)) for j in range(d + 1))
        assert coeffs.c[1] == tuple(F(int(j == 1)) for j in range(d + 1))

    def test_unit_rows_certified(self, monkeypatch, s4):
        real = sr.resistance.rational_solve
        monkeypatch.setattr(sr.resistance, "rational_solve",
                            lambda a, b: real(a, b)[::-1])
        with pytest.raises(CertificationFailed, match="residual W C - I"):
            sr.polynomial_coefficients(s4)

    def test_inverse_certified(self, monkeypatch, s4):
        real = sr.resistance.rational_solve

        def perturbed(a, b):
            x = real(a, b)
            x[-1][0] += F(1, 10**6)
            return x

        monkeypatch.setattr(sr.resistance, "rational_solve", perturbed)
        with pytest.raises(CertificationFailed, match="residual W C - I"):
            sr.polynomial_coefficients(s4)

    @pytest.mark.parametrize("preset", ["s4", "z5z5"])
    def test_exact_matrix_reconstruction(self, presets, preset):
        scheme = presets[preset]
        coeffs = sr.polynomial_coefficients(scheme)
        a = np.asarray(scheme.relations[1], dtype=np.int64)
        powers = [p.astype(object) for p in integer_matrix_powers(a, scheme.d)]
        for m in range(scheme.d + 1):
            recon = sum(coeffs.c[m][n] * powers[n] for n in range(scheme.d + 1))
            assert (recon == scheme.relations[m].astype(object)).all()

    @pytest.mark.parametrize("preset", ["s4", "s4-refined-a", "z5z5", "cycle",
                                        "hypercube", "triangular", "hexagonal"])
    def test_c_inv_matches_matrix_powers(self, presets, preset):
        scheme = presets[preset]
        coeffs = sr.polynomial_coefficients(scheme)
        a = np.asarray(scheme.relations[1], dtype=np.int64)
        for row, power in zip(coeffs.c_inv, integer_matrix_powers(a, scheme.d)):
            expanded = np.array([int(x) for x in row], dtype=object)[scheme.classmap]
            assert (power.astype(object) == expanded).all()

    def test_repeated_eigenvalues_reported(self, square4, s4_refined_b):
        for scheme in (square4, s4_refined_b):
            with pytest.raises(FewerEigenvalues):
                sr.polynomial_coefficients(scheme)

    @pytest.mark.parametrize("build, rank", [
        (lambda: sr.build_square_lattice(12), 21),
        (lambda: sr.build_hexagonal_lattice(12), 16),
        (lambda: sr.build_s4_scheme("stabilizer-4c"), 5),
        (lambda: sr.build_square_lattice(4), 5),
        (lambda: sr.build_square_lattice(24), 75),
    ], ids=["square12", "hexagonal12", "s4-refined-b", "square4", "square24"])
    def test_reported_rank_is_exact(self, build, rank):
        # the rank is the number of distinct eigenvalues of A_1; a float
        # rank of the huge power rows reads 14 on square 12 and 15 on
        # hexagonal 12
        scheme = build()
        message = f"rank-{rank} subalgebra of dimension {scheme.d + 1}$"
        with pytest.raises(FewerEigenvalues, match=message):
            sr.polynomial_coefficients(scheme)
        with pytest.raises(FewerEigenvalues, match=message):
            sr.resistance_polynomial(scheme)

    @pytest.mark.parametrize("preset", ["s4", "z5z5", "cycle", "hypercube",
                                        "triangular", "s4-refined-a"])
    def test_trace_identity(self, presets, preset):
        scheme = presets[preset]
        coeffs = sr.polynomial_coefficients(scheme)
        traces = power_traces(np.asarray(scheme.relations[1], np.int64),
                                 scheme.d)
        for l in range(scheme.d + 1):
            assert traces[l] == coeffs.trace_of_power(scheme.n, l)


class TestPolynomialEngine:
    def test_s4_table(self, s4):
        table = sr.resistance_polynomial(s4)
        assert table.values == (F(23, 72), F(35, 96), F(3, 8), F(55, 144))

    def test_refined_a_table(self, s4_refined_a):
        table = sr.resistance_polynomial(s4_refined_a)
        assert table.values == (F(23, 36), F(33, 36), F(89, 90), F(187, 180),
                                F(21, 20), F(16, 15))

    def test_z5z5_table(self, z5z5):
        table = sr.resistance_polynomial(z5z5)
        assert table.values == (F(24, 75), F(112, 275), F(109, 275), F(116, 275))

    @pytest.mark.parametrize("n", [4, 6, 8, 20])
    def test_cycle_first_stratum_exact(self, n):
        table = sr.resistance_polynomial(sr.build_cycle(n))
        assert table.value(1) == F(n - 1, n)

    @pytest.mark.parametrize("preset", ["s4", "z5z5", "cycle", "hypercube",
                                        "triangular", "s4-refined-a"])
    def test_first_stratum_identity(self, presets, preset):
        # R^(1) = 2(N-1)/(N kappa) for unit conductance on class 1
        scheme = presets[preset]
        table = sr.resistance_polynomial(scheme)
        assert table.value(1) == F(2 * (scheme.n - 1),
                                   scheme.n * scheme.valencies[1])

    @pytest.mark.parametrize("preset", ["cycle", "hypercube", "triangular", "s4",
                                        "s4-refined-a", "s4-refined-b", "z5z5",
                                        "square", "hexagonal"])
    def test_solve_equals_full_inverse_contraction(self, presets, preset):
        scheme = presets[preset]
        try:
            expected = contraction_table(scheme)
        except FewerEigenvalues:
            with pytest.raises(FewerEigenvalues):
                sr.resistance_polynomial(scheme)
            return
        values = sr.resistance_polynomial(scheme).values
        assert all(type(v) is F for v in values)
        assert values == expected

    @pytest.mark.parametrize("builder,arg", POLYNOMIAL_LADDER)
    def test_solve_equals_full_inverse_on_ladder(self, builder, arg):
        scheme = builder(arg)
        assert sr.resistance_polynomial(scheme).values == contraction_table(scheme)

    def test_solve_certified(self, monkeypatch, s4):
        real = sr.resistance.rational_solve

        def perturbed(a, b):
            x = real(a, b)
            x[-1][0] += F(1, 10**6)
            return x

        monkeypatch.setattr(sr.resistance, "rational_solve", perturbed)
        with pytest.raises(CertificationFailed, match="residual"):
            sr.resistance_polynomial(s4)

    def test_precondition_guard(self, s4):
        with pytest.raises(MethodPreconditionViolated):
            sr.require_unit_class_one(s4, [1, 1, 0, 0])
        sr.require_unit_class_one(s4, [1, 0, 0, 0])


def dense_power_rows(scheme):
    """B_1^l e_0 for l = 0..d, column 0 of the exact dense powers of B_1,
    (B_1)[k, j] = p^k_1j: the witness for ``_power_rows``."""
    return [[int(x) for x in power[:, 0]]
            for power in integer_matrix_powers(scheme.intersection_matrix(1), scheme.d)]


def relabelled(scheme, order):
    """``scheme`` verified again from its class map, with old class order[i]
    relabelled i (order[0] = 0)."""
    relabel = np.argsort(order)  # [old class] = new class
    return sr.verify_scheme(relabel[scheme.classmap],
                            class_names=[scheme.class_names[i] for i in order])


def class_moved_to_one(scheme, k):
    """``scheme`` with class k relabelled 1 and the classes 1..d other than
    k after it, in order."""
    return relabelled(scheme, [0, k] + [i for i in range(1, scheme.d + 1) if i != k])


#: presets and networks on which the sparse power rows meet the witness
POWER_ROW_SCHEMES = {
    "square5": lambda: sr.build_square_lattice(5),
    "square12": lambda: sr.build_square_lattice(12),
    "hexagonal9": lambda: sr.build_hexagonal_lattice(9),
    "triangular12": lambda: sr.build_triangular(12),
    "cycle64": lambda: sr.build_cycle(64),
    "hypercube8": lambda: sr.build_hypercube(8),
}

#: small schemes whose classes are relabelled
RELABELLED_SCHEMES = {
    "s4": lambda: sr.build_s4_scheme("conjugacy"),
    "s4-refined-b": lambda: sr.build_s4_scheme("stabilizer-4c"),
    "z5z5": sr.build_orbit_scheme_z5z5,
    "square4": lambda: sr.build_square_lattice(4),
    "hypercube4": lambda: sr.build_hypercube(4),
    "cycle8": lambda: sr.build_cycle(8),
    "2xK3": lambda: two_cliques(3),
    "2xK4": lambda: two_cliques(4),
    "2xK5": lambda: two_cliques(5),
}


@functools.cache
def relabelled_scheme(name):
    return RELABELLED_SCHEMES[name]()


class TestPowerRows:
    def assert_matches_witness(self, scheme):
        rows = sr.resistance._power_rows(scheme)
        assert all(type(x) is int for row in rows for x in row)
        assert rows == dense_power_rows(scheme)

    @pytest.mark.parametrize("preset", ["cycle", "hypercube", "triangular", "s4",
                                        "s4-refined-a", "s4-refined-b", "z5z5",
                                        "square", "hexagonal"])
    def test_presets(self, presets, preset):
        self.assert_matches_witness(presets[preset])

    @pytest.mark.parametrize("name", POWER_ROW_SCHEMES)
    def test_networks(self, name):
        self.assert_matches_witness(POWER_ROW_SCHEMES[name]())

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_class_relabellings(self, data):
        scheme = relabelled_scheme(data.draw(st.sampled_from(sorted(RELABELLED_SCHEMES))))
        order = data.draw(st.permutations(range(1, scheme.d + 1)))
        self.assert_matches_witness(relabelled(scheme, [0] + order))


class TestPolynomialErrorOrder:
    """Connectivity is decided only once W is singular; the errors and
    tables are those of deciding it first."""

    @pytest.mark.parametrize("name, k", [
        (name, k) for name in ("square4", "hypercube4", "z5z5", "2xK3", "2xK4", "2xK5")
        for k in range(1, relabelled_scheme(name).d + 1)])
    def test_each_class_in_slot_one(self, name, k):
        scheme = class_moved_to_one(relabelled_scheme(name), k)
        connected = nxn_relation_connected(scheme, [1])
        assert scheme.relation_connected([1]) == connected
        if not connected:
            with pytest.raises(Disconnected, match="^class-1 graph is not connected$"):
                sr.resistance_polynomial(scheme)
            return
        import sympy
        rank = sympy.Matrix(dense_power_rows(scheme)).rank()
        if rank <= scheme.d:
            message = f"^A_1 generates a rank-{rank} subalgebra of dimension {scheme.d + 1}$"
            with pytest.raises(FewerEigenvalues, match=message):
                sr.resistance_polynomial(scheme)
            return
        table = sr.resistance_polynomial(scheme)
        assert table.values == contraction_table(scheme)
        assert sr.foster_sum(scheme, sr.unit_class_one(scheme), table).passed

    @pytest.mark.parametrize("name", ["2xK3", "2xK4", "2xK5", "square4"])
    def test_entry_points_type_a_disconnected_class_one_alike(self, name):
        scheme = relabelled_scheme(name)
        if name == "square4":  # the (2,2) class, a perfect matching, moved to class 1
            scheme = class_moved_to_one(scheme, scheme.class_names.index("(2,2)"))
        assert not nxn_relation_connected(scheme, [1])
        for engine in (sr.polynomial_coefficients, sr.resistance_polynomial):
            with pytest.raises(Disconnected, match="^class-1 graph is not connected$"):
                engine(scheme)


class TestClosedForms:
    def test_first_stratum_any_array(self, hypercube3):
        array = sr.check_distance_regular(hypercube3)
        got = sr.resistance_drg_closed(array, hypercube3.n, 1)
        assert got == F(2 * (hypercube3.n - 1), hypercube3.n * 3)

    @pytest.mark.parametrize("n", [5, 6, 10])
    def test_triangular_closed_fractions(self, n):
        scheme = sr.build_triangular(n)
        array = sr.check_distance_regular(scheme)
        poly = sr.resistance_polynomial(scheme)
        nn = n * (n - 1)
        r1 = sr.resistance_drg_closed(array, scheme.n, 1)
        r2 = sr.resistance_drg_closed(array, scheme.n, 2)
        assert r1 == F(nn - 2, nn * (n - 2)) == poly.value(1)
        # denominator structure matches the documented form; the numerator
        # offset is -6 (the +6 variant fails every engine)
        assert r2 == F(nn - 6, nn * (n - 3)) == poly.value(2)

    @pytest.mark.parametrize("builder,arg", list(dict.fromkeys(
        [(sr.build_cycle, 8), (sr.build_cycle, 12),
         (sr.build_hypercube, 4), (sr.build_hypercube, 5),
         (sr.build_triangular, 7)]
        + [(sr.build_cycle, n) for n in (10, 16, 32, 64)]
        + [(sr.build_hypercube, n) for n in (3, *range(6, 11))]
        + [(sr.build_triangular, n) for n in range(5, 25)])))
    def test_matches_polynomial_exactly(self, builder, arg):
        scheme = builder(arg)
        array = sr.check_distance_regular(scheme)
        table = sr.drg_closed_table(array, scheme.n)
        assert table.exact and table.method == "closed_form"
        assert table.values == sr.resistance_polynomial(scheme).values
        for m in range(1, scheme.d + 1):
            assert sr.resistance_drg_closed(array, scheme.n, m) == table.value(m)
        # the paper's case list, strata 1..5
        for m in range(1, min(5, scheme.d) + 1):
            assert paper_drg_closed(array, scheme.n, m) == table.value(m)

    def test_petersen_known_values(self):
        # Kneser K(5,2): swap the classes of the triangular scheme on 5 points
        t5 = sr.build_triangular(5)
        petersen = sr.verify_scheme(classmap_of(t5.relations[k] for k in (0, 2, 1)))
        array = sr.check_distance_regular(petersen)
        assert (array.b, array.c) == ((3, 2), (1, 1))
        poly = sr.resistance_polynomial(petersen)
        assert poly.values == (F(3, 5), F(4, 5))
        assert sr.resistance_drg_closed(array, 10, 2) == F(4, 5)
        orac = sr.resistance_oracle(petersen, [1, 0])
        assert max(abs(float(a) - b) for a, b in
                   zip(poly.values, orac.values)) < 1e-12

    def test_out_of_range(self, hypercube3):
        array = sr.check_distance_regular(hypercube3)
        with pytest.raises(OutOfRange):
            sr.resistance_drg_closed(array, 8, 4)
        big_scheme = sr.build_hypercube(6)
        big = sr.check_distance_regular(big_scheme)
        assert sr.resistance_drg_closed(big, 64, 6) == \
            sr.resistance_polynomial(big_scheme).value(6)
        for arr, n, m in ((array, 8, 0), (big, 64, 0), (big, 64, 7)):
            with pytest.raises(OutOfRange):
                sr.resistance_drg_closed(arr, n, m)

    def test_invalid_arrays(self):
        with pytest.raises(ValueError, match="positive"):
            sr.drg_closed_table(sr.IntersectionArray((3, 0), (1, 2)), 8)
        with pytest.raises(ValueError, match="feasible"):
            sr.drg_closed_table(sr.IntersectionArray((3, 2), (1, 4)), 8)

    def test_inconsistent_inputs(self):
        cycle8 = sr.check_distance_regular(sr.build_cycle(8))
        assert sr.drg_closed_table(cycle8, 8).values[0] == F(7, 8)
        with pytest.raises(ValueError, match="^the intersection array has 8 vertices, not 9$"):
            sr.drg_closed_table(cycle8, 9)  # once read as R(1) = 8/9
        with pytest.raises(ValueError, match="^the intersection array has 8 vertices, not 9$"):
            sr.resistance_drg_closed(cycle8, 9, 1)
        with pytest.raises(ValueError, match="^intersection array lists 3 b_i and 2 c_i$"):
            sr.drg_closed_table(sr.IntersectionArray((3, 2, 1), (1, 2)), 8)

    def test_paper_expressions_equal_biggs_sum(self):
        """Symbolic proof for strata 1..5: N, kappa, b_1..b_4 and c_2..c_4
        are free (c_5 only makes the diameter 5), with
        kappa_i = kappa_{i-1} b_{i-1} / c_i and a_i = kappa - b_i - c_i."""
        import sympy

        big_n, kappa = sympy.symbols("N kappa", positive=True)
        b = [kappa, *sympy.symbols("b1:5", positive=True)]
        c = [sympy.Integer(1), *sympy.symbols("c2:6", positive=True)]
        kappas = [sympy.Integer(1)]
        for i in range(1, 5):
            kappas.append(kappas[-1] * b[i - 1] / c[i - 1])
        for m in range(1, 6):
            biggs = 2 / big_n * sum(
                (big_n - sum(kappas[:i + 1])) / (kappas[i] * b[i])
                for i in range(m))
            paper = paper_closed_form(m, big_n, b, c)
            assert sympy.cancel(paper - biggs) == 0, m


class TestFoster:
    def test_single_conductance_identity(self, z5z5):
        table = sr.resistance_polynomial(z5z5)
        # c_1 kappa_1 R^(1) = 2(N-1)/N
        assert F(z5z5.valencies[1]) * table.value(1) == \
            F(2 * (z5z5.n - 1), z5z5.n)
        report = sr.foster_sum(z5z5, [1, 0, 0, 0], table)
        assert report.passed and report.residual == 0

    def test_k2(self):
        scheme = complete_scheme(2)
        table = sr.resistance_oracle(scheme, [1])
        report = sr.foster_sum(scheme, [1], table)
        assert abs(table.value(1) - 1.0) < 1e-12
        assert report.passed

    def test_s4_multi_conductance(self, s4):
        rng = np.random.default_rng(3)
        data = spectral_of(s4)
        for _ in range(4):
            c = random_connected_conductances(s4, rng)
            table = sr.resistance_spectral(s4, data, c)
            assert sr.foster_sum(s4, c, table).passed

    def test_failure_reported_not_raised(self, s4):
        bad = sr.ResistanceTable((1.0, 1.0, 1.0, 1.0), "oracle", False)
        report = sr.foster_sum(s4, [1, 0, 0, 0], bad)
        assert not report.passed and report.residual > 1


class TestMethodAgreement:
    @pytest.mark.parametrize("preset", ["cycle", "hypercube", "triangular",
                                        "s4", "s4-refined-a", "z5z5",
                                        "hexagonal"])
    def test_three_engines_per_class(self, presets, preset):
        scheme = presets[preset]
        u = [1] + [0] * (scheme.d - 1)
        poly = sr.resistance_polynomial(scheme)
        spec = sr.resistance_spectral(scheme, spectral_of(scheme), u)
        orac = sr.resistance_oracle(scheme, u)
        for l in range(1, scheme.d + 1):
            assert abs(float(poly.value(l)) - spec.value(l)) < 1e-8
            assert abs(float(poly.value(l)) - orac.value(l)) < 1e-8

    def test_square5_three_engines(self):
        scheme = sr.build_square_lattice(5)
        u = [1] + [0] * (scheme.d - 1)
        poly = sr.resistance_polynomial(scheme)
        spec = sr.resistance_spectral(scheme, sr.spectral_data(scheme), u)
        orac = sr.resistance_oracle(scheme, u)
        gaps = [abs(float(a) - b) for a, b in zip(poly.values, spec.values)]
        gaps += [abs(float(a) - b) for a, b in zip(poly.values, orac.values)]
        assert max(gaps) < 1e-8

    @pytest.mark.parametrize("preset", ["square", "s4-refined-b"])
    def test_degenerate_presets_spectral_vs_oracle(self, presets, preset):
        # polynomial route is unavailable here (A_1 eigenvalues repeat)
        scheme = presets[preset]
        u = [1] + [0] * (scheme.d - 1)
        spec = sr.resistance_spectral(scheme, spectral_of(scheme), u)
        orac = sr.resistance_oracle(scheme, u)
        assert max(abs(a - b) for a, b in
                   zip(spec.as_floats(), orac.as_floats())) < 1e-9

    def test_polynomial_rejects_disconnected_class_one(self, square4):
        # reorder so the single-involution (2,2) class becomes class 1
        k = square4.class_names.index("(2,2)")
        order = [0, k] + [i for i in range(1, square4.d + 1) if i != k]
        reordered = sr.verify_scheme(classmap_of(square4.relations[i] for i in order))
        with pytest.raises(Disconnected):
            sr.resistance_polynomial(reordered)


class TestMetricProperties:
    @pytest.mark.parametrize("preset", ["cycle", "s4", "z5z5", "square"])
    def test_symmetry_and_triangle(self, presets, preset):
        scheme = presets[preset]
        rmat = oracle_resistance_matrix(scheme, [1] + [0] * (scheme.d - 1))
        assert np.abs(rmat - rmat.T).max() < 1e-10
        # min-plus against every via-vertex; beta = alpha makes this tight
        via = (rmat[:, :, None] + rmat[None, :, :]).min(axis=1)
        assert (rmat <= via + 1e-9).all()
