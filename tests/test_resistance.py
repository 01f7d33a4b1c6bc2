from fractions import Fraction

import numpy as np
import pytest

import schemeres as sr
from schemeres.errors import (
    CertificationFailed,
    Disconnected,
    FewerEigenvalues,
    MethodPreconditionViolated,
    OutOfRange,
    ZeroDenominator,
)

from conftest import random_connected_conductances, spectral_of, two_cliques
from nxn_witnesses import integer_matrix_powers, power_traces

F = Fraction


def complete_scheme(n):
    eye = np.eye(n, dtype=np.int64)
    return sr.verify_scheme([eye, np.ones((n, n), dtype=np.int64) - eye])


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
        rmat = sr.oracle_resistance_matrix(s4, [1, 0, 0, 0])
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
    def test_disconnected_support_found_by_eigenvalues(self, cycle8, case):
        # the oracle does not consult p: pseudo_inverse counts zero eigenvalues
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
            floats = sr.ConductanceVector.coerce(c, scheme.d).as_floats()
            # the former construction: diagonal sum, minus c_i A_i per class
            diag = float(sum(ci * ki for ci, ki in zip(floats, scheme.valencies[1:])))
            loop = diag * np.eye(scheme.n)
            for i, ci in enumerate(floats, start=1):
                if ci:
                    loop -= ci * scheme.relations[i].astype(float)
            assert sr.laplacian(scheme, c).tobytes() == loop.tobytes()

    def test_certification_errors_are_typed(self, s4):
        assert issubclass(CertificationFailed, sr.errors.SchemeresError)
        assert issubclass(CertificationFailed, AssertionError)
        with pytest.raises(CertificationFailed, match="diagonal spread"):
            sr.resistance_oracle(s4, [1e-7, 0, 0, 0])

    def test_class_spread_certified(self, monkeypatch, s4):
        real = sr.resistance.oracle_resistance_matrix

        def tampered(*args):
            rmat = real(*args)
            a, b = np.argwhere(s4.classmap == 2)[1]
            rmat[a, b] = rmat[b, a] = rmat[a, b] + 1e-6
            return rmat

        monkeypatch.setattr(sr.resistance, "oracle_resistance_matrix", tampered)
        with pytest.raises(CertificationFailed, match="class 2 resistance spread"):
            sr.resistance_oracle(s4, [1, 0, 0, 0])

    def test_multi_conductance_matches_spectral(self, s4):
        rng = np.random.default_rng(11)
        data = spectral_of(s4)
        for _ in range(3):
            c = random_connected_conductances(s4, rng)
            a = sr.resistance_oracle(s4, c).as_floats()
            b = sr.resistance_spectral(s4, data, c).as_floats()
            assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9


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
        real = sr.resistance.rational_inverse
        monkeypatch.setattr(sr.resistance, "rational_inverse",
                            lambda rows: real(rows)[::-1])
        with pytest.raises(CertificationFailed, match="A_0"):
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

    def test_precondition_guard(self, s4):
        with pytest.raises(MethodPreconditionViolated):
            sr.require_unit_class_one(s4, [1, 1, 0, 0])
        sr.require_unit_class_one(s4, [1, 0, 0, 0])


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

    @pytest.mark.parametrize("builder,arg", [
        (sr.build_cycle, 8), (sr.build_cycle, 12),
        (sr.build_hypercube, 4), (sr.build_hypercube, 5),
        (sr.build_triangular, 7),
    ])
    def test_matches_polynomial_exactly(self, builder, arg):
        scheme = builder(arg)
        array = sr.check_distance_regular(scheme)
        poly = sr.resistance_polynomial(scheme)
        for m in range(1, min(5, scheme.d) + 1):
            assert sr.resistance_drg_closed(array, scheme.n, m) == poly.value(m)

    def test_petersen_known_values(self):
        # Kneser K(5,2): swap the classes of the triangular scheme on 5 points
        t5 = sr.build_triangular(5)
        rels = [np.asarray(t5.relations[k], np.int64) for k in (0, 2, 1)]
        petersen = sr.verify_scheme(rels)
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
        big = sr.check_distance_regular(sr.build_hypercube(6))
        with pytest.raises(OutOfRange):
            sr.resistance_drg_closed(big, 64, 6)


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
        rels = [np.asarray(square4.relations[i], dtype=np.int64)
                for i in order]
        reordered = sr.verify_scheme(rels)
        with pytest.raises(Disconnected):
            sr.resistance_polynomial(reordered)


class TestMetricProperties:
    @pytest.mark.parametrize("preset", ["cycle", "s4", "z5z5", "square"])
    def test_symmetry_and_triangle(self, presets, preset):
        scheme = presets[preset]
        rmat = sr.oracle_resistance_matrix(scheme, [1] + [0] * (scheme.d - 1))
        assert np.abs(rmat - rmat.T).max() < 1e-10
        # min-plus against every via-vertex; beta = alpha makes this tight
        via = (rmat[:, :, None] + rmat[None, :, :]).min(axis=1)
        assert (rmat <= via + 1e-9).all()
