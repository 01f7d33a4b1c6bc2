"""Acceptance suite: one test (or test pair) per criterion, stated tolerances.

Each criterion records its outcome in ``acceptance_registry`` so the run
ends with one summary line per criterion.  Five sub-assertions pin
documented reference values that all four engines refute (they violate the
resistance sum rule, the series bound, or exact reconstruction); those are
kept as honest failures with the computed value in the message rather than
being loosened to pass.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import schemeres as sr
from schemeres.errors import FewerEigenvalues
from schemeres.reference import REFERENCE_TABLES, compare_reference, \
    triangular_reference

from acceptance_registry import record
from conftest import random_connected_conductances, spectral_of
from nxn_witnesses import integer_matrix_powers, oracle_resistance_matrix, pseudo_inverse

F = Fraction


def unit(scheme):
    return [1] + [0] * (scheme.d - 1)


def max_gap(table_a, table_b):
    return max(abs(x - y) for x, y in
               zip(table_a.as_floats(), table_b.as_floats()))


# --------------------------------------------------------------------------
# 1. S4 group scheme golden values
# --------------------------------------------------------------------------

def test_c01_engines_agree_and_fast(s4):
    t0 = time.perf_counter()
    poly = sr.resistance_polynomial(s4)
    spec = sr.resistance_spectral(s4, spectral_of(s4), unit(s4))
    orac = sr.resistance_oracle(s4, unit(s4))
    elapsed = time.perf_counter() - t0
    first_three = poly.values[:3] == (F(23, 72), F(35, 96), F(3, 8))
    agree = max_gap(poly, spec) <= 1e-9 and max_gap(poly, orac) <= 1e-9
    ok = first_three and agree and elapsed < 1.0
    record(1, "engines agree; R(1..3) = 23/72, 35/96, 3/8; runtime < 1s", ok,
           f"{elapsed:.3f}s")
    assert ok


def test_c01_documented_table_value_r4(s4):
    # documented R(4) = 145/36 exceeds the 3-edge series bound and breaks
    # the sum rule under mixed conductances; all engines return 55/144
    documented = tuple(REFERENCE_TABLES["s4"][k] for k in (1, 2, 3, 4))
    poly = sr.resistance_polynomial(s4)
    ok = poly.values == documented
    record(1, "documented table (23/72, 35/96, 3/8, 145/36) reproduced", ok,
           f"engines give {poly.values[3]} for class 4")
    assert ok, f"computed {poly.values}, documented {documented}"


# --------------------------------------------------------------------------
# 2. S4 refined scheme (a) golden values
# --------------------------------------------------------------------------

def test_c02_refined_a_golden(s4_refined_a):
    t0 = time.perf_counter()
    poly = sr.resistance_polynomial(s4_refined_a)
    orac = sr.resistance_oracle(s4_refined_a, unit(s4_refined_a))
    elapsed = time.perf_counter() - t0
    documented = tuple(REFERENCE_TABLES["s4-refined-a"][k] for k in range(1, 7))
    ok = (poly.values == documented and max_gap(poly, orac) <= 1e-9
          and elapsed < 1.0)
    record(2, "refined table exact (23/36 ... 16/15); oracle 1e-9; < 1s", ok,
           f"{elapsed:.3f}s")
    assert ok, poly.values


# --------------------------------------------------------------------------
# 3. S4 general-conductance formulas
# --------------------------------------------------------------------------

def documented_s4_general(c1, c2, c3, c4):
    """The four documented closed-form expressions, transcribed verbatim."""
    d_a = 12 * c1 + 2 * c3 + 8 * c4
    d_b = 12 * c1 + 8 * c2 + 4 * c3 + 4 * c4
    d_c = 12 * c2 + 3 * c3 + 6 * c4
    d_d = 4 * c3 + 8 * c4
    r1 = (1 / d_a + 9 / d_b) / 6
    r2 = (3 / d_a + 20 / d_c - 9 / d_d + 27 / d_b) / 36
    r3 = (1 / d_a + 6 / d_c + 18 / d_d + 18 / d_b) / 18
    r4 = (5 / d_a + 16 / d_c + 45 / d_d + 27 / d_b) / 48
    return r1, r2, r3, r4


def _random_positive_vectors(d, count=5, seed=20240811):
    rng = np.random.default_rng(seed)
    return [[round(float(v), 6) for v in rng.uniform(0.2, 2.0, size=d)]
            for _ in range(count)]


def test_c03_spectral_matches_oracle(s4):
    worst = 0.0
    for c in _random_positive_vectors(s4.d):
        spec = sr.resistance_spectral(s4, spectral_of(s4), c)
        orac = sr.resistance_oracle(s4, c)
        worst = max(worst, max_gap(spec, orac))
    ok = worst <= 1e-9
    record(3, "spectral matches oracle on 5 random conductances (1e-9)", ok,
           f"max gap {worst:.2e}")
    assert ok


def test_c03_documented_general_formulas(s4):
    # the documented display does not even reproduce the unit-conductance
    # table (it yields 5/36 instead of 23/72 at c = (1,0,0,0)); kept verbatim
    worst = 0.0
    for c in _random_positive_vectors(s4.d):
        spec = sr.resistance_spectral(s4, spectral_of(s4), c)
        doc = documented_s4_general(*c)
        worst = max(worst, max(abs(a - b)
                               for a, b in zip(spec.as_floats(), doc)))
    ok = worst <= 1e-10
    record(3, "documented general-conductance display matches (1e-10)", ok,
           f"max gap {worst:.2e}")
    assert ok, f"max gap {worst:.3e}"


# --------------------------------------------------------------------------
# 4. Z5 x Z5
# --------------------------------------------------------------------------

def test_c04_z5z5_self_consistency_and_flags(z5z5):
    poly = sr.resistance_polynomial(z5z5)
    spec = sr.resistance_spectral(z5z5, spectral_of(z5z5), unit(z5z5))
    orac = sr.resistance_oracle(z5z5, unit(z5z5))
    agree = max_gap(poly, spec) <= 1e-9 and max_gap(poly, orac) <= 1e-9
    r1 = poly.value(1) == F(24, 75)
    flags = {s.class_index: s.status
             for s in compare_reference(REFERENCE_TABLES["z5z5"], poly)}
    expected_flags = {1: "CONFIRMED", 2: "CONFIRMED", 3: "CONFIRMED",
                      4: "UNCONFIRMED"}
    ok = agree and r1 and flags == expected_flags
    record(4, "engines self-consistent; R(1) = 24/75; reference flags "
              "C/C/C/U", ok, f"flags {flags}")
    assert ok, (poly.values, flags)


# --------------------------------------------------------------------------
# 5. cycles
# --------------------------------------------------------------------------

def cycle_table_direct(n):
    """Direct cosine-sum evaluation of the cycle resistance table."""
    k = n // 2
    out = []
    for l in range(1, k + 1):
        body = sum((1 - math.cos(2 * math.pi * i * l / n))
                   / (1 - math.cos(2 * math.pi * i / n))
                   for i in range(1, k))
        out.append((2 * body + (1 - (-1) ** l) / 2) / n)
    return out


def test_c05_cycles():
    worst = 0.0
    for n in (4, 6, 8, 20):
        scheme = sr.build_cycle(n)
        poly = sr.resistance_polynomial(scheme)
        assert poly.value(1) == F(n - 1, n)
        direct = cycle_table_direct(n)
        worst = max(worst, max(abs(float(a) - b)
                               for a, b in zip(poly.values, direct)))
    ok = worst <= 1e-10
    record(5, "cycles N=4,6,8,20: R(1) = (N-1)/N exact; table vs direct "
              "cosine sum (1e-10)", ok, f"max gap {worst:.2e}")
    assert ok


# --------------------------------------------------------------------------
# 6. hypercubes
# --------------------------------------------------------------------------

def test_c06_hypercubes():
    timings = {}
    for n in (2, 3, 4, 8):
        t0 = time.perf_counter()
        scheme = sr.build_hypercube(n)
        data = sr.spectral_data(scheme)
        table = np.array([[sr.krawtchouk(l, i, n) for l in range(n + 1)]
                          for i in range(n + 1)])
        assert np.abs(data.p_matrix - table).max() < 1e-9
        assert (np.round(data.p_matrix).astype(int) == table).all()
        spec = sr.resistance_spectral(scheme, data, unit(scheme))
        orac = sr.resistance_oracle(scheme, unit(scheme))
        assert max_gap(spec, orac) <= 1e-9
        if n == 2:
            assert sr.resistance_polynomial(scheme).value(1) == F(3, 4)
        timings[n] = time.perf_counter() - t0
    ok = timings[8] < 5.0
    record(6, "hypercubes n=2,3,4,8: R(1)=3/4 at n=2; P = Krawtchouk table; "
              "spectral vs oracle 1e-9; n=8 < 5s", ok,
           f"n=8 took {timings[8]:.2f}s")
    assert ok


# --------------------------------------------------------------------------
# 7. triangular schemes
# --------------------------------------------------------------------------

def test_c07_triangular_first_stratum_and_agreement():
    ok = True
    for n in (5, 6, 10):
        scheme = sr.build_triangular(n)
        array = sr.check_distance_regular(scheme)
        closed1 = sr.resistance_drg_closed(array, scheme.n, 1)
        poly = sr.resistance_polynomial(scheme)
        orac = sr.resistance_oracle(scheme, unit(scheme))
        ok &= closed1 == triangular_reference(n)[1] == poly.value(1)
        ok &= sr.resistance_drg_closed(array, scheme.n, 2) == poly.value(2)
        ok &= max_gap(poly, orac) <= 1e-9
    record(7, "triangular n=5,6,10: closed R(1) matches documented fraction; "
              "engines agree 1e-9", bool(ok))
    assert ok


def test_c07_documented_second_stratum_fraction():
    # documented numerator offset is +6; exact arithmetic in every engine
    # gives -6 (n=5: 7/20 against the documented 13/20)
    mismatches = []
    ok = True
    for n in (5, 6, 10):
        scheme = sr.build_triangular(n)
        array = sr.check_distance_regular(scheme)
        closed2 = sr.resistance_drg_closed(array, scheme.n, 2)
        documented = triangular_reference(n)[2]
        ok &= closed2 == documented
        mismatches.append(f"n={n}: computed {closed2}, documented {documented}")
    record(7, "documented R(2) fraction (n(n-1)+6)/(n(n-1)(n-3)) reproduced",
           bool(ok), "; ".join(mismatches))
    assert ok, mismatches


# --------------------------------------------------------------------------
# 8. closed forms vs polynomial engine on randomized arrays
# --------------------------------------------------------------------------

def test_c08_closed_forms_match_polynomial():
    rng = np.random.default_rng(88)
    pool = ([("cycle", int(n)) for n in rng.choice([6, 8, 10, 12, 14, 16], 4,
                                                   replace=False)]
            + [("hypercube", int(n)) for n in rng.choice([2, 3, 4, 5, 6], 3,
                                                         replace=False)]
            + [("triangular", int(n)) for n in rng.choice([5, 6, 7, 9, 11], 3,
                                                          replace=False)])
    assert len(pool) == 10
    builders = {"cycle": sr.build_cycle, "hypercube": sr.build_hypercube,
                "triangular": sr.build_triangular}
    for kind, param in pool:
        scheme = builders[kind](param)
        array = sr.check_distance_regular(scheme)
        assert array is not None
        poly = sr.resistance_polynomial(scheme)
        for m in range(1, min(5, scheme.d) + 1):
            closed = sr.resistance_drg_closed(array, scheme.n, m)
            assert closed == poly.value(m), (kind, param, m)
    record(8, "10 randomized arrays (cycle/hypercube/triangular): closed "
              "forms equal polynomial engine exactly for m <= min(5, d)", True)


# --------------------------------------------------------------------------
# 9. sum rule under random conductances
# --------------------------------------------------------------------------

def test_c09_foster_randomized(presets):
    rng = np.random.default_rng(99)
    worst = 0.0
    for name, scheme in presets.items():
        data = spectral_of(scheme)
        for trial in range(10):
            c = random_connected_conductances(scheme, rng,
                                              sparse=(trial % 3 == 2))
            table = sr.resistance_spectral(scheme, data, c)
            report = sr.foster_sum(scheme, c, table)
            worst = max(worst, report.residual)
            assert report.passed, (name, c, report)
        # spot-check the oracle route too
        c = random_connected_conductances(scheme, rng)
        report = sr.foster_sum(scheme, c, sr.resistance_oracle(scheme, c))
        worst = max(worst, report.residual)
        assert report.passed, (name, c, report)
    record(9, "sum rule (N/2) sum c_l kappa_l R(l) = N-1 on every preset, "
              "10 random conductance vectors each (1e-9)", True,
           f"max residual {worst:.2e}")


# --------------------------------------------------------------------------
# 10. within-stratum equality
# --------------------------------------------------------------------------

def test_c10_within_stratum_spread(presets):
    rng = np.random.default_rng(1010)
    worst = 0.0
    for name, scheme in presets.items():
        vectors = [unit(scheme), random_connected_conductances(scheme, rng)]
        for c in vectors:
            rmat = oracle_resistance_matrix(scheme, c)
            for l in range(1, scheme.d + 1):
                members = rmat[np.asarray(scheme.relations[l], bool)]
                worst = max(worst, float(members.max() - members.min()))
    ok = worst <= 1e-9
    record(10, "within-stratum resistance spread <= 1e-9, all presets, "
               "all strata, all references", ok, f"max spread {worst:.2e}")
    assert ok


# --------------------------------------------------------------------------
# 11. polynomial reconstruction
# --------------------------------------------------------------------------

def _reconstructs_exactly(scheme):
    coeffs = sr.polynomial_coefficients(scheme)
    a = np.asarray(scheme.relations[1], dtype=np.int64)
    powers = [p.astype(object) for p in integer_matrix_powers(a, scheme.d)]
    for m in range(scheme.d + 1):
        recon = sum(coeffs.c[m][n] * powers[n] for n in range(scheme.d + 1))
        if not (recon == np.asarray(scheme.relations[m]).astype(object)).all():
            return False
    return True


def test_c11_reconstruction(presets):
    for name in ("s4", "s4-refined-a", "z5z5", "cycle", "hypercube",
                 "triangular"):
        assert _reconstructs_exactly(presets[name]), name
    record(11, "A_m reconstructed exactly from powers of A_1 on s4, "
               "s4-refined-a, z5z5 and the distance-regular presets", True)


def test_c11_refined_b_reconstruction(s4_refined_b):
    # the 4-cycle class sum has five distinct eigenvalues against seven
    # classes, so no polynomial expansion exists; the engine reports
    # FewerEigenvalues instead of returning one
    try:
        ok = _reconstructs_exactly(s4_refined_b)
        detail = "unexpectedly reconstructed"
    except FewerEigenvalues as exc:
        ok = False
        detail = str(exc)
    record(11, "reconstruction on s4-refined-b (class 1 = 4-cycles)", ok,
           detail)
    assert ok, detail


def test_c11_fewer_eigenvalues_reported(square4, s4_refined_b):
    for scheme in (square4, s4_refined_b):
        with pytest.raises(FewerEigenvalues):
            sr.polynomial_coefficients(scheme)
    record(11, "repeated A_1 eigenvalues across classes raise "
               "FewerEigenvalues rather than wrong output", True)


# --------------------------------------------------------------------------
# 12. finite square lattice nearest neighbors
# --------------------------------------------------------------------------

def test_c12_routes_agree():
    worst = 0.0
    for m in (3, 4, 5, 8):
        scheme = sr.build_square_lattice(m)
        u = unit(scheme)
        formula = sr.finite_lattice_resistance_formula(m, 1, 0)
        orac = sr.resistance_oracle(scheme, u).value(1)
        spec = sr.resistance_spectral(scheme, sr.spectral_data(scheme),
                                      u).value(1)
        worst = max(worst, abs(formula - orac), abs(formula - spec))
    ok = worst <= 1e-9
    record(12, "R(1,0) by formula, spectral and oracle agree (1e-9), "
               "m=3,4,5,8", ok, f"max gap {worst:.2e}")
    assert ok


def test_c12_documented_half():
    # documented value 1/2 is the m -> infinity limit; at finite m the sum
    # rule forces (m^2-1)/(2 m^2), e.g. 4/9 at m=3
    values = {m: sr.finite_lattice_resistance_formula(m, 1, 0)
              for m in (3, 4, 5, 8)}
    ok = all(v == 0.5 for v in values.values())
    record(12, "R(1,0) = 1/2 exactly at finite m", ok,
           "; ".join(f"m={m}: {v:.6f}" for m, v in values.items()))
    assert ok, values


# --------------------------------------------------------------------------
# 13. infinite line
# --------------------------------------------------------------------------

def test_c13_infinite_line():
    t0 = time.perf_counter()
    worst = max(abs(sr.infinite_line_resistance(l) - l) for l in range(1, 11))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    record(13, "line quadrature returns l within 1e-8 for l = 1..10, < 1s",
           ok, f"max err {worst:.2e}, {elapsed:.2f}s")
    assert ok


# --------------------------------------------------------------------------
# 14. infinite square lattice
# --------------------------------------------------------------------------

def test_c14_infinite_square():
    t0 = time.perf_counter()
    axis = sr.infinite_lattice_resistance("square", 1, 0)
    diag = sr.infinite_lattice_resistance("square", 1, 1)
    finite = sr.finite_lattice_resistance_formula(200, 1, 1)
    elapsed = time.perf_counter() - t0
    ok = abs(axis - 0.5) <= 1e-5 and abs(diag - finite) <= 1e-3 \
        and elapsed < 30.0
    record(14, "infinite square: (1,0) = 0.5 (1e-5); (1,1) within 1e-3 of "
               "the m=200 extrapolation; < 30s", ok,
           f"(1,1) = {diag:.6f} vs {finite:.6f}, {elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------------
# 15. property suite
# --------------------------------------------------------------------------

def test_c15_property_suite(presets):
    for name, scheme in presets.items():
        n, d = scheme.n, scheme.d
        rmat = oracle_resistance_matrix(scheme, unit(scheme))
        assert np.abs(rmat - rmat.T).max() <= 1e-10, name
        via = (rmat[:, :, None] + rmat[None, :, :]).min(axis=1)
        assert (rmat <= via + 1e-9).all(), name
        lp = pseudo_inverse(scheme, unit(scheme))
        diag = np.diag(lp)
        assert diag.max() - diag.min() <= 1e-9, name
        data = spectral_of(scheme)
        assert np.abs(data.p_matrix @ data.q_matrix
                      - n * np.eye(d + 1)).max() <= 1e-7 * n, name
        assert sum(data.multiplicities) == n, name
        for i, e in enumerate(data.idempotents):
            for j, f in enumerate(data.idempotents):
                target = e if i == j else 0.0
                assert np.abs(e @ f - target).max() <= 1e-8, name
    record(15, "oracle symmetry, triangle inequality, pseudo-inverse "
               "diagonal uniformity, PQ = NI, sum m_i = N, idempotent "
               "orthogonality on every preset", True)
