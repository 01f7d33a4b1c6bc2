import dataclasses
import json

import numpy as np
import pytest

import schemeres as sr
from schemeres.errors import (
    IdentityMissing,
    NotClosed,
    NotPartition,
    NotSymmetric,
)

from conftest import spectral_of


def cycle4_relations():
    s = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        s[(i + 1) % 4, i] = 1
    return [np.eye(4, dtype=np.int64),
            s + s.T,
            np.linalg.matrix_power(s, 2).astype(np.int64)]


class TestVerifyScheme:
    def test_cycle4(self):
        scheme = sr.verify_scheme(cycle4_relations())
        assert (scheme.d, scheme.valencies) == (2, (1, 2, 1))

    def test_s4_class_sums(self, s4):
        # A_1^2 = 6 A_0 + 3 A_2 + 2 A_3
        assert s4.p[1, 1].tolist() == [6, 0, 3, 2, 0]

    def test_path3_not_closed(self):
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
        j = np.ones((3, 3), dtype=np.int64)
        rels = [np.eye(3, dtype=np.int64), a, j - np.eye(3, dtype=np.int64) - a]
        with pytest.raises(NotClosed):
            sr.verify_scheme(rels)

    def test_identity_missing(self):
        rels = cycle4_relations()
        with pytest.raises(IdentityMissing):
            sr.verify_scheme([rels[1], rels[0], rels[2]])

    def test_not_partition(self):
        rels = cycle4_relations()
        with pytest.raises(NotPartition):
            sr.verify_scheme([rels[0], rels[1], rels[1]])

    def test_not_symmetric(self):
        s = np.zeros((4, 4), dtype=np.int64)
        for i in range(4):
            s[(i + 1) % 4, i] = 1
        rels = [np.eye(4, dtype=np.int64), s,
                np.linalg.matrix_power(s, 2).astype(np.int64),
                np.linalg.matrix_power(s, 3).astype(np.int64)]
        with pytest.raises(NotSymmetric):
            sr.verify_scheme(rels)


class TestIntersectionNumbers:
    @pytest.mark.parametrize("preset", ["cycle", "s4", "z5z5", "triangular"])
    def test_row_sum_identity(self, presets, preset):
        scheme = presets[preset]
        p = sr.intersection_numbers(scheme)
        for i in range(scheme.d + 1):
            for j in range(scheme.d + 1):
                assert p[i, j, 0] == (scheme.valencies[i] if i == j else 0)

    def test_z5z5_products(self, z5z5):
        assert z5z5.p[1, 1].tolist() == [6, 2, 1, 2, 0]
        assert z5z5.p[1, 2].tolist() == [0, 1, 1, 2, 2]
        assert z5z5.p[1, 3].tolist() == [0, 2, 2, 0, 2]
        assert z5z5.p[1, 4].tolist() == [0, 0, 2, 2, 2]

    def test_triangular_second_product(self):
        for n in (5, 7):
            scheme = sr.build_triangular(n)
            # A A_2 = (n-3) A + 2(n-4) A_2
            assert scheme.p[1, 2].tolist() == [0, n - 3, 2 * (n - 4)]


class TestSpectralData:
    def test_cycle6_cosines(self):
        scheme = sr.build_cycle(6)
        data = spectral_of(scheme)
        for i in range(4):
            for l in range(1, 3):
                expected = 2 * np.cos(2 * np.pi * i * l / 6)
                assert abs(data.p_matrix[i, l] - expected) < 1e-9
        assert abs(data.p_matrix[1, 1] - 1.0) < 1e-12

    def test_s4_eigenvalue_multisets(self, s4):
        data = spectral_of(s4)
        cols = {
            1: {(6.0, 1), (-6.0, 1), (0.0, 4), (2.0, 9), (-2.0, 9)},
            2: {(8.0, 1), (8.0, 1), (-4.0, 4), (0.0, 9)},
            3: {(3.0, 1), (3.0, 4), (-1.0, 9)},
            4: {(6.0, 1), (-6.0, 1), (0.0, 4), (-2.0, 9), (2.0, 9)},
        }
        for j, expected in cols.items():
            got = {(round(float(data.p_matrix[k, j]), 6), data.multiplicities[k])
                   for k in range(5)}
            assert expected <= got

    def test_hypercube2_krawtchouk_column(self):
        data = spectral_of(sr.build_hypercube(2))
        assert np.allclose(data.p_matrix[:, 1], [2, 0, -2], atol=1e-9)

    def test_deterministic(self, s4):
        a = sr.spectral_data(s4)
        b = sr.spectral_data(s4)
        assert (a.p_matrix == b.p_matrix).all()
        assert a.multiplicities == b.multiplicities

    @pytest.mark.parametrize(
        "preset",
        ["cycle", "hypercube", "triangular", "s4", "s4-refined-a",
         "s4-refined-b", "z5z5", "square", "hexagonal"])
    def test_invariants(self, presets, preset):
        scheme = presets[preset]
        data = spectral_of(scheme)
        n, d = scheme.n, scheme.d
        assert data.multiplicities[0] == 1
        assert sum(data.multiplicities) == n
        assert np.abs(data.p_matrix @ data.q_matrix - n * np.eye(d + 1)).max() \
            < 1e-7 * n
        assert np.abs(data.idempotents[0] - 1.0 / n).max() < 1e-8
        assert np.allclose(data.p_matrix[0], scheme.valencies, atol=1e-7)
        assert np.allclose(data.p_matrix[:, 0], 1.0, atol=1e-7)
        for j in range(d + 1):
            recon = sum(data.p_matrix[k, j] * data.idempotents[k]
                        for k in range(d + 1))
            assert np.abs(recon - scheme.relations[j]).max() < 1e-7


def nxn_spectrum(scheme):
    """P and the multiplicities by joint diagonalization of the N x N
    relations, in the eigenspace order ``spectral_data`` promises."""
    projectors = sr.simultaneous_eigenbasis(
        [r.astype(float) for r in scheme.relations])
    assert len(projectors) == scheme.d + 1
    mults = [round(float(np.trace(e))) for e in projectors]
    raw_p = np.array([[np.tensordot(r.astype(float), e) / m
                       for r in scheme.relations]
                      for e, m in zip(projectors, mults)])
    ones = np.ones(scheme.n)
    k0 = int(np.argmin([np.abs(e @ ones - ones).max() for e in projectors]))
    rest = sorted((k for k in range(scheme.d + 1) if k != k0),
                  key=lambda k: tuple(-np.round(raw_p[k, 1:], 9)))
    order = [k0] + rest
    return raw_p[order], tuple(mults[k] for k in order)


PRESETS = ["cycle", "hypercube", "triangular", "s4", "s4-refined-a",
           "s4-refined-b", "z5z5", "square", "hexagonal"]


class TestSpectralInAlgebra:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_matches_nxn_joint_diagonalization(self, presets, preset):
        scheme = presets[preset]
        data = spectral_of(scheme)
        p_matrix, mults = nxn_spectrum(scheme)
        assert data.multiplicities == mults
        assert np.abs(data.p_matrix - p_matrix).max() < 1e-9

    @pytest.mark.parametrize("preset", PRESETS)
    def test_lazy_idempotents(self, presets, preset):
        scheme = presets[preset]
        data = spectral_of(scheme)
        n, d = scheme.n, scheme.d
        e = data.idempotents
        assert np.abs(sum(e) - np.eye(n)).max() < 1e-9
        for k in range(d + 1):
            assert abs(np.trace(e[k]) - data.multiplicities[k]) < 1e-9
            for l in range(d + 1):
                target = e[k] if k == l else 0.0
                assert np.abs(e[k] @ e[l] - target).max() < 1e-9
            for j in range(d + 1):
                a = scheme.relations[j].astype(float)
                assert np.abs(a @ e[k] - data.p_matrix[k, j] * e[k]).max() < 1e-9

    @pytest.mark.parametrize("preset", PRESETS)
    def test_needs_no_vertex_level_data(self, presets, preset):
        """Everything after the intersection numbers costs poly(d)."""
        scheme = presets[preset]
        stripped = dataclasses.replace(scheme, relations=(), classmap=None)
        full, bare = spectral_of(scheme), sr.spectral_data(stripped)
        assert np.array_equal(bare.p_matrix, full.p_matrix)
        assert np.array_equal(bare.q_matrix, full.q_matrix)
        assert bare.multiplicities == full.multiplicities
        try:
            coeffs = sr.polynomial_coefficients(scheme)
        except sr.errors.FewerEigenvalues:
            with pytest.raises(sr.errors.FewerEigenvalues):
                sr.polynomial_coefficients(stripped)
        else:
            assert sr.polynomial_coefficients(stripped) == coeffs

    def test_inconsistent_intersection_numbers(self, s4):
        p = s4.p.copy()
        p[1, 2, 3] += 1
        with pytest.raises(NotClosed):
            sr.spectral_data(dataclasses.replace(s4, p=p))


class TestStratify:
    def test_reference_stratum_is_singleton(self, z5z5):
        strat = sr.stratify(z5z5, 7)
        assert strat.strata[0].tolist() == [7]
        assert strat.reference == 7

    def test_triangular_sizes(self):
        for n in (5, 8):
            scheme = sr.build_triangular(n)
            strat = sr.stratify(scheme, 0)
            assert len(strat.strata[1]) == 2 * (n - 2)
            assert len(strat.strata[2]) == (n - 2) * (n - 3) // 2

    def test_hypercube3_sizes(self, hypercube3):
        strat = sr.stratify(hypercube3, 0)
        assert [len(s) for s in strat.strata] == [1, 3, 3, 1]

    def test_unit_vectors_orthonormal(self, s4):
        strat = sr.stratify(s4, 5)
        gram = strat.unit_vectors @ strat.unit_vectors.T
        assert np.abs(gram - np.eye(s4.d + 1)).max() < 1e-12

    @pytest.mark.parametrize("preset", ["s4-refined-a", "square", "hexagonal"])
    def test_matrix_element_identity_certified(self, presets, preset):
        # stratify raises if the exact matrix-element identity fails
        sr.stratify(presets[preset], 1)


class TestDistanceRegular:
    def test_triangular_array(self):
        for n in (5, 6, 10):
            scheme = sr.build_triangular(n)
            array = sr.check_distance_regular(scheme)
            assert array is not None
            assert array.b == (2 * (n - 2), n - 3)
            assert array.c == (1, 4)

    def test_cycle_and_hypercube_arrays(self, cycle8, hypercube3):
        arr = sr.check_distance_regular(cycle8)
        assert (arr.b, arr.c) == ((2, 1, 1, 1), (1, 1, 1, 2))
        arr = sr.check_distance_regular(hypercube3)
        assert (arr.b, arr.c) == ((3, 2, 1), (1, 2, 3))

    def test_non_drg_presets(self, s4, z5z5):
        assert sr.check_distance_regular(s4) is None
        assert sr.check_distance_regular(z5z5) is None

    def test_three_term_recursion_exact(self, cycle8, hypercube3):
        for scheme in (cycle8, hypercube3):
            array = sr.check_distance_regular(scheme)
            d = scheme.d
            for i in range(1, d + 1):
                row = scheme.p[1, i].tolist()
                expected = [0] * (d + 1)
                if i > 0:
                    expected[i - 1] = array.b[i - 1]
                expected[i] = array.a(i)
                if i < d:
                    expected[i + 1] = array.c[i]
                assert row == expected

    def test_valency_chain(self, hypercube3):
        array = sr.check_distance_regular(hypercube3)
        assert array.valencies() == hypercube3.valencies


class TestSerialization:
    def test_round_trip_bytes(self, z5z5):
        doc = sr.scheme_to_dict(z5z5)
        again = sr.scheme_from_dict(json.loads(json.dumps(doc)))
        assert again.class_names == z5z5.class_names
        for a, b in zip(again.relations, z5z5.relations):
            assert (np.asarray(a) == np.asarray(b)).all()

    def test_rejects_bad_declared_d(self, cycle8):
        doc = sr.scheme_to_dict(cycle8)
        doc["d"] = 99
        with pytest.raises(NotPartition):
            sr.scheme_from_dict(doc)
