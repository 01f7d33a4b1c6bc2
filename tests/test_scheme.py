import dataclasses
import functools
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import schemeres as sr
from schemeres import scheme as scheme_module
from schemeres.cli import main, make_preset_scheme
from schemeres.errors import (
    BadParameter,
    DegenerateSplit,
    IdentityMissing,
    NotClosed,
    NotPartition,
    NotSymmetric,
    SchemeresError,
)

from conftest import (
    assert_transitive_automorphisms,
    classmap_of,
    pair_permutations,
    spectral_of,
    two_cliques,
)
from nxn_witnesses import (
    nxn_check_distance_regular,
    nxn_relation_connected,
    per_class_certificate_accepts,
    simultaneous_eigenbasis,
    stratify,
)


PRESETS = ["cycle", "hypercube", "triangular", "s4", "s4-refined-a",
           "s4-refined-b", "z5z5", "square", "hexagonal"]


def cycle4_relations():
    s = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        s[(i + 1) % 4, i] = 1
    return [np.eye(4, dtype=np.int64),
            s + s.T,
            np.linalg.matrix_power(s, 2).astype(np.int64)]


class TestVerifyScheme:
    def test_cycle4(self):
        scheme = sr.verify_scheme(classmap_of(cycle4_relations()))
        assert (scheme.d, scheme.valencies) == (2, (1, 2, 1))

    def test_class_names_must_name_every_class(self):
        message = r"^class_names length must be d\+1 = 3, not 1$"
        with pytest.raises(BadParameter, match=message):
            sr.verify_scheme(classmap_of(cycle4_relations()), class_names=["a"])
        with pytest.raises(BadParameter, match=message):
            sr.scheme_from_dict({"n": 6, "d": 2, "points": 4, "class_names": ["a"]})

    @pytest.mark.parametrize("names, message", [
        ("abc", r"^class_names is not a list or tuple of names: 'abc'$"),
        ({"a": 0, "b": 1, "c": 2}, r"^class_names is not a list or tuple of names: \{'a'"),
        (3, r"^class_names is not a list or tuple of names: 3$"),
        ([1, None, 2.5], r"^class name 0 is not a string: 1$"),
        (["a", None, 2.5], r"^class name 1 is not a string: None$"),
        (("a", "b", 2.5), r"^class name 2 is not a string: 2\.5$"),
        (["a", True, "c"], r"^class name 1 is not a string: True$"),
    ])
    def test_class_names_must_be_strings(self, names, message):
        with pytest.raises(BadParameter, match=message):
            sr.verify_scheme(classmap_of(cycle4_relations()), class_names=names)
        with pytest.raises(BadParameter, match=message):
            sr.scheme_from_dict({"n": 6, "d": 2, "points": 4, "class_names": names})

    def test_s4_class_sums(self, s4):
        # A_1^2 = 6 A_0 + 3 A_2 + 2 A_3
        assert s4.p[1, 1].tolist() == [6, 0, 3, 2, 0]

    def test_path3_not_closed(self):
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
        j = np.ones((3, 3), dtype=np.int64)
        rels = [np.eye(3, dtype=np.int64), a, j - np.eye(3, dtype=np.int64) - a]
        with pytest.raises(NotClosed):
            sr.verify_scheme(classmap_of(rels))

    def test_identity_missing(self):
        rels = cycle4_relations()
        with pytest.raises(IdentityMissing):
            sr.verify_scheme(classmap_of([rels[1], rels[0], rels[2]]))

    def test_not_symmetric(self):
        s = np.zeros((4, 4), dtype=np.int64)
        for i in range(4):
            s[(i + 1) % 4, i] = 1
        rels = [np.eye(4, dtype=np.int64), s,
                np.linalg.matrix_power(s, 2).astype(np.int64),
                np.linalg.matrix_power(s, 3).astype(np.int64)]
        with pytest.raises(NotSymmetric):
            sr.verify_scheme(classmap_of(rels))


def cycle8_classmap():
    return sr.build_cycle(8).classmap.astype(np.int64)


class TestClassMapInput:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_relation_list_matches_builder(self, presets, preset):
        # relations by hand are given as their class map sum_k k A_k
        scheme = presets[preset]
        again = sr.verify_scheme(classmap_of([scheme.classmap == k for k in range(scheme.d + 1)]),
                                 class_names=scheme.class_names)
        assert np.array_equal(again.classmap, scheme.classmap)
        assert np.array_equal(again.p, scheme.p)
        assert (again.valencies, again.class_names) == (scheme.valencies, scheme.class_names)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_vertex_permuted_copy(self, presets, preset):
        scheme = presets[preset]
        perm = np.random.default_rng(7).permutation(scheme.n)
        moved = scheme.classmap[np.ix_(perm, perm)]
        again = sr.verify_scheme(moved)
        assert np.array_equal(again.classmap, moved)
        assert np.array_equal(again.p, scheme.p)
        assert again.valencies == scheme.valencies

    def test_relations_are_derived(self, z5z5):
        assert "relations" not in {f.name for f in dataclasses.fields(z5z5)}
        for k, r in enumerate(z5z5.relations):
            assert r.dtype == np.int8
            assert np.array_equal(r, z5z5.classmap == k)

    @pytest.mark.parametrize("classmap", [
        cycle8_classmap()[:, :-1],
        cycle8_classmap().astype(float),
        [(cycle8_classmap() == k).astype(np.int64) for k in range(5)],
        cycle8_classmap().tolist(),
        np.stack([(cycle8_classmap() == k).astype(np.int64) for k in range(5)]),
    ], ids=["non-square", "float", "relation-list", "nested-list", "relation-stack"])
    def test_not_a_square_integer_map(self, classmap):
        with pytest.raises(NotPartition, match="square integer"):
            sr.verify_scheme(classmap)

    @pytest.mark.parametrize("relabel", [
        {4: -1},        # a negative label
        {0: 1, 1: 0},   # a nonzero diagonal
        {4: 0},         # a zero off the diagonal
    ], ids=["negative", "diagonal", "off-diagonal"])
    def test_identity_missing(self, relabel):
        classmap = cycle8_classmap()
        lookup = np.arange(5)
        for old, new in relabel.items():
            lookup[old] = new
        with pytest.raises(IdentityMissing):
            sr.verify_scheme(lookup[classmap])

    def test_asymmetric(self):
        ahead = (np.arange(4)[None, :] - np.arange(4)[:, None]) % 4
        with pytest.raises(NotSymmetric, match="relation [13] "):
            sr.verify_scheme(ahead)

    def test_skipped_label(self):
        classmap = cycle8_classmap()
        classmap[classmap == 3] = 5
        with pytest.raises(NotPartition, match="relation 3 is empty"):
            sr.verify_scheme(classmap)

    def test_more_labels_than_vertices(self):
        classmap = cycle8_classmap()
        classmap[classmap == 4] = 8
        with pytest.raises(NotPartition, match="9 class labels on 8 vertices"):
            sr.verify_scheme(classmap)

    def test_not_regular(self):
        # class 1 is the path 0-1-2-3, class 2 the rest
        path = np.diag(np.ones(3, dtype=np.int64), 1)
        classmap = 2 - path - path.T
        np.fill_diagonal(classmap, 0)
        with pytest.raises(NotClosed, match="relation 1 is not regular"):
            sr.verify_scheme(classmap)

    def test_not_regular_in_row_blocks(self, monkeypatch):
        monkeypatch.setattr(scheme_module, "_ROW_ZERO_BLOCK", 1)  # one row a block
        self.test_not_regular()


class TestRelationConnected:
    @pytest.mark.parametrize("name", PRESETS + ["cycle12", "2xK2", "2xK3", "2xK5"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_nxn_witness(self, presets, name, data):
        if name in presets:
            scheme = presets[name]
        elif name == "cycle12":
            scheme = sr.build_cycle(12)
        else:
            scheme = two_cliques(int(name[-1]))
        support = data.draw(st.sets(st.integers(1, scheme.d), min_size=1))
        assert scheme.relation_connected(sorted(support)) == \
            nxn_relation_connected(scheme, sorted(support))


class TestIntersectionNumbers:
    @pytest.mark.parametrize("preset", ["cycle", "s4", "z5z5", "triangular"])
    def test_row_sum_identity(self, presets, preset):
        scheme = presets[preset]
        p = scheme.p
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
        # the trivial character and E_0 = J/N are written exactly
        assert data.p_matrix[0].tolist() == list(scheme.valencies)
        assert (data.q_matrix[:, 0] == 1.0).all()
        assert np.allclose(data.p_matrix[:, 0], 1.0, atol=1e-7)
        for j in range(d + 1):
            recon = sum(data.p_matrix[k, j] * data.idempotents[k]
                        for k in range(d + 1))
            assert np.abs(recon - scheme.relations[j]).max() < 1e-7


def nxn_spectrum(scheme):
    """P and the multiplicities by joint diagonalization of the N x N
    relations, in the eigenspace order ``spectral_data`` promises."""
    projectors = simultaneous_eigenbasis(
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
        stripped = dataclasses.replace(scheme, realisation=None)
        full, bare = spectral_of(scheme), sr.spectral_data(stripped)
        assert np.array_equal(bare.p_matrix, full.p_matrix)
        assert np.array_equal(bare.q_matrix, full.q_matrix)
        assert bare.multiplicities == full.multiplicities
        try:
            coeffs = sr.polynomial_coefficients(scheme)
        except sr.errors.FewerEigenvalues:
            with pytest.raises(sr.errors.FewerEigenvalues):
                sr.polynomial_coefficients(stripped)
            with pytest.raises(sr.errors.FewerEigenvalues):
                sr.resistance_polynomial(stripped)
        else:
            assert sr.polynomial_coefficients(stripped) == coeffs
            assert sr.resistance_polynomial(stripped) == sr.resistance_polynomial(scheme)
        for support in ([1], list(range(2, scheme.d + 1))):
            assert stripped.relation_connected(support) == scheme.relation_connected(support)
        assert sr.check_distance_regular(stripped) == sr.check_distance_regular(scheme)
        unit = [1] + [0] * (scheme.d - 1)
        assert sr.resistance_spectral(stripped, bare, unit) == \
            sr.resistance_spectral(scheme, full, unit)

    def test_inconsistent_intersection_numbers(self, s4):
        # closure gives kappa_k p^k_ij = kappa_j p^j_ik, so only a p set by
        # hand breaks it, and the multiplicities it gives are not integers
        p = s4.p.copy()
        p[1, 2, 3] += 1
        with pytest.raises(DegenerateSplit, match=r"^multiplicity 0\.9999\d* is not a "):
            sr.spectral_data(dataclasses.replace(s4, p=p))

    @pytest.mark.parametrize("preset", PRESETS)
    def test_corrupted_entry_is_rejected(self, presets, preset):
        scheme = presets[preset]
        rng = np.random.default_rng(sum(map(ord, preset)))
        for _ in range(40):
            p = scheme.p.copy()
            p[tuple(rng.integers(0, scheme.d + 1, 3))] += rng.choice([-1, 1])
            with pytest.raises(DegenerateSplit):
                sr.spectral_data(dataclasses.replace(scheme, p=p))


class TestStratify:
    def test_reference_stratum_is_singleton(self, z5z5):
        strat = stratify(z5z5, 7)
        assert strat.strata[0].tolist() == [7]
        assert strat.reference == 7

    def test_triangular_sizes(self):
        for n in (5, 8):
            scheme = sr.build_triangular(n)
            strat = stratify(scheme, 0)
            assert len(strat.strata[1]) == 2 * (n - 2)
            assert len(strat.strata[2]) == (n - 2) * (n - 3) // 2

    def test_hypercube3_sizes(self, hypercube3):
        strat = stratify(hypercube3, 0)
        assert [len(s) for s in strat.strata] == [1, 3, 3, 1]

    def test_unit_vectors_orthonormal(self, s4):
        strat = stratify(s4, 5)
        gram = strat.unit_vectors @ strat.unit_vectors.T
        assert np.abs(gram - np.eye(s4.d + 1)).max() < 1e-12

    @pytest.mark.parametrize("preset", ["s4-refined-a", "square", "hexagonal"])
    def test_matrix_element_identity_certified(self, presets, preset):
        # stratify raises if the exact matrix-element identity fails
        stratify(presets[preset], 1)


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

    @pytest.mark.parametrize("c, message", [
        ((0, 1), "^c_1 = 0 is not positive$"),
        ((1, -2), "^c_2 = -2 is not positive$"),
    ], ids=["zero", "negative"])
    def test_valency_chain_needs_positive_c(self, c, message):
        # a zero c_i once ended in a bare ZeroDivisionError
        with pytest.raises(ValueError, match=message):
            sr.IntersectionArray((3, 2), c).valencies()

    @pytest.mark.parametrize("preset", PRESETS)
    def test_matches_nxn_witness_on_presets(self, presets, preset):
        scheme = presets[preset]
        assert sr.check_distance_regular(scheme) == nxn_check_distance_regular(scheme)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_identities_on_presets(self, presets, preset):
        assert_array_identities(presets[preset])

    @pytest.mark.parametrize("family, sizes", [
        ("cycle", range(4, 257, 2)), ("hypercube", range(1, 17)), ("triangular", range(4, 201)),
    ], ids=["cycle4-256", "hypercube1-16", "triangular4-200"])
    def test_identities_on_families(self, family, sizes):
        for size in sizes:
            assert_array_identities(make_preset_scheme(family, n=size))

    @pytest.mark.parametrize("name", ["petersen", "cycle100", "hypercube6",
                                      "triangular9", "square5", "hexagonal4"])
    def test_matches_nxn_witness(self, name):
        scheme = DRG_CASES[name]()
        assert sr.check_distance_regular(scheme) == nxn_check_distance_regular(scheme)

    def test_one_vertex_has_no_array(self):
        # d = 0: no class 1, so no intersection array
        scheme = sr.verify_scheme(np.zeros((1, 1), dtype=np.int64))
        assert (scheme.n, scheme.d) == (1, 0)
        assert sr.check_distance_regular(scheme) is None

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_disconnected_tridiagonal_scheme(self, m):
        # 2 x K_m: class 1 joins vertices within a copy, class 2 across.
        # p^i_{j1} is tridiagonal, but c_2 = p^2_{11} = 0
        scheme = two_cliques(m)
        assert scheme.p[2, 1, 0] == 0 and scheme.p[0, 1, 2] == 0
        assert scheme.p[1, 1, 2] == 0
        assert not scheme.relation_connected([1])
        assert nxn_check_distance_regular(scheme) is None
        assert sr.check_distance_regular(scheme) is None


def assert_array_identities(scheme):
    """The identities that verification implies for an intersection array
    (b_0 = kappa_1, a_i + b_i + c_i = kappa_1 with a_i = p^i_{1i}, and
    kappa_{i-1} b_{i-1} = kappa_i c_i), and the N x N witness's answer where
    it runs, up to N = 512."""
    array = sr.check_distance_regular(scheme)
    if scheme.n <= 512:
        assert array == nxn_check_distance_regular(scheme)
    if array is None:
        return
    kappa, d = scheme.valencies, array.d
    assert d == scheme.d and array.b[0] == kappa[1]
    for i in range(1, d + 1):
        b_i = array.b[i] if i < d else 0
        assert int(scheme.p[1, i, i]) + b_i + array.c[i - 1] == kappa[1]
        assert kappa[i - 1] * array.b[i - 1] == kappa[i] * array.c[i - 1]


def petersen():
    # Kneser K(5,2): the classes of the triangular scheme on 5 points swapped
    t5 = sr.build_triangular(5)
    return sr.verify_scheme(classmap_of(t5.relations[k] for k in (0, 2, 1)))


DRG_CASES = {
    "petersen": petersen,
    "cycle100": lambda: sr.build_cycle(100),
    "hypercube6": lambda: sr.build_hypercube(6),
    "triangular9": lambda: sr.build_triangular(9),
    "square5": lambda: sr.build_square_lattice(5),
    "hexagonal4": lambda: sr.build_hexagonal_lattice(4),
}


class TestSerialization:
    def test_round_trip_bytes(self, s4):
        doc = sr.scheme_to_dict(s4)
        assert set(doc) == {"n", "d", "class_names", "classmap"}
        assert doc["classmap"] == s4.classmap.reshape(-1).tolist()
        again = sr.scheme_from_dict(json.loads(json.dumps(doc)))
        assert again.class_names == s4.class_names
        assert again.classmap.dtype == s4.classmap.dtype
        assert again.classmap.tobytes() == s4.classmap.tobytes()
        assert again.p.tobytes() == s4.p.tobytes()

    @pytest.mark.parametrize("preset", ["cycle", "hypercube", "z5z5", "square", "hexagonal"])
    def test_translation_round_trip(self, presets, preset, monkeypatch):
        scheme = presets[preset]
        t = scheme.realisation
        doc = json.loads(json.dumps(sr.scheme_to_dict(scheme)))
        assert set(doc) == {"n", "d", "class_names", "modulus", "rank", "generators"}
        assert (doc["modulus"], doc["rank"]) == (t.modulus, t.rank)
        assert doc["generators"] == [h.tolist() for h in t.generators]

        def refuse(*args):
            raise AssertionError("a translation document reached an N x N check")

        monkeypatch.setattr(scheme_module, "_classmap_axioms", refuse)
        monkeypatch.setattr(scheme_module, "_certify_closure", refuse)
        again = sr.scheme_from_dict(doc)
        assert again.class_names == scheme.class_names
        assert again.valencies == scheme.valencies
        assert again.p.tobytes() == scheme.p.tobytes()
        monkeypatch.undo()
        assert again.classmap.dtype == scheme.classmap.dtype
        assert again.classmap.tobytes() == scheme.classmap.tobytes()

    def test_square24_document_lists_generators(self):
        doc = sr.scheme_to_dict(sr.build_square_lattice(24))
        assert doc["generators"] == [[[0, 1], [1, 0]], [[1, 0], [0, -1]]]
        assert "row0" not in doc and "classmap" not in doc
        del doc["class_names"]  # 91 names, most of the document
        assert len(json.dumps(doc)) < 150

    @pytest.mark.parametrize("field, index, error, message", [
        ("generators", 0, BadParameter, r"^generator 0 is not a 2 x 2 integer matrix$"),
    ])
    def test_translation_document_rejects_a_boolean(self, z5z5, field, index, error, message):
        doc = sr.scheme_to_dict(z5z5)
        doc[field][index][0][1] = True
        with pytest.raises(error, match=message):
            sr.scheme_from_dict(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("field, value, error, message", [
        ("generators", [[0, 1, -1, 1]], BadParameter, "^generator 0 is not a 2 x 2 integer matrix$"),
        ("generators", [[[0, 1, 0], [-1, 1, 0], [0, 0, 1]]], BadParameter,
         "^generator 0 is not a 2 x 2 integer matrix$"),
        ("generators", [[[0, 1], [-1]]], BadParameter, "^generator 0 is not a 2 x 2 integer matrix$"),
    ], ids=["flat-generator", "3x3-generator", "ragged-generator"])
    def test_translation_document_shapes_are_checked(self, z5z5, field, value, error, message):
        doc = sr.scheme_to_dict(z5z5)
        doc[field] = value
        with pytest.raises(error, match=message):
            sr.scheme_from_dict(json.loads(json.dumps(doc)))

    def test_translation_document_declares_its_vertex_count(self, z5z5):
        doc = sr.scheme_to_dict(z5z5)
        doc["n"] = 36
        with pytest.raises(NotPartition, match="^declared vertex count 36 does not match the 25"):
            sr.scheme_from_dict(doc)

    def test_translation_document_is_verified(self, z5z5):
        doc = sr.scheme_to_dict(z5z5)
        # a shear: its orbits {(x_0 + k x_1, x_1)} are not closed under negation
        doc["generators"] = [[[1, 1], [0, 1]]]
        with pytest.raises(NotSymmetric, match="^relation 4 is not symmetric$"):
            sr.scheme_from_dict(doc)
        doc["generators"] = [[[1, 1], [0, 0]]]
        with pytest.raises(BadParameter, match="^generator 0 is singular mod 5$"):
            sr.scheme_from_dict(doc)

    @pytest.mark.parametrize("entry", [1.5, 1.0])
    def test_rejects_a_non_integer_class(self, entry):
        # the entry replaces class 1 of the pair (0, 1) of the 4-cycle
        doc = sr.scheme_to_dict(sr.verify_scheme(classmap_of(cycle4_relations())))
        doc["classmap"][1] = entry
        with pytest.raises(NotPartition, match="not a square integer array"):
            sr.scheme_from_dict(doc)

    def test_rejects_a_boolean_class_map(self):
        doc = {"n": 2, "d": 1, "classmap": [False, True, True, False]}
        with pytest.raises(NotPartition, match="not a square integer array"):
            sr.scheme_from_dict(doc)

    @pytest.mark.parametrize("nested", [False, True], ids=["flat", "nested"])
    def test_rejects_a_boolean_among_class_labels(self, nested):
        # mixed with ints, np.asarray would read true as class 1
        doc = sr.scheme_to_dict(sr.verify_scheme(classmap_of(cycle4_relations())))
        doc["classmap"][1] = True
        if nested:
            doc["classmap"] = [doc["classmap"][i:i + 4] for i in range(0, 16, 4)]
        with pytest.raises(NotPartition, match="not a square integer array"):
            sr.scheme_from_dict(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("form", ["classmap"])
    def test_rejects_a_dropped_label(self, form):
        # 35 labels where n = 6 declares 36: a typed error, not numpy's reshape
        scheme = sr.build_triangular(4)
        doc = {"n": 6, "d": 2, form: scheme.classmap.reshape(-1).tolist()}
        del doc[form][7]
        with pytest.raises(NotPartition, match="^the class map is not a square integer array$"):
            sr.scheme_from_dict(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("build, field, value", [
        # row 0 is derived from the generators, never read
        (sr.build_orbit_scheme_z5z5, "row0", lambda scheme: scheme.realisation.row0.tolist()),
        # 0/1 relation lists in place of a class map
        (sr.build_s4_scheme, "relations",
         lambda scheme: [r.reshape(-1).tolist() for r in scheme.relations]),
        # a translation document is certified by its generators alone
        (sr.build_orbit_scheme_z5z5, "classmap",
         lambda scheme: scheme.classmap.reshape(-1).tolist()),
        # and a pairs document by its points alone
        (lambda: sr.build_triangular(4), "classmap",
         lambda scheme: scheme.classmap.reshape(-1).tolist()),
        (lambda: sr.build_triangular(4), "row0", lambda scheme: scheme.realisation.row0.tolist()),
    ], ids=["row0", "relations", "classmap-beside-generators", "classmap-beside-points",
            "row0-beside-points"])
    def test_rejects_fields_of_other_forms(self, tmp_path, capsys, build, field, value):
        scheme = build()
        doc = sr.scheme_to_dict(scheme)
        doc[field] = value(scheme)
        if field == "relations":
            del doc["classmap"]
        with pytest.raises(BadParameter, match=f"has no field '{field}'$"):
            sr.scheme_from_dict(json.loads(json.dumps(doc)))
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(doc))
        assert main(["resist", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [BadParameter]: ") and f"has no field '{field}'" in err

    @pytest.mark.parametrize("n", [-2, 0])
    def test_rejects_a_vertex_count_below_one(self, n):
        # (-2)^2 = 4 labels would pass the length check and reach numpy's reshape
        with pytest.raises(BadParameter, match=f"^field 'n' must be >= 1, not {n}$"):
            sr.scheme_from_dict({"n": n, "d": 1, "classmap": [0, 1, 1, 0]})

    def test_rejects_bad_declared_d(self, cycle8):
        doc = sr.scheme_to_dict(cycle8)
        doc["d"] = 99
        with pytest.raises(NotPartition):
            sr.scheme_from_dict(doc)

    @pytest.mark.parametrize("points", [4, 7, 30])
    def test_pairs_round_trip(self, points, monkeypatch):
        scheme = sr.build_triangular(points)
        doc = json.loads(json.dumps(sr.scheme_to_dict(scheme)))
        assert doc == {"n": scheme.n, "d": 2, "class_names": ["0", "1", "2"], "points": points}

        def refuse(*args):
            raise AssertionError("a pairs document reached an N x N check")

        for name in ("_classmap_axioms", "_certify_closure"):
            monkeypatch.setattr(scheme_module, name, refuse)
        again = sr.scheme_from_dict(doc)
        assert isinstance(again.realisation, sr.Pairs)
        assert (again.class_names, again.valencies) == (scheme.class_names, scheme.valencies)
        assert again.p.tobytes() == scheme.p.tobytes()
        assert again.classmap.tobytes() == scheme.classmap.tobytes()
        # a class-map document of the same scheme still loads, by packed products
        monkeypatch.undo()
        del doc["points"]
        doc["classmap"] = scheme.classmap.reshape(-1).tolist()
        dense = sr.scheme_from_dict(doc)
        assert isinstance(dense.realisation, np.ndarray)
        assert dense.p.tobytes() == scheme.p.tobytes()

    @pytest.mark.parametrize("doc, message", [
        ({"n": 4, "d": 2}, "^a class-map document lacks the field 'classmap'$"),
        ({"d": 2, "classmap": [0]}, "^a class-map document lacks the field 'n'$"),
        ({"n": 25, "d": 4, "modulus": 5, "rank": 2},
         "^a translation document lacks the field 'generators'$"),
        ({"n": 25, "generators": [[[0, 1], [-1, 1]]], "modulus": 5, "rank": 2},
         "^a translation document lacks the field 'd'$"),
        ({"n": 6, "points": 4}, "^a pairs document lacks the field 'd'$"),
    ], ids=["classmap", "n", "generators", "d-of-translation", "d-of-pairs"])
    def test_names_a_missing_field(self, tmp_path, capsys, doc, message):
        with pytest.raises(BadParameter, match=message):
            sr.scheme_from_dict(doc)
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(doc))
        assert main(["resist", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error [BadParameter]: a ")

    @pytest.mark.parametrize("build, field, value", [
        (lambda: sr.verify_scheme(classmap_of(cycle4_relations())), "n", 4.9),
        (lambda: sr.verify_scheme(classmap_of(cycle4_relations())), "d", 2.7),
        (lambda: sr.verify_scheme(classmap_of(cycle4_relations())), "n", 4.0),
        (lambda: sr.verify_scheme(classmap_of(cycle4_relations())), "d", True),
        (lambda: sr.build_cycle(8), "modulus", 8.5),
        (lambda: sr.build_cycle(8), "rank", True),
        (lambda: sr.build_triangular(5), "points", 5.0),
        (lambda: sr.build_triangular(5), "points", "5"),
        (lambda: sr.build_triangular(5), "n", False),
    ])
    def test_rejects_a_non_integer_declaration(self, build, field, value):
        # int() would truncate the float and read the boolean as 0 or 1
        doc = sr.scheme_to_dict(build())
        doc[field] = value
        with pytest.raises(BadParameter, match=f"^field '{field}' is not an integer: "):
            sr.scheme_from_dict(json.loads(json.dumps(doc)))


# --------------------------------------------------------------------------
# the packed intersection-number verifier against the dense product loop
# --------------------------------------------------------------------------

def dense_intersection_numbers(relations):
    """The former verifier loop: one float product A_i A_j per pair i <= j.

    Returns p, or None when some product leaves the span of the relations.
    """
    floats = [np.asarray(r, dtype=np.float64) for r in relations]
    d = len(floats) - 1
    classmap = sum(k * r for k, r in enumerate(floats)).astype(np.int64)
    reps = [tuple(np.argwhere(r == 1)[0]) for r in floats]
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for i in range(d + 1):
        for j in range(i, d + 1):
            prod = floats[i] @ floats[j]
            coef = np.array([prod[reps[k]] for k in range(d + 1)])
            if (coef != np.round(coef)).any() or (coef < 0).any():
                return None
            coef = coef.astype(np.int64)
            if (prod != coef[classmap]).any():
                return None
            p[i, j, :] = coef
            p[j, i, :] = coef
    return p


def fused_relations(scheme, labels):
    """Relations of ``scheme`` with classes 1..d merged where labels agree.

    Class c >= 1 goes to fused class 1 + (rank of labels[c-1] among the
    distinct labels), so the labels also choose the fused class order.
    """
    distinct = sorted(set(labels))
    lookup = np.array([0] + [1 + distinct.index(label) for label in labels])
    classmap = lookup[scheme.classmap]
    return [(classmap == k).astype(np.int64) for k in range(len(distinct) + 1)]


@functools.lru_cache(maxsize=None)
def fusion_base(name):
    return {"square6": lambda: sr.build_square_lattice(6),
            "hypercube5": lambda: sr.build_hypercube(5),
            "cycle12": lambda: sr.build_cycle(12),
            "s4-stabilizer": lambda: sr.build_s4_scheme("stabilizer")}[name]()


# more classes than one packed product holds (cycle 100, hypercube 9) or
# several packed products per row (square 15)
MULTI_RUN = {"cycle100": (sr.build_cycle, 100),
             "hypercube9": (sr.build_hypercube, 9),
             "square15": (sr.build_square_lattice, 15)}


#: K3,3 with parts {0, 1, 2} and {3, 4, 5}; the prism on triangles
#: {0, 1, 2} and {3, 4, 5}, matched by x ~ x + 3
K33 = np.kron([[0, 1], [1, 0]], np.ones((3, 3), dtype=np.int64))
PRISM = np.kron(np.eye(2, dtype=np.int64), 1 - np.eye(3, dtype=np.int64)) \
    + np.kron([[0, 1], [1, 0]], np.eye(3, dtype=np.int64))


def disjoint_union_classmap(g, h):
    """Classes on two graphs of the same order side by side: the diagonal,
    an edge, a non-edge inside one graph, a pair across."""
    n = len(g)
    classmap = np.full((2 * n, 2 * n), 3)
    classmap[:n, :n] = 2 - g
    classmap[n:, n:] = 2 - h
    np.fill_diagonal(classmap, 0)
    return classmap


class TestPackedVerifier:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_matches_dense_reference(self, presets, preset):
        scheme = presets[preset]
        assert np.array_equal(scheme.p, dense_intersection_numbers(scheme.relations))

    @pytest.mark.parametrize("name", MULTI_RUN)
    def test_matches_dense_reference_across_runs(self, name):
        builder, size = MULTI_RUN[name]
        scheme = builder(size)
        assert (max(scheme.valencies) + 1) ** (scheme.d + 1) > 2 ** 53
        assert np.array_equal(scheme.p, dense_intersection_numbers(scheme.relations))

    @pytest.mark.parametrize("preset", PRESETS)
    def test_vertex_permutation_invariant(self, presets, preset):
        scheme = presets[preset]
        perm = np.random.default_rng(5).permutation(scheme.n)
        moved = sr.verify_scheme(scheme.classmap[np.ix_(perm, perm)])
        assert np.array_equal(moved.p, scheme.p)

    @pytest.mark.parametrize("base", ["square6", "hypercube5", "cycle12"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_fusions(self, base, data):
        scheme = fusion_base(base)
        labels = data.draw(st.lists(st.integers(0, scheme.d - 1),
                                    min_size=scheme.d, max_size=scheme.d))
        rels = fused_relations(scheme, labels)
        reference = dense_intersection_numbers(rels)
        if reference is None:
            with pytest.raises(NotClosed, match="outside the span"):
                sr.verify_scheme(classmap_of(rels))
        else:
            got = sr.verify_scheme(classmap_of(rels)).p
            assert got.dtype == np.int64
            assert np.array_equal(got, reference)

    @pytest.mark.parametrize("base, labels", [
        ("square6", list(range(9))),       # no fusion
        ("square6", [0] * 9),              # K_N: one class besides the identity
        ("hypercube5", [0, 1, 0, 1, 0]),   # distance parity
        ("hypercube5", [1, 0, 1, 0, 1]),   # the same, classes swapped
    ])
    def test_closed_fusions(self, base, labels):
        rels = fused_relations(fusion_base(base), labels)
        reference = dense_intersection_numbers(rels)
        assert reference is not None
        assert np.array_equal(sr.verify_scheme(classmap_of(rels)).p, reference)

    def test_violation_in_middle_digits_only(self):
        # C_12 with classes ordered by distance (0, 5, 4, 1, 2, {3, 6}):
        # A_1 A_1 and A_1 A_5 lie in the span, A_1 A_2..A_1 A_4 do not
        lookup = np.array([0, 3, 4, 5, 2, 1, 5])
        classmap = lookup[sr.build_cycle(12).classmap]
        rels = [(classmap == k).astype(np.int64) for k in range(6)]
        floats = [r.astype(float) for r in rels]
        outside = {(i, j) for i in range(6) for j in range(i, 6)
                   if any(np.ptp((floats[i] @ floats[j])[classmap == k]) > 0
                          for k in range(6))}
        assert {(1, 2), (1, 3), (1, 4)} <= outside
        assert all(1 <= i < j < 5 for i, j in outside)
        with pytest.raises(NotClosed, match=r"A_1 A_[234] "):
            sr.verify_scheme(classmap)

    def test_row_zero_blind_violation(self):
        # K3,3 holds vertex 0 and is SRG(6, 3, 0, 3), so row 0 of every
        # product is class-constant; the prism's rows are not
        prism = disjoint_union_classmap(K33, PRISM)
        valencies = (1, 3, 2, 6)
        assert scheme_module._classmap_axioms(prism) == (3, valencies)
        p = scheme_module._representative_intersection_numbers(prism[0], prism.__getitem__,
                                                               valencies)[0]
        with pytest.raises(NotClosed, match=r"^A_1 A_1 is outside the span"):
            scheme_module._certify_closure(prism, valencies, p)
        with pytest.raises(NotClosed, match=r"^A_1 A_1 is outside the span"):
            sr.verify_scheme(prism)
        twins = sr.verify_scheme(disjoint_union_classmap(K33, K33))
        assert np.array_equal(twins.p, dense_intersection_numbers(twins.relations))

    def test_violation_off_row_zero_in_middle_digits_only(self):
        # two 12-cycles, the second with distances 1 and 2 swapped; classes
        # (0, 6, 1, 2, 3, 4, 5) by distance, then 7 across.  Row 1 is one
        # packed run over j = 1..7: A_1 A_1 (lowest digit) and A_1 A_7
        # (highest) lie in the span, and vertex 0's cycle is a scheme
        distance = sr.build_cycle(12).classmap
        label = np.array([0, 2, 3, 4, 5, 6, 1])
        swapped = np.array([0, 2, 1, 3, 4, 5, 6])
        classmap = np.full((24, 24), 7)
        classmap[:12, :12] = label[distance]
        classmap[12:, 12:] = label[swapped[distance]]
        rels = [(classmap == k).astype(np.int64) for k in range(8)]
        floats = [r.astype(float) for r in rels]
        outside = {(i, j) for i in range(8) for j in range(i, 8)
                   if any(np.ptp((floats[i] @ floats[j])[classmap == k]) > 0
                          for k in range(8))}
        assert {(1, 2), (1, 3), (1, 5), (1, 6)} <= outside
        assert (1, 1) not in outside and (1, 7) not in outside
        valencies = (1, 1, 2, 2, 2, 2, 2, 12)
        assert (max(valencies) + 1) ** 8 <= 2 ** 53
        p = scheme_module._representative_intersection_numbers(classmap[0],
                                                               classmap.__getitem__, valencies)[0]
        with pytest.raises(NotClosed, match=r"^A_1 A_[2356] "):
            scheme_module._certify_closure(classmap, valencies, p)

    @pytest.mark.parametrize("name, i, j", [("cycle100", 1, 40), ("hypercube9", 2, 5)])
    def test_names_a_wrong_coefficient(self, name, i, j):
        # p^k_1,40 sits mid-way through the second run of row 1; p^k_2,5
        # in the middle of the first run of row 2
        builder, size = MULTI_RUN[name]
        scheme = builder(size)
        p = scheme.p.copy()
        p[i, j, np.flatnonzero(p[i, j])[0]] -= 1
        with pytest.raises(NotClosed, match=rf"^A_{i} A_{j} is outside"):
            scheme_module._certify_closure(scheme.classmap, scheme.valencies, p)

    def test_non_regular_relation(self):
        path = np.diag(np.ones(3, dtype=np.int64), 1)
        path += path.T
        eye = np.eye(4, dtype=np.int64)
        with pytest.raises(NotClosed, match="not regular"):
            sr.verify_scheme(classmap_of([eye, path, np.ones((4, 4), np.int64) - eye - path]))


# --------------------------------------------------------------------------
# the class-map axioms
# --------------------------------------------------------------------------

def relabelled(classmap, relabel):
    lookup = np.arange(int(classmap.max()) + 1)
    for old, new in relabel.items():
        lookup[old] = new
    return lookup[classmap]


def swapped_pair(classmap):
    """Classes 1 and 2 exchanged on the pairs {0, 1} and {0, 2} alone: still
    symmetric, but vertex 1 then has one neighbour of class 1."""
    broken = classmap.copy()
    for y in (1, 2):
        broken[0, y] = broken[y, 0] = 3 - classmap[0, y]
    return broken


#: each map breaks one axiom, with the error the class-map route names it by
BROKEN_CYCLE12 = {
    "diagonal-relabelled": (lambda c: relabelled(c, {0: 1, 1: 0}),
                            IdentityMissing, "class 0 is not exactly the diagonal"),
    "zero-off-the-diagonal": (lambda c: relabelled(c, {4: 0}),
                              IdentityMissing, "class 0 is not exactly the diagonal"),
    "negative-label": (lambda c: relabelled(c, {4: -1}),
                       IdentityMissing, "class 0 is not exactly the diagonal"),
    "directed-cycle": (lambda c: (np.arange(12)[None, :] - np.arange(12)[:, None]) % 12,
                       NotSymmetric, "relation 1 is not symmetric"),
    "skipped-label": (lambda c: relabelled(c, {3: 5}), NotPartition, "relation 3 is empty"),
    "too-many-labels": (lambda c: relabelled(c, {6: 12}),
                        NotPartition, "13 class labels on 12 vertices"),
    "not-regular": (swapped_pair, NotClosed, "relation 1 is not regular"),
}


class TestRowZeroAxioms:
    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize("case", BROKEN_CYCLE12)
    def test_same_error_as_without_generators(self, case, dtype):
        # the one error of each broken map, whatever the dtype of its labels
        edit, error, message = BROKEN_CYCLE12[case]
        broken = edit(fusion_base("cycle12").classmap.astype(np.int64)).astype(dtype)
        with pytest.raises(SchemeresError) as got:
            sr.verify_scheme(broken)
        assert type(got.value) is error
        assert str(got.value) == message

    def test_wide_labels_do_not_wrap(self):
        # labels 1..6 shifted by 2**16 read as 1..6 in int16; they must not verify
        classmap = fusion_base("cycle12").classmap.astype(np.int64)
        wide = np.where(classmap > 0, classmap + 2 ** 16, 0)
        assert np.array_equal(wide.astype(np.int16), classmap)
        with pytest.raises(NotPartition, match=f"^{2 ** 16 + 7} class labels on 12 vertices$"):
            sr.verify_scheme(wide)

    @pytest.mark.parametrize("name", ["cycle12", "hypercube5", "square6"])
    def test_valencies_from_row_zero(self, name):
        scheme = fusion_base(name)
        again = sr.verify_scheme(scheme.classmap.astype(np.int64))
        assert again.classmap.dtype == np.int16
        assert again.valencies == scheme.valencies
        assert again.p.tobytes() == scheme.p.tobytes()

    def test_empty_class_map(self):
        with pytest.raises(NotPartition, match="^the class map has no vertices$"):
            sr.verify_scheme(np.zeros((0, 0), dtype=np.int64))


# --------------------------------------------------------------------------
# the translation route: a point group on Z_m^r
# --------------------------------------------------------------------------

def orbit_classmap(m, r, generators):
    """The class map of the orbital scheme of Z_m^r x| H, H generated by the
    integer matrices ``generators`` (each a bijection mod m), found apart
    from the library: orbits of coordinate tuples in Python ints, numbered
    in order of their least point, and class(x, y) the orbit of x - y."""
    points = list(itertools.product(range(m), repeat=r))  # in vertex order
    orbit_of_point = {}
    for x in points:
        if x in orbit_of_point:
            continue
        label = len(set(orbit_of_point.values()))
        orbit_of_point[x] = label
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for h in generators:
                z = tuple(sum(int(h[i][j]) * y[j] for j in range(r)) % m for i in range(r))
                if z not in orbit_of_point:
                    orbit_of_point[z] = label
                    frontier.append(z)
    return np.array([[orbit_of_point[tuple((a - b) % m for a, b in zip(x, y))] for y in points]
                     for x in points])


def determinant(h):
    """The determinant of a square integer matrix, by Laplace expansion."""
    if len(h) == 1:
        return int(h[0][0])
    return sum((-1) ** j * int(h[0][j]) * determinant([row[:j] + row[j + 1:] for row in h[1:]])
               for j in range(len(h)))


@st.composite
def unimodular_matrix(draw, size):
    """A signed permutation matrix times elementary shears: determinant +-1,
    so invertible mod every m."""
    perm = draw(st.permutations(range(size)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=size, max_size=size))
    h = np.zeros((size, size), dtype=np.int64)
    h[range(size), perm] = signs
    if size > 1:
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.permutations(range(size)))[:2]
            h[i] += draw(st.integers(-3, 3)) * h[j]
    return h.tolist()


def integer_matrices(size, count):
    """Up to ``count`` size x size integer matrices: entries drawn at random,
    often singular mod m, or unimodular."""
    entries = st.lists(st.lists(st.integers(-9, 9), min_size=size, max_size=size),
                       min_size=size, max_size=size)
    return st.lists(st.one_of(entries, unimodular_matrix(size)), max_size=count)


#: generators whose orbits are not closed under negation, so the orbital
#: scheme is not symmetric
NOT_SYMMETRIC = {
    # every point its own orbit: the map of the directed cycle
    "directed-cycle": (12, 1, ([[1]],)),
    # the squares {1, 2, 4} and non-squares {3, 5, 6} of Z_7
    "quadratic-residues": (7, 1, ([[2]],)),
}


class TestTranslationRoute:
    @pytest.mark.parametrize("name", ["cycle12", "hypercube5", "square6"])
    def test_derived_views(self, name):
        scheme = fusion_base(name)
        dense = sr.verify_scheme(scheme.classmap)
        reps = np.unique(scheme.classmap[0], return_index=True)[1]
        assert np.array_equal(scheme.representative_rows, dense.classmap[reps])
        assert np.array_equal(dense.representative_rows, dense.classmap[reps])
        assert np.array_equal(scheme.realisation.rows(0), scheme.realisation.row0)
        assert not scheme.realisation.row0.flags.writeable
        assert dense.p.tobytes() == scheme.p.tobytes()
        assert dense.valencies == scheme.valencies

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_orbits_in_python_ints(self, data):
        # N = m^r <= 64
        r = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(2, max(m for m in range(2, 65) if m ** r <= 64)))
        generators = data.draw(integer_matrices(r, 3))
        translation = sr.Translation(m, r, tuple(np.array(h, dtype=np.int64) for h in generators))
        singular = [k for k, h in enumerate(generators) if math.gcd(determinant(h), m) != 1]
        if singular:
            with pytest.raises(BadParameter, match=f"^generator {singular[0]} is singular mod {m}$"):
                sr.verify_scheme(translation)
            return
        classmap = orbit_classmap(m, r, generators)
        try:
            dense = sr.verify_scheme(classmap)
        except NotSymmetric as expected:
            with pytest.raises(NotSymmetric) as got:
                sr.verify_scheme(translation)
            assert str(got.value) == str(expected)
            return
        scheme = sr.verify_scheme(translation)
        assert np.array_equal(scheme.classmap, classmap)
        assert scheme.valencies == dense.valencies
        assert (scheme.p.dtype, scheme.p.tobytes()) == (dense.p.dtype, dense.p.tobytes())

    # the labelling past N = 64, where the property test above stops, against closed forms

    @pytest.mark.parametrize("n", [12, 16])
    def test_hypercube_row_zero_is_the_popcount(self, n):
        row0 = sr.build_hypercube(n).realisation.row0
        assert row0.dtype == np.int16
        assert row0.tolist() == [bin(x).count("1") for x in range(2 ** n)]

    def test_primitive_root_gives_one_class(self):
        # 11 generates the units of Z_1009, so every nonzero point is one orbit
        scheme = sr.verify_scheme(sr.Translation(1009, 1, ([[11]],)))
        assert (scheme.d, scheme.valencies) == (1, (1, 1008))
        assert scheme.realisation.row0.tolist() == [0] + [1] * 1008

    @pytest.mark.parametrize("q", [1009, 10009])
    def test_paley_classes_are_the_quadratic_residues(self, q):
        # 121 = 11^2 generates the squares of Z_q; class 1 is the orbit of 1,
        # the x with x^((q-1)/2) = 1 mod q (Euler's criterion)
        scheme = sr.verify_scheme(sr.Translation(q, 1, ([[121]],)))
        half = (q - 1) // 2
        assert (scheme.d, scheme.valencies) == (2, (1, half, half))
        residues = [0] + [1 if pow(x, half, q) == 1 else 2 for x in range(1, q)]
        assert scheme.realisation.row0.tolist() == residues

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize("case", NOT_SYMMETRIC)
    def test_same_error_as_the_class_map_route(self, case, dtype):
        m, r, generators = NOT_SYMMETRIC[case]
        with pytest.raises(NotSymmetric) as expected:
            sr.verify_scheme(orbit_classmap(m, r, generators))
        given = sr.Translation(m, r, tuple(np.array(h, dtype=dtype) for h in generators))
        with pytest.raises(NotSymmetric) as got:
            sr.verify_scheme(given)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("m, r, generators, error, message", [
        (12, 1, ([[2]],), BadParameter, "^generator 0 is singular mod 12$"),
        (12, 1, ([[0]],), BadParameter, "^generator 0 is singular mod 12$"),
        # the trivial group: every point its own orbit
        (12, 1, (), NotSymmetric, "^relation 11 is not symmetric$"),
        (6, 2, (((0, 1), (1, 0)), ((2, 0), (0, 1))), BadParameter,
         "^generator 1 is singular mod 6$"),
        # the swap alone does not generate the signed-swap group
        (6, 2, (((0, 1), (1, 0)),), NotSymmetric, "^relation 5 is not symmetric$"),
        (12, 1, ([[-1, 0]],), BadParameter, "^generator 0 is not a 1 x 1 integer matrix$"),
        (12, 1, ([[-1.0]],), BadParameter, "^generator 0 is not a 1 x 1 integer matrix$"),
    ], ids=["singular", "zero", "trivial", "singular-2d", "swap-alone", "shape", "float"])
    def test_bad_generators_of_a_scheme(self, m, r, generators, error, message):
        # too few or malformed generators for cycle 12 or square 6
        with pytest.raises(error, match=message):
            sr.verify_scheme(sr.Translation(m, r, generators))

    @pytest.mark.parametrize("m, r", [(1, 3), (12, 0)])
    def test_bad_group(self, m, r):
        with pytest.raises(BadParameter, match="needs modulus >= 2 and rank >= 1"):
            sr.verify_scheme(sr.Translation(m, r))

    @pytest.mark.parametrize("m, r", [(2.5, 2), (4.0, 2), (True, 3), (3, True), (3, 2.0), (3, "2")])
    def test_sizes_are_not_truncated(self, m, r):
        # int() would read 2.5 as 2 and True as 1, and build another scheme
        message = re.escape(f"needs modulus >= 2 and rank >= 1, integers, not {m!r} and {r!r}")
        with pytest.raises(BadParameter, match=f"^a translation scheme {message}$"):
            sr.verify_scheme(sr.Translation(m, r, ()))

    def test_numpy_sizes(self):
        scheme = sr.verify_scheme(sr.Translation(np.int64(6), np.int32(1), ([[-1]],)))
        assert (scheme.n, scheme.d) == (6, 3)

    def test_images_stay_exact(self):
        # at m = 2**27 + 30, r (m-1)^2 passes 2**53 and float64 rounds some
        # images h z; the bound is checked before any of the m-point arrays
        tracemalloc.start()
        try:
            with pytest.raises(BadParameter, match=r"rank \(modulus - 1\)\^2 < 2\^53"):
                sr.verify_scheme(sr.Translation(2 ** 27 + 30, 1, ([[-1]],)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_binary_images_match_coordinates(self, data):
        # for m = 2 the images are exclusive ors of column codes; the witness
        # takes h z mod 2 from the coordinates, as every other modulus does.
        # Images come before the singularity check, so singular h count too
        r = data.draw(st.integers(1, 12), label="r")
        h = np.array(data.draw(st.one_of(
            unimodular_matrix(r),
            st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r),
                     min_size=r, max_size=r))), dtype=np.int64)
        places = 2 ** np.arange(r - 1, -1, -1)
        coords = np.arange(2 ** r) // places[:, None] % 2  # [t, z]
        expected = places @ ((h @ coords) % 2)
        got = scheme_module._image(h, 2, r)
        assert got.dtype == np.intp
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("m, r", [(2, 1), (2, 5), (3, 3), (12, 1), (6, 2)])
    def test_rows_match_coordinates(self, m, r):
        # row x holds row0[x - z] at z, x - z taken coordinate-wise mod m
        # (exclusive or for m = 2, digit by digit otherwise)
        n = m ** r
        t = sr.Translation(m, r)
        object.__setattr__(t, "row0", np.random.default_rng(m * r).integers(0, 50, n))
        coords = np.array(list(itertools.product(range(m), repeat=r)))  # [vertex, coordinate]
        places = m ** np.arange(r - 1, -1, -1)
        expected = t.row0[(coords[:, None] - coords[None]) % m @ places]
        assert np.array_equal(t.rows(np.arange(n)), expected)
        assert np.array_equal(t.rows(n - 1), expected[n - 1])
        xs = np.arange(min(n, 6))[::-1].reshape(-1, 2 if n > 2 else 1)
        assert np.array_equal(t.rows(xs), expected[xs])

    @pytest.mark.parametrize("name", ["cycle12", "hypercube5", "square6"])
    def test_row_zero_counts_on_derived_rows(self, monkeypatch, name):
        # the class-map route's count, on the class map derived from row 0
        # and in blocks of three classes, against the translation route's
        scheme = fusion_base(name)
        classmap = scheme.classmap
        monkeypatch.setattr(scheme_module, "_ROW_ZERO_BLOCK", 3 * scheme.n)
        counted = scheme_module._representative_intersection_numbers(
            classmap[0], classmap.__getitem__, scheme.valencies)[0]
        assert counted.tobytes() == scheme.p.tobytes()

    @pytest.mark.parametrize("extra", [np.zeros((16, 16), dtype=np.int64)], ids=["singular"])
    def test_bad_generator_of_hypercube16_in_linear_memory(self, extra):
        # named without a class map (hypercube 16's would hold 2**32 labels)
        t = sr.build_hypercube(16).realisation
        given = sr.Translation(2, 16, t.generators + (extra,))
        tracemalloc.start()
        try:
            with pytest.raises(BadParameter, match="^generator 2 is singular mod 2$"):
                sr.verify_scheme(given)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_rows_need_a_verified_translation(self):
        with pytest.raises(BadParameter, match="^row 0 is derived by verify_scheme$"):
            sr.Translation(12, 1, ([[-1]],)).rows(0)

    def test_automorphisms_are_the_generators(self):
        # a point group is given by its generators, never as vertex permutations
        t = fusion_base("cycle12").realisation
        with pytest.raises(TypeError, match="automorphisms"):
            sr.verify_scheme(t, automorphisms=[(np.arange(12) + 1) % 12])


#: resist-pipeline presets and the ladders of the translation and pairs routes
HELD_SCHEMES = (
    [("s4", {}), ("s4-refined-a", {}), ("s4-refined-b", {}), ("z5z5", {})]
    + [("square", {"m": m}) for m in (3, 4, 9, 12)]
    + [("hexagonal", {"m": m}) for m in (4, 9, 12)]
    + [("hypercube", {"n": n}) for n in range(1, 13)]
    + [("triangular", {"n": n}) for n in range(4, 31)]
    + [("cycle", {"n": n}) for n in range(4, 65, 2)])


class TestHeldRepresentatives:
    """``verify_scheme`` keeps on the scheme the representatives, and the
    rows that p was counted from when one block read them all, on every
    route; they are what deriving them again would give, and the
    realisation keeps only its definition."""

    @pytest.mark.parametrize("reload", [False, True], ids=["built", "reloaded"])
    @pytest.mark.parametrize("name, size", HELD_SCHEMES,
                             ids=[f"{name}{''.join(map(str, size.values()))}"
                                  for name, size in HELD_SCHEMES])
    def test_rows_are_those_derived_again(self, name, size, reload):
        scheme = make_preset_scheme(name, **size)
        if reload:
            scheme = sr.scheme_from_dict(json.loads(json.dumps(sr.scheme_to_dict(scheme))))
        t = scheme.realisation
        dense = isinstance(t, np.ndarray)
        row0 = t[0] if dense else t.row0
        reps = np.unique(row0, return_index=True)[1]
        assert scheme.representatives.tobytes() == reps.tobytes()
        assert not scheme.representatives.flags.writeable
        derived = t[reps] if dense else t.rows(reps)
        held = scheme.representative_rows
        assert (held.dtype, held.shape) == (derived.dtype, derived.shape)
        assert held.tobytes() == derived.tobytes()
        one_block = (scheme.d + 1) * scheme.n <= scheme_module._ROW_ZERO_BLOCK
        assert (scheme._counted_rows is held) == one_block
        assert (scheme._counted_rows is None) == (not one_block)
        if one_block:
            assert not scheme._counted_rows.flags.writeable
        if name in ("square", "hexagonal"):  # named after r_k by _orbit_scheme
            m = size["m"]
            assert scheme.class_names == tuple(f"({x // m},{x % m})" for x in reps)

    def test_hypercube16_keeps_no_rows(self):
        scheme = sr.build_hypercube(16)
        assert scheme._counted_rows is None
        assert scheme.representatives.tolist() == [2 ** k - 1 for k in range(17)]
        t = scheme.realisation
        assert scheme.representative_rows.tobytes() == t.rows(scheme.representatives).tobytes()
        assert not scheme.representative_rows.flags.writeable

    def test_chang_graph_keeps_its_counted_rows(self, chang):
        # a class map with no transitive group, beside the S4 presets above
        reps = np.unique(chang.realisation[0], return_index=True)[1]
        assert chang.representatives.tobytes() == reps.tobytes()
        assert chang._counted_rows is chang.representative_rows
        assert chang._counted_rows.tobytes() == chang.realisation[reps].tobytes()

    @pytest.mark.parametrize("given, names", [
        (sr.Translation(5, 2, (((0, 1), (-1, 1)),)), ["modulus", "rank", "generators", "row0"]),
        (sr.Pairs(6), ["points", "row0"])], ids=["translation", "pairs"])
    def test_realisations_keep_only_their_definition(self, given, names):
        realisation = sr.verify_scheme(given).realisation
        assert [f.name for f in dataclasses.fields(realisation)] == names


def reloaded(scheme):
    return sr.scheme_from_dict(json.loads(json.dumps(sr.scheme_to_dict(scheme))))


class TestVerifiedArraysAreReadOnly:
    """A verified scheme's p, class map and rows, and its spectral tables,
    cannot be changed after certification: a write raises, so no exact
    table silently follows an edit."""

    @pytest.mark.parametrize("build", [
        lambda: sr.build_hypercube(3), lambda: sr.build_triangular(5),
        lambda: sr.build_s4_scheme(), lambda: reloaded(sr.build_hypercube(3))],
        ids=["translation", "pairs", "class-map", "reloaded"])
    def test_writes_raise(self, build):
        scheme = build()
        data = sr.spectral_data(scheme)
        for array in (scheme.p, scheme.classmap, scheme.representative_rows,
                      scheme.relations[1], data.p_matrix, data.q_matrix,
                      data.idempotents[1],
                      *data._eigenmatrix_terms):  # the cached terms of resistance_spectral
            with pytest.raises(ValueError, match="read-only"):
                array[(1,) * array.ndim] = 5
        # on hypercube 3 this edit turned R(3) from 5/6 into 11/12
        with pytest.raises(ValueError, match="read-only"):
            scheme.p[1, 1, 0] = 5
        assert sr.resistance_polynomial(scheme) == sr.resistance_polynomial(build())

    def test_the_callers_class_map_is_copied(self):
        # an int16 map is already of the label dtype, so it was kept as given
        given = sr.build_cycle(8).classmap.astype(np.int16)
        scheme = sr.verify_scheme(given, class_names=[str(k) for k in range(5)])
        doc = sr.scheme_to_dict(scheme)
        given[0, 1], given[1, 0] = 3, 3
        assert scheme.classmap.tobytes() == sr.build_cycle(8).classmap.tobytes()
        assert sr.scheme_to_dict(scheme) == doc
        assert reloaded(scheme).p.tobytes() == scheme.p.tobytes()


def overlap_classmap(points):
    """2 - |s & t| on the 2-subsets of 0..points-1 in ``itertools``
    order, from their point incidence matrix M: |s & t| = (M M^T)[s, t]."""
    pairs = list(itertools.combinations(range(points), 2))
    incidence = np.zeros((len(pairs), points), dtype=np.int64)
    for x, pair in enumerate(pairs):
        incidence[x, list(pair)] = 1
    return 2 - incidence @ incidence.T


class TestPairsRoute:
    @pytest.mark.parametrize("automorphisms", [False, True], ids=["packed", "transitive"])
    @pytest.mark.parametrize("points", range(4, 31))
    def test_matches_the_class_map_route(self, points, automorphisms):
        scheme = sr.verify_scheme(sr.Pairs(points))
        classmap = overlap_classmap(points)
        if automorphisms:
            # what the route rests on: Sym(points) fixes the classes, transitively
            assert_transitive_automorphisms(classmap, pair_permutations(scheme.realisation))
        dense = sr.verify_scheme(classmap)
        assert (scheme.n, scheme.d, scheme.valencies) == (dense.n, dense.d, dense.valencies)
        assert (scheme.p.dtype, scheme.p.shape) == (dense.p.dtype, dense.p.shape)
        assert scheme.p.tobytes() == dense.p.tobytes()
        assert scheme.representative_rows.dtype == dense.representative_rows.dtype
        assert scheme.representative_rows.tobytes() == dense.representative_rows.tobytes()
        assert scheme.classmap.dtype == dense.classmap.dtype
        assert scheme.classmap.tobytes() == dense.classmap.tobytes()
        assert np.array_equal(scheme.realisation.row0, classmap[0])
        assert not scheme.realisation.row0.flags.writeable

    @pytest.mark.parametrize("points", range(4, 31))
    def test_tables_match_the_class_map_route(self, points):
        # the oracle reads the same d+1 rows, so its floats are equal, not close
        scheme = sr.verify_scheme(sr.Pairs(points))
        dense = sr.verify_scheme(overlap_classmap(points))
        # class 2 alone is the Kneser graph, a perfect matching at 4 points
        for conductances in [sr.unit_class_one(scheme), [0.5, 1.75]] + [[0, 3]] * (points > 4):
            assert sr.resistance_oracle(scheme, conductances).values == \
                sr.resistance_oracle(dense, conductances).values
        array = sr.check_distance_regular(scheme)
        closed = sr.drg_closed_table(array, scheme.n)
        assert closed.values == sr.resistance_polynomial(scheme).values
        report = sr.foster_sum(scheme, sr.unit_class_one(scheme), closed)
        assert report.passed and report.residual == 0.0

    @pytest.mark.parametrize("points, valencies", [(2, (1,)), (3, (1, 2)), (4, (1, 4, 1))])
    def test_fewest_points(self, points, valencies):
        # one vertex; then K3, whose 2-subsets all meet; then the octahedron
        scheme = sr.verify_scheme(sr.Pairs(points))
        assert scheme.valencies == valencies
        assert scheme.classmap.tobytes() == overlap_classmap(points).astype(np.int16).tobytes()

    @pytest.mark.parametrize("points", [1, 0, -3, True, False, 4.0, 4.5, "4", None])
    def test_bad_points(self, points):
        with pytest.raises(BadParameter, match=r"^a pairs scheme needs an integer points >= 2, "):
            sr.verify_scheme(sr.Pairs(points))

    def test_numpy_points(self):
        assert sr.verify_scheme(sr.Pairs(np.int64(5))).realisation.points == 5

    def test_rows_need_a_verified_pairs(self):
        with pytest.raises(BadParameter, match="^row 0 is derived by verify_scheme$"):
            sr.Pairs(5).rows(0)

    def test_takes_no_automorphisms(self):
        # Sym(points) acts on a pairs scheme, and no route takes permutations
        given = sr.Pairs(5)
        with pytest.raises(TypeError, match="automorphisms"):
            sr.verify_scheme(given, automorphisms=pair_permutations(given))


# --------------------------------------------------------------------------
# spectral data of closed fusions, and degenerate generic combinations
# --------------------------------------------------------------------------

def set_partitions(d):
    """Every partition of classes 1..d once, as restricted growth strings."""
    out = [[0]]
    for _ in range(d - 1):
        out = [rgs + [b] for rgs in out for b in range(max(rgs) + 2)]
    return out


@functools.lru_cache(maxsize=None)
def closed_fusions(name):
    scheme = fusion_base(name)
    return tuple(tuple(labels) for labels in set_partitions(scheme.d)
                 if dense_intersection_numbers(fused_relations(scheme, labels)) is not None)


class TestSpectralRoute:
    @pytest.mark.parametrize("base", ["hypercube5", "cycle12", "s4-stabilizer"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_closed_fusions(self, base, data):
        blocks = data.draw(st.sampled_from(closed_fusions(base)))
        order = data.draw(st.permutations(range(max(blocks) + 1)))
        fused = sr.verify_scheme(
            classmap_of(fused_relations(fusion_base(base), [order[b] for b in blocks])))
        got = sr.spectral_data(fused)
        p_matrix, mults = nxn_spectrum(fused)
        assert got.multiplicities == mults
        assert np.abs(got.p_matrix - p_matrix).max() < 1e-9

    def test_degenerate_combination_raises(self, monkeypatch, s4):
        # all weight on A_0 makes the combination the identity: every gap is 0
        monkeypatch.setattr(scheme_module, "_weight_draws",
                            lambda count: itertools.repeat(np.eye(count)[0], 3))
        with pytest.raises(DegenerateSplit,
                           match=r"gap 0\.000e\+00 .*CLUSTER_TOL = 1\.0e-07"):
            sr.spectral_data(s4)

    def test_degenerate_draw_is_redrawn(self, monkeypatch, s4):
        # the first seeded draw is replaced by a degenerate one
        expected, draws = spectral_of(s4), scheme_module._weight_draws
        monkeypatch.setattr(scheme_module, "_weight_draws", lambda count: (
            np.eye(count)[0] if i == 0 else w for i, w in enumerate(draws(count))))
        got = sr.spectral_data(s4)
        assert got.multiplicities == expected.multiplicities
        assert np.abs(got.p_matrix - expected.p_matrix).max() < 1e-12

    @pytest.mark.parametrize("build, n, value", [
        (lambda: sr.build_hypercube(1), 3, r"1\.5"),
        (lambda: sr.build_hypercube(1), 1, r"0\.5"),
        # m = (1, 2, 1) scaled by 5/4: the first eigenspace of the
        # decomposition is named, not the one of multiplicity 2
        (lambda: sr.build_cycle(4), 5, r"1\.2(5|49)\d*"),
    ], ids=["hypercube1-n3", "hypercube1-n1", "cycle4-n5"])
    def test_non_integer_multiplicity(self, build, n, value):
        scheme = dataclasses.replace(build(), n=n)
        with pytest.raises(DegenerateSplit,
                           match=f"^multiplicity {value} is not a positive integer$"):
            sr.spectral_data(scheme)

    def test_validation_rejects_mixed_eigenspaces(self, s4):
        # Q M and M^-1 P with M fixing E_0 and the all-ones column: P Q = N I,
        # row 0 of P and column 0 of Q all still hold
        data = spectral_of(s4)
        mix = np.eye(s4.d + 1)
        mix[1, 1:3] += [0.5, -0.5]
        bad = dataclasses.replace(data, p_matrix=np.linalg.solve(mix, data.p_matrix),
                                  q_matrix=data.q_matrix @ mix)
        with pytest.raises(DegenerateSplit, match=r"A_\d+ E_([12]) != P\[\1,\d+\] E_\1"):
            scheme_module._certify_eigenspaces(s4, bad, certificate_of(s4))

    @pytest.mark.parametrize("build, n", [
        (lambda: sr.build_hypercube(3), 16),
        (lambda: sr.build_cycle(6), 12),
        (lambda: sr.build_hypercube(2), 8),
        (lambda: sr.build_triangular(5), 20),
    ], ids=["hypercube3-n16", "cycle6-n12", "hypercube2-n8", "triangular5-n20"])
    def test_multiplicities_must_resolve_the_vertex_count(self, build, n):
        # twice N doubles every multiplicity, each still an integer, as in
        # (2, 6, 6, 2) on hypercube 3, so only m_0 = 2 tells
        scheme = dataclasses.replace(build(), n=n)
        with pytest.raises(DegenerateSplit,
                           match="^multiplicities do not resolve the vertex count$"):
            sr.spectral_data(scheme)

    def test_eigenvectors_must_be_orthogonal(self, monkeypatch):
        # triangular 6 has multiplicities 1, 5 and 9.  Tilting eigh's vector
        # of multiplicity 9 by t = 1e-7 towards that of multiplicity 1 moves
        # that multiplicity by 2 t sqrt(9) = 6e-7 (6.7e-8 of itself), which
        # the multiplicity test accepts, and P Q off its diagonal by about
        # N sqrt(9) t = 3e-7 N
        scheme = sr.build_triangular(6)
        eigh = np.linalg.eigh

        def tilted(matrix):
            values, vectors = eigh(matrix)
            weight = vectors[0] ** 2  # m_k / N
            small, large = int(np.argmin(weight)), int(np.argmax(weight))
            vectors = vectors.copy()
            vectors[:, large] += 1e-7 * vectors[:, small]
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", tilted)
        with pytest.raises(DegenerateSplit, match=r"^P Q != N I off its diagonal at tolerance$"):
            sr.spectral_data(scheme)


def mixed_eigenspaces(scheme, data):
    """The data of ``test_validation_rejects_mixed_eigenspaces``: Q M and
    M^-1 P, with M mixing eigenspaces 1 and 2."""
    mix = np.eye(scheme.d + 1)
    mix[1, 1:3] += [0.5, -0.5]
    return dataclasses.replace(data, p_matrix=np.linalg.solve(mix, data.p_matrix),
                               q_matrix=data.q_matrix @ mix)


def certificate_of(scheme):
    """B_w^T of ``_certify_eigenspaces``, as ``spectral_data`` contracts it."""
    weights = scheme_module._certificate_weights(scheme.d + 1)
    return np.einsum("j,jil->il", weights, scheme.p)


def certificate_accepts(scheme, data):
    try:
        scheme_module._certify_eigenspaces(scheme, data, certificate_of(scheme))
    except DegenerateSplit:
        return False
    return True


class TestSeededCertificate:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_agrees_with_per_class_witness_on_presets(self, presets, preset):
        scheme = presets[preset]
        data = spectral_of(scheme)
        mixed = mixed_eigenspaces(scheme, data)
        assert certificate_accepts(scheme, data) and per_class_certificate_accepts(scheme, data)
        assert not certificate_accepts(scheme, mixed)
        assert not per_class_certificate_accepts(scheme, mixed)

    @pytest.mark.parametrize("base", ["hypercube5", "cycle12", "s4-stabilizer"])
    def test_agrees_with_per_class_witness_on_closed_fusions(self, base):
        for blocks in closed_fusions(base):
            fused = sr.verify_scheme(classmap_of(fused_relations(fusion_base(base), blocks)))
            data = sr.spectral_data(fused)  # certified on the way
            candidates = [data] + ([mixed_eigenspaces(fused, data)] if fused.d >= 2 else [])
            for candidate in candidates:
                assert certificate_accepts(fused, candidate) == \
                    per_class_certificate_accepts(fused, candidate)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_perturbed_entry_is_named(self, presets, preset):
        # row 0 of P is kappa and column 0 all ones, both exactly by
        # construction; a shift of 1e-5 moves column k of the residual of B_j
        # by 1e-5 |E_k|, which clears the tolerance when E_k is large enough
        scheme = presets[preset]
        data = spectral_of(scheme)
        named = 0
        for k in range(1, scheme.d + 1):
            for j in range(1, scheme.d + 1):
                p_matrix = data.p_matrix.copy()
                p_matrix[k, j] += 1e-5
                bad = dataclasses.replace(data, p_matrix=p_matrix)
                if per_class_certificate_accepts(scheme, bad):
                    continue
                with pytest.raises(DegenerateSplit,
                                   match=rf"^A_{j} E_{k} != P\[{k},{j}\] E_{k} at tolerance$"):
                    scheme_module._certify_eigenspaces(scheme, bad, certificate_of(scheme))
                named += 1
        assert named >= scheme.d

    def test_weights_are_positive_and_apart_from_the_draws(self):
        weights = scheme_module._certificate_weights(12)
        assert ((weights >= 1) & (weights <= 2)).all()
        assert not any(np.array_equal(weights, draw)
                       for draw in scheme_module._weight_draws(12))


def round_loop_reachable(step):
    """The former reachability: d rounds of one step from every class reached."""
    reached = np.arange(len(step)) == 0
    for _ in range(len(step) - 1):
        reached = reached | step[reached].any(axis=0)
    return reached


class TestReachableClasses:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_round_loop(self, data):
        size = data.draw(st.integers(1, 41))  # d <= 40
        density = data.draw(st.sampled_from([0.02, 0.05, 0.1, 0.3]))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        step = np.random.default_rng(seed).random((size, size)) < density
        assert scheme_module._reachable_classes(step).tolist() == \
            round_loop_reachable(step).tolist()

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 8, 9, 16, 17, 33, 41])
    def test_longest_path(self, size):
        # the directed path 0 -> 1 -> ... -> d needs all d steps
        step = np.eye(size, k=1, dtype=bool)
        assert scheme_module._reachable_classes(step).all()
        step[size // 2 - 1, size // 2] = False  # cut in the middle
        assert scheme_module._reachable_classes(step).tolist() == \
            [k < size // 2 for k in range(size)]


# --------------------------------------------------------------------------
# the order of the eigenspaces
# --------------------------------------------------------------------------

def tuple_key_order(raw_p, kappa):
    """The former ordering: one tuple sort key per eigenspace."""
    k0 = int(np.argmin(np.abs(raw_p - kappa).max(axis=1)))
    rest = [k for k in range(len(raw_p)) if k != k0]
    rest.sort(key=lambda k: tuple(-np.round(raw_p[k, 1:], 9)))
    return [k0] + rest


# values that tie after rounding to 9 digits, and zeros of both signs
TIED_VALUES = [0.0, -0.0, 1e-10, -1e-10, 1.0, 1.0 + 3e-10, 1.0 - 3e-10, -1.0,
               -1.0 - 4e-10, 2.5, -2.5, 1.0000000006, 7.0]


class TestEigenspaceOrder:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_tuple_keys(self, data):
        size = data.draw(st.integers(1, 7))
        value = st.sampled_from(TIED_VALUES) | st.floats(-8, 8)
        raw_p = np.array(data.draw(st.lists(st.lists(value, min_size=size, max_size=size),
                                            min_size=size, max_size=size)))
        kappa = np.array(data.draw(st.lists(value, min_size=size, max_size=size)))
        got = scheme_module._eigenspace_order(raw_p, kappa)
        assert got.tolist() == tuple_key_order(raw_p, kappa)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_matches_tuple_keys_on_presets(self, presets, preset):
        scheme = presets[preset]
        p_matrix = spectral_of(scheme).p_matrix
        kappa = np.array(scheme.valencies)
        for seed in range(5):
            shuffled = p_matrix[np.random.default_rng(seed).permutation(scheme.d + 1)]
            got = scheme_module._eigenspace_order(shuffled, kappa)
            assert got.tolist() == tuple_key_order(shuffled, kappa)
            assert shuffled[got].tobytes() == p_matrix.tobytes()
