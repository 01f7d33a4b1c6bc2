import dataclasses
import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import schemeres as sr
from schemeres import scheme as scheme_module
from schemeres.errors import (
    DegenerateSplit,
    IdentityMissing,
    NotClosed,
    NotPartition,
    NotSymmetric,
)

from conftest import spectral_of, two_cliques
from nxn_witnesses import (
    nxn_check_distance_regular,
    nxn_relation_connected,
    simultaneous_eigenbasis,
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


def cycle8_classmap():
    return sr.build_cycle(8).classmap.astype(np.int64)


class TestClassMapInput:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_relation_list_matches_builder(self, presets, preset):
        scheme = presets[preset]
        again = sr.verify_scheme([scheme.classmap == k for k in range(scheme.d + 1)],
                                 class_names=scheme.class_names)
        assert np.array_equal(again.classmap, scheme.classmap)
        assert np.array_equal(again.p, scheme.p)
        assert (again.valencies, again.class_names) == (scheme.valencies, scheme.class_names)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_vertex_permuted_copy(self, presets, preset):
        scheme = presets[preset]
        perm = np.random.default_rng(7).permutation(scheme.n)
        moved = scheme.classmap[np.ix_(perm, perm)]
        for given in (moved, [moved == k for k in range(scheme.d + 1)]):
            again = sr.verify_scheme(given)
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
    ], ids=["non-square", "float"])
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
        assert np.allclose(data.p_matrix[0], scheme.valencies, atol=1e-7)
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
        stripped = dataclasses.replace(scheme, classmap=None)
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

    @pytest.mark.parametrize("preset", PRESETS)
    def test_matches_nxn_witness_on_presets(self, presets, preset):
        scheme = presets[preset]
        assert sr.check_distance_regular(scheme) == nxn_check_distance_regular(scheme)

    @pytest.mark.parametrize("name", ["petersen", "cycle100", "hypercube6",
                                      "triangular9", "square5", "hexagonal4"])
    def test_matches_nxn_witness(self, name):
        scheme = DRG_CASES[name]()
        assert sr.check_distance_regular(scheme) == nxn_check_distance_regular(scheme)

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


def petersen():
    # Kneser K(5,2): the classes of the triangular scheme on 5 points swapped
    t5 = sr.build_triangular(5)
    return sr.verify_scheme([np.asarray(t5.relations[k], np.int64) for k in (0, 2, 1)])


DRG_CASES = {
    "petersen": petersen,
    "cycle100": lambda: sr.build_cycle(100),
    "hypercube6": lambda: sr.build_hypercube(6),
    "triangular9": lambda: sr.build_triangular(9),
    "square5": lambda: sr.build_square_lattice(5),
    "hexagonal4": lambda: sr.build_hexagonal_lattice(4),
}


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
        moved = sr.verify_scheme([r[np.ix_(perm, perm)] for r in scheme.relations])
        assert np.array_equal(moved.p, scheme.p)

    @pytest.mark.parametrize("base", ["square6", "hypercube5"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_fusions(self, base, data):
        scheme = fusion_base(base)
        labels = data.draw(st.lists(st.integers(0, scheme.d - 1),
                                    min_size=scheme.d, max_size=scheme.d))
        rels = fused_relations(scheme, labels)
        reference = dense_intersection_numbers(rels)
        if reference is None:
            with pytest.raises(NotClosed):
                sr.verify_scheme(rels)
        else:
            assert np.array_equal(sr.verify_scheme(rels).p, reference)

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
        assert np.array_equal(sr.verify_scheme(rels).p, reference)

    def test_violation_in_middle_digits_only(self):
        # C_12 with classes ordered by distance (0, 5, 4, 1, 2, {3, 6}).
        # Row 1 is one packed run over j = 1..5; A_1 A_1 (lowest digit) and
        # A_1 A_5 (highest) lie in the span, only the middle digits do not.
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
            sr.verify_scheme(rels)

    def test_empty_relation(self):
        rels = cycle4_relations() + [np.zeros((4, 4), dtype=np.int64)]
        with pytest.raises(NotPartition, match="empty"):
            sr.verify_scheme(rels)

    def test_non_regular_relation(self):
        path = np.diag(np.ones(3, dtype=np.int64), 1)
        path += path.T
        eye = np.eye(4, dtype=np.int64)
        with pytest.raises(NotClosed, match="not regular"):
            sr.verify_scheme([eye, path, np.ones((4, 4), dtype=np.int64) - eye - path])


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
            fused_relations(fusion_base(base), [order[b] for b in blocks]))
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

    def test_validation_rejects_mixed_eigenspaces(self, s4):
        # Q M and M^-1 P with M fixing E_0 and the all-ones column: P Q = N I
        # and the rows and columns checked first all still hold
        data = spectral_of(s4)
        mix = np.eye(s4.d + 1)
        mix[1, 1:3] += [0.5, -0.5]
        bad = dataclasses.replace(data, p_matrix=np.linalg.solve(mix, data.p_matrix),
                                  q_matrix=data.q_matrix @ mix)
        with pytest.raises(DegenerateSplit, match=r"A_\d+ E_([12]) != P\[\1,\d+\] E_\1"):
            scheme_module._validate_spectral(s4, bad)
