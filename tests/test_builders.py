import itertools
import math

import numpy as np
import pytest

import schemeres as sr
from schemeres.errors import NotAmbivalent, NotLatinSquare, OddOrder, TooLarge, TooSmall

from conftest import spectral_of
from nxn_witnesses import integer_matrix_powers


class TestCycle:
    def test_smallest(self):
        assert sr.build_cycle(4).valencies == (1, 2, 1)

    def test_valencies_and_multiplicities(self):
        scheme = sr.build_cycle(8)
        assert scheme.valencies == (1, 2, 2, 2, 1)
        assert spectral_of(scheme).multiplicities == (1, 2, 2, 2, 1)

    def test_p11_entry(self):
        data = sr.spectral_data(sr.build_cycle(6))
        assert abs(data.p_matrix[1, 1] - 2 * np.cos(2 * np.pi / 6)) < 1e-9

    def test_odd_rejected(self):
        with pytest.raises(OddOrder):
            sr.build_cycle(7)

    def test_too_small_rejected(self):
        with pytest.raises(TooSmall):
            sr.build_cycle(2)


class TestHypercube:
    def test_two_bits_is_four_cycle(self):
        scheme = sr.build_hypercube(2)
        assert scheme.valencies == (1, 2, 1)
        deg = np.asarray(scheme.relations[1]).sum(axis=1)
        assert (deg == 2).all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_valencies_binomial(self, n):
        scheme = sr.build_hypercube(n)
        assert scheme.valencies == tuple(math.comb(n, i) for i in range(n + 1))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_p_matrix_is_krawtchouk(self, n):
        data = sr.spectral_data(sr.build_hypercube(n))
        table = np.array([[sr.krawtchouk(l, i, n) for l in range(n + 1)]
                          for i in range(n + 1)])
        rounded = np.round(data.p_matrix).astype(int)
        assert np.abs(data.p_matrix - rounded).max() < 1e-9
        assert (rounded == table).all()

    def test_too_large(self):
        with pytest.raises(TooLarge):
            sr.build_hypercube(13)


class TestTriangular:
    def test_n4(self):
        scheme = sr.build_triangular(4)
        assert scheme.n == 6
        assert scheme.valencies == (1, 4, 1)

    def test_n5_petersen_complement(self):
        assert sr.build_triangular(5).valencies == (1, 6, 3)

    def test_square_of_adjacency(self):
        for n in (6, 9):
            scheme = sr.build_triangular(n)
            # A^2 = 2(n-2) I + (n-2) A + 4 A_2, exactly
            assert scheme.p[1, 1].tolist() == [2 * (n - 2), n - 2, 4]

    def test_too_small(self):
        with pytest.raises(TooSmall):
            sr.build_triangular(3)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_classes_follow_set_intersections(self, n):
        # class 2 - |s & t| for 2-subsets s, t, in itertools.combinations order
        pairs = [set(p) for p in itertools.combinations(range(n), 2)]
        overlap = np.array([[len(s & t) for t in pairs] for s in pairs])
        assert np.array_equal(sr.build_triangular(n).classmap, 2 - overlap)

    def test_tridiagonal_action(self):
        n = 7
        scheme = sr.build_triangular(n)
        strat = sr.stratify(scheme, 0)
        t = strat.unit_vectors @ scheme.relations[1].astype(float) \
            @ strat.unit_vectors.T
        kappa = 2 * (n - 2)
        expected = np.array([
            [0, math.sqrt(kappa), 0],
            [math.sqrt(kappa), n - 2, 2 * math.sqrt(n - 3)],
            [0, 2 * math.sqrt(n - 3), 2 * (n - 4)],
        ])
        assert np.abs(t - expected).max() < 1e-10


class TestGroupScheme:
    def test_z4_gives_cycle_scheme(self):
        table = sr.cyclic_group_table(4, [(0,), (1, 3), (2,)])
        scheme = sr.build_group_scheme(table)
        cycle = sr.build_cycle(4)
        for a, b in zip(scheme.relations, cycle.relations):
            assert (np.asarray(a) == np.asarray(b)).all()

    def test_s4_product_relation(self, s4):
        # A_3 A_4 = 2 A_1 + A_4
        assert s4.p[3, 4].tolist() == [0, 2, 0, 0, 1]

    def test_s4_valencies(self, s4):
        assert s4.valencies == (1, 6, 8, 3, 6)

    def test_refined_relation(self, s4_refined_a):
        assert s4_refined_a.valencies == (1, 3, 6, 3, 6, 3, 2)
        # A_1 A_6 = A_4
        expected = [0] * 7
        expected[4] = 1
        assert s4_refined_a.p[1, 6].tolist() == expected

    def test_refined_b_class_order(self, s4_refined_b):
        assert s4_refined_b.valencies == (1, 6, 3, 6, 3, 3, 2)
        assert s4_refined_b.class_names[1] == "4"

    def test_not_ambivalent(self):
        table_rows = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        with pytest.raises(NotAmbivalent):
            sr.build_group_scheme(sr.GroupTable.from_mult(
                table_rows, [(0,), (1, 2), (3, 4)]))

    def test_not_latin_square(self):
        with pytest.raises(NotLatinSquare):
            sr.GroupTable.from_mult([[0, 0], [1, 1]], [(0,), (1,)])

    def test_abelian_class_sums_commute(self):
        table = sr.cyclic_group_table(6, [(0,), (1, 5), (2, 4), (3,)])
        scheme = sr.build_group_scheme(table)
        rels = [np.asarray(r, dtype=np.int64) for r in scheme.relations]
        for a, b in itertools.combinations(rels, 2):
            assert (a @ b == b @ a).all()


class TestZ5Z5:
    def test_valencies(self, z5z5):
        assert z5z5.valencies == (1, 6, 6, 6, 6)

    def test_power_expansions(self, z5z5):
        a = np.asarray(z5z5.relations[1], dtype=np.int64)
        powers = integer_matrix_powers(a, 4)
        reps = [(0, int(np.flatnonzero(z5z5.classmap[0] == k)[0]))
                for k in range(5)]
        decomp = lambda m: [int(m[r]) for r in reps]
        assert decomp(powers[2]) == [6, 2, 1, 2, 0]
        assert decomp(powers[3]) == [12, 15, 7, 6, 6]
        assert decomp(powers[4]) == [90, 61, 46, 56, 38]

    def test_matches_hexagonal_m5(self, z5z5):
        hex5 = sr.build_hexagonal_lattice(5)
        for a, b in zip(z5z5.relations, hex5.relations):
            assert (np.asarray(a) == np.asarray(b)).all()


def character_tuple_multiset(m, classes):
    """Orbit eigenvalue tuples over all characters of Z_m x Z_m."""
    tuples = {}
    for i in range(m):
        for j in range(m):
            lams = []
            for orb in classes:
                lams.append(round(sum(math.cos(2 * math.pi * (i * a + j * b) / m)
                                      for (a, b) in orb), 8))
            key = tuple(lams)
            tuples[key] = tuples.get(key, 0) + 1
    return tuples


def orbit_classes(scheme, m):
    out = []
    for rel in scheme.relations:
        row = np.asarray(rel)[0]
        out.append([(v // m, v % m) for v in np.flatnonzero(row)])
    return out


class TestLattices:
    def test_square_m3_orbits(self):
        scheme = sr.build_square_lattice(3)
        assert scheme.valencies == (1, 4, 4)

    def test_square_generic_orbit_size(self):
        scheme = sr.build_square_lattice(5)
        sizes = set(scheme.valencies)
        assert 8 in sizes  # generic orbit (k1, k2), 0 != k1 != k2 != 0

    def test_square_class_one_is_nearest_neighbors(self):
        scheme = sr.build_square_lattice(4)
        row = np.asarray(scheme.relations[1])[0]
        neighbors = {(v // 4, v % 4) for v in np.flatnonzero(row)}
        assert neighbors == {(0, 1), (1, 0), (0, 3), (3, 0)}

    def test_too_small(self):
        with pytest.raises(TooSmall):
            sr.build_square_lattice(2)
        with pytest.raises(TooSmall):
            sr.build_hexagonal_lattice(3)

    def test_hexagonal_class_one_six_regular(self, hexagonal7):
        assert hexagonal7.valencies[1] == 6

    def test_hexagonal_axis_orbit(self, hexagonal7):
        # orbit of (k, 0) always has the six elements +-(k,0), +-(0,k), +-(k,k)
        mats = sr.hexagonal_point_group()
        for k in (1, 2, 3):
            orb = sr.orbit_of((k, 0), mats, modulus=7)
            assert len(orb) == 6

    def test_hexagonal_next_nearest_orbit_size(self, hexagonal7):
        # orbit of (1, -1) is the six-element set +-{(1,-1), (1,2), (2,1)}
        mats = sr.hexagonal_point_group()
        orb = sr.orbit_of((1, -1), mats, modulus=7)
        assert len(orb) == 6
        assert (1, 2) in orb and (2, 1) in orb

    def test_hexagonal_generic_orbit_size(self, hexagonal7):
        mats = sr.hexagonal_point_group()
        assert len(sr.orbit_of((1, -2), mats, modulus=7)) == 12

    @pytest.mark.parametrize("kind,m", [("square", 4), ("square", 5),
                                        ("square", 6), ("square", 8),
                                        ("hexagonal", 4), ("hexagonal", 5),
                                        ("hexagonal", 6), ("hexagonal", 8)])
    def test_eigenvalues_match_cosine_formulas(self, kind, m):
        build = sr.build_square_lattice if kind == "square" \
            else sr.build_hexagonal_lattice
        scheme = build(m)
        data = spectral_of(scheme) if m == 7 else sr.spectral_data(scheme)
        classes = orbit_classes(scheme, m)
        expected = character_tuple_multiset(m, classes)
        got = {}
        for k in range(scheme.d + 1):
            key = tuple(round(float(x), 8) for x in data.p_matrix[k])
            got[key] = got.get(key, 0) + data.multiplicities[k]
        assert got == expected


class TestKrawtchouk:
    @pytest.mark.parametrize("x", range(6))
    def test_degree_zero(self, x):
        assert sr.krawtchouk(0, x, 5) == 1

    @pytest.mark.parametrize("n,x", [(n, x) for n in (3, 5, 8)
                                     for x in range(4)])
    def test_degree_one(self, n, x):
        assert sr.krawtchouk(1, x, n) == n - 2 * x

    def test_brute_force_value(self):
        assert sr.krawtchouk(2, 1, 3) == -1

    def test_top_value_is_valency(self):
        for n in (3, 6):
            for l in range(n + 1):
                assert sr.krawtchouk(l, 0, n) == math.comb(n, l)
