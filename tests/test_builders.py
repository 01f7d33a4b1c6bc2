import functools
import itertools
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import schemeres as sr
from schemeres import cli
from schemeres import scheme as scheme_module
from schemeres.errors import (
    BadParameter,
    NotAmbivalent,
    NotClosed,
    NotLatinSquare,
    NotSymmetric,
    OddOrder,
    TooLarge,
    TooSmall,
)

from conftest import assert_transitive_automorphisms, build_packed, spectral_of
from nxn_witnesses import integer_matrix_powers, stratify
from test_scheme import MULTI_RUN

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("build, size", [
    (sr.build_cycle, 6.0), (sr.build_cycle, True), (sr.build_hypercube, 3.0),
    (sr.build_hypercube, True), (sr.build_square_lattice, 4.0),
    (sr.build_hexagonal_lattice, 5.0), (sr.build_triangular, 5.0)])
def test_sizes_must_be_integers(build, size):
    # a whole float was truncated to another scheme, or ended in a TypeError
    with pytest.raises(BadParameter, match=rf"not {size!r}\b"):
        build(size)


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
            sr.build_hypercube(21)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_two_generators_match_packed_route(self, n):
        # the flip of bit 0 and the rotation of the bits generate a transitive
        # group of automorphisms of the derived class map
        scheme = sr.build_hypercube(n)
        xs = np.arange(2 ** n)
        flip, rotation = xs ^ 1, (xs << 1 | xs >> (n - 1)) & (2 ** n - 1)
        assert_transitive_automorphisms(scheme.classmap, [flip, rotation])
        packed = build_packed(sr.build_hypercube, n)
        assert packed.classmap.tobytes() == scheme.classmap.tobytes()
        assert packed.p.tobytes() == scheme.p.tobytes()
        # r^t f r^-t flips bit t; ``power`` is r^t
        power = xs
        for bit in range(n):
            assert np.array_equal(power[flip[np.argsort(power)]], xs ^ (1 << bit))
            power = rotation[power]

    def test_hypercube16_runs_every_engine(self):
        # N = 65536: the class map alone would take 8 GiB
        tracemalloc.start()
        try:
            scheme = sr.build_hypercube(16)
            report = cli.run_resist(scheme, sr.unit_class_one(scheme),
                                    ["oracle", "spectral", "polynomial", "closed"],
                                    cli.DEFAULT_AGREEMENT_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "classmap" not in vars(scheme)
        assert report.all_passed
        oracle, spectral, polynomial, closed = report.tables
        assert polynomial.values == closed.values
        assert {c["name"]: c["residual"] for c in report.checks
                if c["name"] in ("foster[polynomial]", "foster[closed_form]")} == \
            {"foster[polynomial]": 0.0, "foster[closed_form]": 0.0}
        assert polynomial.values[0] == Fraction(65535, 524288)  # (N - 1) / (N n / 2)
        assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("n", range(1, 7))
    def test_generators_are_every_coordinate_permutation(self, n):
        # the transposition (0 1) and the n-cycle generate all n! permutation matrices
        gens = sr.build_hypercube(n).realisation.generators
        rows = np.eye(n, dtype=np.int64)
        assert matrix_group(gens) == {tuple(map(tuple, rows[list(perm)].tolist()))
                                      for perm in itertools.permutations(range(n))}


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

    def test_triangular200_runs_oracle_spectral_closed(self):
        # N = 19900: the class map alone would take 755 MiB as int16
        tracemalloc.start()
        try:
            scheme = sr.build_triangular(200)
            report = cli.run_resist(scheme, sr.unit_class_one(scheme),
                                    ["oracle", "spectral", "closed"], cli.DEFAULT_AGREEMENT_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(scheme.realisation, sr.Pairs)
        assert "classmap" not in vars(scheme)
        assert report.all_passed
        assert report.tables[2].values == (Fraction(201, 39800), Fraction(101, 19900))
        assert {c["name"]: c["residual"] for c in report.checks}["foster[closed_form]"] == 0.0
        assert peak < 16 * 2 ** 20

    def test_tridiagonal_action(self):
        n = 7
        scheme = sr.build_triangular(n)
        strat = stratify(scheme, 0)
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
    @pytest.mark.parametrize("n", range(4, 17, 2))
    def test_zn_gives_cycle_scheme(self, n):
        # the class-map route on Z_n with classes {0}, {+-1}, ..., {n/2}
        # against the translation route of build_cycle
        classes = [(0,)] + [(i, n - i) for i in range(1, n // 2)] + [(n // 2,)]
        scheme = sr.build_group_scheme(*sr.cyclic_group_table(n, classes))
        cycle = sr.build_cycle(n)
        assert scheme.valencies == cycle.valencies
        assert scheme.p.dtype == cycle.p.dtype and scheme.p.shape == cycle.p.shape
        assert scheme.p.tobytes() == cycle.p.tobytes()
        assert np.array_equal(scheme.classmap, cycle.classmap)

    def test_s4_product_relation(self, s4):
        # A_3 A_4 = 2 A_1 + A_4
        assert s4.p[3, 4].tolist() == [0, 2, 0, 0, 1]

    @pytest.mark.parametrize("partition", ["conjugacy", "stabilizer", "stabilizer-4c"])
    def test_s4_table_matches_composition_loop(self, partition):
        # composed one pair at a time: g*h is x -> g(h(x))
        perms = list(itertools.permutations(range(4)))
        index = {p: i for i, p in enumerate(perms)}
        mult = [[index[tuple(g[h[x]] for x in range(4))] for h in perms] for g in perms]
        table, _ = sr.s4_group_table(partition)
        assert np.array_equal(table, mult)

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
        with pytest.raises(NotAmbivalent, match="^class 1 is not inverse-closed$"):
            sr.build_group_scheme(table_rows, [(0,), (1, 2), (3, 4)])
        with pytest.raises(NotAmbivalent, match="^class 2 is not inverse-closed$"):
            sr.build_group_scheme(table_rows, [(0,), (1, 4), (2,), (3,)])

    def test_non_associative_loop(self):
        # a loop of involutions that is no group: every singleton class is
        # inverse-closed, but the pairs (g h, h) break symmetry
        loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0]]
        with pytest.raises(NotSymmetric, match="^relation 4 is not symmetric$"):
            sr.build_group_scheme(loop, [(g,) for g in range(5)])

    def test_not_latin_square(self):
        with pytest.raises(NotLatinSquare):
            sr.build_group_scheme([[0, 0], [1, 1]], [(0,), (1,)])

    @pytest.mark.parametrize("mult, message", [
        ([[0, 0], [1, 1]], "a row of the table is not a permutation"),
        ([[0, 1, 2], [1, 2]], "a row of the table is not a permutation"),
        ([[0, 1], [0, 1]], "a column of the table is not a permutation"),
        ([], "table has no two-sided identity"),
        ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], "table has no two-sided identity"),
        # a loop with 1 2 = 0 but 2 1 = 4
        ([[0, 1, 2, 3, 4], [1, 2, 0, 4, 3], [2, 4, 3, 0, 1], [3, 0, 4, 1, 2],
          [4, 3, 1, 2, 0]], "element 1 has no inverse"),
    ], ids=["row", "ragged", "column", "empty", "no-identity", "no-inverse"])
    def test_not_latin_square_messages(self, mult, message):
        with pytest.raises(NotLatinSquare, match=f"^{message}$"):
            sr.build_group_scheme(mult, [(0,), tuple(range(1, len(mult)))])

    @pytest.mark.parametrize("classes, message", [
        ([(0,), (1, 2)], "class partition must cover every element once"),
        ([(0,), (1, 2), (2, 3)], "class partition must cover every element once"),
        ([(1,), (0, 2), (3,)], "class 0 must be the singleton {identity}"),
    ], ids=["missing", "overlap", "no-identity-class"])
    def test_class_partition_messages(self, classes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sr.build_group_scheme(*sr.cyclic_group_table(4, classes))

    def test_unknown_s4_partition(self):
        with pytest.raises(ValueError, match="^unknown partition 'center'$"):
            sr.s4_group_table("center")

    def test_abelian_class_sums_commute(self):
        scheme = sr.build_group_scheme(*sr.cyclic_group_table(6, [(0,), (1, 5), (2, 4), (3,)]))
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


#: the classes of the Z_5 x Z_5 scheme, in order: each is inverse-closed,
#: the five partition Z_5 x Z_5, and classes 2 and 4 are the doublings of
#: classes 1 and 3
Z5Z5_CLASSES = (
    ((0, 0),),
    ((1, 0), (0, 1), (1, 1), (4, 0), (0, 4), (4, 4)),
    ((2, 0), (0, 2), (2, 2), (3, 0), (0, 3), (3, 3)),
    ((1, 2), (2, 1), (1, 4), (4, 1), (3, 4), (4, 3)),
    ((1, 3), (3, 1), (2, 3), (3, 2), (2, 4), (4, 2)),
)


def orbit_classes(scheme, m):
    out = []
    for rel in scheme.relations:
        row = np.asarray(rel)[0]
        out.append([(v // m, v % m) for v in np.flatnonzero(row)])
    return out


def matrix_group(gens, modulus=None):
    """The set of products of the integer matrices ``gens`` (mod ``modulus``
    if given), each as a tuple of rows: the group they generate."""
    size = len(gens[0])
    reduce = (lambda a: a % modulus) if modulus else (lambda a: a)
    key = lambda a: tuple(map(tuple, reduce(a).tolist()))
    group = {key(np.eye(size, dtype=np.int64))}
    frontier = list(group)
    while frontier:
        grown = []
        for a in frontier:
            for h in gens:
                b = key(np.array(a) @ np.asarray(h))
                if b not in group:
                    group.add(b)
                    grown.append(b)
        frontier = grown
    return group


class TestLattices:
    def test_square_m3_orbits(self):
        scheme = sr.build_square_lattice(3)
        assert scheme.valencies == (1, 4, 4)

    def test_square_generic_orbit_size(self):
        scheme = sr.build_square_lattice(5)
        sizes = set(scheme.valencies)
        assert 8 in sizes  # generic orbit (k1, k2), 0 != k1 != k2 != 0

    def test_square_names_read_off_row0(self, monkeypatch):
        # one call derives row 0 to certify it and one the representatives
        # to count p; the class names need no further rows
        sizes, rows = [], sr.Translation.rows

        def spy(translation, xs):
            sizes.append(np.size(xs))
            return rows(translation, xs)

        monkeypatch.setattr(sr.Translation, "rows", spy)
        scheme = sr.build_square_lattice(12)
        assert sizes == [1, scheme.d + 1]
        monkeypatch.undo()
        reps = np.unique(scheme.classmap[0], return_index=True)[1]
        assert scheme.class_names == tuple(f"({a},{b})" for a, b in zip(*np.divmod(reps, 12)))
        assert scheme.class_names[:3] == ("(0,0)", "(0,1)", "(0,2)")

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

    @pytest.mark.parametrize("build, group", [
        (sr.build_square_lattice, sr.square_point_group),
        (sr.build_hexagonal_lattice, sr.hexagonal_point_group),
    ], ids=["square", "hexagonal"])
    def test_generators_generate_the_point_group(self, build, group):
        gens = build(5).realisation.generators
        assert len(gens) == 2
        assert matrix_group(gens) == {tuple(map(tuple, g)) for g in group()}

    def test_z5z5_classes_are_the_orbits_of_one_rotation(self, z5z5):
        (rotation,) = z5z5.realisation.generators
        group = matrix_group([rotation], modulus=5)
        assert len(group) == 6
        for k, elems in enumerate(Z5Z5_CLASSES):
            assert {tuple((np.array(h) @ elems[0] % 5).tolist()) for h in group} == set(elems)
            assert orbit_classes(z5z5, 5)[k] == sorted(elems)

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


# --------------------------------------------------------------------------
# the routes that builders take against the packed products
# --------------------------------------------------------------------------

PRESET_BUILDS = {
    "cycle": (sr.build_cycle, 8),
    "hypercube": (sr.build_hypercube, 3),
    "triangular": (sr.build_triangular, 6),
    "s4": (sr.build_s4_scheme, "conjugacy"),
    "s4-refined-a": (sr.build_s4_scheme, "stabilizer"),
    "s4-refined-b": (sr.build_s4_scheme, "stabilizer-4c"),
    "z5z5": (sr.build_orbit_scheme_z5z5,),
    "square": (sr.build_square_lattice, 4),
    "hexagonal": (sr.build_hexagonal_lattice, 7),
    "z6-group": (lambda: sr.build_group_scheme(
        *sr.cyclic_group_table(6, [(0,), (1, 5), (2, 4), (3,)])),),
}
EQUIVALENCE_BUILDS = {**PRESET_BUILDS, **MULTI_RUN,
                      "square24": (sr.build_square_lattice, 24),
                      "hypercube10": (sr.build_hypercube, 10)}


def bench_ladder_networks():
    """(family, size) of every network on the bench's three ladders."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads
    return dict.fromkeys(workloads.RESIST_LADDER + workloads.POLYNOMIAL_LADDER
                         + workloads.CLOSED_LADDER + workloads.QUERY_SCHEMES)


def preset_build(family, size):
    """(build, *args) of the CLI preset ``family`` at ``size``."""
    if size is None:
        return (cli.make_preset_scheme, family)
    key = "m" if family in ("square", "hexagonal") else "n"
    return (functools.partial(cli.make_preset_scheme, family, **{key: size}),)


TRANSLATION_FAMILIES = ("cycle", "hypercube", "square", "hexagonal", "z5z5")
#: every translation network that the tests and the bench ladders build
TRANSLATION_BUILDS = {
    **{name: EQUIVALENCE_BUILDS[name] for name in EQUIVALENCE_BUILDS
       if name.rstrip("0123456789") in TRANSLATION_FAMILIES},
    **{f"{family}{size or ''}": preset_build(family, size)
       for family, size in bench_ladder_networks() if family in TRANSLATION_FAMILIES},
}
PACKED_BUILDS = {**EQUIVALENCE_BUILDS, **TRANSLATION_BUILDS}


class TestAutomorphismRoute:
    """Every builder's scheme against the packed products on its class map.
    The translation and pairs routes rest on a transitive group of
    automorphisms (G x| H, Sym(n)); the group schemes take the class-map
    route themselves."""

    @pytest.mark.parametrize("name", PACKED_BUILDS)
    def test_matches_packed_route(self, name):
        build, *args = PACKED_BUILDS[name]
        scheme, packed = build(*args), build_packed(build, *args)
        assert scheme.classmap.dtype == packed.classmap.dtype
        assert scheme.classmap.tobytes() == packed.classmap.tobytes()
        assert (scheme.valencies, scheme.class_names) == (packed.valencies, packed.class_names)
        assert (scheme.p.dtype, scheme.p.shape) == (packed.p.dtype, packed.p.shape)
        assert scheme.p.tobytes() == packed.p.tobytes()

    def test_translation_builders_form_no_nxn(self, monkeypatch):
        # the orbital-scheme certificate and the counts at the representatives
        # are the whole proof: no N x N check, count or product runs
        def refuse(*args):
            raise AssertionError("a translation builder reached an N x N check")

        for name in ("_classmap_axioms", "_certify_closure"):
            monkeypatch.setattr(scheme_module, name, refuse)
        assert len(TRANSLATION_BUILDS) > 20
        for build, *args in TRANSLATION_BUILDS.values():
            scheme = build(*args)
            assert isinstance(scheme.realisation, sr.Translation)
            assert "classmap" not in vars(scheme)  # not derived on the way

    def test_triangular_builder_forms_no_nxn(self, monkeypatch):
        # the orbitals of Sym(n) and the counts at the representatives are
        # the whole proof: no N x N check, count or product runs
        def refuse(*args):
            raise AssertionError("the triangular builder reached an N x N check")

        for name in ("_classmap_axioms", "_certify_closure"):
            monkeypatch.setattr(scheme_module, name, refuse)
        sizes = {size for family, size in bench_ladder_networks() if family == "triangular"}
        assert len(sizes) >= 6
        for n in sorted(sizes | {4, 6, 30, 200}):
            scheme = cli.make_preset_scheme("triangular", n=n)
            assert isinstance(scheme.realisation, sr.Pairs)
            assert scheme.realisation.points == n
            assert "classmap" not in vars(scheme)  # not derived on the way

    @pytest.mark.parametrize("budget", ["one-class", "three-classes"])
    @pytest.mark.parametrize("name", EQUIVALENCE_BUILDS)
    def test_row_zero_blocks_match_packed_route(self, monkeypatch, name, budget):
        build, *args = EQUIVALENCE_BUILDS[name]
        packed = build_packed(build, *args)
        # one class, or three, counted by one bincount
        limit = 1 if budget == "one-class" else 3 * packed.n
        monkeypatch.setattr(scheme_module, "_ROW_ZERO_BLOCK", limit)
        assert build(*args).p.tobytes() == packed.p.tobytes()

    def test_large_class_counted_in_row_blocks(self):
        # hypercube 10: class 5 has 252 vertices, 2 MiB of intp as rows of
        # 1024 cells; the count reads one row per class, so it stays small
        scheme = sr.build_hypercube(10)
        classmap = scheme.classmap  # derived from row 0 before tracing
        tracemalloc.start()
        try:
            p = scheme_module._representative_intersection_numbers(
                classmap[0], classmap.__getitem__, scheme.valencies)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.tobytes() == scheme.p.tobytes()
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("limit", [1, scheme_module._ROW_ZERO_BLOCK])
    def test_row_zero_blocks_name_the_product(self, monkeypatch, limit):
        # Z_7 with classes {0}, {+-1}, {+-2, +-3}: A_1^2 = 2 A_0 + the +-2 part
        # of class 2, so the rotation fixes a class map that is no scheme
        x = np.arange(7)
        classmap = np.array([0, 1, 2, 2, 2, 2, 1])[(x[:, None] - x) % 7]
        monkeypatch.setattr(scheme_module, "_ROW_ZERO_BLOCK", limit)
        with pytest.raises(NotClosed, match=r"^A_1 A_1 is outside the span"):
            sr.verify_scheme(classmap)
