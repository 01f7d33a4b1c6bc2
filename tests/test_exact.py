from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import schemeres as sr
from schemeres import exact
from schemeres.errors import FewerEigenvalues, SingularSystem

from conftest import rational_matmul
from nxn_witnesses import power_traces


def frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    """Product that keeps ints as ints (``rational_matmul`` makes Fractions)."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def sympy_solution(a, b):
    import sympy
    x = sympy.Matrix(a).LUsolve(sympy.Matrix(b))
    return [[Fraction(int(x[i, j].p), int(x[i, j].q)) for j in range(x.cols)]
            for i in range(x.rows)]


class TestRationalSolve:
    def test_identity_returns_rhs(self):
        rhs = frac_rows([[1, 2], [3, 4], [5, 6]])
        assert sr.rational_solve(identity(3), rhs) == rhs

    def test_two_by_two(self):
        # 2x + y = 5, x - y = 1
        x = sr.rational_solve([[2, 1], [1, -1]], [[5], [1]])
        assert x == [[Fraction(2)], [Fraction(1)]]

    def test_quartic_power_system(self):
        # Express the 4-cycle class sum of the 5-class S4 scheme through the
        # centered powers (A^2 - 6 A0), (A^3 - 20 A), (A^4 - 120 A0), whose
        # coordinates in the classes (A2, A3, A4) are the columns below.
        m = [[3, 0, 108], [2, 0, 104], [0, 16, 0]]
        x = sr.rational_solve(m, [[0], [0], [1]])
        assert x == [[Fraction(0)], [Fraction(1, 16)], [Fraction(0)]]

    @pytest.mark.parametrize("a, b, message", [
        ([[1, 0], [0]], [[1], [1]], "^coefficient matrix must be square$"),
        ([[1, 0], [0, 1]], [[1]], "^right-hand side has incompatible row count$"),
    ], ids=["ragged", "short-rhs"])
    def test_shape_errors(self, a, b, message):
        with pytest.raises(ValueError, match=message):
            sr.rational_solve(a, b)

    def test_singular_reports(self):
        with pytest.raises(SingularSystem, match="rank 1 of 2") as info:
            sr.rational_solve([[1, 2], [2, 4]], [[1], [0]])
        assert info.value.rank == 1

    def test_rank_counts_past_zero_columns(self):
        # column 0 has no pivot; elimination must go on to columns 1 and 2
        with pytest.raises(SingularSystem, match="rank 2 of 3") as info:
            sr.rational_solve([[0, 1, 0], [0, 0, 1], [0, 1, 1]], [[1], [1], [1]])
        assert info.value.rank == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        a = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
              for _ in range(n)] for _ in range(n)]
        b = [[Fraction(int(rng.integers(-9, 10))) for _ in range(2)]
             for _ in range(n)]
        try:
            x = sr.rational_solve(a, b)
        except SingularSystem:
            pytest.skip("random matrix happened to be singular")
        assert rational_matmul(a, x) == b

    def test_inverse_round_trip(self):
        a = frac_rows([[2, 1, 0], [0, 1, 3], [1, 0, 1]])
        inv = sr.rational_solve(a, identity(3))
        assert rational_matmul(a, inv) == identity(3)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_sympy(self, data):
        import sympy
        n = data.draw(st.integers(1, 6), label="n")
        inner = data.draw(st.integers(1, 6), label="inner")
        cols = data.draw(st.integers(1, 3), label="cols")
        entries = data.draw(st.sampled_from([
            st.integers(-10**12, 10**12),
            st.fractions(-10**4, 10**4, max_denominator=10**4)]), label="kind")
        left = data.draw(st.lists(st.lists(entries, min_size=inner, max_size=inner),
                                  min_size=n, max_size=n), label="left")
        right = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                   min_size=inner, max_size=inner), label="right")
        b = data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                               min_size=n, max_size=n), label="b")
        a = matmul(left, right)  # rank at most inner
        rank = sympy.Matrix(a).rank()
        if rank == n:
            x = sr.rational_solve(a, b)
            assert all(type(v) is Fraction for row in x for v in row)
            assert x == sympy_solution(a, b)
        else:
            with pytest.raises(SingularSystem) as info:
                sr.rational_solve(a, b)
            assert info.value.rank == rank


def bareiss(a, b):
    """The elimination route, whatever the shape of A."""
    return exact._bareiss(exact._scaled_rows(a, b), len(a))


@pytest.fixture
def routes(monkeypatch):
    """The names of the routes ``rational_solve`` takes, in call order."""
    taken = []
    for name in ("_forward_substitute", "_bareiss"):
        def spy(*args, name=name, real=getattr(exact, name)):
            taken.append(name)
            return real(*args)
        monkeypatch.setattr(exact, name, spy)
    return taken


def lower_triangular(data, entries, diagonal):
    n = data.draw(st.integers(1, 8), label="n")
    cols = data.draw(st.integers(1, 3), label="cols")
    a = [[data.draw(diagonal if j == i else entries) if j <= i else 0 for j in range(n)]
         for i in range(n)]
    b = data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                           min_size=n, max_size=n), label="b")
    return a, b


#: integer or Fraction entries, so rows need scaling
ENTRIES = st.sampled_from([st.integers(-10**6, 10**6),
                           st.fractions(-10**3, 10**3, max_denominator=10**3)])


class TestForwardSubstitution:
    """A lower-triangular A with a nonzero diagonal is solved by forward
    substitution; the Fractions are those of Bareiss elimination."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_bareiss_and_sympy(self, data):
        entries = data.draw(ENTRIES, label="kind")
        a, b = lower_triangular(data, entries, entries.filter(bool))
        forward = exact._forward_substitute(exact._scaled_rows(a, b), len(a))
        assert all(type(v) is Fraction for row in forward for v in row)
        assert forward == bareiss(a, b) == sympy_solution(a, b)
        assert sr.rational_solve(a, b) == forward

    def test_takes_forward_route(self, routes):
        # pivots -2 and 12 (row 2 scaled by 2) do not divide their right sides
        x = sr.rational_solve([[-2, 0, 0], [1, 3, 0], [Fraction(1, 2), -1, 6]],
                              [[1], [1], [1]])
        assert x == [[Fraction(-1, 2)], [Fraction(1, 2)], [Fraction(7, 24)]]
        assert routes == ["_forward_substitute"]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_zero_pivot_falls_through_to_bareiss(self, data):
        import sympy
        entries = data.draw(ENTRIES, label="kind")
        a, b = lower_triangular(data, entries, entries)
        i = data.draw(st.integers(0, len(a) - 1), label="pivot")
        a[i][i] = 0
        rank = sympy.Matrix(a).rank()
        with pytest.raises(SingularSystem) as info:
            sr.rational_solve(a, b)
        assert info.value.rank == rank
        with pytest.raises(SingularSystem) as info:
            bareiss(a, b)
        assert info.value.rank == rank

    def test_zero_pivot_rank(self, routes):
        # columns 0 and 2 are independent; column 1 is zero
        with pytest.raises(SingularSystem, match="rank 2 of 3") as info:
            sr.rational_solve([[1, 0, 0], [2, 0, 0], [0, 5, 7]], [[1], [1], [1]])
        assert info.value.rank == 2
        assert routes == ["_bareiss"]


#: the polynomial networks of the exact-drg benchmark, and hypercube 12
DRG_LADDER = ([("cycle", n) for n in (16, 32, 48, 64)]
              + [("hypercube", n) for n in (3, 4, 5, 6, 7, 8, 12)]
              + [("triangular", n) for n in (5, 8, 12, 16, 20, 24)])


class TestPowerBasisRoute:
    """W is lower triangular in the distance order of a distance-regular
    scheme, where P_i has degree i; on other schemes it need not be."""

    @pytest.mark.parametrize("family, size", DRG_LADDER,
                             ids=[f"{f}{n}" for f, n in DRG_LADDER])
    def test_distance_regular_ladder_substitutes(self, routes, family, size):
        scheme = getattr(sr, f"build_{family}")(size)
        rows = sr.resistance._power_rows(scheme)
        assert all(row[i] and not any(row[i + 1:]) for i, row in enumerate(rows))
        table = sr.resistance_polynomial(scheme)
        assert routes == ["_forward_substitute"]
        array = sr.check_distance_regular(scheme)
        assert table.values == sr.drg_closed_table(array, scheme.n).values

    @pytest.mark.parametrize("build", [lambda: sr.build_square_lattice(6),
                                       lambda: sr.build_hexagonal_lattice(9)],
                             ids=["square6", "hexagonal9"])
    def test_other_lattices_eliminate(self, routes, build):
        scheme = build()
        rows = sr.resistance._power_rows(scheme)
        assert any(any(row[i + 1:]) for i, row in enumerate(rows))
        try:
            sr.resistance_polynomial(scheme)
        except FewerEigenvalues:
            pass  # square 6: A_1 has 9 distinct eigenvalues, d + 1 = 10
        assert routes == ["_bareiss"]

    def test_refined_b_still_fewer_eigenvalues(self, routes, s4_refined_b):
        # criterion c11: A_1 does not generate the algebra of s4-refined-b
        message = "^A_1 generates a rank-5 subalgebra of dimension 7$"
        with pytest.raises(FewerEigenvalues, match=message):
            sr.resistance_polynomial(s4_refined_b)
        assert routes == ["_bareiss"]


def traces_by_repeated_multiplication(a, max_power):
    """Independent oracle: plain Fraction matrix products, no shortcuts."""
    n = len(a)
    cur = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    out = [sum(cur[i][i] for i in range(n))]
    for _ in range(max_power):
        cur = [[sum(cur[i][k] * Fraction(a[k][j]) for k in range(n))
                for j in range(n)] for i in range(n)]
        out.append(sum(cur[i][i] for i in range(n)))
    return out


class TestPowerTraces:
    def test_complete_graph_three(self):
        a = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        expected = traces_by_repeated_multiplication(a, 3)
        assert expected == [3, 0, 6, 6]
        assert power_traces(np.array(a), 3) == [3, 0, 6, 6]

    def test_zero_diagonal_first_trace(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 2, size=(5, 5))
        a = (a | a.T) * (1 - np.eye(5, dtype=np.int64))
        assert power_traces(a, 1)[1] == 0

    def test_s4_transposition_cayley(self, s4):
        a = np.asarray(s4.relations[1], dtype=np.int64)
        traces = power_traces(a, 2)
        assert traces[:3] == [24, 0, 144]  # tr(A^2) = N * kappa

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_independent_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 6))
        a = rng.integers(0, 2, size=(n, n))
        a = (a | a.T).astype(np.int64)
        assert power_traces(a, 5) == traces_by_repeated_multiplication(
            a.tolist(), 5)

    def test_fraction_input(self):
        a = frac_rows([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])
        got = power_traces(a, 2)
        assert got == traces_by_repeated_multiplication(a, 2)

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            power_traces(np.eye(2), 2)

    def test_large_powers_stay_exact(self):
        # growth forces the object-dtype fallback; values checked vs oracle
        a = np.full((3, 3), 9, dtype=np.int64) * 10**5
        got = power_traces(a, 5)
        assert got == traces_by_repeated_multiplication(a.tolist(), 5)
