from fractions import Fraction

import numpy as np
import pytest

import schemeres as sr
from schemeres.errors import SingularSystem

from nxn_witnesses import power_traces


def frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


class TestRationalSolve:
    def test_identity_returns_rhs(self):
        rhs = frac_rows([[1, 2], [3, 4], [5, 6]])
        assert sr.rational_solve(sr.identity_rational(3), rhs) == rhs

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

    def test_singular_reports(self):
        with pytest.raises(SingularSystem):
            sr.rational_solve([[1, 2], [2, 4]], [[1], [0]])

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
        assert sr.rational_matmul(a, x) == b

    def test_inverse_round_trip(self):
        a = frac_rows([[2, 1, 0], [0, 1, 3], [1, 0, 1]])
        inv = sr.rational_inverse(a)
        assert sr.rational_matmul(a, inv) == sr.identity_rational(3)


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
