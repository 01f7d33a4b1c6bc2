import math
import re

import numpy as np
import pytest

import schemeres as sr
from schemeres import lattice
from schemeres.errors import QuadratureNotConverged

from conftest import spectral_of


class TestInfiniteLine:
    def test_zero_separation(self):
        assert sr.infinite_line_resistance(0) == 0.0

    @pytest.mark.parametrize("l", [1, 2, 5, 7])
    def test_equals_separation(self, l):
        assert abs(sr.infinite_line_resistance(l) - l) < 1e-8

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sr.infinite_line_resistance(-1)

    @pytest.mark.parametrize("l", [True, 1.5, 2.0, "2"])
    def test_rejects_non_integer(self, l):
        # True once read as separation 1
        message = re.escape(f"separation must be a nonnegative integer, not {l!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            sr.infinite_line_resistance(l)


class TestInfiniteLattice:
    def test_square_nearest_neighbor(self):
        assert abs(sr.infinite_lattice_resistance("square", 1, 0) - 0.5) < 1e-8

    def test_square_axis_symmetry(self):
        a = sr.infinite_lattice_resistance("square", 1, 0)
        b = sr.infinite_lattice_resistance("square", 0, 1)
        assert a == b

    def test_square_diagonal(self):
        got = sr.infinite_lattice_resistance("square", 1, 1)
        assert abs(got - 2 / math.pi) < 1e-4
        # large-lattice extrapolation oracle
        finite = sr.finite_lattice_resistance_formula(200, 1, 1)
        assert abs(got - finite) < 1e-3

    def test_hexagonal_nearest_neighbor(self):
        got = sr.infinite_lattice_resistance("hexagonal", 1, 0)
        assert abs(got - 1 / 3) < 1e-8

    def test_hexagonal_next_nearest_vs_finite(self):
        got, err = sr.infinite_lattice_resistance("hexagonal", 1, -1,
                                                  with_error=True)
        assert err < 1e-5
        finite = sr.finite_lattice_resistance_formula(200, 1, -1,
                                                      kind="hexagonal")
        assert abs(got - finite) < 1e-3

    def test_square_farther_class_vs_finite(self):
        got = sr.infinite_lattice_resistance("square", 2, 1)
        finite = sr.finite_lattice_resistance_formula(200, 2, 1)
        assert abs(got - finite) < 1e-3

    def test_zero_separation_rejected(self):
        with pytest.raises(ValueError):
            sr.infinite_lattice_resistance("square", 0, 0)

    @pytest.mark.parametrize("l1, l2", [(1.5, 0), (1, 0.0), (True, 0)])
    def test_non_integer_separation_rejected(self, l1, l2):
        # 1.5 once spun through every grid before QuadratureNotConverged
        message = re.escape(f"separation must be integers, not ({l1!r}, {l2!r})")
        with pytest.raises(ValueError, match=f"^{message}$"):
            sr.infinite_lattice_resistance("square", l1, l2)

    @pytest.mark.parametrize("kind, l1, l2", [
        ("square", 1, 0), ("square", 1, 1), ("square", 2, 0), ("square", 2, 1),
        ("hexagonal", 1, 0), ("hexagonal", 2, 0), ("square", 3, 2),
        ("hexagonal", 1, -1)])
    def test_half_torus_matches_full_grid(self, kind, l1, l2):
        # the former quadrature, over every row of the midpoint grid
        mats = lattice._POINT_GROUPS[kind]()
        orbit_l, orbit_1 = sr.orbit_of((l1, l2), mats), sr.orbit_of((1, 0), mats)
        grid, previous = 128, None
        while True:
            t = 2.0 * np.pi * (np.arange(grid) + 0.5) / grid
            ratio = ((len(orbit_l) - lattice._orbit_eigenvalue(orbit_l, t))
                     / (len(orbit_1) - lattice._orbit_eigenvalue(orbit_1, t)))
            estimate = 2.0 / len(orbit_l) * float(ratio.mean())
            if previous is not None and abs(estimate - previous) < 1e-5 / 4.0:
                break
            previous, grid = estimate, 2 * grid
        got, err = sr.infinite_lattice_resistance(kind, l1, l2, with_error=True)
        assert abs(got - estimate) < 1e-12
        assert abs(err - abs(estimate - previous)) < 1e-12

    def test_not_converged(self):
        with pytest.raises(QuadratureNotConverged):
            sr.infinite_lattice_resistance("square", 3, 2, tol=1e-14,
                                           max_grid=128)


class TestFiniteFormula:
    @pytest.mark.parametrize("m, l1, l2", [
        (3.5, 1, 0), (4.0, 1, 0), (True, 1, 0), (4, 1.0, 0), (4, 1, False), (2, 1, 0)])
    def test_non_integers_rejected(self, m, l1, l2):
        # m = 3.5 once returned 0.612
        message = re.escape(f"integers l1, l2 and period m >= 3, not {l1!r}, {l2!r} and {m!r}")
        with pytest.raises(ValueError, match=f"{message}$"):
            sr.finite_lattice_resistance_formula(m, l1, l2)

    @pytest.mark.parametrize("m", [3, 4, 5, 8])
    def test_square_nearest_neighbor_value(self, m):
        got = sr.finite_lattice_resistance_formula(m, 1, 0)
        assert abs(got - (m * m - 1) / (2 * m * m)) < 1e-12

    def test_m3_matches_oracle_and_spectral(self):
        scheme = sr.build_square_lattice(3)
        unit = [1, 0]
        oracle = sr.resistance_oracle(scheme, unit)
        spectral = sr.resistance_spectral(scheme, sr.spectral_data(scheme), unit)
        formula = sr.finite_lattice_resistance_formula(3, 1, 0)
        assert abs(formula - oracle.value(1)) < 1e-9
        assert abs(formula - spectral.value(1)) < 1e-9

    def test_m4_diagonal_matches_oracle(self, square4):
        unit = [1, 0, 0, 0, 0]
        oracle = sr.resistance_oracle(square4, unit)
        k = square4.class_names.index("(1,1)")
        formula = sr.finite_lattice_resistance_formula(4, 1, 1)
        assert abs(formula - oracle.value(k)) < 1e-9

    def test_every_square_class_matches_spectral(self, square4):
        data = spectral_of(square4)
        unit = [1, 0, 0, 0, 0]
        spectral = sr.resistance_spectral(square4, data, unit)
        for k in range(1, square4.d + 1):
            rep = square4.class_names[k].strip("()").split(",")
            l1, l2 = int(rep[0]), int(rep[1])
            formula = sr.finite_lattice_resistance_formula(4, l1, l2)
            assert abs(formula - spectral.value(k)) < 1e-9

    def test_hexagonal_matches_oracle(self, hexagonal7):
        unit = [1] + [0] * (hexagonal7.d - 1)
        oracle = sr.resistance_oracle(hexagonal7, unit)
        for k in range(1, hexagonal7.d + 1):
            rep = hexagonal7.class_names[k].strip("()").split(",")
            l1, l2 = int(rep[0]), int(rep[1])
            formula = sr.finite_lattice_resistance_formula(
                7, l1, l2, kind="hexagonal")
            assert abs(formula - oracle.value(k)) < 1e-9


def loop_orbit_eigenvalue(orbit, x, y):
    """The former per-element cosine sum on meshgrid arrays."""
    total = np.zeros_like(x)
    for (a, b) in orbit:
        total += np.cos(a * x + b * y)
    return total


class TestSeparableSums:
    @pytest.mark.parametrize("kind", ["square", "hexagonal"])
    @pytest.mark.parametrize("rep", [(1, 0), (1, 1), (2, 1), (3, 2), (5, -3)])
    def test_matches_loop_on_quadrature_grid(self, kind, rep):
        orbit = sr.orbit_of(rep, lattice._POINT_GROUPS[kind]())
        t = 2.0 * np.pi * (np.arange(128) + 0.5) / 128
        x, y = np.meshgrid(t, t, indexing="ij")
        got = lattice._orbit_eigenvalue(orbit, t)
        assert np.abs(got - loop_orbit_eigenvalue(orbit, x, y)).max() < 1e-12

    @pytest.mark.parametrize("kind", ["square", "hexagonal"])
    @pytest.mark.parametrize("rep", [(1, 0), (2, 1), (5, -3)])
    def test_separate_y_grid(self, kind, rep):
        orbit = sr.orbit_of(rep, lattice._POINT_GROUPS[kind]())
        t = 2.0 * np.pi * (np.arange(64) + 0.5) / 64
        x, y = np.meshgrid(t[:32], t, indexing="ij")
        got = lattice._orbit_eigenvalue(orbit, t[:32], t)
        assert got.shape == (32, 64)
        assert np.abs(got - loop_orbit_eigenvalue(orbit, x, y)).max() < 1e-12

    @pytest.mark.parametrize("kind", ["square", "hexagonal"])
    @pytest.mark.parametrize("m, rep", [(5, (1, 0)), (7, (2, 1)), (12, (3, 5))])
    def test_matches_loop_on_finite_grid(self, kind, m, rep):
        orbit = sr.orbit_of(rep, lattice._POINT_GROUPS[kind](), modulus=m)
        k = 2.0 * np.pi * np.arange(m) / m
        x, y = np.meshgrid(k, k, indexing="ij")
        got = lattice._orbit_eigenvalue(orbit, k)
        assert np.abs(got - loop_orbit_eigenvalue(orbit, x, y)).max() < 1e-12
