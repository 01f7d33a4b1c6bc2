from fractions import Fraction

import numpy as np
import pytest

import schemeres as sr
from schemeres.errors import NotSymmetric

from conftest import rational_matmul
from nxn_witnesses import NotCommuting, eig_sym, simultaneous_eigenbasis


def char_poly_coefficients(a):
    """Faddeev-LeVerrier characteristic polynomial, exact Fractions.

    Returns [c_n, ..., c_0] with det(xI - A) = sum c_k x^k, c_n = 1.
    """
    n = len(a)
    mat = [[Fraction(x) for x in row] for row in a]
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I
        if k > 1:
            m = rational_matmul(mat, m)
        for i in range(n):
            m[i][i] += coeffs[-1]
        am = rational_matmul(mat, m)
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(c)
    return coeffs


class TestEigSym:
    def test_diagonal(self):
        got = eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(got.eigenvalues, [1, 2, 3])

    def test_k4_laplacian(self):
        lap = 4 * np.eye(4) - np.ones((4, 4))
        # oracle: the characteristic polynomial factors as x (x - 4)^3
        coeffs = char_poly_coefficients(lap.astype(int).tolist())
        assert coeffs == [Fraction(c) for c in (1, -12, 48, -64, 0)]
        got = eig_sym(lap)
        assert np.allclose(got.eigenvalues, [0, 4, 4, 4], atol=1e-10)

    def test_c4_adjacency(self):
        a = np.zeros((4, 4))
        for i in range(4):
            a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = 1
        expected = sorted(2 * np.cos(2 * np.pi * k / 4) for k in range(4))
        got = eig_sym(a)
        assert np.allclose(got.eigenvalues, expected, atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((8, 8))
        m = m + m.T
        got = eig_sym(m)
        scale = np.abs(m).max()
        assert np.abs(got.reconstruct() - m).max() <= 1e-8 * scale
        v = got.eigenvectors
        assert np.abs(v.T @ v - np.eye(8)).max() <= 1e-10


class TestSimultaneousEigenbasis:
    def test_identity_family(self):
        (proj,) = simultaneous_eigenbasis([np.eye(3)])
        assert np.allclose(proj, np.eye(3))

    def test_cycle6_ranks(self):
        scheme = sr.build_cycle(6)
        projectors = simultaneous_eigenbasis(
            [r.astype(float) for r in scheme.relations])
        ranks = sorted(round(np.trace(p)) for p in projectors)
        assert ranks == [1, 1, 2, 2]

    def test_s4_ranks(self, s4):
        projectors = simultaneous_eigenbasis(
            [r.astype(float) for r in s4.relations])
        ranks = sorted(round(np.trace(p)) for p in projectors)
        assert ranks == [1, 1, 4, 9, 9]

    def test_not_commuting(self):
        a = np.array([[1.0, 0.0], [0.0, -1.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotCommuting):
            simultaneous_eigenbasis([a, b])

    def test_projector_algebra(self, z5z5):
        projectors = simultaneous_eigenbasis(
            [r.astype(float) for r in z5z5.relations])
        total = sum(projectors)
        assert np.abs(total - np.eye(z5z5.n)).max() <= 1e-8
        for i, e in enumerate(projectors):
            for j, f in enumerate(projectors):
                target = e if i == j else 0.0
                assert np.abs(e @ f - target).max() <= 1e-8

    def test_members_expand_in_projectors(self, triangular6):
        projectors = simultaneous_eigenbasis(
            [r.astype(float) for r in triangular6.relations])
        for rel in triangular6.relations:
            a = rel.astype(float)
            recon = sum((np.tensordot(a, e) / np.trace(e)) * e
                        for e in projectors)
            assert np.abs(recon - a).max() <= 1e-8
