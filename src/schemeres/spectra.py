"""Floating symmetric eigendecomposition.

``eig_sym`` certifies its input symmetric and its output by the residual
M V = V diag(w).  ``scheme.spectral_data`` decomposes one generic element of
the intersection algebra with it, and ``CLUSTER_TOL`` is the relative
eigenvalue gap that element must clear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetric

#: relative gap below which two eigenvalues are treated as one cluster
CLUSTER_TOL = 1e-7


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a symmetric matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns, matching order

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T


def eig_sym(m, *, sym_tol: float = 1e-12) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix.

    Raises
    ------
    NotSymmetric
        If max|M - M^T| exceeds ``sym_tol``.
    """
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSymmetric("input is not a square matrix")
    asym = float(np.abs(arr - arr.T).max(initial=0.0))
    if asym > sym_tol:
        raise NotSymmetric(f"max|M - M^T| = {asym:.3e} exceeds {sym_tol:.1e}")
    w, v = np.linalg.eigh(arr)
    scale = max(1.0, float(np.abs(arr).max(initial=0.0)))
    residual = float(np.abs(arr @ v - v * w).max(initial=0.0))
    if residual > 1e-9 * scale:
        raise ArithmeticError(f"eigh residual {residual:.3e} out of bound")
    return EigenDecomposition(w, v)
