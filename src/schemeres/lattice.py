"""Infinite- and finite-lattice resistance by quadrature and cosine sums.

The infinite-lattice integrands have a removable singularity at the origin
of the Brillouin zone: the numerator (kappa_l minus the class eigenvalue)
vanishes to the same order as the denominator.  The 1-D line integrand is
regularized analytically through the identity
(1 - cos(l x)) / (1 - cos x) = U_{l-1}(cos(x/2))^2 with U the second-kind
Chebyshev polynomial; the 2-D integrals use midpoint grids, which never
sample the singular point, refined until the Richardson error estimate is
below tolerance.
"""

from __future__ import annotations

import numpy as np

from .builders import hexagonal_point_group, orbit_of, square_point_group
from .errors import QuadratureNotConverged
from .scheme import _is_integer

_POINT_GROUPS = {
    "square": square_point_group,
    "hexagonal": hexagonal_point_group,
}


#: the first panel count of the line quadrature and the first grid of the
#: lattice quadrature; a smaller limit would stop before any estimate
_FIRST_PANELS = 16
_FIRST_GRID = 128


def _cheb_u(n: int, x: np.ndarray) -> np.ndarray:
    """Chebyshev U_n(x) by the three-term recurrence (vectorized)."""
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = 2.0 * x
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def infinite_line_resistance(l: int, tol: float = 1e-10,
                             max_panels: int = 1 << 20,
                             with_error: bool = False):
    """Two-point resistance at separation l on the infinite line.

    Evaluates (1/2pi) * integral of (1 - cos(l x)) / (1 - cos x) over one
    period with composite-Simpson panel doubling and Richardson stopping.
    With ``with_error`` returns (value, error_estimate).  ``l`` must be a
    nonnegative integer, not a bool or float, and ``max_panels`` at least
    16, the first count evaluated (``ValueError``).
    """
    if not _is_integer(l) or l < 0:
        raise ValueError(f"separation must be a nonnegative integer, not {l!r}")
    if max_panels < _FIRST_PANELS:
        raise ValueError(f"max_panels must be at least {_FIRST_PANELS}, not {max_panels!r}")
    if l == 0:
        return (0.0, 0.0) if with_error else 0.0

    def integrand(x):
        return _cheb_u(l - 1, np.cos(0.5 * x)) ** 2

    panels = _FIRST_PANELS
    previous = None
    while panels <= max_panels:
        x = np.linspace(0.0, 2.0 * np.pi, 2 * panels + 1)
        y = integrand(x)
        h = x[1] - x[0]
        estimate = h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                              + 2.0 * y[2:-2:2].sum())
        if previous is not None:
            err = abs(estimate - previous) / 15.0
            if err < tol:
                value = (estimate + (estimate - previous) / 15.0) / (2.0 * np.pi)
                return (value, err / (2.0 * np.pi)) if with_error else value
        previous = estimate
        panels *= 2
    raise QuadratureNotConverged(f"line quadrature stalled at {panels // 2} panels")


def _orbit_eigenvalue(orbit, t, y=None):
    """sum over (a, b) in the orbit of cos(a x + b y), x over the grid t and
    y over the grid ``y`` (t when omitted).

    cos(ax + by) = cos ax cos by - sin ax sin by makes the sum one product
    of a |t| x 2|orbit| matrix and its 2|orbit| x |y| partner.
    """
    a, b = np.array(orbit, dtype=float).T
    ax, by = np.outer(t, a), np.outer(t if y is None else y, b)
    return np.hstack([np.cos(ax), -np.sin(ax)]) @ np.hstack([np.cos(by), np.sin(by)]).T


def infinite_lattice_resistance(kind: str, l1: int, l2: int,
                                tol: float = 1e-5,
                                max_grid: int = 4096,
                                with_error: bool = False):
    """Two-point resistance on the infinite square or hexagonal lattice.

    Computes (2 / ((2 pi)^2 kappa_l)) * integral over the torus of
    (kappa_l - lambda_l(x)) / (kappa_1 - lambda_1(x)), where lambda_l is the
    cosine sum over the point-group orbit of (l1, l2) and class 1 is the
    nearest-neighbor orbit.  Both orbits are closed under v -> -v, so the
    integrand is even and the midpoint rule sums only the rows x < pi.
    With ``with_error`` returns (value, error_estimate).

    Raises
    ------
    ValueError
        If ``kind`` is unknown, l1 and l2 are not integers or are both 0, or
        ``max_grid`` is below 128, the first grid evaluated.
    QuadratureNotConverged
        If successive grid doublings fail to settle below ``tol``.
    """
    if kind not in _POINT_GROUPS:
        raise ValueError(f"unknown lattice kind {kind!r}")
    if not (_is_integer(l1) and _is_integer(l2)):
        raise ValueError(f"separation must be integers, not ({l1!r}, {l2!r})")
    if (l1, l2) == (0, 0):
        raise ValueError("separation (0, 0) has zero resistance by definition")
    if max_grid < _FIRST_GRID:
        raise ValueError(f"max_grid must be at least {_FIRST_GRID}, not {max_grid!r}")
    mats = _POINT_GROUPS[kind]()
    orbit_l = orbit_of((l1, l2), mats)
    orbit_1 = orbit_of((1, 0), mats)
    kappa_l = len(orbit_l)
    kappa_1 = len(orbit_1)

    grid = _FIRST_GRID
    previous = None
    while grid <= max_grid:
        t = 2.0 * np.pi * (np.arange(grid) + 0.5) / grid
        half = t[:grid // 2]  # (x, y) -> (2pi - x, 2pi - y) maps the rest here
        num = kappa_l - _orbit_eigenvalue(orbit_l, half, t)
        den = kappa_1 - _orbit_eigenvalue(orbit_1, half, t)
        estimate = 2.0 / kappa_l * float((num / den).mean())
        if previous is not None:
            err = abs(estimate - previous)
            if err < tol / 4.0:
                return (estimate, err) if with_error else estimate
        previous = estimate
        grid *= 2
    raise QuadratureNotConverged(
        f"{kind} quadrature stalled at grid {grid // 2} (last {previous!r})")


def finite_lattice_resistance_formula(m: int, l1: int, l2: int,
                                      kind: str = "square") -> float:
    """Direct cosine-sum resistance on the finite m x m periodic lattice.

    Sums (kappa_l - lambda_l(chi)) / (kappa_1 - lambda_1(chi)) over all
    nonzero characters chi of Z_m x Z_m; independent of the generic
    eigendecomposition machinery, for cross-validation.  m, l1 and l2 must
    be integers, not bools or floats, and m >= 3 (``ValueError``).
    """
    if not (_is_integer(m) and _is_integer(l1) and _is_integer(l2)) or m < 3:
        raise ValueError(f"finite lattice needs integers l1, l2 and period m >= 3, "
                         f"not {l1!r}, {l2!r} and {m!r}")
    if kind not in _POINT_GROUPS:
        raise ValueError(f"unknown lattice kind {kind!r}")
    if (l1 % m, l2 % m) == (0, 0):
        return 0.0
    mats = _POINT_GROUPS[kind]()
    orbit_l = orbit_of((l1, l2), mats, modulus=m)
    orbit_1 = orbit_of((1, 0), mats, modulus=m)
    kappa_l = len(orbit_l)
    kappa_1 = len(orbit_1)

    k = 2.0 * np.pi * np.arange(m) / m
    num = kappa_l - _orbit_eigenvalue(orbit_l, k)
    den = kappa_1 - _orbit_eigenvalue(orbit_1, k)
    den[0, 0] = 1.0  # excluded below
    ratio = num / den
    ratio[0, 0] = 0.0
    return 2.0 / (m * m * kappa_l) * float(ratio.sum())
