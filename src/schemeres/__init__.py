"""Resistor networks on association schemes.

Builders for the scheme families shipped with the package, exact and
floating linear algebra, and four mutually cross-checking effective
resistance engines (Laplacian pseudo-inverse, eigenmatrix formula,
spectrum-free polynomial traces, distance-regular closed forms).
"""

from .builders import (
    GroupTable,
    build_cycle,
    build_group_scheme,
    build_hexagonal_lattice,
    build_hypercube,
    build_orbit_scheme_z5z5,
    build_s4_scheme,
    build_square_lattice,
    build_triangular,
    cyclic_group_table,
    hexagonal_point_group,
    krawtchouk,
    orbit_of,
    s4_group_table,
    square_point_group,
)
from .exact import (
    as_rational_matrix,
    identity_rational,
    rational_inverse,
    rational_matmul,
    rational_solve,
)
from .lattice import (
    finite_lattice_resistance_formula,
    infinite_lattice_resistance,
    infinite_line_resistance,
)
from .reference import (
    REFERENCE_TABLES,
    ReferenceStatus,
    compare_reference,
    triangular_reference,
)
from .resistance import (
    ConductanceVector,
    FosterReport,
    PolynomialCoefficients,
    ResistanceTable,
    drg_closed_table,
    foster_sum,
    laplacian,
    oracle_resistance_matrix,
    polynomial_coefficients,
    pseudo_inverse,
    resistance_drg_closed,
    require_unit_class_one,
    resistance_oracle,
    resistance_polynomial,
    resistance_spectral,
    unit_class_one,
)
from .scheme import (
    AssociationScheme,
    IntersectionArray,
    SpectralData,
    Stratification,
    check_distance_regular,
    scheme_from_dict,
    scheme_to_dict,
    spectral_data,
    stratify,
    verify_scheme,
)
from .spectra import EigenDecomposition, eig_sym
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
