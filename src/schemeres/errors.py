"""Exception taxonomy.

Every failure mode raised by the library names the violated contract, so
callers (and the CLI) can report precisely which precondition broke.
"""


class SchemeresError(Exception):
    """Base class for all library errors."""


# exact / floating linear algebra ------------------------------------------

class SingularSystem(SchemeresError):
    """Exact solve attempted on a rank-deficient system; ``rank`` is the
    exact rank of its coefficient matrix."""

    def __init__(self, rank: int, n: int):
        super().__init__(f"system is singular (rank {rank} of {n})")
        self.rank = rank


class NotSymmetric(SchemeresError):
    """A class map, given or derived from generators, is not symmetric."""


class DegenerateSplit(SchemeresError):
    """Common eigenspaces could not be separated at tolerance."""


# scheme verification -------------------------------------------------------

class NotPartition(SchemeresError):
    """A class map is not a square integer array of labels 0..d, each used,
    on more than d vertices; or a document declares another n or d."""


class IdentityMissing(SchemeresError):
    """Relation 0 is not the identity matrix."""


class NotClosed(SchemeresError):
    """Some product A_i A_j leaves the span of the relations."""


# builders -------------------------------------------------------------------

class OddOrder(SchemeresError):
    """Cycle builder requires an even number of vertices."""


class TooLarge(SchemeresError):
    """Requested size exceeds the supported dense scale."""


class TooSmall(SchemeresError):
    """Parameter below the smallest size with the advertised structure."""


class NotAmbivalent(SchemeresError):
    """A group class is not closed under inversion."""


class NotLatinSquare(SchemeresError):
    """Multiplication table rows/columns are not permutations."""


# resistance engines ---------------------------------------------------------

class Disconnected(SchemeresError):
    """Conductance support does not connect the network."""


class ZeroDenominator(SchemeresError):
    """An eigenspace denominator vanished in the spectral formula."""


class FewerEigenvalues(SchemeresError):
    """Connecting matrix has fewer distinct eigenvalues than classes."""


class OutOfRange(SchemeresError):
    """A closed-form stratum m lies outside 1..d (d the diameter)."""


class QuadratureNotConverged(SchemeresError):
    """Grid refinement stalled before reaching the requested tolerance."""


class CertificationFailed(SchemeresError, AssertionError):
    """A computed result failed the check that certifies it.

    It stays an ``AssertionError`` for callers that caught the bare asserts
    these checks used to be; unlike them, it is not stripped by ``python -O``.
    """


# command line ----------------------------------------------------------------

class UnknownBuilder(SchemeresError):
    """Builder name not recognized."""


class BadParameter(SchemeresError):
    """Builder or engine parameter violates its precondition."""


class MethodPreconditionViolated(SchemeresError):
    """Requested method is not applicable to the given inputs."""
