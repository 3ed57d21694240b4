"""Exception hierarchy shared by all modules.

A failure that measured something carries the measured quantities as
attributes (``min_eig``, ``residual``, ``relative``, ``label``,
``sigma_min``), passed as keyword arguments to the constructor.
"""


class OpKernError(Exception):
    """Base class for everything raised deliberately by this package.

    Each keyword argument is a measured quantity behind the failure and is
    stored as an attribute of the same name.
    """

    def __init__(self, message, **measured):
        super().__init__(message)
        self.__dict__.update(measured)


class InvalidKernel(OpKernError):
    """Malformed kernel data: non-finite entries, bad shapes as data,
    or block asymmetry beyond the repairable tolerance."""


class ShapeError(OpKernError):
    """Operands disagree on label set or operator dimension."""


class LabelError(OpKernError):
    """A label is not a member of the table's label set."""


class NotStrictContraction(OpKernError):
    """The contraction parameter has operator norm >= 1."""


class NotPositiveDefinite(OpKernError):
    """A kernel required to be positive semidefinite is not; ``min_eig`` is
    the smallest eigenvalue of the flattened matrix."""


class NotEquivalent(OpKernError):
    """The two signed decompositions do not agree; ``residual`` is the worst
    absolute violation of the defining identity and ``relative`` the same
    violation divided by the system scale."""


class GramMismatch(OpKernError):
    """Stacked initial/final columns have different Gram matrices,
    so no partial isometry can map one family onto the other."""


class NotInvertible(OpKernError):
    """The rank condition behind the transfer function fails at ``label``,
    where ``M(s)`` has smallest singular value ``sigma_min``."""


class NotDominated(OpKernError):
    """Radon-Nikodym derivative requested for a pair without L <= K."""


class SpectrumOutOfRange(OpKernError):
    """A derivative operator has eigenvalues outside [0, 1] beyond tolerance."""


class SingularL(OpKernError):
    """The noise/conditioning Gram matrix is numerically singular."""


class SingularSystem(OpKernError):
    """A linear system required to be invertible is numerically singular."""


class InternalInvariantViolation(OpKernError):
    """A property that is guaranteed by construction failed numerically;
    indicates a bug or catastrophic conditioning, not a user error."""
