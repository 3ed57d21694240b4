"""Exception hierarchy shared by all modules.

A failure that measured something carries the measured quantities as
attributes (``min_eig``, ``max_eig``, ``residual``, ``relative``,
``label``, ``sigma_min``), passed as keyword arguments to the constructor.
Each class but :class:`InternalInvariantViolation` sits in one of three
categories, which carry the CLI's exit code and stderr prefix.
"""


class OpKernError(Exception):
    """Base class for everything raised deliberately by this package.

    Each keyword argument is a measured quantity behind the failure and is
    stored as an attribute of the same name.
    """

    exit_code, prefix = 1, ""

    def __init__(self, message, **measured):
        super().__init__(message)
        self.__dict__.update(measured)


class InputError(OpKernError):
    """The input is malformed or out of the supported range."""
    exit_code, prefix = 2, "input error: "


class HypothesisFailure(OpKernError):
    """The input violates a hypothesis of the requested construction."""
    exit_code, prefix = 3, "hypothesis failure: "


class ToleranceFailure(OpKernError):
    """A computed quantity misses its tolerance."""
    exit_code, prefix = 1, "tolerance failure: "


class InvalidKernel(InputError):
    """Malformed kernel data: non-finite entries, bad shapes as data,
    or block asymmetry beyond the repairable tolerance."""


class ShapeError(InputError):
    """Operands disagree on label set or operator dimension."""


class LabelError(InputError):
    """A label is not a member of the table's label set."""


class NotStrictContraction(HypothesisFailure):
    """The contraction parameter has operator norm >= 1."""


class NotPositiveDefinite(HypothesisFailure):
    """A kernel required to be positive semidefinite is not; ``min_eig`` is
    the smallest eigenvalue of the flattened matrix."""


class NotEquivalent(ToleranceFailure):
    """The two signed decompositions do not agree; ``residual`` is the worst
    absolute violation of the defining identity and ``relative`` the same
    violation divided by the system scale."""


class GramMismatch(ToleranceFailure):
    """Stacked initial/final columns have different Gram matrices,
    so no partial isometry can map one family onto the other; ``relative``
    is the Gram defect, relative to the larger of the two Gram norms."""


class NotInvertible(HypothesisFailure):
    """The rank condition behind the transfer function fails at ``label``,
    where ``M(s)`` has smallest singular value ``sigma_min``."""


class NotDominated(HypothesisFailure):
    """Radon-Nikodym derivative requested for a pair without L <= K."""


class SpectrumOutOfRange(ToleranceFailure):
    """A derivative operator has eigenvalues outside [0, 1] beyond tolerance;
    ``min_eig`` and ``max_eig`` are the extremes of its raw spectrum."""


class SingularL(HypothesisFailure):
    """The noise/conditioning Gram matrix is numerically singular."""


class SingularSystem(HypothesisFailure):
    """A linear system required to be invertible is numerically singular."""


class InternalInvariantViolation(OpKernError):
    """A property that is guaranteed by construction failed numerically;
    indicates a bug or catastrophic conditioning, not a user error."""
