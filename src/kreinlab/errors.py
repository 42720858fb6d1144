"""Exception hierarchy for kreinlab.

Every error raised by the package derives from :class:`KreinLabError` so
callers can distinguish library failures from built-in errors.  Errors carry
a human-readable message; some also carry diagnostic payloads (residuals,
brackets, offending eigenvalues) as attributes.
"""


class KreinLabError(Exception):
    """Base class for all kreinlab errors."""


# ---------------------------------------------------------------- numerics

class SingularMatrix(KreinLabError):
    """A linear solve met a numerically singular matrix."""


class NoConvergence(KreinLabError):
    """The eigenvalue iteration did not converge within its cap."""


class NotHermitian(KreinLabError):
    """A matrix expected to be hermitian is not, beyond tolerance."""


# ------------------------------------------------------------------- krein

class DimensionMismatch(KreinLabError):
    """Operator dimensions do not match the Krein structure."""


class MembershipError(KreinLabError):
    """An operator fails a membership predicate required as a precondition."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


# ---------------------------------------------------------------- spectral

class NoSeparatingContour(KreinLabError):
    """No circle separates the requested cluster from the rest of the spectrum."""


class QuadratureDivergence(KreinLabError):
    """Contour quadrature failed to converge below the point cap."""


class AmbiguousClassification(KreinLabError):
    """An eigenvalue sits in the ambiguity band around a region boundary."""

    def __init__(self, msg, eigenvalue=None):
        super().__init__(msg)
        self.eigenvalue = eigenvalue


class UnmatchedReflection(KreinLabError):
    """A cluster has no partner under the required spectral reflection."""


class CorrectionFailed(KreinLabError):
    """The finite-rank corrector left the operator numerically singular."""


# --------------------------------------------------------------- signature

class DegenerateForm(KreinLabError):
    """The restricted form has an eigenvalue below the degeneracy threshold."""


class OddDimension(KreinLabError):
    """A multiplicity that must be even (Kramers) came out odd."""


# ------------------------------------------------------------------ cayley

class SpectrumTooClose(KreinLabError):
    """A Cayley parameter is too close to the spectrum of the operand."""


class ClusterMatchFailed(KreinLabError):
    """Cluster matching through the scalar Cayley map failed."""


# ----------------------------------------------------------------- realsym

class IncompatibleDimensions(KreinLabError):
    """Krein inertia incompatible with the requested real structure."""


class SymmetryViolated(KreinLabError):
    """A spectral symmetry forced by the real structure does not hold."""

    def __init__(self, msg, eigenvalue=None):
        super().__init__(msg)
        self.eigenvalue = eigenvalue


class InvariantConstraintViolated(KreinLabError):
    """A structural constraint on an invariant (e.g. Sig = 0) failed."""


class NormalizationFailed(KreinLabError):
    """A real Krein structure could not be brought to normal form."""


# ---------------------------------------------------------------- homotopy

class StepUnderflow(KreinLabError):
    """Path refinement bottomed out without resolving eigenvalue motion."""

    def __init__(self, msg, bracket=None):
        super().__init__(msg)
        self.bracket = bracket


class UnresolvedEvent(KreinLabError):
    """Event bisection bottomed out without a clean classification."""

    def __init__(self, msg, bracket=None):
        super().__init__(msg)
        self.bracket = bracket


class UnknownScenario(KreinLabError):
    """Requested scenario is not in the library."""


# -------------------------------------------------------------- retraction

class DegenerateSubspace(KreinLabError):
    """The restriction of the form to a subspace is degenerate."""


class NotInvariant(KreinLabError):
    """A subspace expected to be invariant under the operator is not."""


class FramePreparationFailed(KreinLabError):
    """Frame could not be prepared in the required real/quaternionic class."""


class NotLagrangian(KreinLabError):
    """A subspace expected to be Lagrangian fails isotropy or maximality."""


class NotFredholmPair(KreinLabError):
    """The Lagrangian pair certificate u_-^* u_+ - 1 is not invertible."""


class PathBlocked(KreinLabError):
    """An intermediate certificate failed along a straightening path."""


class NotInClass(KreinLabError):
    """A unitary does not belong to the declared symmetry class."""


class NotGapped(KreinLabError):
    """A unitary has spectrum at the requested branch point."""


class StageError(KreinLabError):
    """A retraction stage failed; carries the stage label and the cause."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


# ---------------------------------------------------------------- fixtures

class UnknownFixture(KreinLabError):
    """Requested fixture does not exist."""


class FixtureMismatch(KreinLabError):
    """Recomputed fixture output differs from the golden file."""

    def __init__(self, msg, diff=None):
        super().__init__(msg)
        self.diff = diff
