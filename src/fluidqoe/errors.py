"""Exception and warning types shared across the package.

Two error families matter to callers: `ValidationError` covers bad inputs
(rejected before any numerics run) and `NumericError` covers failures of the
numerical machinery itself.  The CLI maps them to exit codes 1 and 2.
"""


class FluidQoeError(Exception):
    """Base class for all package errors."""


class ValidationError(FluidQoeError):
    """Input violates a documented precondition or invariant."""


class NumericError(FluidQoeError):
    """A numerical procedure failed or refused to produce a result."""


# --- model validation -------------------------------------------------------

class DimensionMismatch(ValidationError):
    pass


class RowSumViolation(ValidationError):
    pass


class NegativeOffDiagonal(ValidationError):
    pass


class NonPositivePlayoutRate(ValidationError):
    pass


class Reducible(ValidationError):
    pass


class DomainError(ValidationError):
    """Argument outside the mathematical domain of an operation (e.g. t <= 0)."""


class ConfigError(ValidationError):
    """Malformed configuration file (unknown key, wrong type, missing field)."""


class InfeasiblePlayout(ValidationError):
    """No state can ever deliver content (all arrival rates zero)."""


class Unstable(ValidationError):
    """Operation requires strictly negative mean drift."""


# --- numerics ---------------------------------------------------------------

class SingularSystem(NumericError):
    pass


class NonConvergence(NumericError):
    pass


class OverflowRisk(NumericError):
    """Inversion parameters would destroy all significance in double precision."""


class OutOfRange(NumericError):
    """Inverted probability fell far outside [0, 1]; transform or parameters are wrong."""


# --- warnings ---------------------------------------------------------------

class FluidQoeWarning(UserWarning):
    pass


class NegativeDensityWarning(FluidQoeWarning):
    """Inverted density dipped below -1e-6 before clamping."""
