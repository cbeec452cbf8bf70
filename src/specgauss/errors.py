"""Exception and warning types shared across the package."""


class SpecgaussError(Exception):
    """Base class for all package-specific errors."""


class BadParameter(SpecgaussError, ValueError):
    """A caller-supplied parameter is outside its documented range."""


class NonFiniteEvaluation(SpecgaussError):
    """A user-supplied function returned NaN or infinity on the probe grid."""


class NumericalFailure(SpecgaussError):
    """Base class for runtime numerical failures (CLI exit code 3)."""


class QuadratureNonConvergence(NumericalFailure):
    """Panel quadrature error estimate stalled above the requested tolerance."""


class SingularityTooStrong(BadParameter):
    """The endpoint singularity exponent makes the integral divergent."""


class NegativeRadicand(NumericalFailure):
    """A series amplitude radicand was negative beyond rounding tolerance."""


class BranchMismatch(BadParameter):
    """Supplied coefficients belong to the other parameter branch."""


class DeltaOutOfRange(BadParameter):
    """Operation requires a singularity exponent below 1."""


class StarViolated(BadParameter):
    """Monotonicity/concavity check failed for the supplied generating function."""


class NegativeC0(BadParameter):
    """The stationary construction requires a nonnegative mean coefficient."""


class InsufficientData(SpecgaussError):
    """Too few usable points for a fit."""


class TailEstimateUnavailable(NumericalFailure):
    """Coefficient tail could not be extrapolated from the available entries."""


class TooFewPaths(BadParameter):
    """Statistical estimator needs more sample paths."""


class GramSingularWarning(UserWarning):
    """Gram matrix had directions below the trimming tolerance; dimension reduced."""


class ClampWarning(UserWarning):
    """Tiny negative radicands were clamped to zero."""


class NonConvergenceWarning(UserWarning):
    """Iteration hit its cap before the tolerance; best iterate returned."""
