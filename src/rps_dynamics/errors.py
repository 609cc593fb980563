"""Exception types shared across the package."""


class RpsDynamicsError(Exception):
    """Base class for all package-specific errors."""


class DimensionTooSmall(RpsDynamicsError):
    """Game dimension below 3; the cyclic structure needs at least three actions."""


class DimensionTooLarge(RpsDynamicsError):
    """Dimension too large for an exhaustive-enumeration oracle."""


class DimensionMismatch(RpsDynamicsError):
    """Vector length does not match the game dimension."""


class NonpositiveWeight(RpsDynamicsError):
    """All cycle weights must be strictly positive and finite."""


class SingularSystem(RpsDynamicsError):
    """The equilibrium system Ax = 0, sum(x) = 1 has no solution."""


class ConfigInvalid(RpsDynamicsError):
    """A learner or experiment configuration violates its contract."""


class ArithmeticOverflow(RpsDynamicsError):
    """Exact-rational state exceeded the bit budget, or float state overflowed."""


class NoVertexReached(RpsDynamicsError):
    """Phase detection found no vertex-region iterate after the start time."""


class TooFewPhases(RpsDynamicsError):
    """Not enough phases for the requested aggregate analysis."""


class NonpositiveRegret(RpsDynamicsError):
    """Log-log slope fitting needs strictly positive regret values."""


class TooCloseToBoundary(RpsDynamicsError):
    """Finite differencing rejected a point too close to a region boundary."""


class ProjectionInfeasible(RpsDynamicsError):
    """A support set passed to the simplex projection gives a negative coordinate."""


class IoError(RpsDynamicsError):
    """Reading or writing an artifact failed."""
