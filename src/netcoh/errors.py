"""Exception types shared across the package."""


class NetcohError(Exception):
    """Base class for all package errors."""


# --- rational function algebra ---

class IndeterminateError(NetcohError):
    """0/0 encountered at a point; canonical reduction should preclude this."""


class ZeroFunctionError(NetcohError):
    """Reciprocal (or harmonic mean) of an identically-zero function."""


class DegreeZeroError(NetcohError):
    """Root finding requested for a constant polynomial."""


class ImproperError(NetcohError):
    """A proper transfer function was required (deg num <= deg den)."""


# --- graph construction ---

class SelfLoopError(NetcohError):
    pass


class NonPositiveWeightError(NetcohError):
    pass


class NodeOutOfRangeError(NetcohError):
    pass


class TooFewNodesError(NetcohError):
    pass


class NonPositiveAlphaError(NetcohError):
    pass


# --- frequency-domain analysis ---

class SingularAtSError(NetcohError):
    """The closed-loop matrix is numerically singular at s (a pole of T)."""


class NodeZeroAtSError(NetcohError):
    """Some g_i(s) = 0 and the fallback formula is singular too."""


class CoherentPoleAtSError(NetcohError):
    """s is a pole of the coherent dynamics; the incoherence measure is undefined."""


class InvalidMajorantsError(NetcohError):
    """Supplied M1/M2 do not majorize |gbar(s)| / max |g_i^{-1}(s)|."""


class RegionContainsSingularityError(NetcohError):
    """A frequency region overlaps a pole of gbar or a zero of some g_i."""

    def __init__(self, message, root=None):
        super().__init__(message)
        self.root = root


class NotIncreasingError(NetcohError, ValueError):
    """A sequence that must be strictly increasing is not."""


def require_increasing(name: str, values) -> None:
    """Raise NotIncreasingError unless values is strictly increasing."""
    if any(b <= a for a, b in zip(values, values[1:])):
        raise NotIncreasingError(f"{name} must be strictly increasing: {values}")


class NotAPoleOfFError(NetcohError):
    pass


class DisconnectedError(NetcohError):
    """lambda_2(L) = 0 where a connected graph is required."""


# --- time domain ---

class AlgebraicLoopSingularError(NetcohError):
    pass


class UnstableModelError(NetcohError):
    """Simulation refused: the state matrix has an eigenvalue with Re > 1e-6."""


class MissingReferenceError(NetcohError):
    pass


class LengthMismatchError(NetcohError):
    pass


# --- ensembles ---

class InvalidDistributionError(NetcohError):
    pass


class NotAffineError(NetcohError):
    """Analytic expected coherent dynamics requested for a non-affine family."""


# --- CLI ---

class ConfigError(NetcohError):
    pass
