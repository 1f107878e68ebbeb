"""Exception types shared across the package."""

import math
import numbers


class NetcohError(Exception):
    """Base class for all package errors."""


# --- rational function algebra ---

class IndeterminateError(NetcohError):
    """0/0 encountered at a point; canonical reduction should preclude this."""


class ZeroFunctionError(NetcohError):
    """Reciprocal (or harmonic mean) of an identically-zero function."""


class ImproperError(NetcohError):
    """A proper transfer function was required (deg num <= deg den)."""


# --- frequency-domain analysis ---

class SingularAtSError(NetcohError):
    """The closed-loop matrix is numerically singular at s (a pole of T)."""


class CoherentPoleAtSError(NetcohError):
    """s is a pole of the coherent dynamics; the incoherence measure is undefined."""


class InvalidMajorantsError(NetcohError):
    """Supplied M1/M2 do not majorize |gbar(s)| / max |g_i^{-1}(s)|."""


class BoundContradictedError(NetcohError):
    """A valid norm bound at s lies below the measured incoherence there."""


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


def require_number(name: str, value, integer: bool = False):
    """value, if it is a finite real number, or an integer when integer is
    set; otherwise ValueError.  A bool is neither."""
    if type(value) is (int if integer else float) and (integer or math.isfinite(value)):
        return value  # the common case, without the abstract-class checks
    if (isinstance(value, bool)
            or not isinstance(value, numbers.Integral if integer else numbers.Real)
            or not (integer or math.isfinite(value))):
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


class DisconnectedError(NetcohError):
    """lambda_2(L) = 0 where a connected graph is required."""


# --- time domain ---

class AlgebraicLoopSingularError(NetcohError):
    """A feedback's direct-feedthrough loop I + D_G D_H has condition number above 1e12."""


class UnstableModelError(NetcohError):
    """Simulation refused: the state matrix has an eigenvalue with Re > 1e-6."""


class LengthMismatchError(NetcohError):
    """An input shape or inertia vector whose length is not the input or node count."""


class NotIntegratorCouplingError(NetcohError, ValueError):
    """An experiment that needs integrator coupling f = 1/s got another f."""


# --- ensembles ---

class NotAffineError(NetcohError):
    """Analytic expected coherent dynamics requested for a non-affine family."""
