"""Real-coefficient rational function algebra.

Polynomials and rational functions carry exact ``fractions.Fraction``
coefficients, so canonical reduction (gcd cancellation, monic denominator)
is exact: factors created by common-denominator arithmetic cancel without
any tolerance, and equal functions compare equal bit-for-bit.  The gcd
decides coprimality mod 2**61 - 1 first (Brown 1971) and runs Euclid only
when that cannot decide, so reduced forms are Euclid's.  Evaluation, root
finding and state-space realization convert to floats at the boundary.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AlgebraicLoopSingularError,
    ImproperError,
    IndeterminateError,
    ZeroFunctionError,
)

__all__ = [
    "Polynomial",
    "RationalFunction",
    "StateSpaceModel",
    "harmonic_mean",
    "harmonic_realization",
    "stack",
    "feedback",
]


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite coefficient {x!r}")
        return Fraction(x)
    raise TypeError(f"unsupported coefficient type {type(x).__name__}")


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial, coefficients in ascending degree order."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable):
        cs = [_to_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> float:
        """Degree; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeffs_float(self) -> list[float]:
        return [float(c) for c in self.coeffs]

    def __call__(self, s: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * s + float(c)
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, k) -> "Polynomial":
        k = _to_fraction(k)
        return Polynomial([c * k for c in self.coeffs])

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Polynomial([]), self
        rem = list(self.coeffs)
        dcoef = other.coeffs
        dlead = dcoef[-1]
        quot = [Fraction(0)] * (len(rem) - len(dcoef) + 1)
        for k in range(len(quot) - 1, -1, -1):
            q = rem[k + len(dcoef) - 1] / dlead
            quot[k] = q
            if q:
                for i, c in enumerate(dcoef):
                    rem[k + i] -= q * c
        return Polynomial(quot), Polynomial(rem)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        return Polynomial([c / lead for c in self.coeffs])

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs_float()})"


_PRIME = 2**61 - 1


def _mod_prime(poly: Polynomial) -> list[int]:
    """poly times the lcm of its coefficient denominators, reduced mod _PRIME."""
    scale = math.lcm(*(c.denominator for c in poly.coeffs))
    return [c.numerator * (scale // c.denominator) % _PRIME for c in poly.coeffs]


def _coprime_mod_prime(a: Polynomial, b: Polynomial) -> bool:
    """True only if a and b are coprime over Q: when the prime divides
    neither integer leading coefficient, a common factor keeps its degree
    mod the prime, so a constant gcd over GF(p) rules one out."""
    a, b = _mod_prime(a), _mod_prime(b)
    if not (a[-1] and b[-1]):
        return False
    while b:  # Euclid over GF(p); zeros are stripped, so b[-1] != 0
        inv = pow(b[-1], -1, _PRIME)
        while len(a) >= len(b):
            q, k = a[-1] * inv % _PRIME, len(a) - len(b)
            for i, c in enumerate(b):
                a[k + i] = (a[k + i] - q * c) % _PRIME
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Exact monic gcd.  Coprimality of two non-constant polynomials is
    decided mod the prime 2**61 - 1 first (Brown 1971); Euclid runs only
    when that test cannot decide, and gives the same result."""
    if a.degree >= 1 and b.degree >= 1 and _coprime_mod_prime(a, b):
        return Polynomial([1])
    return _euclid_gcd(a, b)


def _euclid_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Exact monic gcd via the Euclidean algorithm."""
    while not b.is_zero:
        _, r = divmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    return a.monic()


def poly_roots(p: Polynomial) -> list[complex]:
    """All complex roots with multiplicity: the companion-matrix eigenvalues
    (np.roots), each then polished by at most two Newton steps.  A Newton
    step longer than 1 keeps the current value.  A constant has none."""
    cs = np.array(p.coeffs_float())
    raw = np.roots(cs[::-1])
    dcs = cs[1:] * np.arange(1, len(cs))
    roots = []
    for z in raw:
        z = complex(z)
        for _ in range(2):
            pv = complex(np.polyval(cs[::-1], z))
            dv = complex(np.polyval(dcs[::-1], z)) if len(dcs) else 0.0
            if dv == 0:
                break
            step = pv / dv
            if abs(step) > 1.0:  # diverging polish, keep companion value
                break
            z -= step
        roots.append(z)
    return roots


INFINITY = complex("inf")


@dataclass(frozen=True)
class RationalFunction:
    """Rational function num/den in reduced canonical form (monic den)."""

    num: Polynomial = field()
    den: Polynomial = field()

    def __init__(self, num, den):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ValueError("denominator is the zero polynomial")
        if num.degree >= 1 and den.degree >= 1:  # else the gcd is 1
            g = poly_gcd(num, den)
            if g.degree >= 1:
                num, _ = divmod(num, g)
                den, _ = divmod(den, g)
        lead = den.coeffs[-1]
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # --- predicates ---

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_proper(self) -> bool:
        return self.num.degree <= self.den.degree

    # --- evaluation ---

    def __call__(self, s: complex) -> complex:
        """Evaluate at s; returns complex infinity at a pole."""
        dv = self.den(s)
        if dv == 0:
            nv = self.num(s)
            if nv == 0:
                raise IndeterminateError(
                    f"0/0 at s={s}: canonical reduction is broken"
                )
            return INFINITY
        return self.num(s) / dv

    def eval_inverse(self, s: complex) -> complex:
        """Evaluate 1/r at s without constructing the reciprocal."""
        nv = self.num(s)
        if nv == 0:
            if self.den(s) == 0:
                raise IndeterminateError(f"0/0 at s={s}")
            return INFINITY
        return self.den(s) / nv

    # --- algebra ---

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def scale(self, k) -> "RationalFunction":
        if k == 0:
            return RationalFunction(self.num.scale(k), self.den)
        out = object.__new__(RationalFunction)  # k num stays coprime to den
        object.__setattr__(out, "num", self.num.scale(k))
        object.__setattr__(out, "den", self.den)
        return out

    def reciprocal(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroFunctionError("reciprocal of the zero function")
        return RationalFunction(self.den, self.num)

    # --- singularities ---

    def poles(self) -> list[complex]:
        return poly_roots(self.den) if self.den.degree >= 1 else []

    def zeros(self) -> list[complex]:
        return poly_roots(self.num) if self.num.degree >= 1 else []

    # --- realization ---

    def to_state_space(self) -> "StateSpaceModel":
        """Controllable-canonical realization of a proper function."""
        if not self.is_proper:
            raise ImproperError(f"{self} is improper")
        d, rem = divmod(self.num, self.den)  # den is monic: d is the feedthrough
        k = int(self.den.degree)
        A = np.eye(k, k=1)
        A[-1:] = [-c for c in self.den.coeffs_float()[:-1]]
        B = np.zeros((k, 1))
        B[-1:] = 1.0
        C = [rem.coeffs_float() + [0.0] * (k - len(rem.coeffs))]
        return StateSpaceModel(A, B, C, [d.coeffs_float() or [0.0]])

    # --- serialization ---

    def serialize(self) -> str:
        """Render as ``num=[...], den=[...]`` ascending coefficient arrays.

        Uses the primitive integer representation when the coefficients
        are small rationals (e.g. ``num=[1], den=[7, 3]`` for 1/(3s+7)),
        otherwise the monic-denominator float form.
        """
        scale = math.lcm(*(c.denominator for c in self.num.coeffs + self.den.coeffs))
        nums = [int(c * scale) for c in self.num.coeffs]
        dens = [int(c * scale) for c in self.den.coeffs]
        if all(abs(v) < 10**9 for v in nums + dens):
            return f"num={nums}, den={dens}"
        return f"num={self.num.coeffs_float()}, den={self.den.coeffs_float()}"

    def __repr__(self) -> str:
        return f"RationalFunction({self.serialize()})"


def _inverse_groups(gs: Sequence[RationalFunction]) -> dict[Polynomial, Polynomial]:
    """sum_i g_i^{-1} as {monic q: p}, p/q the sum of the den_i/num_i with q | num_i."""
    if not gs:
        raise ValueError("harmonic_mean of an empty list")
    groups: dict[Polynomial, Polynomial] = {}
    for g in gs:
        if g.is_zero:
            raise ZeroFunctionError("harmonic mean of a zero node")
        q = g.num.monic()
        groups[q] = groups.get(q, Polynomial([])) + g.den.scale(1 / g.num.coeffs[-1])
    return groups


def harmonic_mean(gs: Sequence[RationalFunction]) -> RationalFunction:
    """Harmonic mean ((1/n) sum g_i^{-1})^{-1} via exact arithmetic.

    Inverses den_i/num_i are grouped by monic numerator and summed over
    one common denominator, so the result is reduced once; for n identical
    inputs this returns the common g exactly.
    """
    num, den = Polynomial([]), Polynomial([1])
    for q, p in _inverse_groups(gs).items():
        num, den = num * q + p * den, den * q
    if num.is_zero:
        raise ZeroFunctionError("the node inverses sum to zero")
    return RationalFunction(den.scale(len(gs)), num)


def _share_a_root(a: Polynomial, b: Polynomial) -> bool:
    """For monic a and b; two monic lines share a root only when equal."""
    return a == b if a.degree == b.degree == 1 else poly_gcd(a, b).degree >= 1


def harmonic_realization(gs: Sequence[RationalFunction]) -> StateSpaceModel:
    """Minimal float realization of (sum g_i^{-1})^{-1} = harmonic_mean(gs)/n.

    Each p/q of _inverse_groups splits exactly into a polynomial and a reduced
    strictly proper part; parts whose denominators share a root are summed,
    so they form a bank R of coprime blocks.  With P the sum of the
    polynomials, 1/(P + R) is 1/P in negative feedback around R: for turbine
    nodes, 1/(M s + D) around the lags r_i/(tau_i s + 1)."""
    P, bank = Polynomial([]), []
    for q, p in _inverse_groups(gs).items():
        quot, rem = divmod(p, q)
        P, block = P + quot, RationalFunction(rem, q)
        for other in [o for o in bank if _share_a_root(o.den, block.den)]:
            bank.remove(other)
            block = block + other
        if not block.is_zero:
            bank.append(block)
    if P.is_zero:  # sum g_i^{-1} is strictly proper, or 0
        raise (ImproperError("the harmonic mean is improper") if bank
               else ZeroFunctionError("the node inverses sum to zero"))
    blocks = stack([b.to_state_space() for b in bank])
    summed = StateSpaceModel(blocks.A, blocks.B.sum(1, keepdims=True),
                             blocks.C.sum(0, keepdims=True), blocks.D.sum(keepdims=True))
    return feedback(RationalFunction([1], P).to_state_space(), summed)


def _block_diag(mats: list[np.ndarray]) -> np.ndarray:
    """The block-diagonal matrix of mats, which may have zero rows or columns."""
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)))
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """State-space realization (A, B, C, D)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A, B, C, D = (np.atleast_2d(np.asarray(m, dtype=float))
                      for m in (self.A, self.B, self.C, self.D))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        if B.shape[0] != n or C.shape[1] != n:
            raise ValueError("B/C dimensions inconsistent with A")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError("D dimensions inconsistent with B/C")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def order(self) -> int:
        return self.A.shape[0]

    def response(self, s: complex) -> np.ndarray:
        """Frequency response C(sI - A)^{-1}B + D."""
        X = np.linalg.solve(s * np.eye(self.order) - self.A, self.B.astype(complex))
        return self.C @ X + self.D


def stack(models: Sequence[StateSpaceModel]) -> StateSpaceModel:
    """The models side by side, unconnected: block-diagonal A, B, C and D."""
    return StateSpaceModel(*(_block_diag([getattr(m, k) for m in models]) for k in "ABCD"))


def feedback(G: StateSpaceModel, H: StateSpaceModel) -> StateSpaceModel:
    """u -> y for y = G(u - H y), with state [x_G; x_H] (Zhou, Doyle & Glover
    1996, 3.6).  The direct-feedthrough loop is solved through the guarded
    W = (I + D_G D_H)^{-1}: y = W (C_G x_G - D_G C_H x_H + D_G u)."""
    W = _guarded_inverse(np.eye(len(G.D)) + G.D @ H.D, AlgebraicLoopSingularError,
                         "direct-feedthrough loop I + D_G D_F L is singular")
    C, D = np.hstack([W @ G.C, -W @ G.D @ H.C]), W @ G.D  # y = C [x_G; x_H] + D u
    A = np.block([[G.A, -G.B @ H.C], [np.zeros((H.order, G.order)), H.A]])
    A += np.vstack([-G.B @ H.D @ C, H.B @ C])
    B = np.vstack([G.B @ (np.eye(len(H.D)) - H.D @ D), H.B @ D])
    return StateSpaceModel(A, B, C, D)


_COND_LIMIT = 1e12


def _guarded_inverse(M: np.ndarray, error, message: str) -> np.ndarray:
    """np.linalg.inv(M), or error(message) when cond_2(M) > _COND_LIMIT; the
    O(n^2) bound ||A||_2^2 <= ||A||_1 ||A||_inf (Golub & Van Loan 2.3) on M
    and its inverse settles most matrices, and the SVD decides the rest."""
    T = None
    with contextlib.suppress(np.linalg.LinAlgError), np.errstate(over="ignore"):
        T = np.linalg.inv(M)  # a non-finite T or norm fails the screen below
        A = [np.abs(M), np.abs(T)]  # 1-norm: max column sum, inf-norm: max row sum
        norms = [X.sum(axis).max() for axis in (0, 1) for X in A]
        if math.sqrt(math.prod(norms)) <= _COND_LIMIT / 2:  # the 2 absorbs rounding in T
            return T
    if np.linalg.cond(M) > _COND_LIMIT:
        raise error(message)
    return np.linalg.inv(M) if T is None else T
