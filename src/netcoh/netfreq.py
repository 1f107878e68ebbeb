"""Frequency-domain analysis of the coupled network.

The closed loop maps inputs to outputs through
T(s) = (I + G(s) f(s) L)^{-1} G(s) = (diag{g_i^{-1}(s)} + f(s) L)^{-1},
and its coherent part is the rank-one matrix (1/n) gbar(s) 11^T driven by
the harmonic mean gbar of the node dynamics.  This module measures the
spectral-norm distance between the two, bounds it, and sweeps it over
frequency regions and connectivity scalings.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import ratfun
from .errors import (
    CoherentPoleAtSError,
    DisconnectedError,
    InvalidMajorantsError,
    NodeZeroAtSError,
    NotAPoleOfFError,
    RegionContainsSingularityError,
    SingularAtSError,
    require_increasing,
)
from .graph import LaplacianMatrix
from .ratfun import RationalFunction, harmonic_mean

__all__ = [
    "NetworkModel",
    "FrequencyRegion",
    "IncoherenceReport",
    "eval_T",
    "coherent_dynamics",
    "aggregate_dynamics",
    "incoherence",
    "lemma_bound",
    "estimate_majorants",
    "sweep_region",
    "connectivity_sweep",
    "pole_approach_sweep",
    "homogeneous_decomposition_check",
    "nodal_multiplicity",
]

_COND_LIMIT = 1e12
MAJORANT_SAFETY = 1.05


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Node dynamics g_i, coupling dynamics f, and the graph Laplacian."""

    nodes: tuple[RationalFunction, ...]
    coupling: RationalFunction
    laplacian: LaplacianMatrix

    def __init__(self, nodes, coupling, laplacian):
        nodes = tuple(nodes)
        if len(nodes) < 2:
            raise ValueError("a network needs at least 2 nodes")
        if len(nodes) != laplacian.n:
            raise ValueError(
                f"{len(nodes)} nodes but Laplacian of order {laplacian.n}"
            )
        for g in nodes:
            if not g.is_proper:
                raise ValueError(f"node dynamics {g} is improper")
        if not coupling.is_proper:
            raise ValueError(f"coupling dynamics {coupling} is improper")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "laplacian", laplacian)
        # filled on first use and shared with every copy over the same nodes
        object.__setattr__(self, "_gbar", [])

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def is_homogeneous(self) -> bool:
        return all(g == self.nodes[0] for g in self.nodes[1:])

    @property
    def gbar(self) -> RationalFunction:
        """Harmonic mean of the nodes, computed exactly at most once."""
        if not self._gbar:
            self._gbar.append(harmonic_mean(self.nodes))
        return self._gbar[0]

    def with_laplacian(self, laplacian: LaplacianMatrix) -> "NetworkModel":
        net = NetworkModel(self.nodes, self.coupling, laplacian)
        object.__setattr__(net, "_gbar", self._gbar)
        return net

    def scaled(self, alpha: float) -> "NetworkModel":
        return self.with_laplacian(self.laplacian.scale(alpha))


@dataclass(frozen=True)
class FrequencyRegion:
    """Sampling grid standing in for a compact region of the complex plane.

    vertical_segment: s = sigma + j*omega, omega on [omega_min, omega_max].
    rect_grid: Re(s) on [0, sigma] x same omega range, resolution per axis.
    """

    kind: str = "vertical_segment"
    sigma: float = 0.0
    omega_range: tuple[float, float] = (-1.0, 1.0)
    resolution: int = 33

    def __post_init__(self):
        if self.kind not in ("vertical_segment", "rect_grid"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")
        if not self.omega_range[0] < self.omega_range[1]:
            raise ValueError("omega_range must be increasing")

    def points(self) -> list[complex]:
        w0, w1 = self.omega_range
        omegas = np.linspace(w0, w1, self.resolution)
        if self.kind == "vertical_segment":
            return [complex(self.sigma, w) for w in omegas]
        sigmas = np.linspace(0.0, self.sigma, self.resolution)
        return [complex(sg, w) for sg in sigmas for w in omegas]

    def contains(self, z: complex, pad: float = 1e-9) -> bool:
        w0, w1 = self.omega_range
        if self.kind == "vertical_segment":
            re_lo = re_hi = self.sigma
        else:
            re_lo, re_hi = min(0.0, self.sigma), max(0.0, self.sigma)
        return (re_lo - pad <= z.real <= re_hi + pad
                and w0 - pad <= z.imag <= w1 + pad)

    def describe(self) -> str:
        return (f"{self.kind}(sigma={self.sigma}, omega={list(self.omega_range)}, "
                f"resolution={self.resolution})")


@dataclass(frozen=True)
class IncoherenceReport:
    """Measured incoherence at one frequency, optionally with the norm bound."""

    s: complex
    measured: float
    effective_connectivity: float
    M1: float = math.nan
    M2: float = math.nan
    bound: float | None = None
    bound_valid: bool = False
    grid: str = field(default="", compare=False)


def _node_inverse_values(net: NetworkModel, s: complex) -> list[complex]:
    return [g.eval_inverse(s) for g in net.nodes]


def eval_T(net: NetworkModel, s: complex) -> np.ndarray:
    """Closed-loop transfer matrix T(s) by direct linear solve.

    Primary route inverts diag{g_i^{-1}(s)} + f(s)L; when some g_i(s) = 0
    (g_i^{-1} infinite there) it falls back to (I + G f L)^{-1} G.
    """
    fv = net.coupling(s)
    if not cmath.isfinite(fv):
        raise SingularAtSError(f"s={s} is a pole of the coupling dynamics")
    L = net.laplacian.entries
    ginv = _node_inverse_values(net, s)
    if all(cmath.isfinite(v) for v in ginv):
        M = np.diag(ginv) + fv * L
        return _checked_inverse(M, s)
    gv = [g(s) for g in net.nodes]
    if not all(cmath.isfinite(v) for v in gv):
        raise SingularAtSError(
            f"s={s} is simultaneously a zero and a pole among the nodes"
        )
    G = np.diag(gv)
    M = np.eye(net.n) + G * fv @ L
    if np.linalg.cond(M) > _COND_LIMIT:
        raise NodeZeroAtSError(
            f"some g_i({s}) = 0 and the fallback formula is singular"
        )
    return np.linalg.solve(M, G)


def _checked_inverse(M: np.ndarray, s: complex) -> np.ndarray:
    if not np.all(np.isfinite(M)):
        raise SingularAtSError(f"closed-loop matrix not finite at s={s}")
    if np.linalg.cond(M) > _COND_LIMIT:
        raise SingularAtSError(f"closed-loop matrix singular at s={s}")
    return np.linalg.inv(M)


def coherent_dynamics(net: NetworkModel) -> RationalFunction:
    """gbar(s), the harmonic mean of the node dynamics."""
    return net.gbar


def aggregate_dynamics(net: NetworkModel) -> RationalFunction:
    """g_aggr(s) = (sum g_i^{-1}(s))^{-1} = gbar(s)/n, exactly."""
    return net.gbar.scale(Fraction(1, net.n))


def incoherence(net: NetworkModel, s: complex) -> IncoherenceReport:
    """Spectral norm of T(s) - (1/n) gbar(s) 11^T."""
    gbar_v = net.gbar(s)
    if not cmath.isfinite(gbar_v):
        raise CoherentPoleAtSError(
            f"s={s} is a pole of the coherent dynamics; measure undefined"
        )
    T = eval_T(net, s)
    n = net.n
    coherent = (gbar_v / n) * np.ones((n, n))
    measured = float(np.linalg.norm(T - coherent, 2))
    eff = abs(net.coupling(s)) * net.laplacian.lambda2
    return IncoherenceReport(s=s, measured=measured, effective_connectivity=eff)


def lemma_bound(net: NetworkModel, s: complex,
                M1: float, M2: float) -> IncoherenceReport:
    """Incoherence report with the norm bound (M1 M2 + 1)^2 / (|f| l2 - M2 - M1 M2^2).

    M1 must majorize |gbar(s)| and M2 must majorize max_i |g_i^{-1}(s)|;
    the bound is populated only when |f(s)| lambda_2 strictly exceeds
    M2 + M1 M2^2.
    """
    rep = incoherence(net, s)
    gbar_mag = abs(net.gbar(s))
    ginv_max = max(abs(v) for v in _node_inverse_values(net, s))
    tol = 1e-9
    if M1 < gbar_mag * (1 - tol) or M2 < ginv_max * (1 - tol):
        raise InvalidMajorantsError(
            f"M1={M1} vs |gbar(s)|={gbar_mag}, M2={M2} vs max|g^-1(s)|={ginv_max}"
        )
    eff = rep.effective_connectivity
    threshold = M2 + M1 * M2 * M2
    if eff > threshold:
        bound = (M1 * M2 + 1.0) ** 2 / (eff - threshold)
        return IncoherenceReport(
            s=s, measured=rep.measured, effective_connectivity=eff,
            M1=M1, M2=M2, bound=bound, bound_valid=True,
        )
    return IncoherenceReport(
        s=s, measured=rep.measured, effective_connectivity=eff,
        M1=M1, M2=M2, bound=None, bound_valid=False,
    )


def estimate_majorants(net: NetworkModel,
                       region: FrequencyRegion) -> tuple[float, float]:
    """Grid suprema of |gbar| and max_i |g_i^{-1}|, inflated by 1.05.

    The region must avoid poles of gbar and zeros of every g_i; a violating
    root is reported via RegionContainsSingularityError.
    """
    gbar = net.gbar
    for p in gbar.poles():
        if region.contains(p):
            raise RegionContainsSingularityError(
                f"region contains pole {p} of the coherent dynamics", root=p
            )
    for g in net.nodes:
        for z in g.zeros():
            if region.contains(z):
                raise RegionContainsSingularityError(
                    f"region contains node zero {z}", root=z
                )
    pts = region.points()
    M1 = max(abs(gbar(s)) for s in pts)
    M2 = max(max(abs(v) for v in _node_inverse_values(net, s)) for s in pts)
    return M1 * MAJORANT_SAFETY, M2 * MAJORANT_SAFETY


def sweep_region(net: NetworkModel, region: FrequencyRegion,
                 M1: float | None = None, M2: float | None = None,
                 ) -> tuple[list[IncoherenceReport], float]:
    """Incoherence at every grid point; returns (reports, grid supremum).

    When majorants are supplied each report carries the norm bound.
    """
    desc = region.describe()
    reports = []
    for s in region.points():
        if M1 is not None and M2 is not None:
            rep = lemma_bound(net, s, M1, M2)
        else:
            rep = incoherence(net, s)
        reports.append(replace(rep, grid=desc))
    sup = max(r.measured for r in reports)
    return reports, sup


@dataclass(frozen=True)
class ConnectivityRow:
    alpha: float
    lambda2: float
    sup_incoherence: float
    sup_bound: float | None
    reports: list[IncoherenceReport] = field(repr=False)


def connectivity_sweep(net: NetworkModel, region: FrequencyRegion,
                       alphas: list[float]) -> list[ConnectivityRow]:
    """Sup incoherence, sup bound and per-point reports per Laplacian scaling.

    Majorants are fixed once from the unscaled node dynamics; scaling L
    leaves gbar and the g_i untouched.
    """
    require_increasing("alphas", alphas)
    M1, M2 = estimate_majorants(net, region)
    rows = []
    for alpha in alphas:
        scaled = net.scaled(alpha)
        reports, sup = sweep_region(scaled, region, M1=M1, M2=M2)
        bounds = [r.bound for r in reports if r.bound_valid]
        sup_bound = max(bounds) if len(bounds) == len(reports) else None
        rows.append(ConnectivityRow(alpha, scaled.laplacian.lambda2, sup,
                                    sup_bound, reports))
    return rows


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs))
    ly = np.log(np.asarray(ys))
    return float(np.polyfit(lx, ly, 1)[0])


def pole_approach_sweep(net: NetworkModel, pole_of_f: complex,
                        radii: list[float], direction: complex = 1.0,
                        ) -> list[tuple[float, float]]:
    """Incoherence at s = pole_of_f + radius * direction for each radius."""
    if net.laplacian.lambda2 <= 0:
        raise DisconnectedError("pole approach requires lambda_2(L) > 0")
    f_poles = net.coupling.poles()
    if not any(abs(p - pole_of_f) < 1e-7 for p in f_poles):
        raise NotAPoleOfFError(f"{pole_of_f} is not a pole of the coupling")
    d = direction / abs(direction)
    rows = []
    for r in radii:
        s = pole_of_f + r * d
        rows.append((float(r), incoherence(net, s).measured))
    return rows


def homogeneous_decomposition_check(g: RationalFunction, f: RationalFunction,
                                    L: LaplacianMatrix, s: complex) -> float:
    """Deviation of T(s) from the homogeneous two-term decomposition
    (1/n) g 11^T + V_perp diag{1/(g^{-1} + f lambda_i)} V_perp^T."""
    n = L.n
    net = NetworkModel([g] * n, f, L)
    T = eval_T(net, s)
    gv = g(s)
    fv = f(s)
    ginv = g.eval_inverse(s)
    coherent = (gv / n) * np.ones((n, n))
    Vp = L.v_perp
    modes = np.array([1.0 / (ginv + fv * lam) for lam in L.eigenvalues[1:]])
    rhs = coherent + Vp @ np.diag(modes) @ Vp.T
    return float(np.max(np.abs(T - rhs)))


def nodal_multiplicity(net: NetworkModel, s0: complex, tol: float = 1e-7) -> int:
    """Number of nodes whose transfer function has a zero at s0."""
    count = 0
    for g in net.nodes:
        if g.num.degree >= 1 and any(abs(z - s0) < tol for z in g.zeros()):
            count += 1
    return count
