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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    BoundContradictedError,
    CoherentPoleAtSError,
    DisconnectedError,
    InvalidMajorantsError,
    RegionContainsSingularityError,
    SingularAtSError,
    require_increasing,
    require_number,
)
from .graph import LaplacianMatrix
from .ratfun import (INFINITY, RationalFunction, StateSpaceModel, _guarded_inverse,
                     harmonic_mean, harmonic_realization)

__all__ = [
    "NetworkModel",
    "FrequencyRegion",
    "IncoherenceReport",
    "eval_T",
    "aggregate_dynamics",
    "incoherence",
    "lemma_bound",
    "estimate_majorants",
    "sweep_region",
    "transfer_norm_sweep",
    "connectivity_sweep",
    "pole_approach_sweep",
    "homogeneous_decomposition_check",
]

MAJORANT_SAFETY = 1.05
# FrequencyRegion.contains widens the region by this pad, which absorbs the
# eigenvalue error of gbar_model's poles (measured at 1e-14 relative or less)
_REGION_PAD = 1e-9
_CHUNK_ELEMS = 1 << 20  # runs x points of an _inverse_sum chunk; nodes x points of a batch
_BLOCK, _BLOCK_STEPS, _BLOCK_TOL, _BLOCK_MIN = 4, 8, 1e-14, 96  # see _norm2's routes


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
        # exact gbar, float realization of gbar/n and float rows: each built
        # on first use and shared with every copy over the same nodes
        object.__setattr__(self, "_shared", {})

    @property
    def n(self) -> int:
        return len(self.nodes)

    def _cached(self, key: str, build):
        if key not in self._shared:
            self._shared[key] = build()
        return self._shared[key]

    @property
    def gbar(self) -> RationalFunction:
        """Harmonic mean of the nodes, computed exactly at most once."""
        return self._cached("gbar", lambda: harmonic_mean(self.nodes))

    @property
    def gbar_model(self) -> StateSpaceModel:
        """Float realization of gbar/n = (sum g_i^{-1})^{-1}, built at most once."""
        return self._cached("gbar_model", lambda: harmonic_realization(self.nodes))

    @property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Node numerators and denominators as zero-padded rows of ascending
        float coefficients, shapes (n, p) and (n, q)."""
        return self._cached("rows", lambda: (_pad([g.num for g in self.nodes]),
                                             _pad([g.den for g in self.nodes])))

    def scaled(self, alpha: float) -> "NetworkModel":
        net = NetworkModel(self.nodes, self.coupling, self.laplacian.scale(alpha))
        object.__setattr__(net, "_shared", self._shared)
        return net


@dataclass(frozen=True)
class FrequencyRegion:
    """Sampling grid standing in for a compact region of the complex plane.

    vertical_segment: s = sigma + j*omega, omega on [omega_min, omega_max].
    rect_grid: Re(s) on [0, sigma] x same omega range, resolution per axis;
    sigma must be nonzero.
    """

    kind: str = "vertical_segment"
    sigma: float = 0.0
    omega_range: tuple[float, float] = (-1.0, 1.0)
    resolution: int = 33

    def __post_init__(self):
        if self.kind not in ("vertical_segment", "rect_grid"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        require_number("sigma", self.sigma)
        if self.kind == "rect_grid" and self.sigma == 0:
            raise ValueError("rect_grid needs sigma != 0: its Re s axis [0, sigma] "
                             "would be one point")
        require_number("resolution", self.resolution, integer=True)
        w = self.omega_range
        if not isinstance(w, (tuple, list)) or len(w) != 2:
            raise ValueError(f"omega_range must be a pair of numbers, got {w!r}")
        for x in w:
            require_number("omega_range", x)
        object.__setattr__(self, "omega_range", tuple(w))
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")
        if not self.omega_range[0] < self.omega_range[1]:
            raise ValueError("omega_range must be increasing")
        require_number("omega_range width", w[1] - w[0])  # else the grid overflows

    def points(self) -> list[complex]:
        w0, w1 = self.omega_range
        omegas = np.linspace(w0, w1, self.resolution)
        if w0 == -w1:  # mirror exactly, so _sweep solves each conjugate pair once
            omegas = (omegas - omegas[::-1]) / 2
        if self.kind == "vertical_segment":
            return [complex(self.sigma, w) for w in omegas]
        sigmas = np.linspace(0.0, self.sigma, self.resolution)
        return [complex(sg, w) for sg in sigmas for w in omegas]

    def contains(self, z: complex) -> bool:
        w0, w1 = self.omega_range
        edge = self.sigma if self.kind == "vertical_segment" else 0.0  # rect: [0, sigma]
        re_lo, re_hi = sorted((self.sigma, edge))
        return (re_lo - _REGION_PAD <= z.real <= re_hi + _REGION_PAD
                and w0 - _REGION_PAD <= z.imag <= w1 + _REGION_PAD)


@dataclass(frozen=True)
class IncoherenceReport:
    """Measured incoherence at one frequency, optionally with the norm bound."""

    s: complex
    measured: float
    effective_connectivity: float
    bound: float | None = None
    bound_valid: bool = False


def _pad(polys) -> np.ndarray:
    width = max(len(p.coeffs) for p in polys)
    return np.array([p.coeffs_float() + [0.0] * (width - len(p.coeffs))
                     for p in polys])


def _horner(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Each row's ascending-coefficient polynomial at pts, shape (points, rows)."""
    acc = np.zeros((len(pts), len(coeffs)), complex)
    for c in coeffs.T[::-1]:
        acc = acc * pts[:, None] + c
    return acc


def _node_inverses(num: np.ndarray, den: np.ndarray, pts) -> np.ndarray:
    """g_i^{-1}(s_k) = den_i(s_k) / num_i(s_k) of coefficient rows, shape
    (points, nodes); a node zero gives complex infinity, as eval_inverse."""
    pts = np.asarray(pts, dtype=complex)
    nv = _horner(num, pts)
    return np.divide(_horner(den, pts), nv, out=np.full(nv.shape, INFINITY),
                     where=nv != 0)


def _inverse_sum(num: np.ndarray, den: np.ndarray, pts, blocks) -> np.ndarray:
    """sum_i g_i^{-1}(s) at each point s, one row per block of consecutive rows
    (blocks: each non-empty block's first row, ascending from 0).  A run of equal
    numerators inside a block is one division of its summed denominators.  A
    chunk of at most _CHUNK_ELEMS run-point pairs (one run at least) holds whole
    blocks of one run count, or one piece of a block too long for it, so each
    block's row is bitwise the one it gets alone."""
    pts = np.asarray(pts, dtype=complex)
    new = np.zeros(len(num), bool)
    new[blocks] = True
    new[1:] |= (num[1:] != num[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    num, den = num[starts], np.add.reduceat(den, starts)
    first = np.searchsorted(starts, blocks)  # each block's first run
    width = np.diff(first, append=len(starts))
    total = np.zeros((len(first), len(pts)), complex)
    step = max(1, _CHUNK_ELEMS // len(pts))
    for r in np.unique(width):
        same, per = np.flatnonzero(width == r), max(1, step // r)
        for b in (same[lo:lo + per] for lo in range(0, len(same), per)):
            for j in range(0, r, step):
                runs = (first[b, None] + np.arange(j, min(r, j + step))).ravel()
                total[b] += _node_inverses(num[runs], den[runs], pts).reshape(
                    len(pts), len(b), -1).sum(axis=2).T
    return total


def _gbar_values(n: int, pts, total: np.ndarray, realization) -> np.ndarray:
    """gbar(s_k) = n / total[t, k], row t of total summing g_i^{-1}(s_k) over network
    or trial t, in floats.  Where a sum is not finite (a node zero) or 0, n times the
    response of t's float realization of gbar/n, built once by realization(t); where
    s_k I - A is singular, 0, the limit at a node zero, or infinite at a zero sum."""
    fallback = ~np.isfinite(total) | (total == 0)
    gbar = np.divide(n, total, out=np.zeros(total.shape, complex), where=~fallback)
    for t in np.flatnonzero(fallback.any(axis=1)):
        model = realization(t)
        for k in np.flatnonzero(fallback[t]):
            try:
                gbar[t, k] = n * model.response(pts[k])[0, 0]
            except np.linalg.LinAlgError:  # s_k I - A is singular
                gbar[t, k] = INFINITY if total[t, k] == 0 else 0
    return gbar


def _norm2(X: np.ndarray) -> float:
    """||X||_2 as sqrt(lambda_max(X^H X)): _block_lambda_max's where min(X.shape) >=
    _BLOCK_MIN and it certifies one, else eigvalsh's (relative error about eps, Golub &
    Van Loan 8.6).  X is overwritten: scaled in place, exactly, by 2^-e with 2^e at or
    above its largest entry, so X^H X neither overflows nor underflows; real stays real."""
    peaks = np.abs(X).max(axis=1)
    e = math.frexp(float(peaks.max()))[1]
    for half in (e // 2, e - e // 2):  # 2.0 ** -e overflows for subnormal peaks
        X *= 2.0 ** -half
    lam = (min(X.shape) >= _BLOCK_MIN and _block_lambda_max(X, peaks)
           or np.linalg.eigvalsh(X.conj().T @ X)[-1])
    return math.ldexp(math.sqrt(max(lam, 0.0)), e)


def _block_lambda_max(X: np.ndarray, peaks: np.ndarray):
    """lambda_max(X^H X) by subspace iteration on _BLOCK columns from X's rows of largest
    peak (Rutishauser 1970).  With Ritz pairs theta_i, q_i descending, tau_j = ||X||_F^2 -
    sum_{i<=j} theta_i bounds X^H X off q_{1..j}; the first tau_j < theta_1 and q_{1..j}'s
    residual R give lambda_max <= theta_1 + ||R||_F^2/(theta_1 - tau_j) (Parlett 1998, ch.
    11).  None where no tau_j is, or that width stalls above _BLOCK_TOL or steps run out."""
    fro = float(np.vdot(X, X).real) * (1 + 4 * max(X.shape) * np.finfo(float).eps)
    Wh, width = X[np.argsort(peaks)[-_BLOCK:]], math.inf  # rows in range(X^H X)
    for _ in range(_BLOCK_STEPS):
        Q = np.linalg.qr(Wh.conj().T)[0]
        B = X @ Q
        theta, V = np.linalg.eigh(B.conj().T @ B)  # ascending
        tau = fro - np.cumsum(theta[::-1])  # fro carries the rounding slack of tau
        j = int(np.argmax(tau < theta[-1])) + 1
        if not tau[j - 1] < theta[-1]:
            return None
        Wh = (B @ V).conj().T @ X  # row i: (X^H X q_i)^H
        R = Wh[-j:] - theta[-j:, None] * (Q @ V[:, -j:]).conj().T
        last, width = width, float(np.vdot(R, R).real) / float(theta[-1] - tau[j - 1])
        if width <= _BLOCK_TOL * theta[-1]:
            return float(theta[-1])
        if width >= last:
            return None


def _transfer(s: complex, ginv: np.ndarray, fv: complex, L: np.ndarray) -> np.ndarray:
    """T(s) = (diag{g_i^{-1}(s)} + f(s) L)^{-1} = (D M)^{-1} D from the nodes'
    inverses ginv and fv = f(s), D = diag{g_i(s)} on the rows where
    |g_i^{-1}(s)| > |f(s)| L_ii and 1 elsewhere (row equilibration, Golub &
    Van Loan 3.5.2); the guard screens D M.  A node zero is g_i = 0, row e_i,
    a limit that needs reduced nodes.  At a real s, fv and ginv have zero
    imaginary parts (a node zero is inf + 0j): M and T are float64."""
    if not cmath.isfinite(fv):
        raise SingularAtSError(f"s={s} is a pole of the coupling dynamics")
    if fv.imag == 0 and not ginv.imag.any():
        fv, ginv = fv.real, ginv.real
    scaled = np.abs(ginv) > abs(fv) * L.diagonal()  # L is PSD: L_ii >= 0
    d = np.divide(1, ginv, out=np.ones(ginv.shape, ginv.dtype), where=scaled)
    M = L * (fv * d)[:, None]  # an unscaled row's factor is fv, exactly
    M[np.diag_indices_from(M)] += np.where(scaled, 1, ginv)
    if not np.isfinite(M).all():
        raise SingularAtSError(f"closed-loop matrix not finite at s={s}")
    T = _guarded_inverse(M, SingularAtSError, f"closed-loop matrix singular at s={s}")
    T *= d  # in place: a second n x n array here raises the peak memory
    return T


def _class_norms(pts, ginv, gbar, fvs, L: np.ndarray, t_norm=False):
    """(||T(s) - (gbar(s)/n) 11^T||_2, ||T(s)||_2 if t_norm else None) at each
    point, lazily in grid order, from the nodes' inverses ginv and f(s) in fvs;
    each point first checks that gbar(s) is finite.  Real coefficients give
    T(conj s) = conj T(s), so the closed loop is solved once per conjugate class
    (Re s, |Im s|), at its first point, and later points reuse its norms.  A
    class on the real axis is solved in real arithmetic, as is its coherent term.
    """
    solved = {}
    for s, row, gb, fv in zip(pts, ginv, gbar, fvs):
        if not cmath.isfinite(gb):
            raise CoherentPoleAtSError(
                f"s={s} is a pole of the coherent dynamics; measure undefined")
        key = (s.real, abs(s.imag))
        if key not in solved:
            T = _transfer(s, row, fv, L)
            coherent = gb / len(L) if np.iscomplexobj(T) else (gb / len(L)).real
            # T's last use is the second _norm2, which overwrites it
            solved[key] = (_norm2(T - coherent), _norm2(T) if t_norm else None)
        yield solved[key]


def _sweep(net: NetworkModel, pts, M1=None, M2=None, t_norm=False):
    """Incoherence reports at pts, with the norm bound when M1 and M2 are
    given, and ||T(s)||_2 and |gbar(s)| at each point when t_norm.  Each point
    checks coherent pole, coupling pole and singular matrix (in _class_norms,
    the last two once per conjugate class), majorants, then a valid bound
    below the measured value (BoundContradictedError)."""
    ginv = _node_inverses(*net._rows, pts)
    gbars = _gbar_values(net.n, pts, ginv.sum(1)[None], lambda t: net.gbar_model)[0].tolist()
    fvs = [net.coupling(s) for s in pts]
    norms = _class_norms(pts, ginv, gbars, fvs, net.laplacian.entries, t_norm)
    bounded = M1 is not None and M2 is not None
    reports, t_norms, gains = [], [], []
    for s, row, gbar, fv, (measured, t) in zip(pts, ginv, gbars, fvs, norms):
        if t_norm:
            t_norms.append(t)
            gains.append(abs(gbar))
        eff = abs(fv) * net.laplacian.lambda2
        if not bounded:
            reports.append(IncoherenceReport(s, measured, eff))
            continue
        gmag, imax = abs(gbar), float(np.abs(row).max())
        tol = 1e-9
        if M1 < gmag * (1 - tol) or M2 < imax * (1 - tol):
            raise InvalidMajorantsError(
                f"M1={M1} vs |gbar(s)|={gmag}, M2={M2} vs max|g^-1(s)|={imax}")
        threshold = M2 + M1 * M2 * M2
        valid = eff > threshold
        bound = (M1 * M2 + 1.0) ** 2 / (eff - threshold) if valid else None
        if valid and measured > bound * (1 + tol):
            raise BoundContradictedError(
                f"s={s}: measured incoherence {measured} exceeds the bound {bound}")
        reports.append(IncoherenceReport(s, measured, eff, bound, valid))
    return reports, t_norms, gains


def eval_T(net: NetworkModel, s: complex) -> np.ndarray:
    """Closed-loop transfer matrix T(s) = (diag{g_i^{-1}(s)} + f(s) L)^{-1}.

    Rows where |g_i^{-1}(s)| > |f(s)| L_ii are scaled by g_i(s) before the
    solve, so a node zero g_i(s) = 0 gives the limit (column i is 0) and a
    near-zero no false singularity.  float64 at a real s, else complex128.
    """
    return _transfer(s, _node_inverses(*net._rows, [s])[0], net.coupling(s),
                     net.laplacian.entries)


def aggregate_dynamics(net: NetworkModel) -> RationalFunction:
    """g_aggr(s) = (sum g_i^{-1}(s))^{-1} = gbar(s)/n, exactly."""
    return net.gbar.scale(Fraction(1, net.n))


def incoherence(net: NetworkModel, s: complex) -> IncoherenceReport:
    """Spectral norm of T(s) - (1/n) gbar(s) 11^T."""
    return _sweep(net, [s])[0][0]


def lemma_bound(net: NetworkModel, s: complex,
                M1: float, M2: float) -> IncoherenceReport:
    """Incoherence report with the norm bound (M1 M2 + 1)^2 / (|f| l2 - M2 - M1 M2^2).

    M1 must majorize |gbar(s)| and M2 must majorize max_i |g_i^{-1}(s)|;
    the bound is populated only when |f(s)| lambda_2 strictly exceeds
    M2 + M1 M2^2.
    """
    return _sweep(net, [s], M1, M2)[0][0]


def estimate_majorants(net: NetworkModel,
                       region: FrequencyRegion) -> tuple[float, float]:
    """Grid suprema of |gbar| and max_i |g_i^{-1}|, inflated by 1.05.

    The region must avoid the poles of gbar (the eigenvalues of net.gbar_model)
    and the zeros of every g_i: RegionContainsSingularityError names the root.
    """
    for p in np.linalg.eigvals(net.gbar_model.A).tolist():
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
    ginv = _node_inverses(*net._rows, pts)
    M1 = np.abs(_gbar_values(net.n, pts, ginv.sum(1)[None], lambda t: net.gbar_model))
    return float(M1.max()) * MAJORANT_SAFETY, float(np.abs(ginv).max()) * MAJORANT_SAFETY


def sweep_region(net: NetworkModel, region: FrequencyRegion,
                 M1: float | None = None, M2: float | None = None,
                 ) -> tuple[list[IncoherenceReport], float]:
    """Incoherence at every grid point; returns (reports, grid supremum).

    When majorants are supplied each report carries the norm bound.
    """
    reports = _sweep(net, region.points(), M1, M2)[0]
    return reports, max(r.measured for r in reports)


def transfer_norm_sweep(net: NetworkModel, region: FrequencyRegion,
                        ) -> tuple[list[IncoherenceReport], list[float], list[float]]:
    """sweep_region's reports, ||T(s)||_2 and the coherent gain |gbar(s)| at
    every grid point: the norms from one solve, gbar from the same evaluation."""
    return _sweep(net, region.points(), t_norm=True)


@dataclass(frozen=True)
class ConnectivityRow:
    alpha: float
    lambda2: float
    sup_incoherence: float
    reports: list[IncoherenceReport] = field(repr=False)


def connectivity_sweep(net: NetworkModel, region: FrequencyRegion,
                       alphas: list[float]) -> list[ConnectivityRow]:
    """Sup incoherence and per-point reports per Laplacian scaling.

    Majorants are fixed once from the unscaled node dynamics; scaling L
    leaves gbar and the g_i untouched.
    """
    require_increasing("alphas", alphas)
    M1, M2 = estimate_majorants(net, region)
    rows = []
    for alpha in alphas:
        scaled = net.scaled(alpha)
        reports, sup = sweep_region(scaled, region, M1=M1, M2=M2)
        rows.append(ConnectivityRow(alpha, scaled.laplacian.lambda2, sup, reports))
    return rows


def _require_positive(name: str, value) -> None:
    if not require_number(name, value) > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x); x, y > 0, x not all equal."""
    if len(xs) != len(ys) or len(set(xs)) < 2:
        raise ValueError(f"need 2 or more distinct x, one y each; got {xs!r}, {ys!r}")
    for v in (*xs, *ys):
        _require_positive("each x and y", v)
    lx = np.log(np.asarray(xs))
    ly = np.log(np.asarray(ys))
    return float(np.polyfit(lx, ly, 1)[0])


def pole_approach_sweep(net: NetworkModel, pole_of_f: complex,
                        radii: list[float]) -> list[tuple[float, float]]:
    """Incoherence at s = pole_of_f + radius for each radius > 0."""
    for r in radii:
        _require_positive("radius", r)
    if net.laplacian.lambda2 <= 0:
        raise DisconnectedError("pole approach requires lambda_2(L) > 0")
    f_poles = net.coupling.poles()
    if not any(abs(p - pole_of_f) < 1e-7 for p in f_poles):
        raise ValueError(f"{pole_of_f} is not a pole of the coupling")
    reports = _sweep(net, [pole_of_f + r for r in radii])[0]
    return [(float(r), rep.measured) for r, rep in zip(radii, reports)]


def homogeneous_decomposition_check(g: RationalFunction, f: RationalFunction,
                                    L: LaplacianMatrix, s: complex) -> float:
    """Deviation of T(s) from the homogeneous two-term decomposition
    (1/n) g 11^T + V_perp diag{1/(g^{-1} + f lambda_i)} V_perp^T.

    V_perp = Q W spans 1-perp for any graph: Q holds the first n - 1 left
    singular vectors of I - 11^T/n and Q^T L Q = W diag{lambda_i} W^T."""
    n = L.n
    T = eval_T(NetworkModel([g] * n, f, L), s)
    Q = np.linalg.svd(np.eye(n) - 1.0 / n)[0][:, :n - 1]
    lam, W = np.linalg.eigh(Q.T @ L.entries @ Q)
    Vp = Q @ W
    modes = 1.0 / (g.eval_inverse(s) + f(s) * lam)
    rhs = (g(s) / n) * np.ones((n, n)) + (Vp * modes) @ Vp.T
    return float(np.max(np.abs(T - rhs)))

