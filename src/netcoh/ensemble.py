"""Random node-dynamics ensembles and dynamics-concentration experiments.

Node transfer functions are drawn i.i.d. from a parameterized family with
per-coefficient distributions.  Sampling uses counter-based RNG streams
(seed plus stream index) so trials are reproducible and order-independent.
Sampled nodes are float rows of ascending coefficients; a size's trials are
stacked into one batch: one blocked ``_inverse_sum`` (a block per trial), one
sup.  A failed float sum takes netfreq's realization fallback, the full network
its per-class loop; exact algebra is formed by ``sample_nodes`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import netfreq
from .errors import (CoherentPoleAtSError, NotAffineError, require_increasing,
                     require_number)
from .netfreq import (FrequencyRegion, _class_norms, _gbar_values, _inverse_sum,
                      _node_inverses, _pad)
from .ratfun import INFINITY, RationalFunction, harmonic_realization

# a truncated normal with less mass than this draws by _robert; heavier windows
# keep the plain rejection stream.  Plain rejection capped at 1e5 rounds failed
# a 1-draw sample at this mass in 3 of 8 seeds, and 10 draws in 8 of 8
_TAIL_MASS = 1e-5
_MILLS_DEPTH = 10.0  # mean() takes the Mills ratio beyond this depth of a window

__all__ = [
    "Distribution",
    "uniform",
    "normal",
    "point",
    "EnsembleSpec",
    "ConcentrationResult",
    "sample_nodes",
    "expected_coherent",
    "concentration_experiment",
    "full_network_concentration",
]


@dataclass(frozen=True)
class Distribution:
    """uniform(lo, hi), normal(mean, sd) truncated to [lo, hi], or point(v)."""

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    mu: float = 0.0
    sd: float = 0.0
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uniform", "normal", "point"):
            raise ValueError(f"unknown distribution {self.kind!r}")
        for name in ("lo", "hi", "mu", "sd", "value"):  # a NaN would hang sample()
            require_number(name, getattr(self, name))
        if self.kind in ("uniform", "normal") and not self.lo < self.hi:
            raise ValueError("truncation bounds must satisfy lo < hi, "
                             f"got [{self.lo}, {self.hi}]")
        if self.kind == "uniform":  # else numpy's uniform raises OverflowError
            require_number("uniform width hi - lo", self.hi - self.lo)
        if self.kind == "normal" and self.sd < 0:
            raise ValueError("sd must be non-negative")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "point":
            return np.full(size, self.value)
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi, size)
        if self.sd == 0:
            return np.full(size, min(max(self.mu, self.lo), self.hi))
        a, b, mass = self._window()
        if mass < _TAIL_MASS:  # the mirror image of a lower tail is an upper one
            z = -_robert(rng, -b, -a, size) if a + b < 0 else _robert(rng, a, b, size)
            return np.clip(self.mu + self.sd * z, self.lo, self.hi)  # against rounding
        out = np.empty(size)
        have = 0
        while have < size:  # rejection sampling keeps truncation exact
            draw = rng.normal(self.mu, self.sd, size - have)
            keep = draw[(draw >= self.lo) & (draw <= self.hi)]
            out[have:have + keep.size] = keep
            have += keep.size
        return out

    def _window(self) -> tuple[float, float, float]:
        """Standardised bounds a, b and the mass between them, taken as
        Phi(-a) - Phi(-b) in an upper tail, where Phi(b) - Phi(a) cancels.
        Deeper than about 37.5 the mass underflows to 0, which still sends
        sample() to _robert and mean() to the Mills ratio; a window is refused
        only if its mass is 0 elsewhere or its near bound squared overflows."""
        a = (self.lo - self.mu) / self.sd
        b = (self.hi - self.mu) / self.sd
        Phi = lambda x: 0.5 * math.erfc(-x / math.sqrt(2))
        mass = Phi(-a) - Phi(-b) if a > 0 else Phi(b) - Phi(a)
        t = max(a, -b)  # the near bound's depth into its tail
        if mass <= 0 and not (t > _MILLS_DEPTH and math.isfinite(t * t)):
            raise ValueError(f"no representable mass on [{self.lo}, {self.hi}]")
        return a, b, mass

    def mean(self) -> float:
        if self.kind == "point":
            return self.value
        if self.kind == "uniform":
            return 0.5 * (self.lo + self.hi)
        if self.sd == 0:
            return min(max(self.mu, self.lo), self.hi)
        a, b, mass = self._window()
        t, u, sign = (a, b, 1) if a + b >= 0 else (-b, -a, -1)  # near, far bound
        if t > _MILLS_DEPTH:  # 1e-15 where erfc's mass loses 1e-13 or underflows
            # Mills ratio R = (1 - Phi) / phi by 16 terms of 1/(x + 1/(x + 2/(x + ..
            R = lambda x: 1 / reduce(lambda f, k: x + k / f, range(16, 0, -1), x)
            x = 0.5 * (u - t) * (u + t)  # phi(u) / phi(t) = exp(-x)
            z = -math.expm1(-x) / (R(t) - math.exp(-x) * R(u))
            return self.mu + sign * self.sd * z
        phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        return self.mu + self.sd * (phi(a) - phi(b)) / mass

    @property
    def is_point(self) -> bool:
        return self.kind == "point" or (self.kind == "normal" and self.sd == 0)


def _robert(rng: np.random.Generator, a: float, b: float, size: int) -> np.ndarray:
    """size draws of a standard normal truncated to [a, b], a + b >= 0, by
    Robert's (1995) rejection from the exponential a + Exp(lam) truncated to
    [a, b]: accept z with probability exp(-(z - lam)^2 / 2), with the rate lam
    that is optimal for b = inf."""
    lam = 0.5 * (a + math.sqrt(a * a + 4))
    span = -math.expm1(-lam * (b - a))  # the proposal's mass on [a, b]
    out = np.empty(size)
    have = 0
    while have < size:
        z = a - np.log1p(-span * rng.random(size - have)) / lam
        keep = z[rng.random(size - have) <= np.exp(-0.5 * (z - lam) ** 2)]
        out[have:have + keep.size] = keep
        have += keep.size
    return out


def uniform(lo: float, hi: float) -> Distribution:
    return Distribution("uniform", lo=lo, hi=hi)


def normal(mu: float, sd: float, lo: float, hi: float) -> Distribution:
    return Distribution("normal", lo=lo, hi=hi, mu=mu, sd=sd)


def point(value: float) -> Distribution:
    return Distribution("point", value=value)


_FAMILY_PARAMS = {
    "swing": ("m", "d"),
    "swing_turbine": ("m", "d", "r_inv", "tau"),
}


@dataclass(frozen=True)
class EnsembleSpec:
    """Named transfer-function family with per-parameter distributions.

    swing: g = 1/(m s + d)
    swing_turbine: g = 1/(m s + d + r_inv/(tau s + 1))
    custom_coeffs: params num_0.., den_0.. give the coefficient distributions
    directly (ascending order).
    """

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        require_number("seed", self.seed, integer=True)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.family in _FAMILY_PARAMS:
            used = _FAMILY_PARAMS[self.family]
            missing = [p for p in used if p not in self.params]
            if missing:
                raise ValueError(f"{self.family} family needs parameters {missing}")
        elif self.family == "custom_coeffs":
            num, den = self._coeff_names()
            used = num + den
        else:
            raise ValueError(f"unknown family {self.family!r}")
        # a named family would ignore an unused key; custom_coeffs would draw
        # it from the nodes' stream (param_names()), shifting the used draws
        unused = sorted(set(self.params) - set(used))
        if unused:
            raise ValueError(f"{self.family} family does not use parameters {unused}")

    def param_names(self) -> list[str]:
        if self.family in _FAMILY_PARAMS:
            return list(_FAMILY_PARAMS[self.family])
        return sorted(self.params)

    def _coeff_names(self) -> tuple[list[str], list[str]]:
        """custom_coeffs num_k and den_k names in ascending powers k of s."""
        layout = []
        for prefix in ("num_", "den_"):
            names = sorted((k for k in self.params if k.startswith(prefix)),
                           key=lambda k: int(k[4:]) if k[4:].isdecimal() else -1)
            if not names or [k[4:] for k in names] != list(map(str, range(len(names)))):
                raise ValueError(
                    f"{prefix}k needs integers k = 0, 1, ... without gaps, got {names}")
            layout.append(names)
        return layout[0], layout[1]


def _stream_rng(spec: EnsembleSpec, *indices: int) -> np.random.Generator:
    return np.random.default_rng([spec.seed & 0x7FFFFFFF, *indices])


def _coeff_rows(spec: EnsembleSpec, v: dict) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of parameter arrays v as ascending coefficient rows num, den."""
    if spec.family == "swing":
        num, den = [np.ones_like(v["m"])], [v["d"], v["m"]]
    elif spec.family == "swing_turbine":
        m, d, r_inv, tau = (v[k] for k in _FAMILY_PARAMS["swing_turbine"])
        # 1/(ms + d + r_inv/(tau s + 1)) = (tau s + 1)/(m tau s^2 + (m + d tau)s + d + r_inv)
        num, den = [np.ones_like(tau), tau], [d + r_inv, m + d * tau, m * tau]
    else:
        num, den = ([v[k] for k in names] for names in spec._coeff_names())
    num, den = np.column_stack(num), np.column_stack(den)
    if np.any(den[:, -1] <= 0):
        raise ValueError("node has non-positive leading denominator coefficient")
    if np.any(num[:, den.shape[1]:] != 0):
        raise ValueError("sampled node is improper")
    return num, den


def _sample_coeffs(spec: EnsembleSpec, n: int, *streams: int):
    """n i.i.d. nodes per stream as coefficient rows, stacked in stream order;
    each stream draws its n values of every parameter in param_names() order."""
    if n < 1:
        raise ValueError("need n >= 1")
    v = {k: np.empty(n * len(streams)) for k in spec.param_names()}
    for t, stream in enumerate(streams):
        rng = _stream_rng(spec, stream)
        for k, out in v.items():
            out[t * n:(t + 1) * n] = spec.params[k].sample(rng, n)
    return _coeff_rows(spec, v)


def sample_nodes(spec: EnsembleSpec, n: int, stream_index: int = 0,
                 ) -> list[RationalFunction]:
    """n i.i.d. draws, reproducible from (spec.seed, stream_index)."""
    num, den = _sample_coeffs(spec, n, stream_index)
    return [RationalFunction(a, b) for a, b in zip(num.tolist(), den.tolist())]


def expected_coherent(spec: EnsembleSpec) -> RationalFunction:
    """ghat(s) = (E g^{-1}(s, w))^{-1}, exact; NotAffineError unless
    g^{-1} is affine in the random parameters."""
    if spec.family == "swing_turbine" and not spec.params["tau"].is_point:
        raise NotAffineError("g^{-1} is not affine in a random turbine time constant")
    # custom_coeffs: affine iff the numerator is deterministic
    if spec.family == "custom_coeffs" and not all(
            spec.params[k].is_point for k in spec._coeff_names()[0]):
        raise NotAffineError("random numerator coefficients break affinity")
    # g^{-1} affine in the parameters w: E g^{-1}(s, w) = g^{-1}(s, E w)
    num, den = _coeff_rows(spec, {k: np.array([float(d.mean())])
                                  for k, d in spec.params.items()})
    return RationalFunction(num[0].tolist(), den[0].tolist())


@dataclass(frozen=True, eq=False)
class ConcentrationResult:
    """Per-size deviation samples and tail-probability estimates."""

    sizes: list[int]
    deviations: list[list[float]]  # per size, one value per trial
    prob_estimates: list[float]

    @property
    def median_deviations(self) -> list[float]:
        return [float(np.median(d)) for d in self.deviations]


def _ghat_on_grid(spec, region):
    """Grid points and ghat there.  A non-affine family gets the Monte-Carlo
    ghat (1/M sum g^{-1}(s, w_k))^{-1} over M = 10 000 draws from a stream
    that no trial uses."""
    pts = region.points()
    try:
        ghat = expected_coherent(spec)
    except NotAffineError:
        num, den = _sample_coeffs(spec, 10_000, 2**31 - 1)
        total = _inverse_sum(num, den, pts, [0])[0]
        return pts, np.divide(len(num), total, out=np.full(total.shape, INFINITY),
                              where=total != 0)
    return pts, np.array([ghat(s) for s in pts])


def _run_concentration(spec, region, sizes, trials, epsilon,
                       deviations) -> ConcentrationResult:
    """Sizes x trials loop shared by both experiments.

    deviations(n, streams, num, den, pts, ghat_vals) gives the grid sups of a
    batch of trials, one per stream; num and den stack the batch's sampled
    nodes, n rows per trial.  A batch holds as many trials as fit in
    netfreq._CHUNK_ELEMS node-point pairs, one at least.
    """
    if trials < 1 or not sizes:
        raise ValueError(f"need trials >= 1 and at least one size, got trials={trials}, "
                         f"sizes={sizes}")
    require_increasing("sizes", sizes)
    pts, ghat_vals = _ghat_on_grid(spec, region)
    if not np.isfinite(ghat_vals).all():
        raise CoherentPoleAtSError("a pole of ghat is on the grid; deviation undefined")
    devs = []
    for size_idx, n in enumerate(sizes):
        streams = [_trial_stream(size_idx, trial) for trial in range(trials)]
        per = max(1, netfreq._CHUNK_ELEMS // max(1, n * len(pts)))  # n < 1: refused below
        batches = (streams[lo:lo + per] for lo in range(0, trials, per))
        devs.append([float(d) for batch in batches for d in deviations(
            n, batch, *_sample_coeffs(spec, n, *batch), pts, ghat_vals)])
    probs = [float(np.mean(np.asarray(d) >= epsilon)) for d in devs]
    return ConcentrationResult(sizes=list(sizes), deviations=devs,
                               prob_estimates=probs)


def concentration_experiment(spec: EnsembleSpec, region: FrequencyRegion,
                             sizes: list[int], trials: int, epsilon: float,
                             ) -> ConcentrationResult:
    """Grid-sup deviation of the empirical coherent dynamics from ghat.

    Per (size, trial): draw nodes, evaluate gbar_n on the region grid by
    netfreq._gbar_values (0 at an exact node zero), take the sup of |gbar_n - ghat|;
    a batch of trials shares one sampling pass, one _gbar_values call and one sup.
    """
    def deviations(n, streams, num, den, pts, ghat_vals):
        inv = _inverse_sum(num, den, pts, range(0, len(num), n))
        gbar_n = _gbar_values(n, pts, inv, lambda t: harmonic_realization(
            sample_nodes(spec, n, streams[t])))
        return np.max(np.abs(gbar_n - ghat_vals), axis=1)

    return _run_concentration(spec, region, sizes, trials, epsilon, deviations)


def full_network_concentration(spec: EnsembleSpec, region: FrequencyRegion,
                               sizes: list[int], trials: int, epsilon: float,
                               ) -> ConcentrationResult:
    """Transfer-matrix version on complete graphs (lambda_2(L_n) = n).

    Deviation metric is sup_S ||T_n(s, w) - (1/n) ghat(s) 11^T|| with the
    coupling absorbed into L (f = 1).
    """
    def deviations(n, streams, num, den, pts, ghat_vals):
        L, ones = n * np.eye(n) - 1.0, [1.0] * len(pts)  # L = nI - 11^T, f = 1
        for t, stream in enumerate(streams):
            ginv = _node_inverses(num[t * n:(t + 1) * n], den[t * n:(t + 1) * n], pts)
            if np.isinf(ginv).any():  # a node zero: _transfer's limit needs reduced nodes
                nodes = sample_nodes(spec, n, stream)
                ginv = _node_inverses(_pad([g.num for g in nodes]),
                                      _pad([g.den for g in nodes]), pts)
            yield max(dev for dev, _ in _class_norms(pts, ginv, ghat_vals, ones, L))

    return _run_concentration(spec, region, sizes, trials, epsilon, deviations)


def _trial_stream(size_idx: int, trial: int) -> int:
    # disjoint streams per (size, trial); results merge deterministically
    return size_idx * 1_000_003 + trial + 1
