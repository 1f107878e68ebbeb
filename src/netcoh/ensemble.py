"""Random node-dynamics ensembles and dynamics-concentration experiments.

Node transfer functions are drawn i.i.d. from a parameterized family with
per-coefficient distributions.  Sampling uses counter-based RNG streams
(seed plus stream index) so trials are reproducible and order-independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDistributionError, NotAffineError, require_increasing
from .graph import builder
from .netfreq import FrequencyRegion, NetworkModel, eval_T
from .ratfun import RationalFunction, harmonic_mean

__all__ = [
    "Distribution",
    "uniform",
    "normal",
    "point",
    "EnsembleSpec",
    "ConcentrationResult",
    "sample_nodes",
    "expected_coherent",
    "SampledCoherent",
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
            raise InvalidDistributionError(f"unknown distribution {self.kind!r}")
        if self.kind in ("uniform", "normal") and not self.lo < self.hi:
            raise InvalidDistributionError(
                f"truncation bounds must satisfy lo < hi, got [{self.lo}, {self.hi}]"
            )
        if self.kind == "normal" and self.sd < 0:
            raise InvalidDistributionError("sd must be non-negative")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "point":
            return np.full(size, self.value)
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi, size)
        if self.sd == 0:
            return np.full(size, min(max(self.mu, self.lo), self.hi))
        out = np.empty(size)
        have = 0
        while have < size:  # rejection sampling keeps truncation exact
            draw = rng.normal(self.mu, self.sd, size - have)
            keep = draw[(draw >= self.lo) & (draw <= self.hi)]
            out[have:have + keep.size] = keep
            have += keep.size
        return out

    def mean(self) -> float:
        if self.kind == "point":
            return self.value
        if self.kind == "uniform":
            return 0.5 * (self.lo + self.hi)
        if self.sd == 0:
            return min(max(self.mu, self.lo), self.hi)
        # truncated normal mean
        a = (self.lo - self.mu) / self.sd
        b = (self.hi - self.mu) / self.sd
        phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        Phi = lambda x: 0.5 * (1 + math.erf(x / math.sqrt(2)))
        z = Phi(b) - Phi(a)
        return self.mu + self.sd * (phi(a) - phi(b)) / z

    @property
    def is_point(self) -> bool:
        return self.kind == "point" or (self.kind == "normal" and self.sd == 0
                                        ) or (self.kind == "uniform"
                                              and self.lo == self.hi)


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
        if self.family in _FAMILY_PARAMS:
            missing = [p for p in _FAMILY_PARAMS[self.family]
                       if p not in self.params]
            if missing:
                raise InvalidDistributionError(
                    f"{self.family} family needs parameters {missing}"
                )
        elif self.family != "custom_coeffs":
            raise InvalidDistributionError(f"unknown family {self.family!r}")

    def param_names(self) -> list[str]:
        if self.family in _FAMILY_PARAMS:
            return list(_FAMILY_PARAMS[self.family])
        return sorted(self.params)

    def make_node(self, values: dict) -> RationalFunction:
        if self.family == "swing":
            g = RationalFunction([1.0], [values["d"], values["m"]])
        elif self.family == "swing_turbine":
            m, d, r_inv, tau = (values[k] for k in _FAMILY_PARAMS["swing_turbine"])
            # 1/(ms + d + r_inv/(tau s + 1)) = (tau s + 1)/(m tau s^2 + (m + d tau)s + d + r_inv)
            g = RationalFunction([1.0, tau],
                                 [d + r_inv, m + d * tau, m * tau])
        else:
            num = [values[k] for k in sorted(values) if k.startswith("num_")]
            den = [values[k] for k in sorted(values) if k.startswith("den_")]
            g = RationalFunction(num, den)
        if not g.is_proper:
            raise InvalidDistributionError(f"sampled node {g} is improper")
        if float(g.den.coeffs[-1]) <= 0:
            raise InvalidDistributionError(
                "sampled node has non-positive leading denominator coefficient"
            )
        return g


def _stream_rng(spec: EnsembleSpec, *indices: int) -> np.random.Generator:
    return np.random.default_rng([spec.seed & 0x7FFFFFFF, *indices])


def sample_nodes(spec: EnsembleSpec, n: int, stream_index: int = 0,
                 ) -> list[RationalFunction]:
    """n i.i.d. draws, reproducible from (spec.seed, stream_index)."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = _stream_rng(spec, stream_index)
    names = spec.param_names()
    draws = {name: spec.params[name].sample(rng, n) for name in names}
    return [spec.make_node({name: float(draws[name][i]) for name in names})
            for i in range(n)]


class SampledCoherent:
    """Monte-Carlo estimate of the expected coherent dynamics.

    Pointwise evaluable: value at s is (1/M sum g^{-1}(s, w_k))^{-1} over M
    frozen draws.
    """

    def __init__(self, nodes: list[RationalFunction]):
        self.nodes = nodes
        self.M = len(nodes)

    def __call__(self, s: complex) -> complex:
        acc = 0j
        for g in self.nodes:
            acc += g.eval_inverse(s)
        return self.M / acc


def expected_coherent(spec: EnsembleSpec, method: str = "analytic_affine",
                      mc_draws: int = 10_000, stream_index: int = 2**31 - 1):
    """ghat(s) = (E g^{-1}(s, w))^{-1}.

    analytic_affine requires g^{-1} affine in the random parameters and
    returns an exact RationalFunction; monte_carlo returns a pointwise
    SampledCoherent over mc_draws fresh draws.
    """
    if method == "monte_carlo":
        return SampledCoherent(sample_nodes(spec, mc_draws, stream_index))
    if method != "analytic_affine":
        raise ValueError(f"unknown method {method!r}")
    means = {k: v.mean() for k, v in spec.params.items()}
    if spec.family == "swing":
        # E g^{-1} = E[m] s + E[d]
        return RationalFunction([1.0], [means["d"], means["m"]])
    if spec.family == "swing_turbine":
        if not spec.params["tau"].is_point:
            raise NotAffineError(
                "g^{-1} is not affine in a random turbine time constant"
            )
        tau = means["tau"]
        return RationalFunction(
            [1.0, tau],
            [means["d"] + means["r_inv"], means["m"] + means["d"] * tau,
             means["m"] * tau],
        )
    # custom_coeffs: affine iff the numerator is deterministic
    num_names = sorted(k for k in spec.params if k.startswith("num_"))
    den_names = sorted(k for k in spec.params if k.startswith("den_"))
    if any(not spec.params[k].is_point for k in num_names):
        raise NotAffineError("random numerator coefficients break affinity")
    return RationalFunction([means[k] for k in num_names],
                            [means[k] for k in den_names])


@dataclass(frozen=True, eq=False)
class ConcentrationResult:
    """Per-size deviation samples and tail-probability estimates."""

    sizes: list[int]
    deviations: list[list[float]]  # per size, one value per trial
    epsilon: float
    prob_estimates: list[float]
    metadata: dict = field(default_factory=dict)

    @property
    def median_deviations(self) -> list[float]:
        return [float(np.median(d)) for d in self.deviations]


def _ghat_on_grid(spec, region):
    try:
        ghat = expected_coherent(spec, "analytic_affine")
        certified = True
    except NotAffineError:
        ghat = expected_coherent(spec, "monte_carlo")
        certified = False
    pts = region.points()
    vals = np.array([ghat(s) for s in pts])
    return pts, vals, certified


def _run_concentration(spec, region, sizes, trials, epsilon, deviation,
                       **metadata) -> ConcentrationResult:
    """Sizes x trials loop shared by both experiments.

    deviation(nodes, pts, ghat_vals) gives one trial's grid-sup deviation.
    """
    require_increasing("sizes", sizes)
    pts, ghat_vals, certified = _ghat_on_grid(spec, region)
    deviations = [
        [float(deviation(sample_nodes(spec, n, _trial_stream(size_idx, trial)),
                         pts, ghat_vals))
         for trial in range(trials)]
        for size_idx, n in enumerate(sizes)
    ]
    probs = [float(np.mean(np.asarray(d) >= epsilon)) for d in deviations]
    return ConcentrationResult(
        sizes=list(sizes), deviations=deviations, epsilon=epsilon,
        prob_estimates=probs,
        metadata={"ghat_uniform_continuity_certified": certified, **metadata},
    )


def concentration_experiment(spec: EnsembleSpec, region: FrequencyRegion,
                             sizes: list[int], trials: int, epsilon: float,
                             ) -> ConcentrationResult:
    """Grid-sup deviation of the empirical coherent dynamics from ghat.

    Per (size, trial): draw nodes, form the harmonic mean, take the sup of
    |gbar_n - ghat| over the region grid.
    """
    def deviation(nodes, pts, ghat_vals):
        gbar_n = harmonic_mean(nodes)
        return max(abs(gbar_n(s) - gv) for s, gv in zip(pts, ghat_vals))

    return _run_concentration(spec, region, sizes, trials, epsilon, deviation,
                              metric="sup |gbar_n - ghat|")


def full_network_concentration(spec: EnsembleSpec, region: FrequencyRegion,
                               sizes: list[int], trials: int, epsilon: float,
                               ) -> ConcentrationResult:
    """Transfer-matrix version on complete graphs (lambda_2(L_n) = n).

    Deviation metric is sup_S ||T_n(s, w) - (1/n) ghat(s) 11^T|| with the
    coupling absorbed into L (f = 1).
    """
    unit = RationalFunction([1.0], [1.0])
    complete = functools.cache(functools.partial(builder, "complete"))

    def deviation(nodes, pts, ghat_vals):
        n = len(nodes)
        net = NetworkModel(nodes, unit, complete(n))
        dev = 0.0
        for s, gv in zip(pts, ghat_vals):
            T = eval_T(net, s)
            coh = (gv / n) * np.ones((n, n))
            dev = max(dev, float(np.linalg.norm(T - coh, 2)))
        return dev

    return _run_concentration(spec, region, sizes, trials, epsilon, deviation,
                              metric="sup ||T_n - (1/n) ghat 11^T||",
                              laplacian_family="complete")


def _trial_stream(size_idx: int, trial: int) -> int:
    # disjoint streams per (size, trial); results merge deterministically
    return size_idx * 1_000_003 + trial + 1
