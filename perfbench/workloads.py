"""Workload definitions: JSON configs generated from the workload seed.

Each workload is a fixed list of CLI invocations.  Only the parameter
values come from the seed; sizes, grids and structure are constants, so
every seed asks the program for the same amount of work.  The program sees
only the generated config files (plus ``--seed 6*seed + k`` for the
concentrate batches).

Long commands are split into several shorter calls of the same kind (six
concentrate batches, two simulate calls).  run.py times a reference loop
between calls to gauge the shared host's speed, and a call of about 1.5 s
tracks that speed better than one of 3 s (see README.md).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# freq-domain: analyze/bound on a heterogeneous swing ring
RING_N = 200
ANALYZE_POINTS = 17
ANALYZE_OMEGA = (-1.0, 1.0)
# alphas as multiples of the precondition threshold alpha*; the bound is
# valid above it and invalid below it, with a factor-2 margin on each side
ALPHA_FACTORS = (0.25, 0.5, 2.0, 4.0)
BOUND_RECT_RES = 5
BOUND_SIGMA = 0.2
BOUND_FACTOR = 4.0
# freq-domain: exact aggregation of turbine-governed swing nodes
AGG_N = 12
AGG_DISTINCT_TAUS = 8
AGG_POINTS = 17
AGG_OMEGA = (-2.0, 2.0)
# concentration
CONC_SIZES = (10, 40, 160, 640)
# six batches of 10 trials, one concentrate call each; the slope check
# pools them (mean of the batch medians), which is as steady as 60 trials
CONC_TRIALS = 10
CONC_BATCHES = 6
CONC_M = (1.0, 3.0)
CONC_D = (0.5, 1.5)
CONC_POINTS = 33
# time-domain
SIM_N = 4
SIM_STREAMS = (3, 5)  # one simulate call per stream
SIM_T_END = 50.0
SIM_DT = 2e-3
FREQDEP_N = 4
FREQDEP_ALPHAS = (0.05, 0.4)
FREQDEP_T_END = 40.0
FREQDEP_DT = 1e-2

MAJORANT_SAFETY = 1.05  # the program's documented inflation of grid suprema


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``netcoh.cli.run(command, config, seed=seed, out=out)``."""

    command: str
    config: Path
    out: Path
    seed: int | None = None


def _write(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return path


def swing_nodes(m, d) -> list[dict]:
    """g_i = 1/(m_i s + d_i), ascending coefficients."""
    return [{"num": [1.0], "den": [float(di), float(mi)]} for mi, di in zip(m, d)]


def turbine_nodes(m, d, r_inv, tau) -> list[dict]:
    """g_i = 1/(m s + d + r_inv/(tau s + 1)) = (tau s + 1)/(m tau s^2 + (m + d tau)s + d + r_inv)."""
    return [{"num": [1.0, float(t)],
             "den": [float(di + ri), float(mi + di * t), float(mi * t)]}
            for mi, di, ri, t in zip(m, d, r_inv, tau)]


def _grid(kind, sigma, omega, res) -> np.ndarray:
    omegas = np.linspace(omega[0], omega[1], res)
    if kind == "vertical_segment":
        return sigma + 1j * omegas
    sigmas = np.linspace(0.0, sigma, res)
    return (sigmas[:, None] + 1j * omegas[None, :]).ravel()


def swing_threshold(m, d, pts) -> float:
    """M2 + M1 M2^2 for swing nodes over the grid pts, majorants inflated
    like the program's, i.e. the value |f| lambda_2 must exceed."""
    m, d = np.asarray(m), np.asarray(d)
    ginv = np.abs(m[:, None] * pts[None, :] + d[:, None])
    gbar = np.abs(len(m) / np.sum(m[:, None] * pts[None, :] + d[:, None], axis=0))
    M1 = MAJORANT_SAFETY * gbar.max()
    M2 = MAJORANT_SAFETY * ginv.max()
    return M2 + M1 * M2 * M2


def ring_lambda2(n: int, weight: float) -> float:
    return 2.0 * weight * (1.0 - math.cos(2.0 * math.pi / n))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def freq_domain(seed: int, cfg_dir: Path, out_dir: Path,
                ring_n: int = RING_N, agg_n: int = AGG_N,
                agg_taus: int = AGG_DISTINCT_TAUS) -> list[Invocation]:
    rng = _rng(seed, 1)
    m = rng.uniform(1.0, 3.0, ring_n)
    d = rng.uniform(0.5, 1.5, ring_n)
    net = {"nodes": swing_nodes(m, d), "coupling": {"num": [1.0], "den": [1.0]},
           "laplacian": {"builder": {"kind": "ring", "n": ring_n, "weight": 1.0}}}
    seg = {"kind": "vertical_segment", "sigma": 0.0,
           "omega_range": list(ANALYZE_OMEGA), "resolution": ANALYZE_POINTS}
    alpha_star = swing_threshold(
        m, d, _grid("vertical_segment", 0.0, ANALYZE_OMEGA, ANALYZE_POINTS)
    ) / ring_lambda2(ring_n, 1.0)
    analyze = {"net": net, "region": seg,
               "sweep": {"alphas": [f * alpha_star for f in ALPHA_FACTORS]}}

    rect = {"kind": "rect_grid", "sigma": BOUND_SIGMA,
            "omega_range": list(ANALYZE_OMEGA), "resolution": BOUND_RECT_RES}
    rect_star = swing_threshold(
        m, d, _grid("rect_grid", BOUND_SIGMA, ANALYZE_OMEGA, BOUND_RECT_RES)
    ) / ring_lambda2(ring_n, 1.0)
    bound_net = dict(net, laplacian={"builder": {
        "kind": "ring", "n": ring_n, "weight": BOUND_FACTOR * rect_star}})
    bound = {"net": bound_net, "region": rect}

    rng = _rng(seed, 2)
    taus = rng.uniform(0.5, 8.0, agg_taus)
    agg = {"net": {
        "nodes": turbine_nodes(rng.uniform(1.0, 3.0, agg_n),
                               rng.uniform(0.5, 1.5, agg_n),
                               rng.uniform(2.0, 6.0, agg_n),
                               [taus[i % agg_taus] for i in range(agg_n)]),
        "coupling": {"num": [1.0], "den": [1.0]},
        "laplacian": {"builder": {"kind": "complete", "n": agg_n,
                                  "weight": float(rng.uniform(1.0, 3.0))}}},
        "region": {"kind": "vertical_segment", "sigma": 0.0,
                   "omega_range": list(AGG_OMEGA), "resolution": AGG_POINTS}}
    return [
        Invocation("analyze", _write(cfg_dir / "analyze.json", analyze), out_dir),
        Invocation("bound", _write(cfg_dir / "bound.json", bound), out_dir),
        Invocation("aggregate", _write(cfg_dir / "aggregate.json", agg), out_dir),
    ]


def concentration(seed: int, cfg_dir: Path, out_dir: Path,
                  sizes=CONC_SIZES, trials: int = CONC_TRIALS,
                  batches: int = CONC_BATCHES) -> list[Invocation]:
    cfg = {"ensemble": {"family": "swing", "params": {
        "m": {"kind": "uniform", "lo": CONC_M[0], "hi": CONC_M[1]},
        "d": {"kind": "uniform", "lo": CONC_D[0], "hi": CONC_D[1]}}},
        "region": {"kind": "vertical_segment", "sigma": 0.0,
                   "omega_range": [-1.0, 1.0], "resolution": CONC_POINTS},
        "sweep": {"sizes": list(sizes), "trials": trials, "epsilon": 0.05}}
    path = _write(cfg_dir / "concentrate.json", cfg)
    return [Invocation("concentrate", path, out_dir / f"batch{k}", seed=batches * seed + k)
            for k in range(batches)]


def time_domain(seed: int, cfg_dir: Path, out_dir: Path,
                t_end: float = SIM_T_END, freqdep_t_end: float = FREQDEP_T_END,
                ) -> list[Invocation]:
    invocations = []
    for k, stream in enumerate(SIM_STREAMS):
        rng = _rng(seed, stream)
        m = rng.uniform(1.0, 3.0, SIM_N)
        d = rng.uniform(0.5, 1.5, SIM_N)
        shape = rng.uniform(-1.0, 1.0, SIM_N)
        sim = {"net": {"nodes": swing_nodes(m, d),
                       "coupling": {"num": [1.0], "den": [1.0]},
                       "laplacian": {"builder": {"kind": "ring", "n": SIM_N,
                                                 "weight": float(rng.uniform(0.5, 2.0))}}},
               "input": {"family": "step", "shape": [float(v) for v in shape]},
               "simulate": {"t_end": t_end, "dt": SIM_DT,
                            "inertias": [float(v) for v in m]}}
        invocations.append(Invocation("simulate", _write(cfg_dir / f"simulate{k}.json", sim),
                                      out_dir / f"sim{k}"))
    rng = _rng(seed, 4)
    fd = {"net": {"nodes": swing_nodes(rng.uniform(1.0, 3.0, FREQDEP_N),
                                       rng.uniform(0.5, 1.5, FREQDEP_N)),
                  "coupling": {"num": [1.0], "den": [0.0, 1.0]},
                  "laplacian": {"builder": {"kind": "complete", "n": FREQDEP_N,
                                            "weight": float(rng.uniform(0.5, 2.0))}}},
          "sweep": {"alphas": list(FREQDEP_ALPHAS)},
          "simulate": {"t_end": freqdep_t_end, "dt": FREQDEP_DT}}
    return invocations + [Invocation("freqdep", _write(cfg_dir / "freqdep.json", fd), out_dir)]
