"""Output checks computed apart from the program.

Every check reads the generated config and the artifacts one CLI command
wrote, and recomputes what it can in plain numpy floats (``np.polyval``
node evaluations, dense inverses, closed-form spectra and step responses).
None of them imports ``netcoh``.  A failed check raises ``CheckError``.

Tolerances admit any accurate evaluation order.  Frequency-domain values
agree to about 1e-15 today and are held to 1e-9 relative.  Time-domain
outputs are held to 1e-6 of their peak: RK4 at the generated step sizes
agrees with the closed forms to about 1e-12, and an exact discretization
of the same models would agree to rounding.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

# Fixed row subsets keep the dense recomputations cheap; the first and last
# rows are always included.
MEASURED_STRIDE = 8
SIM_SAMPLES = 200
SLOPE_WINDOW = (-0.65, -0.35)  # n^{-1/2} concentration rate with margin


class CheckError(AssertionError):
    """An artifact disagrees with its independent recomputation."""


def _require(ok, msg: str) -> None:
    if not ok:
        raise CheckError(msg)


def _close(got, want, rtol, atol, what: str) -> None:
    got, want = np.asarray(got), np.asarray(want)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        raise CheckError(f"{what}: got {got.ravel()[i]!r}, expected "
                         f"{want.ravel()[i]!r} (index {i})")


def read_config(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def columns(path: Path) -> dict[str, list[str]]:
    """Columns of a netcoh CSV by header name, skipping the '#' provenance lines."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    for r in rows:
        _require(len(r) == len(header), f"{path.name}: ragged row {r}")
    return {h: [r[i] for r in rows] for i, h in enumerate(header)}


def _floats(col) -> np.ndarray:
    return np.array([float(v) for v in col])


def _sample(count: int, stride: int) -> list[int]:
    return sorted(set(range(0, count, stride)) | {count - 1})


# --- models rebuilt from the config ---

def _poly(coeffs_ascending, s):
    return np.polyval(np.asarray(coeffs_ascending, float)[::-1], s)


def node_inverse(cfg: dict, s) -> np.ndarray:
    """g_i^-1(s) for every node, shape (n, len(s))."""
    s = np.atleast_1d(np.asarray(s, complex))
    return np.array([_poly(g["den"], s) / _poly(g["num"], s)
                     for g in cfg["net"]["nodes"]])


def coupling(cfg: dict, s) -> np.ndarray:
    c = cfg["net"]["coupling"]
    s = np.atleast_1d(np.asarray(s, complex))
    return _poly(c["num"], s) / _poly(c["den"], s)


def builder_edges(b: dict) -> list[tuple[int, int]]:
    n, kind = b["n"], b["kind"]
    if kind == "ring":
        return [(i, (i + 1) % n) for i in range(n)]
    if kind == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    raise CheckError(f"no edge list for builder kind {kind!r}")


def laplacian(cfg: dict) -> np.ndarray:
    b = cfg["net"]["laplacian"]["builder"]
    w = b.get("weight", 1.0)
    L = np.zeros((b["n"], b["n"]))
    for i, j in builder_edges(b):
        L[i, i] += w
        L[j, j] += w
        L[i, j] -= w
        L[j, i] -= w
    return L


def grid(region: dict) -> np.ndarray:
    w0, w1 = region["omega_range"]
    omegas = np.linspace(w0, w1, region["resolution"])
    if region["kind"] == "vertical_segment":
        return region["sigma"] + 1j * omegas
    sigmas = np.linspace(0.0, region["sigma"], region["resolution"])
    return (sigmas[:, None] + 1j * omegas[None, :]).ravel()


def transfer_stats(cfg: dict, L: np.ndarray, s: complex) -> tuple[float, float, complex]:
    """(||T||_2, ||T - (1/n) gbar 11^T||_2, gbar) with T = (diag g^-1 + f L)^-1."""
    ginv = node_inverse(cfg, s)[:, 0]
    n = len(ginv)
    T = np.linalg.inv(np.diag(ginv) + coupling(cfg, s)[0] * L)
    gbar = n / np.sum(ginv)
    return (float(np.linalg.norm(T, 2)),
            float(np.linalg.norm(T - (gbar / n) * np.ones((n, n)), 2)), gbar)


# --- freq-domain ---

def sweep_grid(cfg: dict, path: Path) -> None:
    """Rows are alphas x grid points in order, with the region's s values."""
    c = columns(path)
    pts = grid(cfg["region"])
    alphas = cfg.get("sweep", {}).get("alphas") or [1.0]
    _require(len(c["s_re"]) == len(alphas) * len(pts),
             f"{path.name}: {len(c['s_re'])} rows, expected {len(alphas) * len(pts)}")
    _close(_floats(c["alpha"]), np.repeat(alphas, len(pts)), 1e-15, 0, "alpha column")
    _close(_floats(c["s_re"]), np.tile(pts.real, len(alphas)), 0, 1e-12, "s_re column")
    _close(_floats(c["s_im"]), np.tile(pts.imag, len(alphas)), 0, 1e-12, "s_im column")


def sweep_measured(cfg: dict, path: Path) -> None:
    """measured = ||M^-1 - (1/n) gbar 11^T||_2 recomputed at sampled grid points."""
    c = columns(path)
    L = laplacian(cfg)
    for i in _sample(len(c["measured"]), MEASURED_STRIDE):
        s = complex(float(c["s_re"][i]), float(c["s_im"][i]))
        t_norm, want, _ = transfer_stats(cfg, float(c["alpha"][i]) * L, s)
        _close(float(c["measured"][i]), want, 1e-9, 1e-12 * t_norm,
               f"{path.name} row {i} measured")


def sweep_connectivity(cfg: dict, path: Path) -> None:
    """lambda2 is the ring closed form 2 alpha w (1 - cos 2pi/n); eff_conn = |f(s)| lambda2."""
    c = columns(path)
    b = cfg["net"]["laplacian"]["builder"]
    _require(b["kind"] == "ring", "closed-form lambda2 needs a ring")
    alpha = _floats(c["alpha"])
    lam2 = 2.0 * alpha * b.get("weight", 1.0) * (1.0 - math.cos(2.0 * math.pi / b["n"]))
    _close(_floats(c["lambda2"]), lam2, 1e-9, 0, f"{path.name} lambda2")
    s = _floats(c["s_re"]) + 1j * _floats(c["s_im"])
    _close(_floats(c["eff_conn"]), np.abs(coupling(cfg, s)) * lam2, 1e-9, 0,
           f"{path.name} eff_conn")


def sweep_bound(cfg: dict, path: Path, expect_invalid: bool) -> None:
    """Every bound_valid row has measured <= bound; valid rows carry a bound.

    expect_invalid: the alphas span the precondition threshold, so both
    valid and invalid rows must occur.
    """
    c = columns(path)
    valid = c["bound_valid"]
    _require(set(valid) <= {"true", "false"}, f"{path.name}: bad bound_valid values")
    for i, v in enumerate(valid):
        if v == "true":
            m, b = float(c["measured"][i]), float(c["bound"][i])
            _require(m <= b, f"{path.name} row {i}: measured {m} > bound {b}")
        else:
            _require(c["bound"][i] == "", f"{path.name} row {i}: bound on invalid row")
    _require("true" in valid, f"{path.name}: no bound_valid row")
    if expect_invalid:
        _require("false" in valid, f"{path.name}: no invalid row")


def aggregate_model(cfg: dict, path: Path) -> None:
    """aggregate.txt equals 1/sum g_i^-1 on the grid; den degree = distinct taus + 1."""
    m = re.match(r"\s*num=\[(.*?)\]\s*,\s*den=\[(.*?)\]\s*$", Path(path).read_text())
    _require(m is not None, "aggregate.txt is not num=[...], den=[...]")
    num, den = ([float(x) for x in g.split(",") if x.strip()] for g in m.groups())
    taus = {g["num"][-1] for g in cfg["net"]["nodes"]}
    _require(len(den) - 1 == len(taus) + 1,
             f"aggregate denominator degree {len(den) - 1}, expected {len(taus) + 1}")
    pts = grid(cfg["region"])
    want = 1.0 / np.sum(node_inverse(cfg, pts), axis=0)
    got = _poly(num, pts) / _poly(den, pts)
    _close(got.real, want.real, 1e-9, 1e-12 * np.abs(want).max(), "aggregate model (re)")
    _close(got.imag, want.imag, 1e-9, 1e-12 * np.abs(want).max(), "aggregate model (im)")


def aggregate_compare(cfg: dict, path: Path) -> None:
    """t_norm, coherent_gain = |gbar| and incoherence recomputed in floats."""
    c = columns(path)
    pts = grid(cfg["region"])
    _require(len(c["s_re"]) == len(pts), f"{path.name}: row count")
    _close(_floats(c["s_re"]) + 1j * _floats(c["s_im"]), pts, 0, 1e-12, "s column")
    L = laplacian(cfg)
    stats = [transfer_stats(cfg, L, s) for s in pts]
    _close(_floats(c["t_norm"]), [t for t, _, _ in stats], 1e-9, 0, "t_norm")
    _close(_floats(c["coherent_gain"]), [abs(g) for _, _, g in stats], 1e-9, 0,
           "coherent_gain")
    _close(_floats(c["incoherence"]), [x for _, x, _ in stats], 1e-9,
           1e-12 * max(t for t, _, _ in stats), "incoherence")


# --- concentration ---

def _stream(seed: int, size_idx: int, trial: int) -> np.random.Generator:
    # the program's documented counter-based streams: (seed, stream index),
    # one stream per (size, trial)
    return np.random.default_rng([seed & 0x7FFFFFFF, size_idx * 1_000_003 + trial + 1])


def concentration_rows(cfg: dict, path: Path, summary: Path) -> None:
    """sizes x trials rows in order; the summary's medians and tail
    probabilities follow from them."""
    sw = cfg["sweep"]
    sizes, trials = sw["sizes"], sw["trials"]
    c = columns(path)
    _require(len(c["n"]) == len(sizes) * trials,
             f"{path.name}: {len(c['n'])} rows, expected {len(sizes) * trials}")
    _require([int(v) for v in c["n"]] == [n for n in sizes for _ in range(trials)],
             f"{path.name}: n column out of order")
    _require([int(v) for v in c["trial"]] == list(range(trials)) * len(sizes),
             f"{path.name}: trial column out of order")
    devs = _floats(c["sup_deviation"]).reshape(len(sizes), trials)
    s = columns(summary)
    _require([int(v) for v in s["n"]] == list(sizes), f"{summary.name}: n column")
    _close(_floats(s["median_dev"]), np.median(devs, axis=1), 1e-15, 0, "median_dev")
    _close(_floats(s["prob_ge_eps"]), np.mean(devs >= sw["epsilon"], axis=1), 0, 0,
           "prob_ge_eps")


def concentration_slope(summaries: list[Path]) -> None:
    """The mean over batches of the median deviations falls with n at a
    log-log slope inside SLOPE_WINDOW."""
    cols = [columns(p) for p in summaries]
    n = _floats(cols[0]["n"])
    for c in cols:
        _require(np.array_equal(_floats(c["n"]), n), "batches disagree on sizes")
    med = np.mean([_floats(c["median_dev"]) for c in cols], axis=0)
    slope = float(np.polyfit(np.log(n), np.log(med), 1)[0])
    _require(SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1],
             f"median deviation slope {slope:.3f} outside {SLOPE_WINDOW}")


def concentration_deviation(cfg: dict, path: Path, seed: int) -> None:
    """sup_S |n / sum(m_i s + d_i) - 1/(E[m] s + E[d])| per trial, in floats,
    from the swing parameters drawn on each trial's stream."""
    e = cfg["ensemble"]
    _require(e["family"] == "swing" and all(
        p["kind"] == "uniform" for p in e["params"].values()),
        "recomputation covers uniform swing ensembles")
    pm, pd = e["params"]["m"], e["params"]["d"]
    pts = grid(cfg["region"])
    ghat = 1.0 / (0.5 * (pm["lo"] + pm["hi"]) * pts + 0.5 * (pd["lo"] + pd["hi"]))
    sw = cfg["sweep"]
    got = _floats(columns(path)["sup_deviation"]).reshape(len(sw["sizes"]), sw["trials"])
    for k, n in enumerate(sw["sizes"]):
        want = []
        for t in range(sw["trials"]):
            rng = _stream(seed, k, t)
            m = rng.uniform(pm["lo"], pm["hi"], n)
            d = rng.uniform(pd["lo"], pd["hi"], n)
            gbar = n / np.sum(m[:, None] * pts[None, :] + d[:, None], axis=0)
            want.append(np.max(np.abs(gbar - ghat)))
        _close(got[k], want, 1e-8, 0, f"sup_deviation at n={n}")


# --- time-domain ---

def _swing_params(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    nodes = cfg["net"]["nodes"]
    for g in nodes:
        _require(g["num"] == [1.0] and len(g["den"]) == 2, "closed form needs swing nodes")
    return (np.array([g["den"][1] for g in nodes]), np.array([g["den"][0] for g in nodes]))


def _sim_rows(cfg: dict, path: Path) -> dict[str, np.ndarray]:
    """Sampled rows of simulation.csv as float columns.

    Streams the file, so the check holds only the sampled rows in memory
    and leaves the process's peak RSS to the program.
    """
    sim = cfg["simulate"]
    steps = int(round(sim["t_end"] / sim["dt"]))
    rows = _sample(steps + 1, max(1, (steps + 1) // SIM_SAMPLES))
    keep, header, kept, count = set(rows), None, [], 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            if header is None:
                header = line.rstrip("\n").split(",")
                continue
            if count in keep:
                kept.append([float(v) for v in line.split(",")])
            count += 1
    _require(count == steps + 1, f"{path.name}: {count} rows, expected {steps + 1}")
    c = dict(zip(header, np.array(kept).T))
    _close(c["t"], np.array(rows) * sim["dt"], 1e-12, 1e-12, "t column")
    return c


def simulate_nodes(cfg: dict, path: Path) -> None:
    """Static coupling, step u0: y(t) = (D+L)^-1 (I - e^{-M^-1 (D+L) t}) u0,
    through the symmetric form M^-1/2 (D+L) M^-1/2 = Q diag(lam) Q^T."""
    _require(cfg["net"]["coupling"] == {"num": [1.0], "den": [1.0]}, "needs f = 1")
    m, d = _swing_params(cfg)
    c = _sim_rows(cfg, path)
    t = c["t"]
    u0 = np.asarray(cfg["input"]["shape"], float)
    K = np.diag(d) + laplacian(cfg)
    r = 1.0 / np.sqrt(m)
    lam, Q = np.linalg.eigh(r[:, None] * K * r[None, :])
    # x = M^1/2 y obeys x' = -S x + M^-1/2 u0, with S = Q diag(lam) Q^T
    b = Q.T @ (r * u0)
    modes = (1.0 - np.exp(-np.outer(lam, t))) / lam[:, None] * b[:, None]
    want = r[:, None] * (Q @ modes)
    got = np.array([c[f"y_{i + 1}"] for i in range(len(m))])
    _close(got, want, 1e-6, 1e-6 * np.abs(want).max(), "node outputs")


def simulate_references(cfg: dict, path: Path) -> None:
    """ybar = (mean u0 / mean d)(1 - e^{-mean d t / mean m}); ycoi is the
    inertia-weighted mean of the node columns."""
    m, d = _swing_params(cfg)
    c = _sim_rows(cfg, path)
    t = c["t"]
    ubar = float(np.mean(cfg["input"]["shape"]))
    want = ubar / d.mean() * (1.0 - np.exp(-d.mean() * t / m.mean()))
    _close(c["ybar"], want, 1e-6,
           1e-6 * np.abs(want).max(), "ybar")
    w = np.asarray(cfg["simulate"]["inertias"], float)
    y = np.array([c[f"y_{i + 1}"] for i in range(len(w))])
    coi = w @ y / w.sum()
    _close(c["ycoi"], coi, 1e-12,
           1e-12 * np.abs(coi).max(), "ycoi")


def freqdep_order(cfg: dict, path: Path) -> None:
    """Lower sinusoid frequency gives smaller deviation (integrator coupling)."""
    c = columns(path)
    alphas = cfg["sweep"]["alphas"]
    _close(_floats(c["alpha"]), alphas, 0, 0, "alpha column")
    dev = _floats(c["linf_deviation"])
    _require(np.all(np.isfinite(dev)) and np.all(dev > 0), f"deviations {dev}")
    order = np.argsort(alphas)
    _require(np.all(np.diff(dev[order]) > 0),
             f"deviation not increasing with sinusoid frequency: {dev[order]}")


def checks_for(inv, cfg: dict):
    """(name, thunk) pairs checking one invocation's artifacts."""
    command, out = inv.command, inv.out
    if command in ("analyze", "bound"):
        f = out / ("sweep.csv" if command == "analyze" else "bound.csv")
        return [
            (f"{command}.grid", lambda: sweep_grid(cfg, f)),
            (f"{command}.measured", lambda: sweep_measured(cfg, f)),
            (f"{command}.connectivity", lambda: sweep_connectivity(cfg, f)),
            (f"{command}.bound", lambda: sweep_bound(cfg, f, command == "analyze")),
        ]
    if command == "aggregate":
        return [
            ("aggregate.model", lambda: aggregate_model(cfg, out / "aggregate.txt")),
            ("aggregate.compare",
             lambda: aggregate_compare(cfg, out / "aggregate_compare.csv")),
        ]
    if command == "concentrate":
        rows, summary = out / "concentration.csv", out / "concentration_summary.csv"
        return [
            ("concentrate.rows", lambda: concentration_rows(cfg, rows, summary)),
            ("concentrate.deviation",
             lambda: concentration_deviation(cfg, rows, inv.seed)),
        ]
    if command == "simulate":
        f = out / "simulation.csv"
        return [
            ("simulate.nodes", lambda: simulate_nodes(cfg, f)),
            ("simulate.references", lambda: simulate_references(cfg, f)),
        ]
    if command == "freqdep":
        return [("freqdep.order", lambda: freqdep_order(cfg, out / "freqdep.csv"))]
    raise KeyError(command)


def workload_checks(invocations):
    """(name, thunk) pairs over the artifacts of a whole round."""
    summaries = [inv.out / "concentration_summary.csv"
                 for inv in invocations if inv.command == "concentrate"]
    if summaries:
        return [("concentrate.slope", lambda: concentration_slope(summaries))]
    return []
