"""Command-line front end: one JSON config per run, CSV artifacts out.

Commands: analyze, bound, simulate, freqdep, concentrate, aggregate.
Every CSV starts with #-prefixed provenance lines (tool version, config
hash, seed) and identical (config, seed) runs reproduce outputs byte for
byte.  Exit codes: 0 success, 2 config error (including any ValueError
from an out-of-range config value), 3 singularity/precondition error,
4 instability refusal, 5 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__, ensemble, graph, netfreq, timedomain
from .errors import (
    ConfigError,
    NetcohError,
    UnstableModelError,
    require_number,
)
from .netfreq import FrequencyRegion, NetworkModel
from .ratfun import RationalFunction
from .timedomain import InputSignal

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_UNSTABLE = 4
EXIT_IO = 5


def _load_config(path: str) -> tuple[dict, str]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()[:16]
    return _json(cfg, dict, "config"), digest


def _json(value, kind, what: str):
    """value if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "an array"
        raise ConfigError(f"{what} must be {name}, got {value!r}")
    return value


def _section(cfg: dict, name: str) -> dict:
    return _json(cfg.get(name, {}), dict, name)


def _numbers(values, what: str, integer: bool = False) -> list:
    for v in _json(values, list, what):
        require_number(what, v, integer)
    return values


def _build_rational(obj) -> RationalFunction:
    try:
        return RationalFunction(obj["num"], obj["den"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad rational function spec {obj!r}") from exc


def _build_laplacian(obj, config_dir: Path) -> graph.LaplacianMatrix:
    if "file" in obj:
        path = Path(obj["file"])
        if not path.is_absolute():
            path = config_dir / path
        if not path.exists():
            raise ConfigError(f"laplacian file {path} does not exist")
        return graph.read_edge_list(path)
    if "builder" in obj:
        b = _json(obj["builder"], dict, "laplacian builder")
        try:
            return graph.builder(b["kind"], b["n"], b.get("weight", 1.0))
        except KeyError as exc:
            raise ConfigError(f"bad laplacian builder {b!r}") from exc
    raise ConfigError("laplacian needs 'file' or 'builder'")


def _build_net(cfg: dict, config_dir: Path) -> NetworkModel:
    try:
        net_cfg = _json(cfg["net"], dict, "net")
        nodes = [_build_rational(n)
                 for n in _json(net_cfg["nodes"], list, "net.nodes")]
        coupling = _build_rational(net_cfg["coupling"])
        lap = _build_laplacian(_json(net_cfg["laplacian"], dict, "net.laplacian"),
                               config_dir)
    except KeyError as exc:
        raise ConfigError(f"config missing net section field: {exc}") from exc
    return NetworkModel(nodes, coupling, lap)


def _build_region(cfg: dict) -> FrequencyRegion:
    r = _section(cfg, "region")
    return FrequencyRegion(
        kind=r.get("kind", "vertical_segment"),
        sigma=r.get("sigma", 0.0),
        omega_range=r.get("omega_range", (-1.0, 1.0)),
        resolution=r.get("resolution", 33),
    )


def _build_input(cfg: dict, n: int) -> InputSignal:
    i = _section(cfg, "input")
    shape = i.get("shape")
    if shape is None:
        shape = [0.0] * n
        shape[min(1, n - 1)] = -1.0
    return InputSignal(i.get("family", "step"), _numbers(shape, "input.shape"),
                       require_number("input.alpha", i.get("alpha", 0.0)))


_DISTRIBUTIONS = {
    "uniform": (ensemble.uniform, ("lo", "hi")),
    "normal": (ensemble.normal, ("mean", "sd", "lo", "hi")),
    "point": (ensemble.point, ("value",)),
}


def _build_ensemble(cfg: dict, seed: int) -> ensemble.EnsembleSpec:
    e = cfg.get("ensemble")
    if e is None:
        raise ConfigError("concentrate command needs an 'ensemble' section")
    params = {}
    for name, d in _section(_json(e, dict, "ensemble"), "params").items():
        kind = _json(d, dict, f"distribution {name}").get("kind")
        if kind not in _DISTRIBUTIONS:
            raise ConfigError(f"unknown distribution kind {kind!r}")
        make, fields = _DISTRIBUTIONS[kind]
        try:
            values = [require_number(f"distribution {name}.{f}", d[f]) for f in fields]
        except KeyError as exc:
            raise ConfigError(f"distribution {name} missing field {exc}") from exc
        params[name] = make(*values)
    try:
        return ensemble.EnsembleSpec(e.get("family", "swing"), params, seed)
    except NetcohError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header: str, rows, provenance: list[str]) -> None:
    lines = [f"# {p}" for p in provenance]
    lines.append(header)
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _provenance(digest: str, seed: int) -> list[str]:
    return [f"tool=netcoh {__version__}", f"config_sha256={digest}",
            f"seed={seed}"]


def _sweep_rows(reports):
    for alpha, lam2, rep in reports:
        yield (alpha, lam2, rep.s.real, rep.s.imag, rep.measured, rep.bound,
               rep.bound_valid, rep.effective_connectivity)


SWEEP_HEADER = "alpha,lambda2,s_re,s_im,measured,bound,bound_valid,eff_conn"


def cmd_analyze(cfg, digest, seed, out_dir, config_dir):
    net = _build_net(cfg, config_dir)
    region = _build_region(cfg)
    alphas = _numbers(_section(cfg, "sweep").get("alphas") or [], "alphas")
    if alphas:
        rows = netfreq.connectivity_sweep(net, region, alphas)
        collected = [(row.alpha, row.lambda2, r)
                     for row in rows for r in row.reports]
    else:
        reports, _ = netfreq.sweep_region(net, region)
        collected = [(1.0, net.laplacian.lambda2, r) for r in reports]
    _write_csv(out_dir / "sweep.csv", SWEEP_HEADER, _sweep_rows(collected),
               _provenance(digest, seed))
    return ["sweep.csv"]


def cmd_bound(cfg, digest, seed, out_dir, config_dir):
    net = _build_net(cfg, config_dir)
    if net.laplacian.lambda2 <= 0:
        from .errors import DisconnectedError
        raise DisconnectedError("connectivity bound requires lambda_2(L) > 0")
    region = _build_region(cfg)
    M1, M2 = netfreq.estimate_majorants(net, region)
    reports, _ = netfreq.sweep_region(net, region, M1=M1, M2=M2)
    lam2 = net.laplacian.lambda2
    _write_csv(out_dir / "bound.csv", SWEEP_HEADER,
               _sweep_rows((1.0, lam2, r) for r in reports),
               _provenance(digest, seed))
    return ["bound.csv"]


def cmd_simulate(cfg, digest, seed, out_dir, config_dir):
    net = _build_net(cfg, config_dir)
    sig = _build_input(cfg, net.n)
    sim = _section(cfg, "simulate")
    t_end = require_number("simulate.t_end", sim.get("t_end", 20.0))
    dt = require_number("simulate.dt", sim.get("dt", 0.01))
    inertias = sim.get("inertias")
    if inertias is not None:
        _numbers(inertias, "simulate.inertias")
    res = timedomain.coherence_experiment(net, sig, t_end, dt, inertias=inertias)
    meta = _provenance(digest, seed) + [
        f"dt={dt}", f"input_family={sig.family}", f"input_alpha={sig.alpha}",
    ]
    header = "t," + ",".join(f"y_{i + 1}" for i in range(net.n)) + ",ybar,ycoi"
    coi = ([None] * len(res.times) if res.coi_output is None
           else res.coi_output.tolist())
    rows = zip(res.times.tolist(), *res.node_outputs.tolist(),
               res.coherent_output.tolist(), coi)
    _write_csv(out_dir / "simulation.csv", header, rows, meta)
    return ["simulation.csv"]


def cmd_freqdep(cfg, digest, seed, out_dir, config_dir):
    net = _build_net(cfg, config_dir)
    alphas = _numbers(_section(cfg, "sweep").get("alphas", [0.25, 0.1]), "alphas")
    sim = _section(cfg, "simulate")
    t_end = require_number("simulate.t_end", sim.get("t_end", 120.0))
    dt = require_number("simulate.dt", sim.get("dt", 0.01))
    shape = _section(cfg, "input").get("shape")
    if shape is not None:
        _numbers(shape, "input.shape")
    try:
        rows = timedomain.frequency_dependence_experiment(
            net, alphas, t_end, dt, shape=shape
        )
    except ValueError as exc:
        raise NetcohError(str(exc)) from exc
    _write_csv(out_dir / "freqdep.csv", "alpha,linf_deviation", rows,
               _provenance(digest, seed))
    return ["freqdep.csv"]


def cmd_concentrate(cfg, digest, seed, out_dir, config_dir):
    spec = _build_ensemble(cfg, seed)
    region = _build_region(cfg)
    sweep = _section(cfg, "sweep")
    sizes = _numbers(sweep.get("sizes", [10, 40, 160]), "sizes", integer=True)
    trials = require_number("sweep.trials", sweep.get("trials", 50), integer=True)
    epsilon = require_number("sweep.epsilon", sweep.get("epsilon", 0.05))
    full = sweep.get("full_network", False)
    runner = (ensemble.full_network_concentration if full
              else ensemble.concentration_experiment)
    result = runner(spec, region, sizes, trials, epsilon)
    prov = _provenance(digest, seed)
    rows = [(n, t, d)
            for n, devs in zip(result.sizes, result.deviations)
            for t, d in enumerate(devs)]
    _write_csv(out_dir / "concentration.csv", "n,trial,sup_deviation", rows, prov)
    summary = [(n, med, p) for n, med, p in zip(
        result.sizes, result.median_deviations, result.prob_estimates)]
    _write_csv(out_dir / "concentration_summary.csv",
               "n,median_dev,prob_ge_eps", summary, prov)
    return ["concentration.csv", "concentration_summary.csv"]


def cmd_aggregate(cfg, digest, seed, out_dir, config_dir):
    net = _build_net(cfg, config_dir)
    region = _build_region(cfg)
    aggr = netfreq.aggregate_dynamics(net)
    (out_dir / "aggregate.txt").write_text(aggr.serialize() + "\n")
    reports, t_norms = netfreq.transfer_norm_sweep(net, region)
    rows = [(r.s.real, r.s.imag, t, abs(net.n * aggr(r.s)), r.measured)
            for r, t in zip(reports, t_norms)]
    _write_csv(out_dir / "aggregate_compare.csv",
               "s_re,s_im,t_norm,coherent_gain,incoherence", rows,
               _provenance(digest, seed))
    return ["aggregate.txt", "aggregate_compare.csv"]


_COMMANDS = {
    "analyze": cmd_analyze,
    "bound": cmd_bound,
    "simulate": cmd_simulate,
    "freqdep": cmd_freqdep,
    "concentrate": cmd_concentrate,
    "aggregate": cmd_aggregate,
}


def run(command: str, config_path: str, seed: int | None = None,
        out: str | None = None, alpha: float | None = None) -> int:
    """Execute one command; returns the process exit status."""
    try:
        cfg, digest = _load_config(config_path)
        if command not in _COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        eff_seed = seed if seed is not None else cfg.get("seed", 0)
        if alpha is not None:
            cfg.setdefault("input", {})["alpha"] = alpha
        out_dir = Path(out if out is not None else cfg.get("output_dir", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        config_dir = Path(config_path).resolve().parent
        artifacts = _COMMANDS[command](cfg, digest, eff_seed, out_dir, config_dir)
    except ConfigError as exc:
        print(f"error: kind=config detail={exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnstableModelError as exc:
        print(f"error: kind=UnstableModel detail={exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except NetcohError as exc:
        kind = type(exc).__name__.removesuffix("Error")
        print(f"error: kind={kind} detail={exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: kind=config detail={exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: kind=io detail={exc}", file=sys.stderr)
        return EXIT_IO
    for name in artifacts:
        print(out_dir / name)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="netcoh",
        description="Frequency-domain coherence analysis of heterogeneous networks",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="path to the JSON run config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--alpha", type=float, default=None,
                        help="override the input-signal alpha")
    args = parser.parse_args(argv)
    return run(args.command, args.config, seed=args.seed, out=args.out,
               alpha=args.alpha)


if __name__ == "__main__":
    sys.exit(main())
