"""Command-line front end: one JSON config per run, CSV artifacts out.

Commands: analyze, bound, simulate, freqdep, concentrate, aggregate.  Each
maps config values, read through one typed reader (_get), to library calls
and CSV.  Range checks and error kinds belong to the library, and so do the
defaults of the region and of a builder's weight; every other optional
field (time span, dt, alphas, sizes, trials, epsilon, ensemble family,
input, seed, output_dir) takes its default here, where it is read.
Every CSV starts with #-prefixed provenance lines (tool version, config
hash, seed) and identical (config, seed) runs reproduce outputs byte for
byte.  Exit codes: 0 success, 2 config error (any ValueError: a missing,
wrongly typed or out-of-range value), 3 singularity or precondition error
(a NetcohError, even one that is also a ValueError), 4 instability
refusal (UnstableModelError), 5 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, ensemble, graph, netfreq, timedomain
from .errors import (DisconnectedError, NetcohError, UnstableModelError,
                     require_number)
from .netfreq import FrequencyRegion, NetworkModel
from .ratfun import RationalFunction
from .timedomain import InputSignal

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_UNSTABLE = 4
EXIT_IO = 5

# simulate's samples become Python floats 1024 rows at a time: ~0.3 MiB at 7 columns
_SIM_BLOCK_ROWS = 1024


def _load_config(path: str) -> tuple[dict, str]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()[:16]
    return _check("config", cfg, dict), digest


_REQUIRED = object()
_KIND_NAMES = {bool: "true or false", str: "a string", dict: "an object",
               list: "an array"}


def _get(obj: dict, key: str, kind, default=_REQUIRED):
    """obj[key] checked against kind, or default when key is absent.

    kind is float, int, bool, str, dict, list, or [kind] for an array of
    kind; numbers go through require_number, so a bool is no number.  JSON
    null is a wrong type for every kind.
    """
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError(f"missing field {key!r}")
        return default
    return _check(key, obj[key], kind)


def _check(name: str, value, kind):
    if isinstance(kind, list):
        for v in _check(name, value, list):
            _check(f"{name} entry", v, kind[0])
    elif kind in (float, int):
        require_number(name, value, integer=kind is int)
    elif not isinstance(value, kind):
        raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _present(obj: dict, *keys: str) -> dict:
    """The keys of obj that are set, for a library call that owns their
    defaults and checks."""
    return {k: obj[k] for k in keys if k in obj}


def _build_rational(obj: dict) -> RationalFunction:
    return RationalFunction(_get(obj, "num", [float]), _get(obj, "den", [float]))


def _build_laplacian(obj: dict, config_dir: Path) -> graph.LaplacianMatrix:
    if "file" in obj:
        path = config_dir / _get(obj, "file", str)  # an absolute path stays
        if not path.exists():
            raise ValueError(f"laplacian file {path} does not exist")
        return graph.read_edge_list(path)
    if "builder" in obj:
        b = _get(obj, "builder", dict)
        return graph.builder(b.get("kind"), b.get("n"), **_present(b, "weight"))
    raise ValueError("laplacian needs 'file' or 'builder'")


def _build_net(cfg: dict, config_dir: Path) -> NetworkModel:
    net = _get(cfg, "net", dict)
    return NetworkModel([_build_rational(g) for g in _get(net, "nodes", [dict])],
                        _build_rational(_get(net, "coupling", dict)),
                        _build_laplacian(_get(net, "laplacian", dict), config_dir))


def _build_region(cfg: dict) -> FrequencyRegion:
    return FrequencyRegion(**_present(_get(cfg, "region", dict, {}), "kind",
                                      "sigma", "omega_range", "resolution"))


def _build_input(cfg: dict, n: int) -> InputSignal:
    i = _get(cfg, "input", dict, {})
    return InputSignal(i.get("family", "step"),
                       _get(i, "shape", [float], timedomain.default_shape(n)),
                       _get(i, "alpha", float, 0.0))


_DISTRIBUTIONS = {
    "uniform": (ensemble.uniform, ("lo", "hi")),
    "normal": (ensemble.normal, ("mean", "sd", "lo", "hi")),
    "point": (ensemble.point, ("value",)),
}


def _build_ensemble(cfg: dict, seed: int) -> ensemble.EnsembleSpec:
    e = _get(cfg, "ensemble", dict)
    params = {}
    for name, d in _get(e, "params", dict, {}).items():
        kind = _get(_check(name, d, dict), "kind", str)
        if kind not in _DISTRIBUTIONS:
            raise ValueError(f"unknown distribution kind {kind!r}")
        make, fields = _DISTRIBUTIONS[kind]
        params[name] = make(*(_get(d, f, float) for f in fields))
    return ensemble.EnsembleSpec(_get(e, "family", str, "swing"), params, seed)


def _no_cell(v):
    raise TypeError(f"CSV cells are float, int, bool or None, not {type(v)!r}")


_cell = {float: repr, int: repr, type(None): lambda v: "",  # exact types only
         bool: lambda v: "true" if v else "false"}.get


def _write_text(path: Path, chunks) -> None:
    """Streams chunks to .<name>.tmp beside path, then moves it onto path;
    the directory is made here, so a run that fails before writing makes none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("w") as f:
            f.writelines(chunks)
        tmp.replace(path)
    except BaseException:  # path stays as it was, and no temporary is left
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: str, rows, provenance: list[str]) -> None:
    lines = (",".join([_cell(type(v), _no_cell)(v) for v in row]) + "\n" for row in rows)
    _write_text(path, chain([f"# {p}\n" for p in provenance], [header + "\n"], lines))


def _float_rows(block: np.ndarray, row: str) -> str:
    """A float64 block as CSV text: row, the %r template of one row, per block row."""
    if block.dtype != np.float64:  # then tolist() gives floats, and "%r" % x is repr(x)
        raise TypeError(f"sample blocks are float64, not {block.dtype}")
    return row * len(block) % tuple(block.ravel().tolist())


def _provenance(digest: str, seed: int) -> list[str]:
    return [f"tool=netcoh {__version__}", f"config_sha256={digest}",
            f"seed={seed}"]


SWEEP_HEADER = "alpha,lambda2,s_re,s_im,measured,bound,bound_valid,eff_conn"


def _write_sweep(path: Path, net: NetworkModel, region: FrequencyRegion,
                 alphas: list, provenance: list[str]) -> None:
    """One row per Laplacian scaling and grid point: the plain sweep of L
    when alphas is empty, else the connectivity sweep with the norm bound."""
    if alphas:
        sweeps = [(row.alpha, row.lambda2, row.reports)
                  for row in netfreq.connectivity_sweep(net, region, alphas)]
    else:
        sweeps = [(1.0, net.laplacian.lambda2, netfreq.sweep_region(net, region)[0])]
    rows = [(alpha, lam2, r.s.real, r.s.imag, r.measured, r.bound, r.bound_valid,
             r.effective_connectivity)
            for alpha, lam2, reports in sweeps for r in reports]
    _write_csv(path, SWEEP_HEADER, rows, provenance)


def cmd_analyze(cfg, digest, seed, out_dir, config_dir):
    _write_sweep(out_dir / "sweep.csv", _build_net(cfg, config_dir),
                 _build_region(cfg),
                 _get(_get(cfg, "sweep", dict, {}), "alphas", [float], []),
                 _provenance(digest, seed))
    return ["sweep.csv"]


def cmd_bound(cfg, digest, seed, out_dir, config_dir):
    net = _build_net(cfg, config_dir)
    if net.laplacian.lambda2 <= 0:
        raise DisconnectedError("connectivity bound requires lambda_2(L) > 0")
    _write_sweep(out_dir / "bound.csv", net, _build_region(cfg), [1.0],
                 _provenance(digest, seed))
    return ["bound.csv"]


def cmd_simulate(cfg, digest, seed, out_dir, config_dir):
    net = _build_net(cfg, config_dir)
    sig = _build_input(cfg, net.n)
    sim = _get(cfg, "simulate", dict, {})
    dt = _get(sim, "dt", float, 0.01)
    res = timedomain.coherence_experiment(
        net, sig, _get(sim, "t_end", float, 20.0), dt,
        inertias=_get(sim, "inertias", [float], None))
    head = [f"# {p}\n" for p in _provenance(digest, seed) + [
        f"dt={dt}", f"input_family={sig.family}", f"input_alpha={sig.alpha}"]]
    head.append("t," + ",".join(f"y_{i + 1}" for i in range(net.n)) + ",ybar,ycoi\n")
    coi = [] if res.coi_output is None else [res.coi_output]
    cols = [res.times, *res.node_outputs, res.coherent_output, *coi]
    row = ",".join(["%r"] * len(cols)) + ("\n" if coi else ",\n")  # else an empty ycoi
    blocks = (_float_rows(np.column_stack([c[lo:lo + _SIM_BLOCK_ROWS] for c in cols]), row)
              for lo in range(0, len(res.times), _SIM_BLOCK_ROWS))
    _write_text(out_dir / "simulation.csv", chain(head, blocks))
    return ["simulation.csv"]


def cmd_freqdep(cfg, digest, seed, out_dir, config_dir):
    net = _build_net(cfg, config_dir)
    sim = _get(cfg, "simulate", dict, {})
    rows = timedomain.frequency_dependence_experiment(
        net, _get(_get(cfg, "sweep", dict, {}), "alphas", [float], [0.25, 0.1]),
        _get(sim, "t_end", float, 120.0), _get(sim, "dt", float, 0.01),
        shape=_get(_get(cfg, "input", dict, {}), "shape", [float], None))
    _write_csv(out_dir / "freqdep.csv", "alpha,linf_deviation", rows,
               _provenance(digest, seed))
    return ["freqdep.csv"]


def cmd_concentrate(cfg, digest, seed, out_dir, config_dir):
    spec = _build_ensemble(cfg, seed)
    region = _build_region(cfg)
    sweep = _get(cfg, "sweep", dict, {})
    runner = (ensemble.full_network_concentration
              if _get(sweep, "full_network", bool, False)
              else ensemble.concentration_experiment)
    result = runner(spec, region, _get(sweep, "sizes", [int], [10, 40, 160]),
                    _get(sweep, "trials", int, 50),
                    _get(sweep, "epsilon", float, 0.05))
    prov = _provenance(digest, seed)
    rows = [(n, t, d)
            for n, devs in zip(result.sizes, result.deviations)
            for t, d in enumerate(devs)]
    _write_csv(out_dir / "concentration.csv", "n,trial,sup_deviation", rows, prov)
    summary = zip(result.sizes, result.median_deviations, result.prob_estimates)
    _write_csv(out_dir / "concentration_summary.csv",
               "n,median_dev,prob_ge_eps", summary, prov)
    return ["concentration.csv", "concentration_summary.csv"]


def cmd_aggregate(cfg, digest, seed, out_dir, config_dir):
    net = _build_net(cfg, config_dir)
    region = _build_region(cfg)
    aggr = netfreq.aggregate_dynamics(net)
    reports, t_norms, gains = netfreq.transfer_norm_sweep(net, region)
    rows = [(r.s.real, r.s.imag, t, g, r.measured)
            for r, t, g in zip(reports, t_norms, gains)]
    _write_text(out_dir / "aggregate.txt", [aggr.serialize() + "\n"])
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
        out: str | None = None) -> int:
    """Execute one command; returns the process exit status."""
    try:
        cfg, digest = _load_config(config_path)
        if command not in _COMMANDS:
            raise ValueError(f"unknown command {command!r}")
        if seed is None:
            seed = _get(cfg, "seed", int, 0)
        out_dir = Path(out if out is not None
                       else _get(cfg, "output_dir", str, "."))
        config_dir = Path(config_path).resolve().parent
        artifacts = _COMMANDS[command](cfg, digest, seed, out_dir, config_dir)
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
    args = parser.parse_args(argv)
    return run(args.command, args.config, seed=args.seed, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
