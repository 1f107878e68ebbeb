import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from netcoh import cli, netfreq, ratfun, timedomain
from netcoh.cli import _build_net, main, run

SWING_NET = {
    "nodes": [
        {"num": [1], "den": [1, 1]},
        {"num": [1], "den": [2, 2]},
        {"num": [1], "den": [1.5, 1.2]},
    ],
    "coupling": {"num": [1], "den": [1]},
    "laplacian": {"builder": {"kind": "complete", "n": 3, "weight": 2.0}},
}

INTEGRATOR_NET = dict(SWING_NET, coupling={"num": [1], "den": [0, 1]})

CONCENTRATE_ENSEMBLE = {
    "family": "swing",
    "params": {"m": {"kind": "uniform", "lo": 1, "hi": 2},
               "d": {"kind": "uniform", "lo": 1, "hi": 2}},
}

# edge lists that graph construction refuses with a ValueError
BAD_EDGE_FILES = {
    "self_loop.txt": "0 0 1.0\n0 1 1.0\n1 2 1.0\n",
    "negative_weight.txt": "0 1 -1.0\n1 2 1.0\n",
    "out_of_range.txt": "n=3\n0 1 1.0\n1 3 1.0\n",
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def read_artifact(tmp_path, name):
    return (tmp_path / name).read_text()


class TestAnalyze:
    def test_writes_sweep_csv(self, tmp_path):
        cfg = {
            "net": SWING_NET,
            "region": {"kind": "vertical_segment", "sigma": 0.1,
                       "omega_range": [-1, 1], "resolution": 5},
        }
        path = write_cfg(tmp_path, cfg)
        assert run("analyze", path, out=str(tmp_path)) == 0
        text = read_artifact(tmp_path, "sweep.csv")
        lines = text.strip().split("\n")
        assert lines[0].startswith("# tool=netcoh")
        assert lines[1].startswith("# config_sha256=")
        assert lines[2].startswith("# seed=")
        assert lines[3] == "alpha,lambda2,s_re,s_im,measured,bound,bound_valid,eff_conn"
        assert len(lines) == 4 + 5

    def test_alpha_sweep_rows(self, tmp_path):
        cfg = {
            "net": SWING_NET,
            "region": {"kind": "vertical_segment", "sigma": 0.1,
                       "omega_range": [-1, 1], "resolution": 3},
            "sweep": {"alphas": [10.0, 100.0]},
        }
        path = write_cfg(tmp_path, cfg)
        assert run("analyze", path, out=str(tmp_path)) == 0
        lines = read_artifact(tmp_path, "sweep.csv").strip().split("\n")
        data = [l.split(",") for l in lines[4:]]
        assert len(data) == 6
        assert {row[0] for row in data} == {"10.0", "100.0"}
        # lambda2 column scales with alpha: complete K3 weight 2 -> 6 alpha
        assert float(data[0][1]) == pytest.approx(60.0)

    def test_non_increasing_alphas_exit_3(self, tmp_path):
        cfg = {"net": SWING_NET, "sweep": {"alphas": [10.0, 10.0]}}
        path = write_cfg(tmp_path, cfg)
        assert run("analyze", path, out=str(tmp_path)) == 3

    def test_alpha_sweep_no_exact_sum(self, tmp_path, exact_sums):
        cfg = {
            "net": SWING_NET,
            "region": {"resolution": 3},
            "sweep": {"alphas": [10.0, 100.0, 1000.0, 10000.0]},
        }
        assert run("analyze", write_cfg(tmp_path, cfg), out=str(tmp_path)) == 0
        assert len(exact_sums) == 0


# four first-order nodes on a ring of weight 1e10, where the solve's rounding
# puts the measured incoherence above the norm bound
CONTRADICTED_BOUND = {
    "net": {"nodes": [{"num": [1], "den": [1, 1]}, {"num": [1], "den": [0.5, 2]},
                      {"num": [1], "den": [1.5, 3]}, {"num": [1], "den": [0.8, 1.2]}],
            "coupling": {"num": [1], "den": [1]},
            "laplacian": {"builder": {"kind": "ring", "n": 4, "weight": 1e10}}},
    "region": {"kind": "vertical_segment", "sigma": 0.0, "omega_range": [-1, 1],
               "resolution": 9}}


class TestBound:
    def test_bound_csv(self, tmp_path):
        cfg = {
            "net": SWING_NET,
            "region": {"kind": "vertical_segment", "sigma": 0.1,
                       "omega_range": [-0.5, 0.5], "resolution": 3},
        }
        path = write_cfg(tmp_path, cfg)
        assert run("bound", path, out=str(tmp_path)) == 0
        lines = read_artifact(tmp_path, "bound.csv").strip().split("\n")
        for row in (l.split(",") for l in lines[4:]):
            if row[6] == "true":
                assert float(row[4]) <= float(row[5]) + 1e-8
            else:
                assert row[5] == ""

    def test_rows_equal_analyze_at_alpha_one(self, tmp_path):
        region = {"kind": "vertical_segment", "sigma": 0.1,
                  "omega_range": [-1, 1], "resolution": 5}
        bound = {"net": dict(SWING_NET, laplacian={
            "builder": {"kind": "complete", "n": 3, "weight": 50.0}}),
            "region": region}
        analyze = dict(bound, sweep={"alphas": [1.0]})
        assert run("bound", write_cfg(tmp_path, bound, "bound.json"),
                   out=str(tmp_path)) == 0
        assert run("analyze", write_cfg(tmp_path, analyze, "analyze.json"),
                   out=str(tmp_path)) == 0
        rows = {name: [l for l in read_artifact(tmp_path, name).splitlines()
                       if not l.startswith("#")]
                for name in ("bound.csv", "sweep.csv")}
        assert len(rows["bound.csv"]) == 1 + 5
        assert all(r.split(",")[6] == "true" for r in rows["bound.csv"][1:])
        assert rows["bound.csv"] == rows["sweep.csv"]

    def test_singular_region_exit_3(self, tmp_path):
        cfg = {
            "net": SWING_NET,
            "region": {"kind": "rect_grid", "sigma": -2.0,
                       "omega_range": [-0.5, 0.5], "resolution": 5},
        }
        path = write_cfg(tmp_path, cfg)
        assert run("bound", path, out=str(tmp_path)) == 3

    @pytest.mark.parametrize("command", ["bound", "analyze"])
    def test_contradicted_bound_exit_3(self, tmp_path, capsys, command):
        # rows with bound_valid and measured (4.6e-8 to 2.1e-7) above the bound
        # (1.2e-9): refused before the output directory is made
        cfg = dict(CONTRADICTED_BOUND, sweep={"alphas": [1.0]})
        out = tmp_path / "out"
        assert run(command, write_cfg(tmp_path, cfg), out=str(out)) == 3
        assert capsys.readouterr().err.startswith(
            "error: kind=BoundContradicted detail=s=-1j: measured incoherence ")
        assert not out.exists()


class TestSimulate:
    def test_columns_and_coi(self, tmp_path):
        cfg = {
            "net": SWING_NET,
            "input": {"family": "step", "shape": [1.0, 0.0, -1.0]},
            "simulate": {"t_end": 1.0, "dt": 0.1,
                         "inertias": [1.0, 2.0, 1.2]},
        }
        path = write_cfg(tmp_path, cfg)
        assert run("simulate", path, out=str(tmp_path)) == 0
        lines = read_artifact(tmp_path, "simulation.csv").strip().split("\n")
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "t,y_1,y_2,y_3,ybar,ycoi"
        first = lines[lines.index(header) + 1].split(",")
        assert float(first[0]) == 0.0
        assert first[5] != ""

    @staticmethod
    def _rows_and_oracle(tmp_path, t_end, dt, inertias):
        """simulation.csv's header and data rows, and the same rows built from
        repr of the floats of a direct coherence_experiment run."""
        sim = {"t_end": t_end, "dt": dt}
        if inertias is not None:
            sim["inertias"] = inertias
        cfg = {"net": SWING_NET, "simulate": sim,
               "input": {"family": "sinusoid", "alpha": 2.0,
                         "shape": [1.0, 0.0, -1.0]}}
        assert run("simulate", write_cfg(tmp_path, cfg), out=str(tmp_path)) == 0
        res = timedomain.coherence_experiment(
            _build_net(cfg, tmp_path),
            timedomain.InputSignal("sinusoid", [1.0, 0.0, -1.0], 2.0),
            t_end, dt, inertias=inertias)
        want = []
        for k, t in enumerate(res.times):
            cells = [float(t)] + [float(y) for y in res.node_outputs[:, k]]
            cells.append(float(res.coherent_output[k]))
            coi = "" if inertias is None else repr(float(res.coi_output[k]))
            want.append(",".join([repr(c) for c in cells] + [coi]))
        lines = read_artifact(tmp_path, "simulation.csv").strip("\n").split("\n")
        return lines[-len(want) - 1:], ["t,y_1,y_2,y_3,ybar,ycoi"] + want

    @pytest.mark.parametrize("inertias", [None, [1.0, 2.0, 1.2]])
    def test_rows_are_sample_reprs(self, tmp_path, inertias):
        got, want = self._rows_and_oracle(tmp_path, 1.0, 0.1, inertias)
        assert got == want

    @pytest.mark.parametrize("inertias", [None, [1.0, 2.0, 1.2]])
    @pytest.mark.parametrize("rows", [4 - 1, 4, 4 + 1, 2 * 4 + 1])
    def test_block_boundaries_keep_rows(self, tmp_path, monkeypatch, rows, inertias):
        # rows are made from the sample arrays 4 at a time: a short last
        # block, an exact fit and one spare row each give the oracle's rows
        monkeypatch.setattr(cli, "_SIM_BLOCK_ROWS", 4)
        got, want = self._rows_and_oracle(tmp_path, (rows - 1) * 0.25, 0.25, inertias)
        assert len(want) == rows + 1
        assert got == want

    def test_integer_dt_writes_float_times(self, tmp_path):
        # "dt": 1 and "dt": 1.0 are one sampling interval: the t column
        # reads 0.0, 1.0, ... for both
        data = []
        for dt in (1, 1.0):
            cfg = {"net": SWING_NET, "simulate": {"t_end": 5.0, "dt": dt}}
            out = tmp_path / repr(dt)
            assert run("simulate", write_cfg(tmp_path, cfg), out=str(out)) == 0
            lines = read_artifact(out, "simulation.csv").splitlines()
            data.append([l for l in lines if not l.startswith("#")])
        assert data[0] == data[1]
        assert [l.split(",")[0] for l in data[0][1:]] == [
            "0.0", "1.0", "2.0", "3.0", "4.0", "5.0"]

    def test_command_memory_is_bounded(self, tmp_path):
        # 10^5 rows: the rows become Python floats one block at a time, so
        # the command's peak stays near the sampling's own (the samples and
        # their transposed copy), not the 4x of every sample as a float object
        cfg = {"net": SWING_NET, "simulate": {"t_end": 100.0, "dt": 1e-3,
                                              "inertias": [1.0, 2.0, 1.2]}}
        path = write_cfg(tmp_path, cfg)
        tracemalloc.start()
        try:
            assert run("simulate", path, out=str(tmp_path)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = read_artifact(tmp_path, "simulation.csv").splitlines()
        assert sum(not l.startswith("#") for l in lines) == 1 + 100001
        arrays = 100001 * 6 * 8  # t, y_1..y_3, ybar and ycoi as float64
        assert peak < 1.5 * arrays + 2 * 2**20

    def test_unstable_exit_4(self, tmp_path, capsys):
        # two unstable nodes on a weak edge, and node inverses summing to 3s - 1,
        # which keep a closed-loop eigenvalue near s = 1/3 at any coupling
        # strength (Re = 0.338 here): refused before the output directory is made
        nets = [
            {"nodes": [{"num": [1], "den": [-1, 1]}] * 2,
             "laplacian": {"builder": {"kind": "path", "n": 2, "weight": 1e-6}}},
            {"nodes": [{"num": [1], "den": [-2, 1]}] + [{"num": [1], "den": [0.5, 1]}] * 2,
             "laplacian": {"builder": {"kind": "complete", "n": 3, "weight": 100}}}]
        for k, net in enumerate(nets):
            cfg = {"net": dict(net, coupling={"num": [1], "den": [1]}),
                   "simulate": {"t_end": 1.0, "dt": 0.1}}
            out = tmp_path / f"out{k}"
            assert run("simulate", write_cfg(tmp_path, cfg), out=str(out)) == 4
            assert capsys.readouterr().err.startswith("error: kind=UnstableModel detail=")
            assert not out.exists()

    def test_singular_feedthrough_loop_exit_3(self, tmp_path, capsys):
        node = {"num": [1], "den": [1]}
        cfg = {"net": {"nodes": [node, node],
                       "coupling": {"num": [-0.5], "den": [1]},
                       "laplacian": {"builder": {"kind": "path", "n": 2}}},
               "simulate": {"t_end": 1.0, "dt": 0.1}}
        assert run("simulate", write_cfg(tmp_path, cfg), out=str(tmp_path)) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: kind=AlgebraicLoopSingular detail=direct-feedthrough "
                       "loop I + D_G D_F L is singular"]


class TestFreqdep:
    def test_lower_alpha_lower_deviation(self, tmp_path):
        net = dict(SWING_NET)
        net["coupling"] = {"num": [1], "den": [0, 1]}
        cfg = {
            "net": net,
            "sweep": {"alphas": [0.25, 0.1]},
            "simulate": {"t_end": 60.0, "dt": 0.02},
        }
        path = write_cfg(tmp_path, cfg)
        assert run("freqdep", path, out=str(tmp_path)) == 0
        lines = read_artifact(tmp_path, "freqdep.csv").strip().split("\n")
        rows = {float(a): float(d) for a, d in
                (l.split(",") for l in lines[4:])}
        assert rows[0.1] < rows[0.25]

    def test_disconnected_exit_3(self, tmp_path, capsys):
        (tmp_path / "edges.txt").write_text("n=3\n0 1 1.0\n")
        cfg = {"net": dict(INTEGRATOR_NET, laplacian={"file": "edges.txt"}),
               "simulate": {"t_end": 1.0}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("freqdep", write_cfg(tmp_path, cfg),
                       out=str(tmp_path)) == 3
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: kind=Disconnected detail=")


class TestTwoComponentEdgeList:
    """Five swing nodes with f = 1/s on the edges 0-1, 2-3 and 3-4, weight 0.3."""

    @pytest.fixture
    def path(self, tmp_path):
        (tmp_path / "edges.txt").write_text("n=5\n0 1 0.3\n2 3 0.3\n3 4 0.3\n")
        nodes = [{"num": [1], "den": [d, m]}
                 for m, d in [(1, 1), (2, 2), (1.2, 1.5), (2, 1), (1.5, 0.8)]]
        return write_cfg(tmp_path, {
            "net": {"nodes": nodes, "coupling": {"num": [1], "den": [0, 1]},
                    "laplacian": {"file": "edges.txt"}},
            "region": {"kind": "vertical_segment", "sigma": 0.1,
                       "omega_range": [-1, 1], "resolution": 5},
            "simulate": {"t_end": 2.0, "dt": 0.1}})

    @pytest.mark.parametrize("command", ["bound", "freqdep"])
    def test_exit_3(self, tmp_path, capsys, path, command):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(command, path, out=str(tmp_path)) == 3
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: kind=Disconnected detail=")
        assert not list(tmp_path.glob("*.csv"))

    def test_analyze_reports_zero_connectivity(self, tmp_path, path):
        assert run("analyze", path, out=str(tmp_path)) == 0
        rows = read_artifact(tmp_path, "sweep.csv").strip().split("\n")[4:]
        assert len(rows) == 5
        for row in rows:
            cells = dict(zip(cli.SWEEP_HEADER.split(","), row.split(",")))
            assert (cells["lambda2"], cells["eff_conn"]) == ("0.0", "0.0")


class TestConcentrate:
    def test_two_artifacts(self, tmp_path):
        cfg = {
            "ensemble": {"family": "swing",
                         "params": {"m": {"kind": "uniform", "lo": 1, "hi": 2},
                                    "d": {"kind": "uniform", "lo": 1, "hi": 2}}},
            "region": {"kind": "vertical_segment", "sigma": 0.1,
                       "omega_range": [-1, 1], "resolution": 5},
            "sweep": {"sizes": [4, 16], "trials": 5, "epsilon": 0.05},
        }
        path = write_cfg(tmp_path, cfg)
        assert run("concentrate", path, seed=3, out=str(tmp_path)) == 0
        lines = read_artifact(tmp_path, "concentration.csv").strip().split("\n")
        assert lines[3] == "n,trial,sup_deviation"
        assert len(lines) == 4 + 10
        summary = read_artifact(tmp_path, "concentration_summary.csv")
        assert "n,median_dev,prob_ge_eps" in summary

    def test_missing_ensemble_exit_2(self, tmp_path):
        path = write_cfg(tmp_path, {"sweep": {}})
        assert run("concentrate", path, out=str(tmp_path)) == 2

    @pytest.mark.parametrize("sweep", [{"sizes": [4], "trials": 0},
                                       {"sizes": [4], "trials": -3},
                                       {"sizes": [], "trials": 2}],
                             ids=["zero-trials", "negative-trials", "empty-sizes"])
    def test_empty_run_exit_2(self, tmp_path, capsys, sweep):
        cfg = {"ensemble": CONCENTRATE_ENSEMBLE, "sweep": sweep}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("concentrate", write_cfg(tmp_path, cfg), out=str(tmp_path)) == 2
        assert caught == []
        assert capsys.readouterr().err.startswith("error: kind=config detail=need trials")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("ens", [
        {"family": "swing", "params": {"m": {"kind": "uniform", "lo": 1, "hi": 3},
                                       "d": {"kind": "point", "value": 2}}},
        # every g^{-1} = (1 + s)/(num_0 + s) vanishes at s = -1
        {"family": "custom_coeffs", "params": {
            "num_0": {"kind": "uniform", "lo": 2, "hi": 3},
            "num_1": {"kind": "point", "value": 1}, "den_0": {"kind": "point", "value": 1},
            "den_1": {"kind": "point", "value": 1}}}], ids=["analytic", "monte-carlo"])
    @pytest.mark.parametrize("full_network", [False, True])
    def test_ghat_pole_on_grid_exit_3(self, tmp_path, capsys, ens, full_network):
        # ghat = 1/(2s + 2), or a Monte-Carlo ghat whose sum of inverses is 0,
        # at the grid point s = -1
        cfg = {"ensemble": ens, "region": {"kind": "vertical_segment", "sigma": -1.0,
                                           "omega_range": [-1, 1], "resolution": 5},
               "sweep": {"sizes": [4, 8], "trials": 2, "full_network": full_network}}
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("concentrate", write_cfg(tmp_path, cfg), out=str(out)) == 3
        assert caught == []
        assert capsys.readouterr().err.startswith("error: kind=CoherentPoleAtS detail=")
        assert not out.exists()


def _swing_ring(rng, n, weight):
    return {"nodes": [{"num": [1.0], "den": [float(d), float(m)]}
                      for m, d in zip(rng.uniform(1, 3, n), rng.uniform(0.5, 1.5, n))],
            "coupling": {"num": [1.0], "den": [1.0]},
            "laplacian": {"builder": {"kind": "ring", "n": n, "weight": weight}}}


def _turbine_ring(rng, n, weight):
    # 1/(m s + d + r/(tau s + 1)) over distinct tau
    m, d, r, tau = (rng.uniform(lo, hi, n) for lo, hi in [(1, 3), (0.5, 1.5), (2, 6),
                                                         (0.5, 8)])
    return dict(_swing_ring(rng, n, weight), nodes=[
        {"num": [1.0, t], "den": [di + ri, mi + di * t, mi * t]}
        for mi, di, ri, t in zip(*(v.tolist() for v in (m, d, r, tau)))])


# half the numerators are s - 0.5, a node zero at the grid point s = 0.5 of a
# segment on Re s = 0.5, the others s - 0.5 + 2**-54
HALF_ZERO_ENSEMBLE = {"family": "custom_coeffs", "params": {
    "num_0": {"kind": "uniform", "lo": -0.5, "hi": float(np.nextafter(-0.5, 0))},
    "num_1": {"kind": "point", "value": 1.0},
    "den_0": {"kind": "uniform", "lo": 1, "hi": 2},
    "den_1": {"kind": "uniform", "lo": 1, "hi": 2},
    "den_2": {"kind": "point", "value": 1.0}}}


def _float_gbar_runs() -> dict:
    """Named (command, config, rows) runs shaped like the benchmark's workloads,
    at a smaller size, plus turbine, node-zero and feedthrough runs; rows counts
    the data rows of the command's first artifact."""
    rng = np.random.default_rng(17)
    seg = {"kind": "vertical_segment", "sigma": 0.0, "omega_range": [-1, 1],
           "resolution": 17}
    rect = {"kind": "rect_grid", "sigma": 0.2, "omega_range": [-1, 1], "resolution": 5}
    step = {"family": "step", "shape": [0.5, -1.0, 0.25, 0.0]}
    sim = {"t_end": 5.0, "dt": 2e-3, "inertias": [1.0, 2.0, 1.5, 3.0]}
    return {
        "analyze": ("analyze", {"net": _swing_ring(rng, 20, 1.0), "region": seg,
                                "sweep": {"alphas": [1.0, 10.0, 100.0, 1000.0]}}, 4 * 17),
        "bound": ("bound", {"net": _swing_ring(rng, 20, 500.0), "region": rect}, 25),
        "simulate": ("simulate", {"net": _swing_ring(rng, 4, 1.0), "input": step,
                                  "simulate": sim}, 2501),
        "freqdep": ("freqdep", {"net": dict(_swing_ring(rng, 4, 1.0), coupling={
            "num": [1.0], "den": [0.0, 1.0]}), "sweep": {"alphas": [0.05, 0.4]},
            "simulate": {"t_end": 10.0, "dt": 1e-2}}, 2),
        "concentrate": ("concentrate", {"ensemble": CONCENTRATE_ENSEMBLE, "region": seg,
                                        "sweep": {"sizes": [10, 40], "trials": 3}}, 6),
        # trials whose exact node zeros sit beside near-zeros: gbar_n = 0, no inf
        "concentrate-node-zero": ("concentrate", {
            "ensemble": HALF_ZERO_ENSEMBLE, "sweep": {"sizes": [1, 2, 10], "trials": 5},
            "region": dict(seg, sigma=0.5, resolution=9)}, 15),
        # node zeros and near-zeros (|g^-1| near 1e16) through the row-scaled kernel
        "concentrate-full-network-node-zero": ("concentrate", {
            "ensemble": HALF_ZERO_ENSEMBLE, "region": dict(seg, sigma=0.5, resolution=9),
            "sweep": {"sizes": [2, 3, 10, 40], "trials": 3, "full_network": True}}, 12),
        "turbine-bound": ("bound", {"net": _turbine_ring(rng, 12, 50.0), "region": rect},
                          25),
        # on Re s = -1, through node 1's zero at s = -1
        "turbine-analyze-node-zero": ("analyze", {"net": {
            "nodes": [{"num": [1, 1], "den": [4, 3, 2]},
                      {"num": [1, 2.5], "den": [4.8, 3.5, 3.75]},
                      {"num": [1, 4], "den": [3.2, 7.3, 10]}],
            "coupling": {"num": [1], "den": [1]},
            "laplacian": {"builder": {"kind": "ring", "n": 3, "weight": 20}}},
            "region": dict(seg, sigma=-1.0, resolution=5)}, 5),
        "turbine-simulate": ("simulate", {"net": _turbine_ring(rng, 4, 1.0), "input": step,
                                          "simulate": sim}, 2501),
        # direct feedthrough in every node and in f
        "feedthrough-simulate": ("simulate", {"net": {
            "nodes": [{"num": [1, 2], "den": [1.5, 1]}, {"num": [0.5, 1], "den": [2, 1]},
                      {"num": [2, 0.5], "den": [1, 1]}],
            "coupling": {"num": [2, 1], "den": [1, 1]},
            "laplacian": {"builder": {"kind": "ring", "n": 3}}},
            "simulate": {"t_end": 2.0, "dt": 0.01}}, 201),
    }


FLOAT_GBAR_RUNS = _float_gbar_runs()


def _data_rows(path) -> list:
    """A CSV artifact's rows of cells below its comment lines and header."""
    return [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")][1:]


class TestFloatGbar:
    """Every numeric command takes gbar from its float realization; only
    aggregate builds the exact harmonic mean."""

    @pytest.mark.parametrize("case", sorted(FLOAT_GBAR_RUNS))
    def test_runs_without_the_exact_harmonic_mean(self, tmp_path, capsys, monkeypatch,
                                                  case):
        def refuse(gs):
            raise AssertionError("a numeric path built the exact harmonic mean")

        # every binding in the package, so a module that imports the name is covered
        real = ratfun.harmonic_mean
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "netcoh" and vars(module).get("harmonic_mean") is real:
                monkeypatch.setattr(module, "harmonic_mean", refuse)
        command, cfg, rows = FLOAT_GBAR_RUNS[case]
        assert run(command, write_cfg(tmp_path, cfg), out=str(tmp_path)) == 0
        # every grid point, trial or sample writes a row, and no cell is inf or nan
        tables = [_data_rows(Path(name)) for name in capsys.readouterr().out.split()
                  if name.endswith(".csv")]
        assert len(tables[0]) == rows
        assert [c for t in tables for r in t for c in r if c in ("inf", "-inf", "nan")] == []

    def test_improper_gbar(self, tmp_path, capsys):
        # inverses s and -s + 1/(s + 2) sum to 1/(s + 2): gbar = 2(s + 2)
        net = dict(SWING_NET, nodes=[{"num": [1], "den": [0, 1]},
                                     {"num": [2, 1], "den": [1, -2, -1]}],
                   laplacian={"builder": {"kind": "path", "n": 2}})
        path = write_cfg(tmp_path, {"net": net})
        assert run("bound", path, out=str(tmp_path / "bound")) == 3
        assert capsys.readouterr().err.startswith("error: kind=Improper detail=")
        assert run("analyze", path, out=str(tmp_path)) == 0


class TestAggregate:
    def test_swing_serialization(self, tmp_path):
        cfg = {
            "net": {
                "nodes": [{"num": [1], "den": [3, 1]},
                          {"num": [1], "den": [4, 2]}],
                "coupling": {"num": [1], "den": [1]},
                "laplacian": {"builder": {"kind": "path", "n": 2}},
            },
            "region": {"resolution": 3},
        }
        path = write_cfg(tmp_path, cfg)
        assert run("aggregate", path, out=str(tmp_path)) == 0
        assert read_artifact(tmp_path, "aggregate.txt").strip() == \
            "num=[1], den=[7, 3]"

    def test_failed_sweep_writes_nothing(self, tmp_path, capsys):
        # s = 0 is on the grid and a pole of f = 1/s
        cfg = {"net": INTEGRATOR_NET, "region": {"resolution": 3}}
        out = tmp_path / "out"
        assert run("aggregate", write_cfg(tmp_path, cfg), out=str(out)) == 3
        assert capsys.readouterr().err.startswith("error: kind=SingularAtS detail=")
        assert not out.exists()

    def test_coherent_gain_at_forty_turbine_nodes(self, tmp_path):
        # |gbar(s)| = n / |sum_i g_i^{-1}(s)|, the sum taken exactly in Fraction
        # complex arithmetic at each float grid point, then one float sqrt;
        # Horner on the expanded degree-80 aggregate loses digits at this n
        net = _turbine_ring(np.random.default_rng(40), 40, 1.0)
        cfg = {"net": net, "region": {"kind": "vertical_segment", "sigma": 0.0,
                                      "omega_range": [-2, 2], "resolution": 17}}
        assert run("aggregate", write_cfg(tmp_path, cfg), out=str(tmp_path)) == 0
        rows = [line.split(",") for line in
                read_artifact(tmp_path, "aggregate_compare.csv").splitlines()
                if not line.startswith("#")][1:]
        assert len(rows) == 17

        def at(coeffs, s_re, s_im):
            re, im = Fraction(0), Fraction(0)
            for c in reversed(coeffs):
                re, im = re * s_re - im * s_im + Fraction(c), re * s_im + im * s_re
            return re, im

        for row in rows:
            s_re, s_im = Fraction(float(row[0])), Fraction(float(row[1]))
            total_re, total_im = Fraction(0), Fraction(0)
            for g in net["nodes"]:
                (n_re, n_im), (d_re, d_im) = (at(g[k], s_re, s_im) for k in ("num", "den"))
                mag2 = n_re * n_re + n_im * n_im
                total_re += (d_re * n_re + d_im * n_im) / mag2
                total_im += (d_im * n_re - d_re * n_im) / mag2
            want = math.sqrt(40 ** 2 / (total_re * total_re + total_im * total_im))
            assert float(row[3]) == pytest.approx(want, rel=1e-14, abs=0)

    def test_one_exact_sum(self, tmp_path, exact_sums):
        cfg = {"net": SWING_NET, "region": {"resolution": 3}}
        assert run("aggregate", write_cfg(tmp_path, cfg), out=str(tmp_path)) == 0
        assert len(exact_sums) == 1

    @staticmethod
    def _inversions(tmp_path, monkeypatch, region):
        inverted = []
        real = np.linalg.inv

        def counting(a):
            inverted.append(len(a) if np.ndim(a) == 3 else 1)
            return real(a)

        monkeypatch.setattr(np.linalg, "inv", counting)
        cfg = {"net": SWING_NET, "region": region}
        assert run("aggregate", write_cfg(tmp_path, cfg), out=str(tmp_path)) == 0
        return sum(inverted)

    def test_one_solve_per_point(self, tmp_path, monkeypatch):
        # t_norm and incoherence come from the same inverse at each point,
        # and a point's conjugate reuses it: 8 pairs and the real point
        assert self._inversions(tmp_path, monkeypatch, {"resolution": 17}) == 9

    def test_one_solve_per_point_without_conjugates(self, tmp_path, monkeypatch):
        region = {"resolution": 17, "omega_range": [0.1, 1.0]}
        assert self._inversions(tmp_path, monkeypatch, region) == 17


class TestErrorsAndReproducibility:
    def test_bad_json_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run("analyze", str(p), out=str(tmp_path)) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run("analyze", str(tmp_path / "nope.json"),
                   out=str(tmp_path)) == 2

    @pytest.mark.parametrize("command,cfg,code,kind", [
        ("analyze", {"net": dict(SWING_NET, laplacian={
            "builder": {"kind": "hexagon", "n": 3}})}, 2, "config"),
        ("analyze", {"net": dict(SWING_NET, coupling={
            "num": [1], "den": [float("inf")]})}, 2, "config"),
        ("simulate", {"net": SWING_NET,
                      "simulate": {"t_end": 0.1, "dt": 0.1}}, 2, "config"),
        ("concentrate", {"ensemble": CONCENTRATE_ENSEMBLE,
                         "sweep": {"sizes": [0, 4], "trials": 2}}, 2, "config"),
        ("concentrate", {"ensemble": CONCENTRATE_ENSEMBLE,
                         "sweep": {"sizes": [8, 4], "trials": 2}},
         3, "NotIncreasing"),
        ("concentrate", {"ensemble": dict(CONCENTRATE_ENSEMBLE, params={
            "m": {"kind": "point", "value": -1.0},
            "d": {"kind": "uniform", "lo": 1, "hi": 2}}),
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        ("concentrate", {"ensemble": dict(CONCENTRATE_ENSEMBLE, params={
            "m": {"kind": "point", "value": 0.0},
            "d": {"kind": "uniform", "lo": 1, "hi": 2}}),
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        ("concentrate", {"ensemble": dict(CONCENTRATE_ENSEMBLE, params={
            "m": {"kind": "normal", "mean": 0, "sd": 1, "lo": 1e155, "hi": 1e156},
            "d": {"kind": "uniform", "lo": 1, "hi": 2}}),
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        ("concentrate", {"ensemble": {"family": "custom_coeffs", "params": {
            "num_0": {"kind": "point", "value": 1.0},
            "den_0": {"kind": "uniform", "lo": 1, "hi": 2},
            "den_2": {"kind": "point", "value": 1.0}}},
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        ("analyze", {"net": SWING_NET, "region": {"resolution": 5.0}}, 2, "config"),
        ("analyze", {"net": SWING_NET, "region": {"resolution": "5"}}, 2, "config"),
        ("analyze", {"net": SWING_NET, "region": {"omega_range": "ab"}}, 2,
         "config"),
        ("analyze", {"net": SWING_NET, "region": {"sigma": "x"}}, 2, "config"),
        ("analyze", {"net": SWING_NET, "region": [1, 2]}, 2, "config"),
        ("analyze", {"net": dict(SWING_NET, nodes=5)}, 2, "config"),
        ("analyze", {"net": dict(SWING_NET, laplacian={
            "builder": {"kind": "complete", "n": 3.0}})}, 2, "config"),
        ("analyze", {"net": dict(SWING_NET, laplacian={
            "builder": {"kind": "complete", "n": "3"}})}, 2, "config"),
        ("analyze", {"net": SWING_NET, "sweep": {"alphas": "ab"}}, 2, "config"),
        ("analyze", [1, 2], 2, "config"),
        ("simulate", {"net": SWING_NET, "simulate": {"t_end": "x"}}, 2, "config"),
        ("simulate", {"net": SWING_NET, "simulate": {"dt": "0.01"}}, 2, "config"),
        ("freqdep", {"net": INTEGRATOR_NET, "simulate": {"dt": "0.01"}}, 2,
         "config"),
        ("freqdep", {"net": INTEGRATOR_NET, "simulate": {"t_end": None}}, 2,
         "config"),
        ("freqdep", {"net": INTEGRATOR_NET, "input": {"shape": [0, "1", 0]}},
         2, "config"),
        ("simulate", {"net": SWING_NET, "simulate": {
            "t_end": 1.0, "inertias": [1.0, "2", 1.0]}}, 2, "config"),
        ("simulate", {"net": SWING_NET, "simulate": {
            "t_end": 1.0, "inertias": [1.0, 2.0]}}, 3, "LengthMismatch"),
        ("simulate", {"net": SWING_NET, "simulate": {"t_end": 1.0},
                      "input": {"shape": [1.0, None, 0.0]}}, 2, "config"),
        ("simulate", {"net": SWING_NET, "simulate": {"t_end": 1.0},
                      "input": {"family": "sinusoid", "alpha": "1"}}, 2, "config"),
        ("concentrate", {"ensemble": CONCENTRATE_ENSEMBLE,
                         "sweep": {"sizes": [4], "trials": "3"}}, 2, "config"),
        ("concentrate", {"ensemble": CONCENTRATE_ENSEMBLE,
                         "sweep": {"sizes": [4], "trials": 2.0}}, 2, "config"),
        ("concentrate", {"ensemble": CONCENTRATE_ENSEMBLE,
                         "sweep": {"sizes": [4], "trials": 2, "epsilon": "x"}},
         2, "config"),
        ("concentrate", {"ensemble": dict(CONCENTRATE_ENSEMBLE, params={
            "m": {"kind": "uniform", "lo": "1", "hi": 2},
            "d": {"kind": "uniform", "lo": 1, "hi": 2}}),
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        ("concentrate", {"ensemble": dict(CONCENTRATE_ENSEMBLE, params={
            "m": {"kind": "uniform", "lo": 1, "hi": [2]},
            "d": {"kind": "uniform", "lo": 1, "hi": 2}}),
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        ("concentrate", {"ensemble": dict(CONCENTRATE_ENSEMBLE, params={
            "m": {"kind": "normal", "mean": "2", "sd": 1, "lo": 1, "hi": 3},
            "d": {"kind": "uniform", "lo": 1, "hi": 2}}),
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        ("concentrate", {"ensemble": dict(CONCENTRATE_ENSEMBLE, params={
            "m": {"kind": "normal", "mean": 2, "sd": True, "lo": 1, "hi": 3},
            "d": {"kind": "uniform", "lo": 1, "hi": 2}}),
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        ("concentrate", {"ensemble": dict(CONCENTRATE_ENSEMBLE, params={
            "m": {"kind": "point", "value": "2"},
            "d": {"kind": "uniform", "lo": 1, "hi": 2}}),
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        ("analyze", {"net": dict(SWING_NET, laplacian={"file": 5})}, 2, "config"),
        ("analyze", {"net": SWING_NET, "output_dir": 5}, 2, "config"),
        ("concentrate", {"ensemble": dict(CONCENTRATE_ENSEMBLE, family=[]),
                         "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        ("concentrate", {"ensemble": dict(CONCENTRATE_ENSEMBLE, params={
            "m": {"kind": [], "lo": 1, "hi": 2},
            "d": {"kind": "uniform", "lo": 1, "hi": 2}}),
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        ("concentrate", {"ensemble": CONCENTRATE_ENSEMBLE,
                         "sweep": {"sizes": [4], "trials": 2,
                                   "full_network": "no"}}, 2, "config"),
        ("analyze", {"net": SWING_NET, "seed": "x"}, 2, "config"),
        ("analyze", {"net": SWING_NET, "seed": None}, 2, "config"),
        ("freqdep", {"net": INTEGRATOR_NET,
                     "simulate": {"t_end": 0.1, "dt": 0.1}}, 2, "config"),
        ("freqdep", {"net": INTEGRATOR_NET, "sweep": {"alphas": [-0.1]},
                     "simulate": {"t_end": 1.0}}, 2, "config"),
        ("freqdep", {"net": SWING_NET, "simulate": {"t_end": 1.0}}, 3,
         "NotIntegratorCoupling"),
        ("analyze", {"net": SWING_NET, "sweep": {"alphas": None}}, 2, "config"),
        ("analyze", {"net": SWING_NET, "sweep": {"alphas": 0}}, 2, "config"),
        ("simulate", {"net": SWING_NET, "simulate": {"t_end": 1.0},
                      "input": {"shape": None}}, 2, "config"),
        ("simulate", {"net": SWING_NET, "simulate": {
            "t_end": 1.0, "inertias": None}}, 2, "config"),
        ("analyze", {"net": dict(SWING_NET, coupling={
            "num": [True], "den": [1]})}, 2, "config"),
        ("analyze", {"net": dict(SWING_NET, nodes=[
            {"num": [1], "den": [0]}] + SWING_NET["nodes"][1:])}, 2, "config"),
        ("analyze", {"net": dict(SWING_NET, nodes=[
            {"num": [1], "den": []}] + SWING_NET["nodes"][1:])}, 2, "config"),
        ("analyze", {"net": dict(SWING_NET, coupling={
            "num": [1], "den": [0]})}, 2, "config"),
        ("analyze", {"net": dict(SWING_NET, coupling={
            "num": [1], "den": []})}, 2, "config"),
        ("analyze", {"net": dict(SWING_NET, laplacian={"file": "absent.txt"})},
         2, "config"),
        ("analyze", {"net": dict(SWING_NET, laplacian={"weight": 2.0})}, 2, "config"),
        ("concentrate", {"ensemble": dict(CONCENTRATE_ENSEMBLE, params={
            "m": {"kind": "lognormal", "lo": 1, "hi": 2},
            "d": {"kind": "uniform", "lo": 1, "hi": 2}}),
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        ("simulate", {"net": SWING_NET, "simulate": {
            "t_end": 1.0, "inertias": [1.0, -1.0, 0.0]}}, 2, "config"),
        ("simulate", {"net": SWING_NET, "simulate": {"t_end": 1.0},
                      "input": {"shape": [1.0, 0.0]}}, 3, "LengthMismatch"),
        ("freqdep", {"net": INTEGRATOR_NET, "simulate": {"t_end": 1.0},
                     "input": {"shape": [1.0, 0.0]}}, 3, "LengthMismatch"),
        *[("analyze", {"net": dict(SWING_NET, laplacian={"file": name})}, 2, "config")
          for name in BAD_EDGE_FILES],
        ("analyze", {"net": dict(SWING_NET, laplacian={
            "builder": {"kind": "complete", "n": 1}})}, 2, "config"),
        ("analyze", {"net": SWING_NET, "sweep": {"alphas": [-0.1, 1]}}, 2, "config"),
        ("concentrate", {"ensemble": dict(CONCENTRATE_ENSEMBLE, params=dict(
            CONCENTRATE_ENSEMBLE["params"], tau={"kind": "uniform", "lo": 1, "hi": 2})),
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        ("analyze", {"net": SWING_NET, "region": {"kind": "rect_grid"}}, 2, "config"),
        ("concentrate", {"ensemble": dict(CONCENTRATE_ENSEMBLE, params={
            "m": {"kind": "uniform", "lo": 2, "hi": 1},
            "d": {"kind": "uniform", "lo": 1, "hi": 2}}),
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        ("concentrate", {"ensemble": dict(CONCENTRATE_ENSEMBLE, params={
            "m": {"kind": "normal", "mean": 2, "sd": -1, "lo": 1, "hi": 3},
            "d": {"kind": "uniform", "lo": 1, "hi": 2}}),
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        ("simulate", {"net": SWING_NET, "simulate": {"t_end": 1.0},
                      "input": {"family": "sinusoid"}}, 2, "config"),
        ("freqdep", {"net": INTEGRATOR_NET, "sweep": {"alphas": [0.0, 0.1]},
                     "simulate": {"t_end": 1.0}}, 2, "config"),
        ("concentrate", {"ensemble": {"family": "custom_coeffs", "params": {
            "num_0": {"kind": "uniform", "lo": -1e308, "hi": 1e308},
            "den_0": {"kind": "uniform", "lo": 1, "hi": 2},
            "den_1": {"kind": "uniform", "lo": 1, "hi": 2}}},
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
        # Horner overflows at Re s = 1e10: g_1^{-1} is inf or nan there
        ("analyze", {"net": dict(SWING_NET, nodes=[
            {"num": [1e300, 1e300], "den": [1e300, 1e300, 1]}, {"num": [1], "den": [1, 1]}],
            laplacian={"builder": {"kind": "path", "n": 2}}),
            "region": {"kind": "vertical_segment", "sigma": 1e10, "resolution": 3}},
         3, "SingularAtS"),
        ("concentrate", {"ensemble": {"family": "custom_coeffs", "params": {
            "num_0": {"kind": "point", "value": 1.0},
            "num_1": {"kind": "point", "value": 1.0},
            "num_2": {"kind": "uniform", "lo": 1, "hi": 2},
            "den_0": {"kind": "uniform", "lo": 1, "hi": 2},
            "den_1": {"kind": "point", "value": 1.0}}},
            "sweep": {"sizes": [4], "trials": 2}}, 2, "config"),
    ], ids=["unknown-builder", "infinite-coeff", "dt-ge-t_end", "size-0",
            "sizes-not-increasing", "negative-inertia", "zero-inertia",
            "zero-mass-normal", "custom-coefficient-gap", "float-resolution",
            "string-resolution", "string-omega-range", "string-sigma",
            "region-list", "nodes-int", "float-builder-n", "string-builder-n",
            "string-alphas", "top-level-list", "string-t_end", "string-dt",
            "freqdep-string-dt", "freqdep-null-t_end", "freqdep-string-shape",
            "string-inertia", "inertia-count", "null-shape-entry",
            "string-alpha", "string-trials", "float-trials", "string-epsilon",
            "string-lo", "list-hi", "string-mean", "bool-sd", "string-value",
            "int-laplacian-file", "int-output-dir", "list-family",
            "list-distribution-kind", "string-full-network", "string-seed",
            "null-seed", "freqdep-dt-ge-t_end", "freqdep-negative-alpha",
            "freqdep-not-integrator", "null-alphas", "zero-alphas",
            "null-shape", "null-inertias", "bool-coefficient",
            "zero-node-den", "empty-node-den", "zero-coupling-den",
            "empty-coupling-den", "missing-laplacian-file", "laplacian-without-source",
            "unknown-distribution-kind", "non-positive-inertias", "shape-count",
            "freqdep-shape-count", "self-loop-edge", "negative-edge-weight",
            "edge-out-of-range", "builder-n-1", "analyze-negative-alpha",
            "unused-ensemble-param", "rect-grid-zero-sigma", "uniform-lo-ge-hi",
            "normal-negative-sd", "sinusoid-without-alpha", "freqdep-zero-alpha",
            "uniform-width-overflows", "overflowing-node-values", "improper-sampled-node"])
    def test_bad_value_documented_exit(self, tmp_path, capsys, monkeypatch,
                                       command, cfg, code, kind):
        # no --out, so the config's output_dir is read; the default is cwd
        monkeypatch.chdir(tmp_path)
        for name, text in BAD_EDGE_FILES.items():
            (tmp_path / name).write_text(text)
        path = write_cfg(tmp_path, cfg)
        assert run(command, path) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: kind={kind} detail=")
        assert "Traceback" not in err
        # nothing written beside the inputs
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*BAD_EDGE_FILES,
                                                                     "cfg.json"])

    @pytest.mark.parametrize("command,cfg", [
        ("analyze", {"net": dict(SWING_NET, laplacian={"file": "absent.txt"})}),
        ("concentrate", {"ensemble": dict(CONCENTRATE_ENSEMBLE, params={
            "m": {"kind": "lognormal", "lo": 1, "hi": 2},
            "d": {"kind": "uniform", "lo": 1, "hi": 2}}),
            "sweep": {"sizes": [4], "trials": 2}}),
        ("simulate", {"net": SWING_NET, "simulate": {
            "t_end": 1.0, "inertias": [1.0, 0.0, 1.0]}}),
    ], ids=["missing-laplacian-file", "unknown-distribution-kind", "zero-inertia"])
    def test_config_error_makes_no_out_directory(self, tmp_path, capsys,
                                                 command, cfg):
        out = tmp_path / "out"
        assert run(command, write_cfg(tmp_path, cfg), out=str(out)) == 2
        assert capsys.readouterr().err.startswith("error: kind=config detail=")
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        cfg = {"ensemble": CONCENTRATE_ENSEMBLE,
               "sweep": {"sizes": [4], "trials": 2}}
        assert main(["concentrate", write_cfg(tmp_path, cfg), "--seed", "-1",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: kind=config detail=")

    def test_alpha_option_removed(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {"net": SWING_NET})
        with pytest.raises(SystemExit) as exc:
            main(["simulate", path, "--alpha", "0.5", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_edge_weight_exit_2(self, tmp_path, capsys, command, weight):
        (tmp_path / "edges.txt").write_text(f"0 1 {weight}\n1 2 1.0\n")
        cfg = {"net": dict(SWING_NET, laplacian={"file": "edges.txt"}),
               "simulate": {"t_end": 1.0}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(command, write_cfg(tmp_path, cfg), out=str(tmp_path)) == 2
        assert caught == []
        assert capsys.readouterr().err.splitlines() == [
            f"error: kind=config detail=edge (0,1) weight must be a finite number, "
            f"got {weight}"]

    def test_unknown_command_exit_2(self, tmp_path):
        path = write_cfg(tmp_path, {"net": SWING_NET})
        assert run("frobnicate", path, out=str(tmp_path)) == 2

    def test_module_entry_point(self, tmp_path):
        # python -m netcoh.cli runs main and exits with its status
        path = write_cfg(tmp_path, {"net": SWING_NET, "region": {"resolution": 5}})
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "netcoh.cli", "analyze",
                               path, "--out", str(out)], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{out / 'sweep.csv'}\n", "")
        assert len(_data_rows(out / "sweep.csv")) == 5

    def test_rerun_byte_identical(self, tmp_path):
        cfg = {
            "ensemble": {"family": "swing",
                         "params": {"m": {"kind": "uniform", "lo": 1, "hi": 2},
                                    "d": {"kind": "uniform", "lo": 1, "hi": 2}}},
            "region": {"kind": "vertical_segment", "sigma": 0.1,
                       "omega_range": [-1, 1], "resolution": 5},
            "sweep": {"sizes": [4, 8], "trials": 4, "epsilon": 0.05},
        }
        path = write_cfg(tmp_path, cfg)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("concentrate", path, seed=9, out=str(out_a)) == 0
        assert run("concentrate", path, seed=9, out=str(out_b)) == 0
        for name in ("concentration.csv", "concentration_summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_changes_concentration_output(self, tmp_path):
        cfg = {
            "ensemble": {"family": "swing",
                         "params": {"m": {"kind": "uniform", "lo": 1, "hi": 2},
                                    "d": {"kind": "uniform", "lo": 1, "hi": 2}}},
            "region": {"resolution": 3},
            "sweep": {"sizes": [4], "trials": 3, "epsilon": 0.05},
        }
        path = write_cfg(tmp_path, cfg)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("concentrate", path, seed=1, out=str(out_a)) == 0
        assert run("concentrate", path, seed=2, out=str(out_b)) == 0
        strip = lambda p: [l for l in p.read_text().splitlines()
                           if not l.startswith("#")]
        assert strip(out_a / "concentration.csv") != \
            strip(out_b / "concentration.csv")

    def test_inertias_from_a_window_whose_mass_underflows(self, tmp_path):
        # normal(0, 1) on [40, 41] has mass 3.7e-350: drawn by Robert's sampler
        cfg = {"ensemble": dict(CONCENTRATE_ENSEMBLE, params={
            "m": {"kind": "normal", "mean": 0, "sd": 1, "lo": 40, "hi": 41},
            "d": {"kind": "uniform", "lo": 1, "hi": 2}}),
            "region": {"resolution": 3}, "sweep": {"sizes": [4, 8], "trials": 2}}
        out = tmp_path / "out"
        assert run("concentrate", write_cfg(tmp_path, cfg), out=str(out)) == 0
        assert (out / "concentration.csv").stat().st_size > 0


REGION5 = {"kind": "vertical_segment", "sigma": 0.1, "omega_range": [-1, 1],
           "resolution": 5}
SIM = {"t_end": 1.0, "dt": 0.1}

# Every command, with the CSV artifacts it writes; simulate with and without
# inertias (an empty ycoi column).
CSV_RUNS = [
    ("analyze", {"net": SWING_NET, "region": REGION5,
                 "sweep": {"alphas": [0.1, 100.0]}}, ["sweep.csv"]),
    ("bound", {"net": SWING_NET, "region": REGION5}, ["bound.csv"]),
    ("aggregate", {"net": SWING_NET, "region": REGION5},
     ["aggregate_compare.csv"]),
    ("concentrate", {"ensemble": CONCENTRATE_ENSEMBLE, "region": REGION5,
                     "sweep": {"sizes": [4, 8], "trials": 3}},
     ["concentration.csv", "concentration_summary.csv"]),
    ("simulate", {"net": SWING_NET, "simulate": SIM}, ["simulation.csv"]),
    ("simulate", {"net": SWING_NET,
                  "simulate": dict(SIM, inertias=[1.0, 2.0, 1.2])},
     ["simulation.csv"]),
    ("freqdep", {"net": INTEGRATOR_NET, "simulate": {"t_end": 5.0, "dt": 0.1}},
     ["freqdep.csv"]),
]


def test_csv_cells_are_numbers_booleans_or_empty(tmp_path):
    for k, (command, cfg, names) in enumerate(CSV_RUNS):
        out = tmp_path / f"{command}{k}"
        assert run(command, write_cfg(tmp_path, cfg, f"{command}{k}.json"),
                   seed=4, out=str(out)) == 0
        for name in names:
            lines = [l for l in (out / name).read_text().splitlines()
                     if not l.startswith("#")]
            assert len(lines) > 1
            for line in lines[1:]:
                for cell in line.split(","):
                    if cell not in ("", "true", "false"):
                        float(cell)  # raises on np.float64(...) and the like


def _fmt_before_cell_table(x) -> str:
    """The cell formatter the exact-type table replaced, kept as an oracle."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv_before_streaming(path, header, rows, provenance):
    lines = [f"# {p}" for p in provenance]
    lines.append(header)
    for row in rows:
        lines.append(",".join(_fmt_before_cell_table(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


class TestCsvWriter:
    def test_cell_bytes(self, tmp_path):
        path = tmp_path / "cells.csv"
        cli._write_csv(path, "a,b,c,d", [(None, True, False, 3), (0, -7, None, None)],
                       ["tool=x", "seed=1"])
        assert path.read_bytes() == (b"# tool=x\n# seed=1\na,b,c,d\n"
                                     b",true,false,3\n0,-7,,\n")

    def test_float_cells_are_reprs(self, tmp_path):
        floats = [-0.0, 1e-05, 1e16, 1e15, 5e-324, 0.1 + 0.2,
                  float("nan"), float("inf"), float("-inf")]
        path = tmp_path / "floats.csv"
        cli._write_csv(path, "x", [(x,) for x in floats], [])
        lines = path.read_text().split("\n")
        assert lines == ["x"] + [repr(x) for x in floats] + [""]
        assert lines[1:-1] == ["-0.0", "1e-05", "1e+16", "1000000000000000.0",
                               "5e-324", "0.30000000000000004", "nan", "inf",
                               "-inf"]

    @pytest.mark.parametrize("k", range(len(CSV_RUNS)))
    def test_artifacts_match_the_formatter_before(self, tmp_path, monkeypatch, k):
        command, cfg, names = CSV_RUNS[k]
        path = write_cfg(tmp_path, cfg)
        assert run(command, path, seed=4, out=str(tmp_path / "new")) == 0
        monkeypatch.setattr(cli, "_write_csv", _write_csv_before_streaming)
        assert run(command, path, seed=4, out=str(tmp_path / "old")) == 0
        for name in names:
            new = (tmp_path / "new" / name).read_bytes()
            assert new == (tmp_path / "old" / name).read_bytes()
            assert new.count(b"\n") > 4

    @pytest.mark.parametrize("cell,kind", [
        (np.float64(0.5), "numpy.float64"), (np.bool_(True), "numpy.bool"),
        (np.int64(3), "numpy.int64"), ("0.5", "str")])
    def test_other_cell_types_raise(self, tmp_path, cell, kind):
        with pytest.raises(TypeError, match=kind):
            cli._write_csv(tmp_path / "t.csv", "a,b", [(1.0, 2.0), (1.0, cell)],
                           ["seed=1"])
        assert list(tmp_path.iterdir()) == []

    def test_failed_rows_leave_the_old_file(self, tmp_path):
        path = tmp_path / "simulation.csv"
        path.write_text("old\n")

        def rows():
            for k in range(10):
                yield (float(k), 1.0)
            raise RuntimeError("row 10")

        with pytest.raises(RuntimeError, match="row 10"):
            cli._write_csv(path, "t,y", rows(), ["seed=1"])
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command,name", [("simulate", "simulation.csv"),
                                              ("aggregate", "aggregate.txt")])
    def test_artifact_path_is_a_directory_exit_5(self, tmp_path, capsys,
                                                 command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        cfg = {"net": SWING_NET, "simulate": SIM, "region": REGION5}
        assert run(command, write_cfg(tmp_path, cfg), out=str(out)) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: kind=io detail=")
        assert [p.name for p in out.iterdir()] == [name]
        assert list((out / name).iterdir()) == []

    def test_rows_are_streamed(self, tmp_path):
        # 25 000 rows of 7 floats are about 3 MiB of text; written row by
        # row, the writer never holds more than a small buffer of it
        rows = ((k / 7, *(math.sqrt(k + j) for j in range(6)))
                for k in range(25000))
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            cli._write_csv(path, "t,a,b,c,d,e,f", rows, ["seed=1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 3 * 2**20
        assert peak < 2**20
