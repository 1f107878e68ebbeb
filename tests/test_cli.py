import json

import pytest

from netcoh.cli import run

SWING_NET = {
    "nodes": [
        {"num": [1], "den": [1, 1]},
        {"num": [1], "den": [2, 2]},
        {"num": [1], "den": [1.5, 1.2]},
    ],
    "coupling": {"num": [1], "den": [1]},
    "laplacian": {"builder": {"kind": "complete", "n": 3, "weight": 2.0}},
}

CONCENTRATE_ENSEMBLE = {
    "family": "swing",
    "params": {"m": {"kind": "uniform", "lo": 1, "hi": 2},
               "d": {"kind": "uniform", "lo": 1, "hi": 2}},
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

    def test_alpha_sweep_one_exact_sum(self, tmp_path, exact_additions):
        cfg = {
            "net": SWING_NET,
            "region": {"resolution": 3},
            "sweep": {"alphas": [10.0, 100.0, 1000.0, 10000.0]},
        }
        assert run("analyze", write_cfg(tmp_path, cfg), out=str(tmp_path)) == 0
        assert len(exact_additions) == 2


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

    def test_singular_region_exit_3(self, tmp_path):
        cfg = {
            "net": SWING_NET,
            "region": {"kind": "rect_grid", "sigma": -2.0,
                       "omega_range": [-0.5, 0.5], "resolution": 5},
        }
        path = write_cfg(tmp_path, cfg)
        assert run("bound", path, out=str(tmp_path)) == 3


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

    def test_unstable_exit_4(self, tmp_path):
        cfg = {
            "net": {
                "nodes": [{"num": [1], "den": [-1, 1]},
                          {"num": [1], "den": [-1, 1]}],
                "coupling": {"num": [1], "den": [1]},
                "laplacian": {"builder": {"kind": "path", "n": 2,
                                          "weight": 1e-6}},
            },
            "simulate": {"t_end": 1.0, "dt": 0.1},
        }
        path = write_cfg(tmp_path, cfg)
        assert run("simulate", path, out=str(tmp_path)) == 4


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

    def test_one_exact_sum(self, tmp_path, exact_additions):
        cfg = {"net": SWING_NET, "region": {"resolution": 3}}
        assert run("aggregate", write_cfg(tmp_path, cfg), out=str(tmp_path)) == 0
        assert len(exact_additions) == 2


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
    ], ids=["unknown-builder", "infinite-coeff", "dt-ge-t_end", "size-0",
            "sizes-not-increasing"])
    def test_bad_value_documented_exit(self, tmp_path, capsys, command, cfg,
                                       code, kind):
        path = write_cfg(tmp_path, cfg)
        assert run(command, path, out=str(tmp_path)) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: kind={kind} detail=")
        assert "Traceback" not in err

    def test_unknown_command_exit_2(self, tmp_path):
        path = write_cfg(tmp_path, {"net": SWING_NET})
        assert run("frobnicate", path, out=str(tmp_path)) == 2

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
