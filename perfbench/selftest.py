"""Self-test of the benchmark: every output check rejects a perturbed artifact.

    python3 perfbench/selftest.py

Runs each workload's commands once (seed 0), requires every check to pass
on the real artifacts, then changes one value that each check reads and
requires that check, alone, to raise ``CheckError``.  Finally it requires
run.py to fail without a result line in a tree that holds only
BENCHMARK.json and perfbench/.  Scratch files go to .bench_work/selftest.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402


def edit_csv(path: Path, column: str, row, change) -> None:
    """Replace one cell; row is an index or a predicate on the row dict."""
    lines = path.read_text().splitlines()
    h = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    header = lines[h].split(",")
    data = [ln.split(",") for ln in lines[h + 1:]]
    if callable(row):
        row = next(i for i, r in enumerate(data) if row(dict(zip(header, r))))
    cells = dict(zip(header, data[row]))
    data[row][header.index(column)] = repr(change(cells))
    path.write_text("\n".join(lines[:h + 1] + [",".join(r) for r in data]) + "\n")


def scale(column, factor):
    return lambda cells: float(cells[column]) * factor


def shift(column, delta):
    return lambda cells: float(cells[column]) + delta


def edit_aggregate(path: Path) -> None:
    text = path.read_text()
    m = re.search(r"den=\[([^,\]]+)", text)
    bumped = repr(float(m.group(1)) * (1 + 1e-6))
    path.write_text(text[:m.start(1)] + bumped + text[m.end(1):])


def _valid(cells):
    return cells["bound_valid"] == "true"


# check name -> (artifact, mutation of that artifact)
PERTURB = {
    "analyze.grid": ("sweep.csv", lambda p: edit_csv(p, "s_im", 0, shift("s_im", 1e-3))),
    "analyze.measured": ("sweep.csv",
                         lambda p: edit_csv(p, "measured", 0, scale("measured", 1 + 1e-4))),
    "analyze.connectivity": ("sweep.csv",
                             lambda p: edit_csv(p, "lambda2", 0, scale("lambda2", 1 + 1e-6))),
    "analyze.bound": ("sweep.csv",
                      lambda p: edit_csv(p, "bound", _valid, scale("measured", 0.5))),
    "bound.grid": ("bound.csv", lambda p: edit_csv(p, "s_re", 0, shift("s_re", 1e-3))),
    "bound.measured": ("bound.csv",
                       lambda p: edit_csv(p, "measured", -1, scale("measured", 1 + 1e-4))),
    "bound.connectivity": ("bound.csv",
                           lambda p: edit_csv(p, "eff_conn", 0, scale("eff_conn", 1 + 1e-6))),
    "bound.bound": ("bound.csv", lambda p: edit_csv(p, "bound", 0, scale("measured", 0.5))),
    "aggregate.model": ("aggregate.txt", edit_aggregate),
    "aggregate.compare": ("aggregate_compare.csv",
                          lambda p: edit_csv(p, "coherent_gain", 0,
                                             scale("coherent_gain", 1 + 1e-6))),
    "concentrate.rows": ("concentration_summary.csv",
                         lambda p: edit_csv(p, "median_dev", 0,
                                            scale("median_dev", 1 + 1e-6))),
    # the slope pools the batch medians; one batch's largest-n median x10
    # lifts their mean about 4x
    "concentrate.slope": ("batch0/concentration_summary.csv",
                          lambda p: edit_csv(p, "median_dev", -1, scale("median_dev", 10.0))),
    "concentrate.deviation": ("concentration.csv",
                              lambda p: edit_csv(p, "sup_deviation", 0,
                                                 scale("sup_deviation", 1 + 1e-6))),
    "simulate.nodes": ("simulation.csv", lambda p: edit_csv(p, "y_1", -1, shift("y_1", 1e-4))),
    "simulate.references": ("simulation.csv",
                            lambda p: edit_csv(p, "ybar", -1, shift("ybar", 1e-4))),
    "freqdep.order": ("freqdep.csv",
                      lambda p: edit_csv(p, "linf_deviation", 0, lambda c: 1e3)),
}


def _mutated(work: Path, name: str, artifact: str, invs):
    """Copy of the round's artifacts with `artifact` (relative to the out
    directory) perturbed; returns the invocations rewritten to the copy."""
    out, mutated = work / "out", work / "mutated"
    shutil.rmtree(mutated, ignore_errors=True)
    shutil.copytree(out, mutated)
    PERTURB[name][1](mutated / artifact)
    return [dataclasses.replace(i, out=mutated / i.out.relative_to(out)) for i in invs]


def _rejects(name: str, artifact: str, named_checks) -> str:
    try:
        dict(named_checks)[name]()
    except checks.CheckError:
        print(f"ok   {name} rejects a perturbed {artifact}")
        return name
    raise AssertionError(f"{name} accepted a perturbed {artifact}")


def check_workload(cli, workload: str, work: Path) -> list[str]:
    """Names of the checks exercised; raises AssertionError on a miss."""
    invs = run.build(workload, 0, work)
    out = work / "out"
    seen = []
    for k, inv in enumerate(invs):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run(inv.command, str(inv.config), seed=inv.seed, out=str(inv.out))
        assert rc == 0, f"{inv.command} exited {rc}"
        cfg = checks.read_config(inv.config)
        for name, thunk in checks.checks_for(inv, cfg):
            thunk()  # the real artifacts pass
            if name in seen:
                continue
            artifact = str(inv.out.relative_to(out) / PERTURB[name][0])
            mutated = _mutated(work, name, artifact, invs)
            seen.append(_rejects(name, artifact, checks.checks_for(mutated[k], cfg)))
    for name, thunk in checks.workload_checks(invs):
        thunk()
        artifact = PERTURB[name][0]
        seen.append(_rejects(name, artifact,
                             checks.workload_checks(_mutated(work, name, artifact, invs))))
    return seen


def check_bare_tree(work: Path) -> None:
    bare = work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", run.WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0, "run.py succeeded without the program's sources"
    assert '"metrics"' not in proc.stdout, "run.py printed a result without the program"
    print("ok   run.py fails without the program's sources")


def main() -> int:
    from netcoh import cli

    work = ROOT / ".bench_work" / "selftest"
    seen = []
    for workload in run.WORKLOADS:
        seen += check_workload(cli, workload, work / workload)
    unexercised = set(PERTURB) - set(seen)
    assert not unexercised, f"perturbations without a check: {unexercised}"
    check_bare_tree(work)
    print(f"selftest passed: {len(seen)} checks reject perturbed artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
