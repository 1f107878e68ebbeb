"""Benchmark runner: one workload, closed loop, through ``netcoh.cli.run``.

    python3 perfbench/run.py --workload freq-domain --seed 1 --seconds 40 --trace 0

Paths are resolved from this file, so any working directory works.  The
program is imported from ``src/`` of the same tree.  The last stdout line
is the JSON result; earlier lines give per-command medians with their
samples, the per-command ratios to the reference loop, the set-up
repetitions, the environment and, with ``--trace 1``,
the tracing overhead per command.  Metric names and units come from
BENCHMARK.json.

Load model: one caller; each command starts after the previous returns.
A round is the workload's full command list.  After every round the
set-up is repeated once (see ``set_up``), so its median spans the run.
Iterations repeat while the slowest one so far would still end within
``--seconds``; at least one round always runs.

Host speed: a VM on a shared host can run the same work at speeds up to
2x apart, in phases of seconds to minutes, so wall times of the same work
differ more between runs than any useful bound.  Every round therefore
times a fixed pure-Python loop (``reference_s``) before the first command
and after every command.  In untraced rounds each command's wall time is
also reported divided by the mean of the two loop times around it.  ``round_rel`` sums the
means of these ratios; the raw wall times are printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("freq-domain", "concentration", "time-domain")
# the import of the program, measured in a fresh interpreter
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import netcoh.cli; "
                "print(time.perf_counter() - t)")
# iterations of the host-speed reference loop, about 0.13 s on a 2.1 GHz Xeon
REFERENCE_LOOP = 1_500_000


def _pin_blas_threads() -> int:
    """Cap the BLAS pool at the CPUs this process may use; must run before
    numpy is imported."""
    ncpu = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(ncpu)
    return ncpu


def environment(ncpu: int) -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "cpus": ncpu,
            "blas_threads": threads}


def _timing_line(name, xs, unit="s"):
    line = f"{name}: median {statistics.median(xs):.6f} {unit} over {len(xs)} samples"
    if len(xs) >= 40:
        # highest percentile with at least ten samples beyond it
        q = 1.0 - 10.0 / len(xs)
        line += f", p{100 * q:.0f} {sorted(xs)[int(q * len(xs))]:.6f} {unit}"
    return line + " (" + " ".join(f"{x:.4f}" for x in xs) + ")"


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop that calls no program code."""
    t0 = perf_counter()
    acc = 0
    for k in range(REFERENCE_LOOP):
        acc += k * k % 7
    return perf_counter() - t0


class Runner:
    """Runs a workload's invocations and checks their artifacts."""

    def __init__(self, cli, invocations, tracer=None):
        self.cli = cli
        self.invocations = invocations
        self.per_round = Counter(inv.command for inv in invocations)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.times: dict[str, list[float]] = {c: [] for c in self.per_round}
        self.traced_times: dict[str, list[float]] = {c: [] for c in self.per_round}
        # untraced wall time over the reference loop time around the call
        self.rel: dict[str, list[float]] = {c: [] for c in self.per_round}
        self.digests: dict[Path, str] = {}
        self.artifact_bytes = 0

    def call(self, inv) -> tuple[int, float, list[Path]]:
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            rc = self.cli.run(inv.command, str(inv.config), seed=inv.seed, out=str(inv.out))
            elapsed = perf_counter() - t0
        if rc != 0:
            print(f"FAIL {inv.command}: exit {rc}: {err.getvalue().strip()}", file=sys.stderr)
        return rc, elapsed, [Path(p) for p in buf.getvalue().split()]

    def round(self, traced: bool = False) -> None:
        """One pass over the invocations.

        The first round's artifacts are checked; later rounds must write
        the same bytes.
        """
        import checks

        first = not self.digests
        oks = []
        self.artifact_bytes = 0
        # traced rounds time the loop too, so that both kinds of round do
        # the same work apart from the wrappers
        ref = reference_s()
        for k, inv in enumerate(self.invocations):
            self.attempted += 1
            if traced:
                self.tracer.invocation = k
                self.tracer.on = True
            try:
                rc, elapsed, artifacts = self.call(inv)
            finally:
                if traced:
                    self.tracer.on = False
            (self.traced_times if traced else self.times)[inv.command].append(elapsed)
            ref_after = reference_s()
            if not traced:
                self.rel[inv.command].append(2.0 * elapsed / (ref + ref_after))
            ref = ref_after
            if rc != 0:
                oks.append(False)
                continue
            self.artifact_bytes += sum(p.stat().st_size for p in artifacts)
            digest = {p: hashlib.sha256(p.read_bytes()).hexdigest() for p in artifacts}
            if first:
                ok = self.check(checks.checks_for(inv, checks.read_config(inv.config)))
                self.digests.update(digest)
            else:
                ok = all(self.digests.get(p) == d for p, d in digest.items())
                if not ok:
                    print(f"FAIL {inv.command}: artifacts differ from the checked round",
                          file=sys.stderr)
            self.correct &= ok
            oks.append(ok)
        if first and not self.check(checks.workload_checks(self.invocations)):
            self.correct = False
            oks[-1] = False
        self.failed += oks.count(False)

    @staticmethod
    def check(named_checks) -> bool:
        import checks

        ok = True
        for name, thunk in named_checks:
            try:
                thunk()
            except (checks.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
                print(f"FAIL check {name}: {exc}", file=sys.stderr)
                ok = False
        return ok

    def round_s(self) -> float:
        """A round's wall time from the per-command medians."""
        return sum(n * statistics.median(self.times[c]) for c, n in self.per_round.items())

    def round_rel(self) -> float:
        """A round's wall time in reference loops, from the per-command means.

        The mean, not the median: the ratios scatter about 10% around their
        centre with few outliers, and on a 2-CPU VM the run-to-run spread of
        round_rel was 0.5-0.9 times the median's on every workload.
        """
        return sum(n * statistics.fmean(self.rel[c]) for c, n in self.per_round.items())


def build(workload: str, seed: int, work: Path, small: bool = False):
    import workloads as W

    cfg_dir, out = work / "configs", work / "out"
    for d in (cfg_dir, out):
        d.mkdir(parents=True, exist_ok=True)
    if workload == "freq-domain":
        if small:
            return W.freq_domain(seed, cfg_dir, out, ring_n=12, agg_n=3, agg_taus=2)
        return W.freq_domain(seed, cfg_dir, out)
    if workload == "concentration":
        if small:
            return W.concentration(seed, cfg_dir, out, sizes=(4, 8), trials=2, batches=1)
        return W.concentration(seed, cfg_dir, out)
    if small:
        return W.time_domain(seed, cfg_dir, out, t_end=1.0, freqdep_t_end=1.0)
    return W.time_domain(seed, cfg_dir, out)


def set_up(cli, workload: str, seed: int, work: Path):
    """One set-up: the program's import in a fresh interpreter, config
    generation, and a warm-up that runs the workload's commands on tiny
    configs.  Returns (seconds, invocations)."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, timeout=120, check=True)
    t0 = perf_counter()
    invocations = build(workload, seed, work / "timed")
    warm = Runner(cli, build(workload, seed, work / "warm", small=True))
    for inv in warm.invocations:
        rc, _, _ = warm.call(inv)
        if rc != 0:
            raise RuntimeError(f"warm-up {inv.command} exited {rc}")
    return float(probe.stdout) + perf_counter() - t0, invocations


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (SRC / "netcoh" / "__init__.py").is_file():
        print(f"error: no netcoh sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ncpu = _pin_blas_threads()
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))

    t0 = perf_counter()
    from netcoh import cli
    import_s = perf_counter() - t0
    if Path(cli.__file__).resolve().parents[2] != ROOT:
        print(f"error: netcoh imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setup_reps = []
    rep_s, invocations = set_up(cli, args.workload, args.seed, work)
    setup_reps.append(rep_s)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    runner = Runner(cli, invocations, tracer)

    # --- timed rounds, each followed by one set-up repetition ---
    iterations, layer_rounds, spans = [], [], []
    started = perf_counter()
    if tracer is not None:
        # checks the artifacts and pays the first-call costs outside the
        # traced/untraced pairs that give the overhead
        runner.round()
    while not iterations or (perf_counter() - started + max(iterations)
                             <= args.seconds):
        t0 = perf_counter()
        if tracer is not None:
            tracer.install()
            try:
                runner.round(traced=True)
            finally:
                tracer.uninstall()
            stats, spans = tracer.take_round()
            stats["cli.artifact_bytes"] = runner.artifact_bytes
            layer_rounds.append(stats)
        runner.round()
        setup_reps.append(set_up(cli, args.workload, args.seed, work)[0])
        iterations.append(perf_counter() - t0)

    print("env: " + json.dumps(environment(ncpu), sort_keys=True))
    print(f"setup: in-process import {import_s:.6f} s; "
          + _timing_line("setup_s", setup_reps))
    for cmd, xs in runner.times.items():
        print(_timing_line(f"{cmd}_s", xs))
        rel = runner.rel[cmd]
        print(f"{cmd}_rel: mean {statistics.fmean(rel):.6f} ref over {len(rel)} samples ("
              + " ".join(f"{x:.4f}" for x in rel) + ")")

    metrics = {}
    if tracer is None:
        metrics["setup_s"] = statistics.median(setup_reps)
        metrics["round_rel"] = runner.round_rel()
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"round_s: {runner.round_s():.6f} s from per-command medians")
        print(f"round_rel: {metrics['round_rel']:.6f} ref from per-command means")
        section = spec["end_to_end"]
    else:
        if tracer.missing:
            print("trace: not found in the program: " + ", ".join(tracer.missing))
        overhead = 0.0
        for cmd, n in runner.per_round.items():
            d = (statistics.median(runner.traced_times[cmd])
                 - statistics.median(runner.times[cmd][n:]))
            overhead += n * d
            print(f"trace overhead {cmd}: {d:+.6f} s per call")
        for key in {k for st in layer_rounds for k in st}:
            # median_low keeps counts whole: every traced round does the same work
            metrics[key] = statistics.median_low(st.get(key, 0) for st in layer_rounds)
        metrics["trace.overhead_s"] = overhead
        from tracer import write_spans
        write_spans(work / "spans.csv", spans, started)
        print(f"trace: {len(spans)} spans of the last traced round in {work / 'spans.csv'}")
        section = spec["per_layer"]
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        # a layer that does not run on this workload reports 0
        "metrics": {m["name"]: {"value": metrics[m["name"]] if tracer is None
                                else metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in section},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report, no result line
        traceback.print_exc()
        sys.exit(1)
