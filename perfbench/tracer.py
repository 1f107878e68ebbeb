"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of the netcoh modules at every module
attribute through which they are reachable (``harmonic_mean`` is bound in
``ratfun``, ``netfreq``, ``ensemble`` and the package), and methods on their
classes.  Spans live in memory while a round runs; self time is a span's
duration minus the time covered by its child spans.  A function that calls
itself, or reaches a wrapper of the same layer metric, stays one span.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter


def _max_coeff_bits(rf) -> int:
    bits = 0
    for c in rf.num.coeffs + rf.den.coeffs:
        c = Fraction(c)
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _steps(args, kwargs) -> int:
    t_end = kwargs.get("t_end", args[2] if len(args) > 2 else None)
    dt = kwargs.get("dt", args[3] if len(args) > 3 else None)
    return int(round(t_end / dt)) if t_end and dt else 0


def _nodes(args, kwargs) -> int:
    return int(kwargs.get("n", args[1] if len(args) > 1 else 0))


# (span name, module, owner class or None, attribute, extra counter).
# An extra counter is (stat name, function of (args, kwargs, result) giving
# the call's value, how one round's values combine).
TARGETS = [
    ("ratfun.rational_init", "ratfun", "RationalFunction", "__init__", None),
    ("ratfun.harmonic_mean", "ratfun", None, "harmonic_mean",
     ("max_coeff_bits", lambda a, k, r: _max_coeff_bits(r), max)),
    ("ratfun.roots", "ratfun", "RationalFunction", "poles", None),
    ("ratfun.roots", "ratfun", "RationalFunction", "zeros", None),
    ("ratfun.to_state_space", "ratfun", "RationalFunction", "to_state_space", None),
    ("graph.laplacian", "graph", "LaplacianMatrix", "__init__", None),
    ("graph.laplacian", "graph", "LaplacianMatrix", "scale", None),
    ("netfreq.eval_T", "netfreq", None, "eval_T", None),
    ("netfreq.incoherence", "netfreq", None, "incoherence", None),
    ("netfreq.lemma_bound", "netfreq", None, "lemma_bound", None),
    ("netfreq.sweep_region", "netfreq", None, "sweep_region", None),
    ("netfreq.estimate_majorants", "netfreq", None, "estimate_majorants", None),
    ("netfreq.aggregate_dynamics", "netfreq", None, "aggregate_dynamics", None),
    ("timedomain.simulate", "timedomain", None, "simulate",
     ("steps", lambda a, k, r: _steps(a, k), sum)),
    ("timedomain.assemble_closed_loop", "timedomain", None, "assemble_closed_loop", None),
    ("timedomain.coherent_reference", "timedomain", None, "coherent_reference", None),
    ("ensemble.sample_nodes", "ensemble", None, "sample_nodes",
     ("nodes", lambda a, k, r: _nodes(a, k), sum)),
    ("ensemble.concentration_experiment", "ensemble", None,
     "concentration_experiment", None),
    ("cli.run", "cli", None, "run", None),
]


class Tracer:
    """Installs wrappers, records spans while ``on``, removes wrappers."""

    PACKAGE = "netcoh"

    def __init__(self):
        self.on = False
        self.invocation = 0
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- wrapping ---

    def _wrap(self, name: str, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not tracer.on or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [name, 0.0, tracer._next_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
            value = extra[1](args, kwargs, result) if extra else None
            tracer.spans.append((tracer.invocation, frame[2],
                                 parent[2] if parent else 0, name, t0, t1,
                                 t1 - t0 - frame[1], value))
            return result

        return wrapper

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k == self.PACKAGE or k.startswith(self.PACKAGE + ".")}
        for name, mod_name, cls_name, attr, extra in TARGETS:
            mod = mods.get(f"{self.PACKAGE}.{mod_name}")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            orig = owner.__dict__.get(attr) if owner is not None else None
            if orig is None:
                self.missing.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
                continue
            wrapper = self._wrap(name, orig, extra)
            if cls_name:
                self._patch(owner, attr, orig, wrapper)
                continue
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # --- results ---

    def take_round(self) -> tuple[dict[str, float], list[tuple]]:
        """Per-layer stats of the spans recorded since the last call."""
        spans, self.spans = self.spans, []
        stats: dict[str, float] = defaultdict(int)
        combine = {name: extra for name, _, _, _, extra in TARGETS if extra}
        for _, _, _, name, _, _, self_s, value in spans:
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += self_s
            if value is not None:
                key = f"{name}.{combine[name][0]}"
                stats[key] = combine[name][2]([stats.get(key, 0), value])
        return dict(stats), spans


SPAN_HEADER = "invocation,span_id,parent_id,name,start_s,end_s,self_s,extra"


def write_spans(path, spans, origin: float) -> None:
    with open(path, "w") as fh:
        fh.write(SPAN_HEADER + "\n")
        for inv, sid, pid, name, t0, t1, self_s, value in spans:
            fh.write(f"{inv},{sid},{pid},{name},{t0 - origin:.9f},{t1 - origin:.9f},"
                     f"{self_s:.9f},{'' if value is None else value}\n")
