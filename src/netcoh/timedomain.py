"""Closed-loop assembly, exact-discretization simulation, and coherence experiments.

The feedback structure is y = G(u - f L y): each node realization is
stacked block-diagonally, the coupling dynamics f is realized once per
channel acting on L y, and any direct-feedthrough algebraic loop is
eliminated before simulation.  Simulation samples the response from zero
initial state exactly up to rounding: every input family is the output of
a small linear generator, so one matrix exponential steps the augmented
state (Van Loan 1978).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DisconnectedError,
    LengthMismatchError,
    NotIntegratorCouplingError,
    UnstableModelError,
)
from .netfreq import NetworkModel
from .ratfun import RationalFunction, StateSpaceModel, feedback, stack

__all__ = [
    "InputSignal",
    "SimulationResult",
    "default_shape",
    "assemble_closed_loop",
    "simulate",
    "coherence_realization",
    "coi_frequency",
    "coherence_experiment",
    "frequency_dependence_experiment",
]

_UNSTABLE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class InputSignal:
    """Input family: step 1/s, sinusoid sin(alpha t), or exponential
    approach alpha/(s(s+alpha)), each times a fixed shape vector u0."""

    family: str
    shape: np.ndarray
    alpha: float = 0.0

    def __post_init__(self):
        if self.family not in ("step", "sinusoid", "exp_approach"):
            raise ValueError(f"unknown input family {self.family!r}")
        object.__setattr__(self, "shape", np.atleast_1d(np.asarray(self.shape, float)))
        if self.family in ("sinusoid", "exp_approach") and not self.alpha > 0:
            raise ValueError(f"{self.family} needs alpha > 0, got {self.alpha!r}")

    def generator(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A_w, w0, c) with u(t) = (c . e^{A_w t} w0) shape for t >= 0."""
        a = self.alpha
        if self.family == "step":
            return np.zeros((1, 1)), np.ones(1), np.ones(1)
        if self.family == "sinusoid":
            return (np.array([[0.0, a], [-a, 0.0]]), np.array([0.0, 1.0]),
                    np.array([1.0, 0.0]))
        return np.diag([0.0, -a]), np.ones(2), np.array([1.0, -1.0])


def default_shape(n: int) -> np.ndarray:
    """Input shape -1 at the second node (the first when n = 1), 0 elsewhere."""
    shape = np.zeros(n)
    shape[min(1, n - 1)] = -1.0
    return shape


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Sampled node outputs plus optional coherent / COI references."""

    times: np.ndarray
    node_outputs: np.ndarray  # n x T
    coherent_output: np.ndarray | None = None
    coi_output: np.ndarray | None = None

    @property
    def deviation_linf(self) -> float:
        """sup_t max_i |y_i - ybar|."""
        if self.coherent_output is None:
            raise ValueError("coherent reference output missing")
        return float(np.max(np.abs(self.node_outputs - self.coherent_output)))


def assemble_closed_loop(net: NetworkModel) -> StateSpaceModel:
    """Composite realization of u -> y for y = G(u - f L y): the stacked nodes
    in feedback with one copy of f per channel, acting on L y."""
    L, f = net.laplacian.entries, stack([net.coupling.to_state_space()] * net.n)
    return feedback(stack([g.to_state_space() for g in net.nodes]),
                    StateSpaceModel(f.A, f.B @ L, f.C, f.D @ L))


def coherence_realization(net: NetworkModel) -> StateSpaceModel:
    """One realization of u -> [y; ybar]: the closed loop stacked with
    net.gbar_model, the float realization of gbar/n, driven by 1^T u, so
    output n + 1 is the coherent reference gbar (1^T u)/n."""
    both = stack([assemble_closed_loop(net), net.gbar_model])
    inputs = np.vstack([np.eye(net.n), np.ones((1, net.n))])
    return StateSpaceModel(both.A, both.B @ inputs, both.C, both.D @ inputs)


# [13/13] Pade coefficients and the 1-norm up to which that approximant is
# accurate to double precision without squaring (Higham 2005)
_PADE13 = [math.comb(13, k) / (math.comb(26, k) * math.factorial(k)) for k in range(14)]
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a [13/13] Pade approximant."""
    norm = np.abs(a).sum(axis=0).max()  # the 1-norm: largest column sum
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm else 0
    a = a / 2.0 ** squarings
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    eye = np.eye(len(a))
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = eye + np.linalg.solve(v - u, 2.0 * u)  # (v - u)^-1 (v + u), less rounding
    for _ in range(squarings):
        r = r @ r
    return r


def simulate(model: StateSpaceModel, input_signal: InputSignal,
             t_end: float, dt: float) -> SimulationResult:
    """Sample the response of x' = Ax + Bu(t) from zero state at the
    sampling interval dt, up to t_end.

    The input generator w' = A_w w is appended to the state, z = [x; w], so
    z(t + dt) = Phi z(t) with Phi = expm(A_aug dt), exact up to rounding and
    with no stability limit on dt.  Sample b*K + j is C_aug Phi^j z(b*K dt):
    one product of the stacked C_aug Phi^j with all block-start states.
    """
    A, B, C, D = model.A, model.B, model.C, model.D
    if len(input_signal.shape) != B.shape[1]:
        raise LengthMismatchError(
            f"input shape has {len(input_signal.shape)} entries for "
            f"{B.shape[1]} inputs")
    max_re = np.linalg.eigvals(A).real.max(initial=-math.inf)
    if max_re > _UNSTABLE_TOL:
        raise UnstableModelError(f"state matrix has eigenvalue with Re = {max_re:.3g}")
    if dt <= 0 or t_end <= dt:
        raise ValueError("need dt > 0 and t_end > dt")

    steps = int(round(t_end / dt))
    times = np.arange(steps + 1) * float(dt)  # float64 for an int dt too
    A_w, w0, c = input_signal.generator()
    nx = model.order
    shape_c = np.outer(input_signal.shape, c)
    A_aug = np.block([[A, B @ shape_c], [np.zeros((len(w0), nx)), A_w]])
    C_aug = np.hstack([C, D @ shape_c])
    phi = _expm(A_aug * dt)

    ny, nz = C_aug.shape
    # up to 256 samples per block, at most 2^20 floats of stacked C_aug Phi^j
    block = max(1, min(256, steps + 1, 2 ** 20 // (ny * nz)))
    powers = [C_aug]
    for _ in range(block - 1):
        powers.append(powers[-1] @ phi)
    jump = np.linalg.matrix_power(phi, block)
    starts = [np.concatenate([np.zeros(nx), w0])]
    while len(starts) * block < steps + 1:
        starts.append(jump @ starts[-1])
    ys = (np.vstack(powers) @ np.transpose(starts)).reshape(block, ny, -1)
    ys = ys.transpose(1, 2, 0).reshape(ny, -1)[:, :steps + 1]
    return SimulationResult(times=times, node_outputs=ys)


def coi_frequency(result: SimulationResult, inertias) -> np.ndarray:
    """Center-of-inertia output (sum m_i y_i) / (sum m_i)."""
    m = _inertia_weights(inertias, result.node_outputs.shape[0])
    return (m @ result.node_outputs) / np.sum(m)


def _inertia_weights(inertias, n: int) -> np.ndarray:
    m = np.asarray(inertias, float)
    if m.shape[0] != n:
        raise LengthMismatchError(f"{m.shape[0]} inertias for {n} nodes")
    if not np.all(m > 0):
        raise ValueError(f"inertias must be positive, got {m.tolist()}")
    return m


def coherence_experiment(net: NetworkModel, input_signal: InputSignal,
                         t_end: float, dt: float,
                         inertias=None) -> SimulationResult:
    """Simulate the closed loop and attach the coherent (and COI) references."""
    if inertias is not None:
        _inertia_weights(inertias, net.n)  # bad inertias fail before simulating
    res = _split(simulate(coherence_realization(net), input_signal, t_end, dt))
    return res if inertias is None else replace(res, coi_output=coi_frequency(res, inertias))


def _split(res: SimulationResult) -> SimulationResult:
    """y and ybar from the stacked outputs of a coherence_realization run."""
    return SimulationResult(res.times, res.node_outputs[:-1], res.node_outputs[-1])


def frequency_dependence_experiment(net: NetworkModel, alphas_sin: list[float],
                                    t_end: float, dt: float,
                                    shape=None) -> list[tuple[float, float]]:
    """L-infinity deviation from the coherent response per sinusoid frequency.

    Requires integrator coupling f = 1/s, the setting where low-frequency
    inputs force coherence.
    """
    if net.coupling != RationalFunction([1], [0, 1]):
        raise NotIntegratorCouplingError(
            "frequency dependence experiment requires f = 1/s")
    if net.laplacian.lambda2 <= 0:
        raise DisconnectedError(
            "frequency dependence experiment requires lambda_2(L) > 0")
    if shape is None:
        shape = default_shape(net.n)
    model = coherence_realization(net)
    return [(float(alpha), _split(simulate(model, InputSignal("sinusoid", shape, alpha),
                                           t_end, dt)).deviation_linf)
            for alpha in alphas_sin]
