import math
import warnings

import numpy as np
import pytest

from netcoh import ratfun, timedomain
from netcoh.errors import (
    AlgebraicLoopSingularError,
    DisconnectedError,
    LengthMismatchError,
    NotIntegratorCouplingError,
    UnstableModelError,
)
from netcoh.graph import builder, from_edge_list
from netcoh.netfreq import NetworkModel, eval_T
from netcoh.ratfun import RationalFunction as RF
from netcoh.ratfun import StateSpaceModel
from netcoh.timedomain import (
    _expm,
    InputSignal,
    SimulationResult,
    assemble_closed_loop,
    coherence_experiment,
    coherence_realization,
    coi_frequency,
    default_shape,
    frequency_dependence_experiment,
    simulate,
)

ONE = RF([1], [1])
INTEGRATOR = RF([1], [0, 1])


def swing(m, d):
    return RF([1], [d, m])


class TestInputSignal:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            InputSignal("ramp", [1.0])

    @pytest.mark.parametrize("family, alpha", [
        ("exp_approach", None), ("sinusoid", 0.0), ("sinusoid", math.nan)])
    def test_alpha_must_be_positive(self, family, alpha):
        # sin(0 t) and 1 - e^{0 t} are zero inputs
        kwargs = {} if alpha is None else {"alpha": alpha}
        with pytest.raises(ValueError, match=rf"^{family} needs alpha > 0, got "):
            InputSignal(family, [1.0], **kwargs)


class TestSimulate:
    def test_first_order_step_analytic(self):
        # 1/(s+1) step response is 1 - e^{-t}
        ss = RF([1], [1, 1]).to_state_space()
        res = simulate(ss, InputSignal("step", [1.0]), 5.0, dt=1e-3)
        exact = 1.0 - np.exp(-res.times)
        assert np.max(np.abs(res.node_outputs[0] - exact)) < 1e-12

    def test_first_order_sinusoid_analytic(self):
        # 1/(s+1) driven by sin(t): y = (sin t - cos t + e^{-t})/2
        ss = RF([1], [1, 1]).to_state_space()
        res = simulate(ss, InputSignal("sinusoid", [1.0], alpha=1.0), 8.0,
                       dt=1e-3)
        t = res.times
        exact = 0.5 * (np.sin(t) - np.cos(t) + np.exp(-t))
        assert np.max(np.abs(res.node_outputs[0] - exact)) < 1e-12

    def test_first_order_exp_approach_analytic(self):
        # 1/(s+1) driven by 1 - e^{-2t}: y = 1 - 2e^{-t} + e^{-2t}
        ss = RF([1], [1, 1]).to_state_space()
        res = simulate(ss, InputSignal("exp_approach", [1.0], alpha=2.0), 8.0,
                       dt=1e-3)
        t = res.times
        exact = 1.0 - 2.0 * np.exp(-t) + np.exp(-2.0 * t)
        assert np.max(np.abs(res.node_outputs[0] - exact)) < 1e-12

    def test_stiff_node_large_step(self):
        # dt = 10/1000 is far beyond any explicit step limit of 1/(s+1000)
        ss = RF([1], [1000, 1]).to_state_space()
        res = simulate(ss, InputSignal("step", [1.0]), 2.0, dt=1e-2)
        exact = (1.0 - np.exp(-1000.0 * res.times)) / 1000.0
        assert np.max(np.abs(res.node_outputs[0] - exact)) < 1e-15

    def test_blocks_match_stepping_oracle(self):
        # 32 second-order nodes, second-order coupling per channel and a
        # two-state sinusoid: ny * nz = 32 * 130 caps the block below 256
        rng = np.random.default_rng(5)
        nodes = []
        for _ in range(32):
            m, d = rng.uniform(1, 3), rng.uniform(0.5, 1.5)
            r, tau = rng.uniform(2, 6), rng.uniform(0.5, 8)
            nodes.append(RF([1, tau], [d + r, m + d * tau, m * tau]))
        net = NetworkModel(nodes, RF([1], [1, 2, 1]), builder("ring", 32, 0.5))
        model = assemble_closed_loop(net)
        sig = InputSignal("sinusoid", rng.uniform(-1, 1, 32), alpha=0.7)
        A_w, w0, c = sig.generator()
        ny, nz = model.C.shape[0], model.order + len(w0)
        assert 2 ** 20 // (ny * nz) < 256
        res = simulate(model, sig, 10.0, dt=1e-2)

        shape_c = np.outer(sig.shape, c)
        A_aug = np.block([[model.A, model.B @ shape_c],
                          [np.zeros((len(w0), model.order)), A_w]])
        C_aug = np.hstack([model.C, model.D @ shape_c])
        phi = _expm(A_aug * 1e-2)
        z = np.concatenate([np.zeros(model.order), w0])
        oracle = []
        for _ in res.times:
            oracle.append(C_aug @ z)
            z = phi @ z
        oracle = np.array(oracle).T
        assert res.node_outputs.shape == oracle.shape == (32, 1001)
        err = np.max(np.abs(res.node_outputs - oracle))
        assert err <= 1e-12 * np.max(np.abs(oracle))

    def test_feedthrough_only(self):
        ss = RF([2], [1]).to_state_space()
        res = simulate(ss, InputSignal("step", [1.0]), 1.0, dt=0.1)
        assert res.node_outputs[0] == pytest.approx(np.full(11, 2.0))

    def test_unstable_rejected(self):
        ss = RF([1], [-1, 1]).to_state_space()
        with pytest.raises(UnstableModelError):
            simulate(ss, InputSignal("step", [1.0]), 1.0, dt=0.01)

    @pytest.mark.parametrize("den,t_end,dt,error", [
        ([-1, 1], 1.0, 0.01, UnstableModelError),
        ([1, 1], 0.1, 0.1, ValueError),
        ([1, 1], 1.0, 0.0, ValueError),
    ])
    def test_refused_before_discretizing(self, monkeypatch, den, t_end, dt, error):
        def no_expm(a):
            raise AssertionError("discretized a refused model")

        monkeypatch.setattr(timedomain, "_expm", no_expm)
        with pytest.raises(error):
            simulate(RF([1], den).to_state_space(), InputSignal("step", [1.0]),
                     t_end, dt=dt)

    def test_shape_length_refused_before_discretizing(self, monkeypatch):
        def no_expm(a):
            raise AssertionError("discretized a refused input")

        monkeypatch.setattr(timedomain, "_expm", no_expm)
        with pytest.raises(LengthMismatchError,
                           match="^input shape has 2 entries for 1 inputs$"):
            simulate(RF([1], [1, 1]).to_state_space(), InputSignal("step", [1.0, 0.0]),
                     1.0, dt=0.1)

    def test_static_model(self):
        ss = RF([2], [1]).to_state_space()
        assert ss.order == 0
        response = ss.response(0.5j)
        assert response.dtype == complex and response.tolist() == [[2 + 0j]]
        res = simulate(ss, InputSignal("step", [1.0]), 1.0, dt=0.25)
        assert res.node_outputs.tolist() == [[2.0] * 5]


class TestExpm:
    def test_zero(self):
        assert np.array_equal(_expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        d = np.array([-2.0, 0.5, 3.0])
        assert np.allclose(_expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-14, atol=0)

    def test_jordan_block(self):
        assert np.allclose(_expm(np.array([[0.0, 2.5], [0.0, 0.0]])),
                           [[1.0, 2.5], [0.0, 1.0]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("theta", [1.3, 150.0])
    def test_rotation(self, theta):
        # theta = 150 has 1-norm >= 100 and forces squaring
        got = _expm(np.array([[0.0, theta], [-theta, 0.0]]))
        c, s = math.cos(theta), math.sin(theta)
        assert np.allclose(got, [[c, s], [-s, c]], rtol=0, atol=1e-12)

    def test_large_norm_triangular(self):
        a, b, d = -300.0, 200.0, -1.0
        want = [[math.exp(a), b * (math.exp(a) - math.exp(d)) / (a - d)],
                [0.0, math.exp(d)]]
        assert np.allclose(_expm(np.array([[a, b], [0.0, d]])), want,
                           rtol=1e-13, atol=1e-15)


class TestAssembly:
    def _net(self, f=ONE):
        return NetworkModel([swing(1.0, 1.0), swing(2.0, 1.5), swing(1.5, 0.8)],
                            f, builder("ring", 3))

    @pytest.mark.parametrize("f", [ONE, RF([1], [1, 1]), RF([2, 1], [1, 1])])
    def test_matches_frequency_response(self, f):
        net = self._net(f)
        model = assemble_closed_loop(net)
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = complex(rng.uniform(0.05, 2), rng.uniform(-3, 3))
            assert np.max(np.abs(model.response(s) - eval_T(net, s))) < 1e-10

    def test_integrator_coupling_matches(self):
        net = self._net(INTEGRATOR)
        model = assemble_closed_loop(net)
        for s in (0.5, 1j, 0.3 + 2j):
            assert np.max(np.abs(model.response(s) - eval_T(net, s))) < 1e-10

    def test_state_dimension(self):
        net = self._net(RF([1], [1, 1]))
        model = assemble_closed_loop(net)
        # 3 first-order nodes plus one coupling state per channel
        assert model.order == 6

    def test_singular_feedthrough_loop(self):
        # g = 1 and f = -0.5 on one unit edge: I + D_G D_F L = [[.5, .5], [.5, .5]]
        net = NetworkModel([ONE, ONE], RF([-0.5], [1]), builder("path", 2))
        with pytest.raises(AlgebraicLoopSingularError,
                           match="direct-feedthrough loop I \\+ D_G D_F L is singular"):
            assemble_closed_loop(net)


def _assemble_closed_loop_before(net):
    """The slice-by-slice assembly that ratfun.feedback replaced, kept as an oracle."""
    L = net.laplacian.entries
    n = net.n
    node_ss = [g.to_state_space() for g in net.nodes]
    f_ss = net.coupling.to_state_space()

    Ag, Bg, Cg = (ratfun._block_diag([getattr(m, k) for m in node_ss]) for k in "ABC")
    Dg = np.diag([m.D[0, 0] for m in node_ss])

    Af, Bf, Cf = (ratfun._block_diag([getattr(f_ss, k)] * n) for k in "ABC")
    Df = f_ss.D[0, 0] * np.eye(n)

    W = ratfun._guarded_inverse(np.eye(n) + Dg @ Df @ L, AlgebraicLoopSingularError,
                                "direct-feedthrough loop I + D_G D_F L is singular")

    ng = Ag.shape[0]
    nf = Af.shape[0]
    Cy = np.hstack([W @ Cg, -W @ Dg @ Cf])
    Dy = W @ Dg

    A = np.zeros((ng + nf, ng + nf))
    A[:ng, :ng] = Ag
    A[:ng, ng:] = -Bg @ Cf
    A[ng:, ng:] = Af
    A[:ng, :] += -Bg @ Df @ L @ Cy
    A[ng:, :] += Bf @ L @ Cy

    B = np.zeros((ng + nf, n))
    B[:ng, :] = Bg @ (np.eye(n) - Df @ L @ Dy)
    B[ng:, :] = Bf @ L @ Dy
    return StateSpaceModel(A, B, Cy, Dy)


def _coherence_realization_before(net):
    loop, ref, ones = _assemble_closed_loop_before(net), net.gbar_model, np.ones((1, net.n))
    block = ratfun._block_diag
    return StateSpaceModel(block([loop.A, ref.A]), np.vstack([loop.B, ref.B @ ones]),
                           block([loop.C, ref.C]), np.vstack([loop.D, ref.D @ ones]))


def _turbine(m, d, r, tau):
    return RF([1, tau], [d + r, m + d * tau, m * tau])


def _feedthrough(a, b, c):
    return RF([b, a], [c, 1])  # (a s + b)/(s + c), feedthrough a


def _drawn_net(family, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    node, f = {
        "swing-static": (lambda: swing(u(1, 3), u(0.5, 1.5)), RF([u(0.5, 3)], [1])),
        "turbine-lag": (lambda: _turbine(u(1, 3), u(0.5, 1.5), u(2, 6), u(0.5, 8)),
                        RF([2, 1], [1, 1])),
        # a feedthrough of 2 in f keeps D_G D_F L's products exact in either order
        "feedthrough": (lambda: _feedthrough(u(0.5, 2), u(0.5, 2), u(0.5, 2)),
                        RF([u(0.5, 3), 2], [u(0.5, 2), 1])),
        "integrator": (lambda: swing(u(1, 3), u(0.5, 1.5)), INTEGRATOR),
    }[family]
    graph = builder(["ring", "complete", "star", "path"][seed % 4], n,
                    weight=u(0.5, 2))
    return NetworkModel([node() for _ in range(n)], f, graph)


def _bits(model):
    return [(getattr(model, k).shape, getattr(model, k).tobytes()) for k in "ABCD"]


class TestAssemblyOracle:
    """Closing both loops through ratfun.feedback gives the old assembly's
    matrices bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("family", ["swing-static", "turbine-lag", "feedthrough",
                                        "integrator"])
    def test_bitwise_equal_to_the_assembly_before(self, family, seed):
        net = _drawn_net(family, seed)
        assert _bits(assemble_closed_loop(net)) == _bits(_assemble_closed_loop_before(net))
        assert _bits(coherence_realization(net)) == _bits(
            _coherence_realization_before(net))

    def test_reassociated_feedthrough_products_agree_to_rounding(self):
        # (D_G D_F) L became D_G (D_F L): here, with feedthroughs and weights
        # that are not powers of two, the two products round apart by an ulp
        rng = np.random.default_rng(5)
        nodes = [_feedthrough(*rng.uniform(0.5, 2, 3)) for _ in range(6)]
        net = NetworkModel(nodes, RF([0.7, 1.3], [0.9, 1]),
                           builder("complete", 6, weight=0.7))
        new, old = assemble_closed_loop(net), _assemble_closed_loop_before(net)
        for k in "ABCD":
            np.testing.assert_allclose(getattr(new, k), getattr(old, k),
                                       rtol=1e-14, atol=1e-14)


class TestCoherentReference:
    @pytest.mark.parametrize("f", [ONE, RF([1], [1, 1]), RF([2, 1], [1, 1]),
                                   INTEGRATOR])
    def test_realization_matches_frequency_response(self, f):
        # outputs 1..n are T(s), output n + 1 is gbar(s)/n times 1^T
        rng = np.random.default_rng(11)
        for k in range(5):
            n = int(rng.integers(2, 6))
            net = NetworkModel([swing(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
                                for _ in range(n)],
                               f, builder(["complete", "ring", "star", "path"][k % 4], n))
            model = coherence_realization(net)
            assert model.response(0.5).shape == (n + 1, n)
            for _ in range(5):
                s = complex(rng.uniform(0.05, 2.0), rng.uniform(-3.0, 3.0))
                want = np.vstack([eval_T(net, s), np.full((1, n), net.gbar(s) / n)])
                assert np.max(np.abs(model.response(s) - want)) < 1e-10

    def test_homogeneous_network_is_exactly_coherent(self):
        g = RF([1], [1, 1])
        net = NetworkModel([g, g, g], ONE, builder("complete", 3))
        sig = InputSignal("step", [1.0, 1.0, 1.0])
        res = coherence_experiment(net, sig, 4.0, 1e-3)
        # identical nodes with identical inputs never deviate from ybar
        assert res.deviation_linf < 1e-10

    def test_scalar_reference_oracle(self):
        net = NetworkModel([swing(1, 2), swing(3, 4)], ONE, builder("path", 2))
        sig = InputSignal("step", [1.0, 0.0])
        ybar = coherence_experiment(net, sig, 3.0, 1e-3).coherent_output
        # gbar = 2/(4s+6); mean input 1/2; step response (1/6)(1-e^{-1.5 t})
        t = np.arange(0, 3.0 + 1e-9, 1e-3)
        exact = (1.0 - np.exp(-1.5 * t)) / 6.0
        assert np.max(np.abs(ybar - exact)) < 1e-9


class TestDeviation:
    def test_missing_reference(self):
        res = SimulationResult(np.zeros(3), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="^coherent reference output missing$"):
            _ = res.deviation_linf

    def test_metrics_against_direct_max(self):
        times = np.linspace(0, 1, 5)
        ys = np.array([[0.0, 1.0, 2.0, 1.0, 0.0], [0.0, 0.5, 0.5, 0.5, 0.0]])
        ybar = np.zeros(5)
        res = SimulationResult(times, ys, coherent_output=ybar)
        assert res.deviation_linf == 2.0

    def test_deviation_shrinks_with_coupling(self):
        devs = []
        for alpha in (1.0, 10.0, 100.0):
            net = NetworkModel([swing(1, 1), swing(2, 1.5), swing(1.2, 0.7)],
                               ONE, builder("complete", 3, alpha))
            sig = InputSignal("step", [1.0, -0.5, 0.2])
            res = coherence_experiment(net, sig, 5.0, 1e-2)
            devs.append(res.deviation_linf)
        assert devs[0] > devs[1] > devs[2]


class TestCoi:
    def test_weighted_average(self):
        times = np.linspace(0, 1, 3)
        ys = np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]])
        res = SimulationResult(times, ys)
        coi = coi_frequency(res, [1.0, 3.0])
        assert coi == pytest.approx(np.full(3, 2.5))

    def test_length_mismatch(self):
        res = SimulationResult(np.zeros(3), np.zeros((2, 3)))
        with pytest.raises(LengthMismatchError):
            coi_frequency(res, [1.0, 2.0, 3.0])

    def test_length_checked_before_simulating(self, monkeypatch):
        def no_simulate(*args, **kwargs):
            raise AssertionError("simulated before checking inertias")

        monkeypatch.setattr(timedomain, "simulate", no_simulate)
        net = NetworkModel([swing(1, 1), swing(2, 1.5), swing(1.2, 0.7)],
                           ONE, builder("complete", 3))
        with pytest.raises(LengthMismatchError):
            coherence_experiment(net, InputSignal("step", [1.0, 0.0, 0.0]),
                                 1.0, 0.1, inertias=[1.0, 2.0])

    @pytest.mark.parametrize("inertias", [[1.0, -1.0, 0.0], [1.0, 0.0, 2.0],
                                          [1.0, math.nan, 1.0]])
    def test_non_positive_checked_before_simulating(self, monkeypatch, inertias):
        def no_simulate(*args, **kwargs):
            raise AssertionError("simulated before checking inertias")

        monkeypatch.setattr(timedomain, "simulate", no_simulate)
        net = NetworkModel([swing(1, 1), swing(2, 1.5), swing(1.2, 0.7)],
                           ONE, builder("complete", 3))
        with pytest.raises(ValueError, match="^inertias must be positive"):
            coherence_experiment(net, InputSignal("step", [1.0, 0.0, 0.0]),
                                 1.0, 0.1, inertias=inertias)

    def test_coi_tracks_reference_in_swing_network(self):
        ms = [1.0, 2.0, 1.5]
        net = NetworkModel([swing(m, 1.0) for m in ms], INTEGRATOR,
                           builder("complete", 3, 5.0))
        sig = InputSignal("sinusoid", [1.0, 0.0, -1.0], alpha=0.3)
        res = coherence_experiment(net, sig, 20.0, 1e-2, inertias=ms)
        assert res.coi_output is not None
        coi_dev = np.max(np.abs(res.coi_output - res.coherent_output))
        assert coi_dev < res.deviation_linf


class TestFrequencyDependence:
    def _net(self):
        return NetworkModel([swing(1, 1), swing(2, 1.5), swing(1.2, 0.7)],
                            INTEGRATOR, builder("complete", 3, 2.0))

    def test_low_frequency_more_coherent(self):
        rows = frequency_dependence_experiment(self._net(), [0.05, 0.5],
                                               40.0, 1e-2)
        assert rows[0][1] < rows[1][1]

    def test_assembles_once(self, monkeypatch):
        net = self._net()
        assembled, realized = [], []
        real_assemble, real_realize = assemble_closed_loop, RF.to_state_space
        monkeypatch.setattr(timedomain, "assemble_closed_loop",
                            lambda m: assembled.append(m) or real_assemble(m))
        monkeypatch.setattr(RF, "to_state_space",
                            lambda g: realized.append(g) or real_realize(g))
        rows = frequency_dependence_experiment(net, [0.05, 0.5], 20.0, 1e-2)
        assert len(assembled) == 1
        # each node and the coupling once, gbar once
        assert len(realized) == net.n + 2
        shape = [0.0, -1.0, 0.0]
        for alpha, dev in rows:
            res = coherence_experiment(net, InputSignal("sinusoid", shape, alpha),
                                       20.0, 1e-2)
            assert abs(dev - res.deviation_linf) <= 1e-12

    def test_requires_integrator_coupling(self):
        net = NetworkModel([swing(1, 1), swing(2, 1.5)], ONE, builder("path", 2))
        with pytest.raises(ValueError):
            frequency_dependence_experiment(net, [0.1], 10.0, 1e-2)

    def test_coupling_error_is_typed(self):
        net = NetworkModel([swing(1, 1), swing(2, 1.5)], ONE, builder("path", 2))
        with pytest.raises(NotIntegratorCouplingError):
            frequency_dependence_experiment(net, [0.1], 10.0, 1e-2)

    def test_requires_connected_network(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lap = from_edge_list([(0, 1, 1.0)], 3)
        net = NetworkModel([swing(1, 1), swing(2, 1.5), swing(1, 2)],
                           INTEGRATOR, lap)
        with pytest.raises(DisconnectedError):
            frequency_dependence_experiment(net, [0.1], 10.0, 1e-2)

    def test_default_shape(self):
        assert default_shape(3).tolist() == [0.0, -1.0, 0.0]
        assert default_shape(1).tolist() == [-1.0]
