import contextlib
import math
import sys
import time
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netcoh import netfreq, ratfun
from netcoh.errors import (
    BoundContradictedError,
    CoherentPoleAtSError,
    DisconnectedError,
    ImproperError,
    InvalidMajorantsError,
    NetcohError,
    NotIncreasingError,
    RegionContainsSingularityError,
    SingularAtSError,
)
from netcoh.graph import LaplacianMatrix, builder, from_edge_list
from netcoh.netfreq import (
    FrequencyRegion,
    NetworkModel,
    aggregate_dynamics,
    connectivity_sweep,
    estimate_majorants,
    eval_T,
    homogeneous_decomposition_check,
    incoherence,
    lemma_bound,
    loglog_slope,
    pole_approach_sweep,
    sweep_region,
    transfer_norm_sweep,
)
from netcoh.ratfun import Polynomial
from netcoh.ratfun import RationalFunction as RF
from test_graph import _components

ONE = RF([1], [1])
INTEGRATOR = RF([1], [0, 1])


def swing(m, d):
    return RF([1], [d, m])


def zero_laplacian(n):
    return LaplacianMatrix(np.zeros((n, n)))


def random_swing_net(rng, n, topology="complete", f=ONE):
    nodes = [swing(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
             for _ in range(n)]
    return NetworkModel(nodes, f, builder(topology, n))


class TestEvalT:
    def test_disconnected_is_diagonal(self):
        g1, g2 = swing(1, 1), swing(2, 3)
        net = NetworkModel([g1, g2], ONE, zero_laplacian(2))
        s = 0.7 + 0.2j
        T = eval_T(net, s)
        assert T == pytest.approx(np.diag([g1(s), g2(s)]))

    def test_homogeneous_two_node_closed_form(self):
        g = RF([1], [1, 1])
        net = NetworkModel([g, g], ONE, builder("complete", 2))
        T = eval_T(net, 0)
        assert T == pytest.approx(np.array([[2, 1], [1, 2]]) / 3)

    def test_heterogeneous_against_direct_inversion_oracle(self):
        net = NetworkModel([RF([1], [1, 1]), RF([1], [2, 1])], ONE,
                           builder("path", 2))
        oracle = np.linalg.inv(np.array([[1.0, 0.0], [0.0, 2.0]])
                               + np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert eval_T(net, 0) == pytest.approx(oracle)

    def test_fallback_at_node_zero(self):
        # g1 has a zero at s = -2; the primary route cannot form g1^{-1}
        g1 = RF([2, 1], [1, 1])
        g2 = RF([1], [3, 1])
        net = NetworkModel([g1, g2], ONE, builder("path", 2))
        s = -2.0
        T = eval_T(net, s)
        G = np.diag([g1(s), g2(s)])
        oracle = np.linalg.solve(np.eye(2) + G @ builder("path", 2).entries, G)
        assert T == pytest.approx(oracle)

    def test_eigenform_route_consistency(self):
        rng = np.random.default_rng(5)
        net = random_swing_net(rng, 4)
        L = net.laplacian
        V = np.linalg.eigh(L.entries)[1]
        for _ in range(50):
            s = complex(rng.uniform(0.1, 2), rng.uniform(-3, 3))
            T = eval_T(net, s)
            ginv = np.diag([g.eval_inverse(s) for g in net.nodes])
            inner = V.T @ ginv @ V + net.coupling(s) * np.diag(L.eigenvalues)
            T_eig = V @ np.linalg.inv(inner) @ V.T
            assert np.max(np.abs(T - T_eig)) < 1e-8

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        net = random_swing_net(rng, 5, "ring")
        T = eval_T(net, 0.3 + 1.1j)
        assert np.max(np.abs(T - T.T)) < 1e-10


@pytest.mark.parametrize("nodes, coupling, laplacian, message", [
    ([swing(1, 1)], ONE, zero_laplacian(1), "^a network needs at least 2 nodes$"),
    ([swing(1, 1)] * 2, ONE, builder("path", 3), "^2 nodes but Laplacian of order 3$"),
    ([RF([0, 0, 1], [1, 1]), swing(1, 1)], ONE, builder("path", 2),
     "^node dynamics .* is improper$"),
    ([swing(1, 1)] * 2, RF([0, 1], [1]), builder("path", 2),
     "^coupling dynamics .* is improper$"),
], ids=["one-node", "count-mismatch", "improper-node", "improper-coupling"])
def test_network_model_rejects_bad_input(nodes, coupling, laplacian, message):
    with pytest.raises(ValueError, match=message):
        NetworkModel(nodes, coupling, laplacian)


class TestCoherentDynamics:
    def test_homogeneous(self):
        g = RF([1], [1, 1])
        net = NetworkModel([g, g, g], ONE, builder("complete", 3))
        assert net.gbar == g

    def test_swing_sums(self):
        net = NetworkModel([swing(1, 3), swing(2, 4)], ONE, builder("path", 2))
        assert net.gbar == RF([2], [7, 3])

    def test_swing_with_turbine_droop(self):
        # g_i = 1/(m s + d + r^-1/(tau s + 1)); n=2 identical tau keeps order low
        def turbine(m, d, r_inv, tau):
            return RF([1, tau], [d + r_inv, m + d * tau, m * tau])

        g1, g2 = turbine(1, 1, 0.5, 2.0), turbine(2, 1.5, 0.25, 2.0)
        net = NetworkModel([g1, g2], ONE, builder("path", 2))
        gbar = net.gbar
        # oracle: gbar = 2/(sum m s + sum d + sum r^-1/(tau s+1)) pointwise
        for s in (0.5, 1j, 1 + 2j):
            direct = 2 / (g1.eval_inverse(s) + g2.eval_inverse(s))
            assert gbar(s) == pytest.approx(direct)


class TestIncoherence:
    def test_homogeneous_complete_closed_form(self):
        g = RF([1], [1, 1])
        for alpha in (1.0, 5.0, 50.0):
            net = NetworkModel([g, g], ONE, builder("complete", 2, alpha))
            s = 0.3 + 0.5j
            rep = incoherence(net, s)
            # single V_perp mode: |1/(g^{-1}(s) + 2 alpha)|
            expected = abs(1 / (g.eval_inverse(s) + 2 * alpha))
            assert rep.measured == pytest.approx(expected, rel=1e-10)

    def test_vanishes_as_coupling_grows(self):
        g = RF([1], [1, 1])
        net = NetworkModel([g, g], ONE, builder("complete", 2, 1e6))
        assert incoherence(net, 0.5).measured < 1e-5

    def test_disconnected_direct_oracle(self):
        g1, g2 = swing(1, 1), swing(2, 3)
        net = NetworkModel([g1, g2], ONE, zero_laplacian(2))
        s = 0.4
        gbar = net.gbar
        oracle = np.linalg.norm(
            np.diag([g1(s), g2(s)]) - gbar(s) / 2 * np.ones((2, 2)), 2
        )
        rep = incoherence(net, s)
        assert rep.measured == pytest.approx(oracle)
        assert rep.measured > 0

    def test_pole_of_gbar_rejected(self):
        g = RF([1], [1, 1])
        net = NetworkModel([g, g], ONE, builder("path", 2))
        with pytest.raises(CoherentPoleAtSError):
            incoherence(net, -1.0)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(7)
        nodes = [swing(rng.uniform(0.5, 2), rng.uniform(0.5, 2))
                 for _ in range(4)]
        edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (0, 3, 1.5)]
        L = from_edge_list(edges, 4)
        net = NetworkModel(nodes, ONE, L)
        perm = [2, 0, 3, 1]
        pedges = [(perm.index(i), perm.index(j), w) for i, j, w in edges]
        pnet = NetworkModel([nodes[i] for i in perm], ONE,
                            from_edge_list(pedges, 4))
        s = 0.2 + 0.9j
        assert incoherence(net, s).measured == pytest.approx(
            incoherence(pnet, s).measured, rel=1e-9
        )

    def test_pairwise_entry_corollary(self):
        rng = np.random.default_rng(8)
        net = random_swing_net(rng, 5)
        s = 0.5 + 0.7j
        gbar = net.gbar
        rep = incoherence(net, s)
        T = eval_T(net, s)
        dev = np.abs(T - gbar(s) / net.n)
        assert np.max(dev) <= rep.measured + 1e-12
        spread = max(
            abs(T[i, j] - T[k, l])
            for i in range(5) for j in range(5)
            for k in range(5) for l in range(5)
        )
        assert spread <= 2 * rep.measured + 1e-12


class TestLemmaBound:
    def test_precondition_branch(self):
        net = NetworkModel([swing(1, 1), swing(2, 2)], ONE, builder("path", 2))
        s = 10.0  # max |g^-1| huge, small lambda2: precondition fails
        rep = lemma_bound(net, s, abs(net.gbar(s)) + 1,
                          max(abs(g.eval_inverse(s)) for g in net.nodes) + 1)
        assert not rep.bound_valid
        assert rep.bound is None

    def test_homogeneous_closed_form_case(self):
        g = RF([1], [1, 1])
        s = 0.2
        alpha = 500.0
        net = NetworkModel([g, g], ONE, builder("complete", 2, alpha))
        M1 = abs(g(s))
        M2 = abs(g.eval_inverse(s))
        rep = lemma_bound(net, s, M1, M2)
        assert rep.bound_valid
        closed_form = abs(1 / (g.eval_inverse(s) + 2 * alpha))
        assert rep.measured == pytest.approx(closed_form, rel=1e-10)
        assert rep.measured <= rep.bound + 1e-8

    def test_invalid_majorants_rejected(self):
        net = NetworkModel([swing(1, 1), swing(2, 2)], ONE,
                           builder("complete", 2, 100.0))
        with pytest.raises(InvalidMajorantsError):
            lemma_bound(net, 0.5, 1e-6, 1e-6)

    def test_contradicted_bound_is_refused(self):
        # at weight 1e10 the measured incoherence (4.6e-8 at s = -j) carries the
        # solve's rounding, which the bound 1.2e-9 does not: refused, naming s
        net = NetworkModel([RF([1], [1, 1]), RF([1], [0.5, 2]), RF([1], [1.5, 3]),
                            RF([1], [0.8, 1.2])], ONE, builder("ring", 4, 1e10))
        region = FrequencyRegion("vertical_segment", 0.0, (-1, 1), 9)
        M1, M2 = estimate_majorants(net, region)
        with pytest.raises(BoundContradictedError, match=r"^s=-1j: measured "):
            sweep_region(net, region, M1, M2)
        with pytest.raises(BoundContradictedError, match=r"^s=-1j: measured "):
            lemma_bound(net, region.points()[0], M1, M2)

    def test_random_nets_soundness(self):
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(25):
            n = int(rng.integers(2, 6))
            net = random_swing_net(rng, n)
            for _ in range(4):
                s = complex(rng.uniform(0.05, 2), rng.uniform(-2, 2))
                M1 = abs(net.gbar(s)) * 1.01
                M2 = max(abs(g.eval_inverse(s)) for g in net.nodes) * 1.01
                need = (M2 + M1 * M2 * M2) / max(
                    abs(net.coupling(s)) * net.laplacian.lambda2, 1e-12
                )
                scaled = net.scaled(need * rng.uniform(1.5, 20.0))
                rep = lemma_bound(scaled, s, M1, M2)
                assert rep.bound_valid
                assert rep.measured <= rep.bound + 1e-8
                checked += 1
        assert checked == 100


class TestMajorants:
    def test_grid_max_oracle(self):
        g = RF([1], [1, 1])
        net = NetworkModel([g, g], ONE, builder("path", 2))
        region = FrequencyRegion("vertical_segment", 0.1, (-1, 1), 21)
        M1, M2 = estimate_majorants(net, region)
        pts = region.points()
        assert M1 == pytest.approx(max(abs(g(s)) for s in pts) * 1.05)
        assert M2 == pytest.approx(max(abs(s + 1) for s in pts) * 1.05)

    def test_singular_region_rejected(self):
        g = RF([1], [1, 1])
        net = NetworkModel([g, g], ONE, builder("path", 2))
        region = FrequencyRegion("rect_grid", -2.0, (-0.5, 0.5), 5)
        with pytest.raises(RegionContainsSingularityError) as exc:
            estimate_majorants(net, region)
        assert exc.value.root == pytest.approx(-1.0)

    def test_node_zero_in_region_rejected(self):
        # g_1 = (s - 0.2)/(s + 1) vanishes at 0.2, inside Re(s) in [0, 0.5];
        # gbar = 2(s - 0.2)/((s + 1)(s + 0.8)) has no pole there
        net = NetworkModel([RF([-0.2, 1], [1, 1]), RF([1], [1, 1])], ONE,
                           builder("path", 2))
        region = FrequencyRegion("rect_grid", 0.5, (-1, 1), 5)
        with pytest.raises(RegionContainsSingularityError, match="node zero") as exc:
            estimate_majorants(net, region)
        assert exc.value.root == pytest.approx(0.2)

    def test_constant_function(self):
        g = RF([2], [1])
        net = NetworkModel([g, g], ONE, builder("path", 2))
        region = FrequencyRegion("vertical_segment", 0.0, (-5, 5), 11)
        M1, M2 = estimate_majorants(net, region)
        assert M1 == pytest.approx(2 * 1.05)
        assert M2 == pytest.approx(0.5 * 1.05)


class TestSweeps:
    def test_sup_decreases_with_scaling(self):
        g = RF([1], [1, 1])
        net = NetworkModel([g, g, g], ONE, builder("complete", 3))
        region = FrequencyRegion("vertical_segment", 0.1, (-1, 1), 9)
        sups = []
        for alpha in (1.0, 10.0, 100.0):
            _, sup = sweep_region(net.scaled(alpha), region)
            sups.append(sup)
        assert sups[0] > sups[1] > sups[2]

    def test_degenerate_resolution(self):
        g = RF([1], [1, 1])
        net = NetworkModel([g, g], ONE, builder("path", 2))
        region = FrequencyRegion("vertical_segment", 0.1, (-1, 1), 2)
        reports, sup = sweep_region(net, region)
        assert len(reports) == 2
        assert sup >= max(r.measured for r in reports) - 1e-15

    def test_near_f_pole_region_dominates(self):
        net = NetworkModel([swing(1, 1), swing(2, 1.5), swing(1.5, 0.8)],
                           INTEGRATOR, builder("ring", 3))
        near = FrequencyRegion("vertical_segment", 1e-3, (-1e-3, 1e-3), 5)
        far = FrequencyRegion("vertical_segment", 1e-3, (2.0, 3.0), 5)
        _, sup_near = sweep_region(net, near)
        _, sup_far = sweep_region(net, far)
        assert sup_near < sup_far

    def test_connectivity_sweep_slope(self):
        g = RF([1], [1, 1])
        net = NetworkModel([g, g, g], ONE, builder("complete", 3))
        region = FrequencyRegion("vertical_segment", 0.1, (-1, 1), 9)
        rows = connectivity_sweep(net, region, [10.0, 100.0, 1000.0])
        slope = loglog_slope([r.lambda2 for r in rows],
                             [r.sup_incoherence for r in rows])
        assert -1.15 <= slope <= -0.85

    def test_connectivity_sweep_heterogeneous_decreasing(self):
        rng = np.random.default_rng(11)
        net = random_swing_net(rng, 4)
        region = FrequencyRegion("vertical_segment", 0.2, (-1, 1), 7)
        rows = connectivity_sweep(net, region, [1.0, 10.0, 100.0, 1000.0])
        sups = [r.sup_incoherence for r in rows]
        assert all(a > b for a, b in zip(sups[1:], sups[2:]))

    def test_not_increasing_rejected(self):
        g = RF([1], [1, 1])
        net = NetworkModel([g, g], ONE, builder("path", 2))
        region = FrequencyRegion("vertical_segment", 0.1, (-1, 1), 5)
        with pytest.raises(NotIncreasingError):
            connectivity_sweep(net, region, [1.0, 1.0])

    def test_connectivity_sweep_no_exact_sum(self, exact_sums):
        net = random_swing_net(np.random.default_rng(5), 4)
        region = FrequencyRegion("vertical_segment", 0.2, (-1, 1), 5)
        rows = connectivity_sweep(net, region, [1.0, 10.0, 100.0])
        assert len(exact_sums) == 0
        for row in rows:
            assert len(row.reports) == 5
            assert row.sup_incoherence == max(r.measured for r in row.reports)


class TestPoleApproach:
    def _swing_net(self):
        return NetworkModel([swing(1, 1), swing(2, 1.2), swing(1.4, 0.7)],
                            INTEGRATOR, builder("ring", 3))

    def test_incoherence_collapses_at_f_pole(self):
        rows = pole_approach_sweep(self._swing_net(), 0.0,
                                   [1.0, 0.1, 0.01, 0.001])
        vals = [v for _, v in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] * 10 <= vals[0]

    def test_no_pole_rejected(self):
        net = NetworkModel([swing(1, 1), swing(2, 1)], ONE, builder("path", 2))
        with pytest.raises(ValueError, match=r"^0\.0 is not a pole of the coupling$"):
            pole_approach_sweep(net, 0.0, [0.1])

    def test_disconnected_rejected(self):
        net = NetworkModel([swing(1, 1), swing(2, 1)], INTEGRATOR,
                           zero_laplacian(2))
        with pytest.raises(DisconnectedError):
            pole_approach_sweep(net, 0.0, [0.1])

    def test_two_weighted_components_rejected(self):
        # eigh puts lambda_2 of this graph at about 1e-17, not at 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L = from_edge_list([(0, 1, 0.3), (2, 3, 0.3), (3, 4, 0.3)], 5)
        nodes = [swing(1, 1), swing(2, 2), swing(1.2, 1.5), swing(2, 1), swing(1.5, 0.8)]
        with pytest.raises(DisconnectedError):
            pole_approach_sweep(NetworkModel(nodes, INTEGRATOR, L), 0.0, [0.1])

    @pytest.mark.parametrize("radii, message", [
        ([0.1, -0.01], "radius must be positive"),
        ([0.1, 0.0], "radius must be positive"),
        ([float("nan")], "radius must be a finite number"),
        ([float("inf")], "radius must be a finite number"),
    ], ids=["negative-radius", "zero-radius", "nan-radius", "inf-radius"])
    def test_bad_radius_or_direction_rejected(self, radii, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                pole_approach_sweep(self._swing_net(), 0.0, radii)


@pytest.mark.parametrize("xs, ys, message", [
    ([1.0, 10.0], [1.0, 0.0], "must be positive"),
    ([-1.0, 10.0], [1.0, 2.0], "must be positive"),
    ([1.0, 10.0], [1.0, float("nan")], "must be a finite number"),
    ([1.0, float("inf")], [1.0, 2.0], "must be a finite number"),
    ([1.0, 10.0, 100.0], [1.0, 2.0], "need 2 or more"),
    ([1.0], [1.0], "need 2 or more"),
    ([], [], "need 2 or more"),
    ([2.0, 2.0], [1.0, 3.0], "need 2 or more"),
], ids=["zero-y", "negative-x", "nan-y", "inf-x", "unequal-lengths",
        "one-point", "empty", "equal-x"])
def test_loglog_slope_rejects_bad_points(xs, ys, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            loglog_slope(xs, ys)


class TestDecomposition:
    def test_k3_at_j(self):
        assert homogeneous_decomposition_check(
            RF([1], [1, 1]), ONE, builder("complete", 3), 1j
        ) <= 1e-8

    def test_path_two_nodes(self):
        assert homogeneous_decomposition_check(
            RF([1], [1, 1]), ONE, builder("path", 2), 0.5
        ) <= 1e-8

    def test_zero_laplacian_identity_case(self):
        assert homogeneous_decomposition_check(
            RF([1], [1, 1]), ONE, zero_laplacian(3), 0.7
        ) <= 1e-12

    @pytest.mark.parametrize("sizes", [(2, 3), (4, 1, 6)],
                             ids=["two-components", "three-components"])
    def test_disconnected_weighted(self, sizes):
        rng = np.random.default_rng(len(sizes))
        for _ in range(10):
            edges, n = _components(rng, sizes)
            L = from_edge_list(edges, n)
            g = swing(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
            f = RF([rng.uniform(0.5, 2.0)], [1.0, rng.uniform(0.0, 1.0)])
            s = complex(rng.uniform(0.05, 2.0), rng.uniform(-3.0, 3.0))
            assert homogeneous_decomposition_check(g, f, L, s) <= 1e-8


class TestAggregateDynamics:
    def test_swing_closed_form(self):
        net = NetworkModel([swing(1, 3), swing(2, 4)], ONE, builder("path", 2))
        assert aggregate_dynamics(net) == RF([1], [7, 3])

    def test_turbine_order_blowup(self):
        def turbine(m, d, r_inv, tau):
            return RF([1, tau], [d + r_inv, m + d * tau, m * tau])

        net = NetworkModel([turbine(1, 1, 0.5, 1.0), turbine(2, 1.5, 0.3, 3.0)],
                           ONE, builder("path", 2))
        aggr = aggregate_dynamics(net)
        assert aggr.den.degree == 3

    def test_turbine_is_gbar_over_n(self):
        def turbine(m, d, r_inv, tau):
            return RF([1, tau], [d + r_inv, m + d * tau, m * tau])

        nodes = [turbine(1, 1, 0.5, 1.0), turbine(2, 1.5, 0.3, 3.0),
                 turbine(1.5, 0.5, 0.2, 2.0), turbine(3, 1, 0.4, 3.0)]
        net = NetworkModel(nodes, ONE, builder("ring", 4))
        inverse_sum = nodes[0].reciprocal()
        for g in nodes[1:]:
            inverse_sum = inverse_sum + g.reciprocal()
        aggr = aggregate_dynamics(net)
        assert aggr == inverse_sum.reciprocal()
        assert aggr == net.gbar.scale(Fraction(1, 4))

    def test_identical_pair_halves(self):
        g = RF([1], [1, 1])
        net = NetworkModel([g, g], ONE, builder("path", 2))
        assert aggregate_dynamics(net) == RF([1], [2, 2])

    def test_no_euclid_once_gbar_is_cached(self, monkeypatch):
        nodes = [_turbine(2 + k % 3, 1 + k % 2, 3, 1 + k % 4) for k in range(6)]
        net = NetworkModel(nodes, ONE, builder("ring", 6))
        net.gbar
        calls = []
        real = ratfun.poly_gcd
        monkeypatch.setattr(ratfun, "poly_gcd",
                            lambda a, b: calls.append(1) or real(a, b))
        aggr = aggregate_dynamics(net)
        assert calls == []
        monkeypatch.undo()
        assert aggr == RF(net.gbar.num.scale(Fraction(1, 6)), net.gbar.den)


def _oracle_T(net, s):
    """T(s) by one dense solve at one point, from the exact nodes."""
    ginv = [g.eval_inverse(s) for g in net.nodes]
    fv, L = net.coupling(s), net.laplacian.entries
    if np.all(np.isfinite(ginv)):
        return np.linalg.inv(np.diag(ginv) + fv * L)
    G = np.diag([g(s) for g in net.nodes])
    return np.linalg.solve(np.eye(net.n) + G * fv @ L, G)


def _kernel_net(seed, f):
    # random swing nodes plus one node with a zero at s = -0.5
    rng = np.random.default_rng(seed)
    nodes = [swing(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)) for _ in range(5)]
    nodes.append(RF([0.5, 1], [2, 3, 1]))
    return NetworkModel(nodes, f, builder("ring", 6, rng.uniform(0.5, 2.0)))


NODE_ZERO_SEGMENT = FrequencyRegion("vertical_segment", -0.5, (-1, 1), 9)
KERNEL_GRIDS = {
    "segment-node-zero": (NODE_ZERO_SEGMENT, ONE),
    "segment-node-zero-integrator": (NODE_ZERO_SEGMENT, INTEGRATOR),
    "segment-node-zero-lag": (NODE_ZERO_SEGMENT, RF([1], [1, 0.5])),
    "rect": (FrequencyRegion("rect_grid", 0.4, (0.2, 1.2), 5), ONE),
    "rect-integrator": (FrequencyRegion("rect_grid", 0.4, (0.2, 1.2), 5), INTEGRATOR),
    "segment-integrator": (FrequencyRegion("vertical_segment", 0.1, (-1, 1), 8),
                           INTEGRATOR),
}


class TestGridKernel:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("grid", sorted(KERNEL_GRIDS))
    def test_matches_per_point_oracle(self, grid, seed):
        region, f = KERNEL_GRIDS[grid]
        net = _kernel_net(seed, f)
        pts = region.points()
        if grid.startswith("segment-node-zero"):
            assert -0.5 + 0j in pts
            assert np.all(eval_T(net, -0.5)[:, 5] == 0)  # node 5 vanishes there
        gbar = net.gbar
        want = np.array([[np.linalg.norm(_oracle_T(net, s) - c * np.ones((6, 6)), 2)
                          for c in (0, gbar(s) / net.n)] for s in pts])
        reports, t_norms, _ = transfer_norm_sweep(net, region)
        assert np.allclose(t_norms, want[:, 0], rtol=1e-12, atol=0)
        assert np.allclose([r.measured for r in reports], want[:, 1],
                           rtol=1e-12, atol=0)
        assert [r.measured for r in sweep_region(net, region)[0]] == \
            [r.measured for r in reports]
        for s in pts[::3]:
            T = eval_T(net, s)
            assert np.allclose(T, _oracle_T(net, s), rtol=1e-12,
                               atol=1e-12 * np.abs(T).max())

    def test_float_zero_sum_is_not_a_coherent_pole(self):
        # inverses 1, 1e-17 and -1 sum to 0 in floats, to 1e-17 exactly:
        # gbar = 3e17 is finite, so the measure is too
        net = NetworkModel([ONE, RF([1], [1e-17]), RF([-1], [1])], ONE,
                           builder("path", 3))
        assert np.sum(netfreq._node_inverses(*net._rows, [0j])) == 0
        region = FrequencyRegion("vertical_segment", 0.0, (-1, 1), 3)
        reports, _ = sweep_region(net, region)
        want = [np.linalg.norm(_oracle_T(net, s) - net.gbar(s) / 3 * np.ones((3, 3)), 2)
                for s in region.points()]
        assert np.allclose([r.measured for r in reports], want, rtol=1e-12, atol=0)
        assert 1e17 < reports[1].measured < 1e18

    def test_reports_hold_python_scalars(self):
        net = random_swing_net(np.random.default_rng(3), 4)
        region = FrequencyRegion("vertical_segment", 0.1, (-1, 1), 5)
        M1, M2 = estimate_majorants(net, region)
        assert type(M1) is float and type(M2) is float
        for rep in sweep_region(net.scaled(100.0), region, M1, M2)[0]:
            assert type(rep.s) is complex
            for v in (rep.measured, rep.effective_connectivity, rep.bound):
                assert type(v) is float
            assert type(rep.bound_valid) is bool


def _turbine(m, d, r_inv, tau):
    return RF([1, tau], [d + r_inv, m + d * tau, m * tau])


# Grids where several points fail; the sweep raises what the per-point
# loop over the grid raises first.  Points of a 3x3 rect_grid with sigma -3
# run Re s = 0, -1.5, -3 (outer) by omega = -1, 0, 1 (inner).
RECT3 = FrequencyRegion("rect_grid", -3.0, (-1, 1), 3)
SEG5 = FrequencyRegion("vertical_segment", 0.0, (-2, 2), 5)
PRECEDENCE = {
    # f = 1/(s^2 + 1) has poles at -j (index 1) and j; gbar has a pole at 0
    "coupling-pole-first": (
        NetworkModel([swing(1, 1), swing(1, -1)], RF([1], [1, 0, 1]),
                     builder("path", 2)), SEG5, None, SingularAtSError, 1),
    # f = 1/s and gbar share the pole s = 0
    "coherent-pole-before-coupling-pole": (
        NetworkModel([swing(1, 1), swing(1, -1)], INTEGRATOR,
                     builder("path", 2, 2.0)), SEG5, None, CoherentPoleAtSError, 2),
    # M singular at s = -1.5 (index 4); gbar has a pole at -3 (index 7)
    "singular-before-coherent-pole": (
        NetworkModel([swing(1, 3), swing(1, 3)], RF([-1], [1]),
                     builder("path", 2, 0.75)), RECT3, None, SingularAtSError, 4),
    # gbar has a pole at -1.5 (index 4); M singular at -3 (index 7)
    "coherent-pole-before-singular": (
        NetworkModel([swing(1, 1.5), swing(1, 1.5)], ONE,
                     builder("path", 2, 0.75)), RECT3, None, CoherentPoleAtSError, 4),
    # majorants already fail at index 0, M is singular at index 4
    "majorants-before-singular": (
        NetworkModel([swing(1, 3), swing(1, 3)], RF([-1], [1]),
                     builder("path", 2, 0.75)), RECT3, (1e-3, 1e-3),
        InvalidMajorantsError, 0),
    # |gbar| first exceeds M1 at index 4, where M is singular too
    "singular-before-majorants": (
        NetworkModel([swing(1, 3), swing(1, 3)], RF([-1], [1]),
                     builder("path", 2, 0.75)), RECT3, (0.6, 1e3),
        SingularAtSError, 4),
    # g_1 = 0 at s = -1 (index 1 of the Re = -1 segment), where the row-scaled
    # matrix [[1, 0], [2, 0]] is singular; the infinite max|g_i^-1| there
    # fails the majorants too
    "node-zero-before-majorants": (
        NetworkModel([RF([1, 1], [2, 1]), swing(1, 3)], RF([-2], [1]),
                     builder("path", 2)),
        FrequencyRegion("vertical_segment", -1.0, (-1, 1), 3), (1e3, 1e3),
        SingularAtSError, 1),
}


@pytest.mark.parametrize("case", sorted(PRECEDENCE))
def test_sweep_raises_first_failure_in_grid_order(case):
    net, region, majorants, error, index = PRECEDENCE[case]
    M1, M2 = majorants or (None, None)
    pts = region.points()
    at_point = ((lambda s: lemma_bound(net, s, M1, M2)) if majorants
                else (lambda s: incoherence(net, s)))
    for s in pts[:index]:
        at_point(s)
    with pytest.raises(error) as single:
        at_point(pts[index])
    with pytest.raises(error) as swept:
        sweep_region(net, region, M1, M2)
    assert str(swept.value) == str(single.value)


def _mp_transfer(a, b, fv, L):
    """(diag{a} + fv diag{b} L)^{-1} diag{b} in 60 digits: T for node inverses
    g_i^{-1} = a_i / b_i, so a node zero is b_i = 0 and needs no limit."""
    n = len(a)
    with mpmath.workdps(60):
        M = mpmath.matrix([[(a[i] if i == j else 0) + mpmath.mpc(fv) * b[i] * L[i][j]
                            for j in range(n)] for i in range(n)])
        return np.array((mpmath.inverse(M) * mpmath.diag(b)).tolist(), complex)


def _masked_matrix(ginv, fv, L):
    """The matrix the kernel inverted before row scaling, and its node mask:
    row e_i at a node zero (T = M^{-1} times the mask), every other row unscaled."""
    live = np.isfinite(ginv)
    return np.diag(np.where(live, ginv, 1)) + fv * L * live[:, None], live


def _relative_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def test_zero_and_pole_is_the_limit():
    # g_1 = (1 + s)/(2 + s) has a zero and g_2 = 1/(1 + s) a pole at s = -1,
    # where T is the limit [[0, 0], [0, 1]]: 60 digits at s = -1 + 1e-30 agree
    net = NetworkModel([RF([1, 1], [2, 1]), swing(1, 1)], ONE, builder("path", 2))
    T = eval_T(net, -1.0)
    assert T.dtype == np.float64 and np.array_equal(T, [[0, 0], [0, 1]])
    with mpmath.workdps(60):
        s = mpmath.mpf(-1) + mpmath.mpf("1e-30")
        want = _mp_transfer([2 + s, 1 + s], [1 + s, 1], 1, net.laplacian.entries)
    assert _relative_error(T, want) < 1e-10
    region = FrequencyRegion("vertical_segment", -1.0, (-1, 1), 3)
    assert sweep_region(net, region)[0][1].measured == pytest.approx(1, rel=1e-15)


@st.composite
def _threshold_draws(draw):
    """(ginv, fv, L) on a weighted complete graph of 2 to 6 nodes, each
    |g_i^{-1}| within 1e3 of |f| L_ii either way: node 0 above it, node 1 below."""
    n = draw(st.integers(2, 6))
    w = draw(st.lists(st.floats(0.1, 2.0), min_size=n * (n - 1) // 2,
                      max_size=n * (n - 1) // 2))
    W = np.zeros((n, n))
    W[np.triu_indices(n, 1)] = w
    W += W.T
    L = np.diag(W.sum(axis=1)) - W
    real = draw(st.booleans())
    phase = st.sampled_from([0.0, np.pi]) if real else st.floats(0, 2 * np.pi)
    fv = draw(st.floats(0.01, 100)) * np.exp(1j * draw(phase))
    logs = [draw(st.floats(0.01, 3)), draw(st.floats(-3, -0.01))]
    logs += [draw(st.floats(-3, 3)) for _ in range(n - 2)]
    ginv = np.array([10.0 ** x * np.exp(1j * draw(phase)) for x in logs])
    ginv *= abs(fv) * L.diagonal()
    return (ginv.real + 0j, complex(fv.real), L) if real else (ginv, complex(fv), L)


class TestRowScaledKernel:
    @settings(max_examples=200, deadline=None)
    @given(_threshold_draws())
    def test_matches_the_unscaled_formula(self, draw):
        # the unscaled formula's own error grows as eps cond(M) (measured:
        # 2.5e-11 at cond 3.8e5, where the row-scaled T is 1.8e-16 from
        # 60 digits), hence a tolerance of 1e-15 cond(M) above 1e-12
        ginv, fv, L = draw
        M, _ = _masked_matrix(ginv, fv, L)
        cond = np.linalg.cond(M)
        assume(cond < 1e6)
        got, want = netfreq._transfer(0.5j, ginv, fv, L), np.linalg.inv(M)
        assert _relative_error(got, want) <= max(1e-12, 1e-15 * cond)

    def test_refused_points_are_refused_or_exact(self):
        # 200 draws of node inverses from 1e-2 to 1e18, node zeros and node
        # poles; each point the unscaled formula's guard refuses is still
        # refused or within 1e-10 of 60 digits
        rng = np.random.default_rng(31)
        refused = accepted = 0
        for k in range(200):
            n = int(rng.integers(2, 7))
            W = np.triu(rng.uniform(0.1, 2.0, (n, n)), 1)
            W += W.T
            L = np.diag(W.sum(axis=1)) - W
            fv = complex(*rng.normal(size=2))
            ginv = 10.0 ** rng.uniform(-2, 18, n) * np.exp(2j * np.pi * rng.random(n))
            ginv[rng.random(n) < 0.15] = np.inf
            ginv[rng.random(n) < 0.05] = 0
            if k % 20 == 0:
                ginv[:] = 0  # every node at a pole: M = f L is singular
            M, live = _masked_matrix(ginv, fv, L)
            zero_and_pole = not live.all() and (ginv == 0).any()
            if np.linalg.cond(M) <= 1e12 and not zero_and_pole:
                continue
            refused += 1
            try:
                got = netfreq._transfer(0.5j, ginv, fv, L)
            except SingularAtSError:
                continue
            accepted += 1
            want = _mp_transfer(np.where(live, ginv, 1), live.astype(int), fv, L)
            assert _relative_error(got, want) < 1e-10
        assert refused >= 50 and 0 < accepted < refused


def _with_singular_values(sv, seed=0):
    """Complex matrix U diag(sv) V^H from random unitary U and V."""
    rng = np.random.default_rng(seed)
    n = len(sv)
    U, V = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            for _ in range(2))
    return (U * np.asarray(sv, float)) @ V.conj().T


GUARD_CASES = {
    "cond-1e6": (_with_singular_values(np.geomspace(1, 1e-6, 8)), False),
    "cond-1e11": (_with_singular_values(np.geomspace(3, 3e-11, 8)), False),
    "cond-1e13": (_with_singular_values(np.geomspace(1, 1e-13, 8)), True),
    "exactly-singular": (np.array([[1.0, 2.0], [2.0, 4.0]]), True),
    "rank-deficient": (_with_singular_values([2, 1, 0.5, 0]), True),
    "one-norm-not-inf-norm": (np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0],
                                        [0.0, 0.0, 1.0]]), False),
    # cond_2 = 8e11: the norm bound cannot accept it, the SVD does
    "bound-fails-svd-accepts": (_with_singular_values(np.geomspace(1, 1.25e-12, 8)),
                                False),
}


@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_guarded_inverse_keeps_the_svd_verdict(case):
    M, singular = GUARD_CASES[case]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert (np.linalg.cond(M) > 1e12) == singular
        if singular:
            with pytest.raises(SingularAtSError, match="^M singular$"):
                netfreq._guarded_inverse(M, SingularAtSError, "M singular")
            return
        T = netfreq._guarded_inverse(M, SingularAtSError, "M singular")
    assert T.dtype == M.dtype
    assert T.tobytes() == np.linalg.inv(M).tobytes()


def test_guard_cases_cover_both_norms_and_the_svd_step():
    A = GUARD_CASES["one-norm-not-inf-norm"][0]
    assert np.linalg.norm(A, 1) != np.linalg.norm(A, np.inf)
    M = GUARD_CASES["bound-fails-svd-accepts"][0]
    norms = [np.linalg.norm(X, p) for X in (M, np.linalg.inv(M))
             for p in (1, np.inf)]
    assert np.sqrt(np.prod(norms)) > ratfun._COND_LIMIT / 2
    assert np.linalg.cond(M) <= ratfun._COND_LIMIT


def test_well_conditioned_sweep_runs_no_svd_guard(monkeypatch):
    calls = []
    real = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    net = NetworkModel([swing(1 + k % 3, 1 + k % 2) for k in range(50)], ONE,
                       builder("ring", 50))
    region = FrequencyRegion("vertical_segment", 0.1, (-2, 2), 9)
    rows = connectivity_sweep(net, region, [1.0, 10.0, 100.0])
    assert len(rows) == 3 and all(len(r.reports) == 9 for r in rows)
    assert calls == []


def test_well_conditioned_sweeps_run_no_svd(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # np.linalg.norm and np.linalg.cond call the SVD of numpy's inner module
    inner = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    for module in (np.linalg, inner):
        monkeypatch.setattr(module, "svd", counting)
    net = NetworkModel([swing(1 + k % 3, 1 + k % 2) for k in range(50)], ONE,
                       builder("ring", 50))
    region = FrequencyRegion("vertical_segment", 0.1, (-2, 2), 9)
    rows = connectivity_sweep(net, region, [1.0, 10.0, 100.0])
    reports, t_norms, _ = transfer_norm_sweep(net, region)
    assert len(rows) == 3 and all(len(r.reports) == 9 for r in rows)
    assert len(reports) == len(t_norms) == 9
    assert calls == []


@contextlib.contextmanager
def _strict():
    """Warnings and every numpy floating-point error raise."""
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        yield


class TestNorm2:
    @given(st.integers(1, 64), st.integers(1, 64), st.booleans(),
           st.booleans(), st.integers(0, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_svd_norm(self, m, n, is_complex, rank_one, decades, seed):
        rng = np.random.default_rng(seed)

        def draw(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if is_complex else x

        X = np.outer(draw(m), draw(n)) if rank_one else draw(m, n)
        X *= np.geomspace(1.0, 10.0 ** -decades, n)  # column scales
        ref = np.linalg.norm(X, 2)
        with _strict():
            got = netfreq._norm2(X)
        assert type(got) is float
        assert got == pytest.approx(ref, rel=1e-14)

    def test_zero_matrix(self):
        with _strict():
            got = netfreq._norm2(np.zeros((5, 3), complex))
        assert type(got) is float and got == 0.0 and math.copysign(1, got) == 1

    def test_one_by_one(self):
        with _strict():
            assert netfreq._norm2(np.array([[3.0 - 4.0j]])) == 5.0

    @pytest.mark.parametrize("peak", [1e-310, 1e-300, 1e200, 1e300])
    def test_extreme_magnitudes(self, peak):
        rng = np.random.default_rng(3)
        # small integers: scaling them by a power of two is exact, even
        # into the subnormal range
        A = rng.integers(-8, 9, (12, 7)) + 1j * rng.integers(-8, 9, (12, 7))
        k = math.frexp(peak / np.abs(A).max())[1]
        X = A * math.ldexp(1.0, k)
        ref = math.ldexp(np.linalg.norm(A, 2), k)
        with _strict():
            got = netfreq._norm2(X)
        assert type(got) is float
        # a subnormal result carries only the absolute precision 2**-1074
        slack = math.ulp(0.0) if ref < sys.float_info.min else 0.0
        assert abs(got - ref) <= 1e-14 * ref + slack


def _spy(name):
    """Patch np.linalg.<name> with a spy that records its calls."""
    return mock.patch.object(np.linalg, name, wraps=getattr(np.linalg, name))


class TestBlockNorm:
    """_norm2's block route: certified where a few modes carry X, and a cheap
    give-up, before the Gram matrix's eigvalsh, where the spectrum is flat."""

    @given(st.integers(netfreq._BLOCK_MIN, 160), st.integers(netfreq._BLOCK_MIN, 160),
           st.booleans(), st.sampled_from([1.0, 0.9995, 0.99, 0.7]),
           st.floats(0.3, 0.9), st.integers(-8, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_certified_on_a_dominant_cluster(self, m, n, is_complex, second, decay,
                                             decade, seed):
        # sigma_1 and sigma_2 (an exact double pair at 1.0), two middle values and
        # a geometric tail from 0.1: the block of 4 gains (sigma_5/sigma_2)^2 <= 0.02
        # per step
        rng = np.random.default_rng(seed)

        def orthonormal(rows, cols):
            A = rng.standard_normal((rows, cols))
            return np.linalg.qr(A + 1j * rng.standard_normal((rows, cols))
                                if is_complex else A)[0]

        r = min(m, n)
        sigma = np.concatenate(([1.0, second], rng.uniform(0.2, 0.5, 2),
                                0.1 * decay ** np.arange(r - 4)))
        X = (orthonormal(m, r) * sigma) @ orthonormal(n, r).conj().T * 10.0 ** decade
        ref = np.linalg.norm(X, 2)
        with _strict(), _spy("eigvalsh") as full, _spy("eigh") as steps:
            got = netfreq._norm2(X)
        assert full.call_count == 0 and 1 <= steps.call_count <= netfreq._BLOCK_STEPS
        assert type(got) is float
        assert got == pytest.approx(ref, rel=1e-14)

    def test_ring_sweep_above_the_threshold_runs_no_full_eigvalsh(self):
        rng = np.random.default_rng(11)
        n = 200
        net = NetworkModel([swing(m, d) for m, d in zip(rng.uniform(1, 3, n),
                                                        rng.uniform(0.5, 1.5, n))],
                           ONE, builder("ring", n))
        region = FrequencyRegion("vertical_segment", 0.0, (-1, 1), 9)
        M1, M2 = estimate_majorants(net, region)
        star = (M2 + M1 * M2 * M2) / net.laplacian.lambda2
        with _spy("eigvalsh") as full:
            rows = connectivity_sweep(net, region, [2 * star, 4 * star])
        assert [c for c in full.call_args_list if c.args[0].shape == (n, n)] == []
        assert all(r.bound_valid for row in rows for r in row.reports)
        for row in rows:
            scaled = net.scaled(row.alpha)
            for r in row.reports[::4]:
                X = eval_T(scaled, r.s) - net.gbar(r.s) / n
                assert r.measured == pytest.approx(np.linalg.norm(X, 2), rel=1e-13)

    def test_flat_spectrum_gives_up_within_two_steps(self):
        # the full-network experiment's complete graph: X = T - (gbar/n) 11^T is
        # a diagonal plus rank two, its singular values all of one size
        rng = np.random.default_rng(5)
        n = 128
        assert n >= netfreq._BLOCK_MIN
        net = NetworkModel([swing(m, d) for m, d in zip(rng.uniform(1, 3, n),
                                                        rng.uniform(0.5, 1.5, n))],
                           ONE, builder("complete", n))
        X = eval_T(net, 0.5j) - net.gbar(0.5j) / n
        ref = np.linalg.norm(X, 2)
        with _strict(), _spy("eigvalsh") as full, _spy("eigh") as steps:
            got = netfreq._norm2(X)
        assert full.call_count == 1 and steps.call_count <= 2
        assert got == pytest.approx(ref, rel=1e-14)

    def test_zero_matrix_at_block_size(self):
        with _strict(), _spy("eigvalsh") as full:
            got = netfreq._norm2(np.zeros((netfreq._BLOCK_MIN, 100), complex))
        assert type(got) is float and got == 0.0 and full.call_count == 1


class TestRegionPoints:
    @pytest.mark.parametrize("kind", ["vertical_segment", "rect_grid"])
    @pytest.mark.parametrize("w1,resolution", [(1.3, 33), (0.7, 17), (3.0, 101)])
    def test_symmetric_range_is_mirrored(self, kind, w1, resolution):
        lin = np.linspace(-w1, w1, resolution)
        assert not np.array_equal(lin, -lin[::-1])  # linspace alone is not
        pts = FrequencyRegion(kind, 0.2, (-w1, w1), resolution).points()
        omegas = np.array([s.imag for s in pts]).reshape(-1, resolution)
        assert np.array_equal(omegas, -omegas[:, ::-1])
        assert (omegas == omegas[0]).all()
        # one ulp of the range's end, the size of linspace's own rounding
        assert np.all(np.abs(omegas[0] - lin) <= np.spacing(w1))

    def test_overflowing_width_rejected(self):
        # the parent's grid here was [nan, inf, 1e308] with a RuntimeWarning
        with pytest.raises(ValueError, match="^omega_range width must be a finite"):
            FrequencyRegion("vertical_segment", 0.0, (-1e308, 1e308), 3)

    @pytest.mark.parametrize("kwargs, message", [
        ({"kind": "disk"}, "^unknown region kind 'disk'$"),
        ({"resolution": 1}, "^resolution must be >= 2$"),
        ({"omega_range": (1.0, 1.0)}, "^omega_range must be increasing$"),
        ({"omega_range": (1.0, -1.0)}, "^omega_range must be increasing$"),
        ({"kind": "rect_grid"}, r"^rect_grid needs sigma != 0: its Re s axis \[0, sigma\] "
                                "would be one point$"),
    ])
    def test_bad_region_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            FrequencyRegion(**kwargs)

    @pytest.mark.parametrize("w", [(-1.0, 1.0), (-1.3, 1.2), (0.1, 1.0),
                                   (-3.0, -1.0), (-1.0, 2.0)])
    def test_asymmetric_or_mirrored_range_is_linspace(self, w):
        pts = FrequencyRegion("vertical_segment", 0.0, w, 33).points()
        assert np.array([s.imag for s in pts]).tobytes() == \
            np.linspace(*w, 33).tobytes()


def _conjugate_net(family, n, coupling, seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform

    def node():
        if family == "swing":
            return swing(u(0.5, 2.0), u(0.5, 2.0))
        return _turbine(u(0.5, 2.0), u(0.5, 2.0), u(0.5, 4.0), u(0.5, 4.0))

    f = {"static": RF([u(0.5, 3.0)], [1]), "integrator": RF([u(0.5, 3.0)], [0, 1]),
         "lag": RF([u(0.5, 3.0)], [1, u(0.5, 2.0)])}[coupling]
    topology = ("ring", "complete", "path")[seed % 3]
    return NetworkModel([node() for _ in range(n)], f,
                        builder(topology, n, u(0.5, 2.0)))


class TestConjugateReuse:
    @given(st.sampled_from(["swing", "turbine"]), st.integers(2, 6),
           st.sampled_from(["static", "integrator", "lag"]),
           st.sampled_from(["vertical_segment", "rect_grid"]),
           st.sampled_from([0.0, 0.3, -0.4]), st.sampled_from([1.0, 1.3, 0.7, 2.5]),
           st.integers(2, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_lone_points(self, family, n, coupling, kind, sigma, w1,
                                 resolution, seed):
        net = _conjugate_net(family, n, coupling, seed)
        if kind == "rect_grid" and sigma == 0.0:  # its Re s axis would be one point
            with pytest.raises(ValueError, match="^rect_grid needs sigma != 0"):
                FrequencyRegion(kind, sigma, (-w1, w1), resolution)
            return
        region = FrequencyRegion(kind, sigma, (-w1, w1), resolution)
        pts = region.points()
        try:
            lone = [(incoherence(net, s).measured, netfreq._norm2(eval_T(net, s)))
                    for s in pts]
        except NetcohError as exc:  # e.g. the integrator's pole at s = 0
            with pytest.raises(NetcohError) as swept:
                transfer_norm_sweep(net, region)
            assert type(swept.value) is type(exc)
            assert str(swept.value) == str(exc)
            return
        reports, t_norms, _ = transfer_norm_sweep(net, region)
        got = np.array([[r.measured for r in reports], t_norms]).T
        assert [r.measured for r in sweep_region(net, region)[0]] == list(got[:, 0])
        assert np.allclose(got, lone, rtol=1e-14, atol=0)
        index = {s: k for k, s in enumerate(pts)}
        for k, s in enumerate(pts):
            assert got[index[s.conjugate()]].tolist() == got[k].tolist()

    @pytest.mark.parametrize("omega_range", [(-1.0, 1.0), (-2.0, 2.0)])
    def test_raises_at_the_first_point_of_a_pair(self, omega_range):
        # f = 1/(s^2 + 1) has poles at -j and at its twin j
        net = NetworkModel([swing(1, 1), swing(2, 1.5), swing(1.5, 0.8)],
                           RF([1], [1, 0, 1]), builder("ring", 3))
        region = FrequencyRegion("vertical_segment", 0.0, omega_range, 9)
        assert -1j in region.points() and 1j in region.points()
        message = "^s=-1j is a pole of the coupling dynamics$"
        with pytest.raises(SingularAtSError, match=message):
            incoherence(net, complex(0, -1))
        with pytest.raises(SingularAtSError, match=message):
            sweep_region(net, region)

    def test_node_zero_fallback_on_both_twins(self, monkeypatch):
        # g_0 = (s^2 + 1/4) / (s + 1)^2 vanishes at s = -0.5j and 0.5j
        nodes = [RF([0.25, 0, 1], [1, 2, 1])] + [swing(1 + k % 3, 1 + k % 2)
                                                  for k in range(4)]
        net = NetworkModel(nodes, ONE, builder("ring", 5))
        region = FrequencyRegion("vertical_segment", 0.0, (-1, 1), 17)
        pts = region.points()
        assert (pts[4], pts[12]) == (-0.5j, 0.5j)
        fallbacks = []
        real = netfreq._transfer
        monkeypatch.setattr(netfreq, "_transfer", lambda *a: fallbacks.append(
            not np.isfinite(a[1]).all()) or real(*a))
        reports, t_norms, _ = transfer_norm_sweep(net, region)
        monkeypatch.undo()
        assert sum(fallbacks) == 1  # the fallback, once for the pair
        for k in (4, 12):
            assert not np.isfinite(netfreq._node_inverses(*net._rows, [pts[k]])).all()
            T = eval_T(net, pts[k])
            want = [netfreq._norm2(T - net.gbar(pts[k]) / 5), netfreq._norm2(T)]
            assert [reports[k].measured, t_norms[k]] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("region,classes", [
        (FrequencyRegion("vertical_segment", 0.1, (-2, 2), 17), 9),
        (FrequencyRegion("rect_grid", 0.2, (-1, 1), 5), 15),
    ])
    def test_one_solve_per_conjugate_class(self, monkeypatch, region, classes):
        solved = []
        real = netfreq._transfer
        monkeypatch.setattr(netfreq, "_transfer",
                            lambda *a: solved.append(a[0]) or real(*a))
        net = NetworkModel([swing(1 + k % 3, 1 + k % 2) for k in range(50)], ONE,
                           builder("ring", 50))
        reports, t_norms, _ = transfer_norm_sweep(net, region)
        pts = region.points()
        assert len(reports) == len(t_norms) == len(pts)
        first = {}
        for s in pts:
            first.setdefault((s.real, abs(s.imag)), s)
        assert solved == list(first.values()) and len(solved) == classes


class TestGbarRealization:
    """Numeric paths take gbar's poles and values from the float realization
    NetworkModel.gbar_model, never from the exact harmonic mean."""

    def test_sweep_through_a_zero_of_gbar(self, exact_sums):
        # both nodes vanish at s = -1, where gbar is 0; their numerators
        # (s+1)(s+2) and (s+1)(s+3) share that root
        nodes = [RF(Polynomial([2, 3, 1]), Polynomial([60, 47, 12, 1])),
                 RF(Polynomial([3, 4, 1]), Polynomial([60, 52, 13, 1]))]
        net = NetworkModel(nodes, ONE, builder("path", 2))
        region = FrequencyRegion("vertical_segment", -1.0, (-1, 1), 5)
        assert -1 + 0j in region.points()
        reports, _ = sweep_region(net, region)
        assert exact_sums == []
        want = [np.linalg.norm(_oracle_T(net, s) - net.gbar(s) / 2 * np.ones((2, 2)), 2)
                for s in region.points()]
        assert [r.measured for r in reports] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_connectivity_sweep_on_200_turbines(self, exact_sums):
        rng = np.random.default_rng(200)
        nodes = [_turbine(*rng.uniform([1, 0.5, 2, 0.5], [3, 1.5, 6, 8]))
                 for _ in range(200)]
        net = NetworkModel(nodes, ONE, builder("ring", 200))
        region = FrequencyRegion("vertical_segment", 0.0, (-1, 1), 17)
        start = time.perf_counter()
        rows = connectivity_sweep(net, region, [1.0, 10.0, 100.0, 1000.0])
        assert time.perf_counter() - start < 2.0
        assert exact_sums == [] and [len(r.reports) for r in rows] == [17] * 4

    def test_improper_gbar_fails_only_the_pole_check(self):
        # inverses s and -s + 1/(s + 2) sum to 1/(s + 2): gbar = 2(s + 2)
        net = NetworkModel([RF([1], [0, 1]), RF([2, 1], [1, -2, -1])], ONE,
                           builder("path", 2))
        region = FrequencyRegion("vertical_segment", 0.0, (-1, 1), 5)
        with pytest.raises(ImproperError):
            estimate_majorants(net, region)
        reports, _ = sweep_region(net, region)
        want = [np.linalg.norm(_oracle_T(net, s) - (s + 2) * np.ones((2, 2)), 2)
                for s in region.points()]
        assert [r.measured for r in reports] == pytest.approx(want, rel=1e-12)


def _real_point_net(n, coupling, zero_at, seed):
    """Random proper nodes with monic denominators, a random coupling and a
    random weighted graph; node 0 vanishes at the real point zero_at if given."""
    rng = np.random.default_rng(seed)
    u = rng.uniform

    def node():
        den = [u(0.5, 2.0) for _ in range(rng.integers(1, 3))] + [1.0]
        return RF([u(0.5, 2.0) for _ in range(rng.integers(1, len(den) + 1))], den)

    nodes = [node() for _ in range(n)]
    if zero_at is not None:  # s - zero_at: Horner gives exactly 0 there
        nodes[0] = RF([-zero_at, 1.0], [u(0.5, 2.0), u(0.5, 2.0), 1.0])
    f = {"static": RF([u(0.5, 3.0)], [1]), "lag": RF([u(0.5, 3.0)], [1, u(0.5, 2.0)]),
         "lead-lag": RF([u(0.5, 2.0), 1], [u(0.5, 2.0), 1])}[coupling]
    W = np.triu(u(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
    W += W.T
    return NetworkModel(nodes, f, LaplacianMatrix(np.diag(W.sum(axis=1)) - W))


class TestRealPoints:
    """At a real s the nodes, the coupling and L have real coefficients, so
    the kernel solves in float64 there."""

    def test_eval_T_is_float64_at_a_real_point(self):
        net = _kernel_net(1, ONE)  # node 5 vanishes at s = -0.5
        for s in (0.3, 0.3 + 0j, complex(0.3, -0.0), -0.5):
            assert eval_T(net, s).dtype == np.float64
            assert np.allclose(eval_T(net, s), _oracle_T(net, s), rtol=1e-12,
                               atol=1e-12 * np.abs(eval_T(net, s)).max())
        assert np.all(eval_T(net, -0.5)[:, 5] == 0)
        for s in (0.3 + 0.2j, 0.3j, 0.3 + 1e-300j):
            assert eval_T(net, s).dtype == np.complex128

    @given(st.integers(2, 12), st.sampled_from(["static", "lag", "lead-lag"]),
           st.sampled_from([-0.1, 0.4, 1.5]), st.sampled_from([3, 5]),
           st.sampled_from([None, 0, 1, 2]), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_dense_complex_recomputation(self, n, coupling, sigma,
                                                 resolution, zero, seed):
        region = FrequencyRegion("rect_grid", sigma, (-1.0, 1.0), resolution)
        pts = region.points()
        real = [s for s in pts if s.imag == 0]
        assert len(real) == resolution
        net = _real_point_net(n, coupling, None if zero is None else real[zero].real,
                              seed)
        reports, t_norms, _ = transfer_norm_sweep(net, region)
        for k, s in enumerate(pts):
            if s.imag != 0:
                continue
            T = _oracle_T(net, s)  # complex128 throughout
            assert T.dtype == np.complex128
            inverses = [g.eval_inverse(s) for g in net.nodes]
            gbar = n / sum(inverses) if np.isfinite(inverses).all() else 0j  # node zero
            want = np.linalg.norm(T - gbar / n * np.ones((n, n)), 2)
            assert reports[k].measured == pytest.approx(want, rel=1e-12, abs=0)
            assert t_norms[k] == pytest.approx(np.linalg.norm(T, 2), rel=1e-12, abs=0)
            if zero is not None and s == real[zero]:
                assert not np.isfinite(netfreq._node_inverses(*net._rows, [s])).all()

    def test_one_float64_class_per_alpha(self, monkeypatch):
        dtypes = []
        kernel = netfreq._transfer
        monkeypatch.setattr(netfreq, "_transfer", lambda *a: dtypes.append(
            kernel(*a).dtype) or kernel(*a))
        net = NetworkModel([swing(1 + k % 3, 1 + k % 2) for k in range(20)], ONE,
                           builder("ring", 20))
        region = FrequencyRegion("vertical_segment", 0.0, (-1, 1), 9)
        connectivity_sweep(net, region, [1.0, 10.0, 100.0])
        # classes |omega| = 1, 0.75, 0.5, 0.25 and 0, in grid order
        assert dtypes == [*[np.complex128] * 4, np.float64] * 3
