from fractions import Fraction

import numpy as np
import pytest

from netcoh.errors import (
    CoherentPoleAtSError,
    DisconnectedError,
    InvalidMajorantsError,
    NotAPoleOfFError,
    NotIncreasingError,
    RegionContainsSingularityError,
)
from netcoh.graph import DisconnectedWarning, builder, from_edge_list
from netcoh.netfreq import (
    FrequencyRegion,
    NetworkModel,
    aggregate_dynamics,
    coherent_dynamics,
    connectivity_sweep,
    estimate_majorants,
    eval_T,
    homogeneous_decomposition_check,
    incoherence,
    lemma_bound,
    loglog_slope,
    nodal_multiplicity,
    pole_approach_sweep,
    sweep_region,
)
from netcoh.ratfun import RationalFunction as RF

ONE = RF([1], [1])
INTEGRATOR = RF([1], [0, 1])


def swing(m, d):
    return RF([1], [d, m])


def zero_laplacian(n):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DisconnectedWarning)
        from netcoh.graph import LaplacianMatrix

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
        V = L.eigenvectors
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


class TestCoherentDynamics:
    def test_homogeneous(self):
        g = RF([1], [1, 1])
        net = NetworkModel([g, g, g], ONE, builder("complete", 3))
        assert coherent_dynamics(net) == g

    def test_swing_sums(self):
        net = NetworkModel([swing(1, 3), swing(2, 4)], ONE, builder("path", 2))
        assert coherent_dynamics(net) == RF([2], [7, 3])

    def test_swing_with_turbine_droop(self):
        # g_i = 1/(m s + d + r^-1/(tau s + 1)); n=2 identical tau keeps order low
        def turbine(m, d, r_inv, tau):
            return RF([1, tau], [d + r_inv, m + d * tau, m * tau])

        g1, g2 = turbine(1, 1, 0.5, 2.0), turbine(2, 1.5, 0.25, 2.0)
        net = NetworkModel([g1, g2], ONE, builder("path", 2))
        gbar = coherent_dynamics(net)
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
        gbar = coherent_dynamics(net)
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
        gbar = coherent_dynamics(net)
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
        rep = lemma_bound(net, s, abs(coherent_dynamics(net)(s)) + 1,
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

    def test_random_nets_soundness(self):
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(25):
            n = int(rng.integers(2, 6))
            net = random_swing_net(rng, n)
            for _ in range(4):
                s = complex(rng.uniform(0.05, 2), rng.uniform(-2, 2))
                M1 = abs(coherent_dynamics(net)(s)) * 1.01
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

    def test_connectivity_sweep_one_exact_sum(self, exact_additions):
        net = random_swing_net(np.random.default_rng(5), 4)
        region = FrequencyRegion("vertical_segment", 0.2, (-1, 1), 5)
        rows = connectivity_sweep(net, region, [1.0, 10.0, 100.0])
        assert len(exact_additions) == 3
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
        with pytest.raises(NotAPoleOfFError):
            pole_approach_sweep(net, 0.0, [0.1])

    def test_disconnected_rejected(self):
        net = NetworkModel([swing(1, 1), swing(2, 1)], INTEGRATOR,
                           zero_laplacian(2))
        with pytest.raises(DisconnectedError):
            pole_approach_sweep(net, 0.0, [0.1])


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


class TestNodalMultiplicity:
    def test_single_zero(self):
        net = NetworkModel([RF([1, 1], [2, 1]), RF([1], [3, 1])], ONE,
                           builder("path", 2))
        assert nodal_multiplicity(net, -1.0) == 1

    def test_shared_zero(self):
        net = NetworkModel([RF([1, 1], [2, 1]), RF([1, 1], [3, 1])], ONE,
                           builder("path", 2))
        assert nodal_multiplicity(net, -1.0) == 2

    def test_no_zero(self):
        net = NetworkModel([RF([1, 1], [2, 1]), RF([1], [3, 1])], ONE,
                           builder("path", 2))
        assert nodal_multiplicity(net, 5.0) == 0


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
        assert aggr == coherent_dynamics(net).scale(Fraction(1, 4))

    def test_identical_pair_halves(self):
        g = RF([1], [1, 1])
        net = NetworkModel([g, g], ONE, builder("path", 2))
        assert aggregate_dynamics(net) == RF([1], [2, 2])
