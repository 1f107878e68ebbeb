import math
import re
import signal
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netcoh import ensemble, netfreq
from netcoh.errors import CoherentPoleAtSError, NotAffineError
from netcoh.ensemble import (
    ConcentrationResult,
    EnsembleSpec,
    _sample_coeffs,
    concentration_experiment,
    expected_coherent,
    full_network_concentration,
    normal,
    point,
    sample_nodes,
    uniform,
)
from netcoh.graph import LaplacianMatrix, builder
from netcoh.netfreq import FrequencyRegion, NetworkModel, eval_T
from netcoh.ratfun import RationalFunction as RF
from netcoh.ratfun import harmonic_mean, harmonic_realization


def swing_spec(seed=0):
    return EnsembleSpec("swing", {"m": uniform(1, 2), "d": uniform(1, 2)},
                        seed=seed)


def turbine_spec(seed=0):
    """Turbine nodes with a random tau: every numerator 1 + tau s is distinct."""
    return EnsembleSpec("swing_turbine", {
        "m": uniform(1, 2), "d": uniform(1, 2), "r_inv": uniform(0.1, 0.4),
        "tau": uniform(1, 3)}, seed=seed)


class TestDistribution:
    def test_uniform_mean_and_range(self):
        d = uniform(1.0, 3.0)
        rng = np.random.default_rng(0)
        xs = d.sample(rng, 20_000)
        assert np.all((xs >= 1.0) & (xs <= 3.0))
        assert np.mean(xs) == pytest.approx(d.mean(), abs=0.02)
        assert d.mean() == 2.0

    def test_truncated_normal_respects_bounds(self):
        d = normal(0.0, 1.0, -0.5, 2.0)
        rng = np.random.default_rng(1)
        xs = d.sample(rng, 20_000)
        assert np.all((xs >= -0.5) & (xs <= 2.0))
        assert np.mean(xs) == pytest.approx(d.mean(), abs=0.02)

    def test_truncated_normal_mean_closed_form(self):
        # symmetric truncation keeps the mean at mu
        assert normal(1.0, 0.7, 0.0, 2.0).mean() == pytest.approx(1.0)

    def test_point(self):
        d = point(4.2)
        rng = np.random.default_rng(2)
        assert np.all(d.sample(rng, 5) == 4.2)
        assert d.mean() == 4.2
        assert d.is_point

    @pytest.mark.parametrize("mu,value", [(1.5, 1.5), (-3.0, 1.0), (9.0, 2.0)])
    def test_zero_sd_normal_is_a_clipped_point(self, mu, value):
        # sd = 0 puts all mass at mu, clipped into [lo, hi] = [1, 2]
        d = normal(mu, 0.0, 1.0, 2.0)
        assert np.all(d.sample(np.random.default_rng(3), 4) == value)
        assert d.mean() == value
        assert d.is_point

    def test_truncated_normal_draws_follow_rejection_loop(self):
        # a window with mass 0.38, above _TAIL_MASS, draws by plain rejection
        d = normal(0.5, 1.0, 0.0, 1.0)
        rng = np.random.default_rng(4)
        want = []
        while len(want) < 500:
            draw = rng.normal(0.5, 1.0, 500 - len(want))
            want.extend(draw[(draw >= 0.0) & (draw <= 1.0)])
        assert np.array_equal(d.sample(np.random.default_rng(4), 500), want)

    def test_far_tail_truncation_fails_instead_of_hanging(self):
        # a window whose arithmetic cannot be represented is refused before any
        # draw: its near bound squared overflows (Robert's acceptance would be
        # 0 forever), or its mass underflows to 0 outside the far tails
        def hang(signum, frame):
            raise TimeoutError("truncated-normal sampling did not return")

        for lo, hi, text in [(1e155, 1e156, r"1e\+155, 1e\+156"),
                             (-1e156, -1e155, r"-1e\+156, -1e\+155"),
                             (0.0, 1e-320, r"0\.0, 1e-320")]:
            d = normal(0.0, 1.0, lo, hi)
            message = rf"^no representable mass on \[{text}\]$"
            previous = signal.signal(signal.SIGALRM, hang)
            signal.alarm(20)
            try:
                with pytest.raises(ValueError, match=message):
                    d.sample(np.random.default_rng(0), 1)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            with pytest.raises(ValueError, match=message):
                d.mean()

    @pytest.mark.parametrize("lo,hi", [(5.0, 6.0), (10.0, 11.0), (-6.0, -5.0),
                                       (-11.0, -10.0), (40.0, 41.0), (-41.0, -40.0)])
    def test_far_tail_sampling_is_exact_in_few_rounds(self, lo, hi):
        # [40, 41] and its mirror have mass 3.7e-350, which underflows to 0
        class CountingRng:  # _robert's proposal rounds each take two uniform draws
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def random(self, size):
                self.calls += 1
                return self.rng.random(size)

        d = normal(0.0, 1.0, lo, hi)
        rng = CountingRng(np.random.default_rng(5))
        xs = d.sample(rng, 100_000)
        assert rng.calls <= 2 * 5  # plain rejection would take over 1e5 rounds
        assert np.all((xs >= lo) & (xs <= hi))
        assert abs(xs.mean() - d.mean()) <= 4 * xs.std() / math.sqrt(xs.size)

    def test_tail_mass_threshold(self, monkeypatch):
        # standardised [a, 50] with mass just above and just below _TAIL_MASS:
        # the first draws by plain rejection, the second by Robert
        assert ensemble._TAIL_MASS == 1e-5
        above, below = normal(0.0, 1.0, 4.26, 50.0), normal(0.0, 1.0, 4.27, 50.0)
        assert above._window()[2] > 1e-5 > below._window()[2]
        robert = mock.Mock(side_effect=lambda rng, a, b, size: np.full(size, a))
        monkeypatch.setattr(ensemble, "_robert", robert)
        rng = mock.Mock()
        rng.normal.side_effect = lambda mu, sd, size: np.full(size, 4.5)
        assert np.array_equal(above.sample(rng, 3), [4.5] * 3)
        robert.assert_not_called()
        assert np.array_equal(below.sample(rng, 3), [4.27] * 3)
        robert.assert_called_once()

    @pytest.mark.parametrize("lo,hi", [(2.0, 3.0), (-3.0, -2.0), (0.0, 0.01),
                                       (3.5, 50.0)])
    def test_windows_above_the_threshold_keep_the_rejection_stream(self, lo, hi):
        # a moderate tail, its mirror, a narrow window at the mode and a window
        # of mass 2.3e-4 draw exactly what the plain rejection loop draws
        d = normal(0.0, 1.0, lo, hi)
        rng = np.random.default_rng(6)
        want = []
        while len(want) < 5:
            draw = rng.normal(0.0, 1.0, 5 - len(want))
            want.extend(draw[(draw >= lo) & (draw <= hi)])
        assert np.array_equal(d.sample(np.random.default_rng(6), 5), want)

    @pytest.mark.parametrize("lo,hi", [(0.0, 1e-5), (-1.5e-5, 0.5e-5), (-5.0, -4.5)])
    def test_robert_windows_near_and_below_the_mode(self, lo, hi):
        # narrow windows at the mode, and a lower tail drawn as a mirrored upper one
        d = normal(0.0, 1.0, lo, hi)
        assert d._window()[2] < ensemble._TAIL_MASS
        xs = d.sample(np.random.default_rng(8), 50_000)
        assert np.all((xs >= lo) & (xs <= hi))
        assert abs(xs.mean() - d.mean()) <= 4 * xs.std() / math.sqrt(xs.size)

    @pytest.mark.parametrize("lo,hi,want", [
        (8.0, 9.0, 8.1211889929797971),  # mpmath, 60 digits
        (10.0, 11.0, 10.098068374933019),  # mass 7.6e-24
        (-9.0, -8.0, -8.1211889929797971),
        (12.0, 12.01, 12.004899982688346),  # beyond _MILLS_DEPTH: the Mills ratio
        (30.0, 31.0, 30.033259667433622),  # erfc loses 1.2e-13 here
        (38.0, 39.0, 38.026279466575869),  # erfc is subnormal
        (40.0, 41.0, 40.024968847207264),  # erfc underflows: mass 3.7e-350
        (-41.0, -40.0, -40.024968847207264),
        (40.0, 40.001, 40.000496666713999),
        (100.0, 1e300, 100.00999800099926),
    ])
    def test_far_tail_mean(self, lo, hi, want):
        # Phi(b) - Phi(a) cancels in an upper tail; the mass is taken there as
        # Phi(-a) - Phi(-b) instead, and deeper than _MILLS_DEPTH the mean is
        # taken from the Mills ratio, which does not underflow
        assert normal(0.0, 1.0, lo, hi).mean() == pytest.approx(want, rel=1e-12, abs=0)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match=r"^truncation bounds must satisfy "
                                             r"lo < hi, got \[2\.0, 1\.0\]$"):
            uniform(2.0, 1.0)
        with pytest.raises(ValueError, match="^sd must be non-negative$"):
            normal(0.0, -1.0, 0.0, 1.0)

    def test_overflowing_uniform_width_refused(self):
        # the width was unchecked, and sample() raised numpy's OverflowError
        with pytest.raises(ValueError, match=r"^uniform width hi - lo must be a finite "
                                             r"number, got inf$"):
            uniform(-1e308, 1e308)
        assert normal(0.0, 1.0, -1e308, 1e308).sample(np.random.default_rng(0), 3).size == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name,build", [
        ("lo", lambda x: uniform(x, 1.0)), ("hi", lambda x: uniform(0.0, x)),
        ("mu", lambda x: normal(x, 1.0, -1.0, 1.0)),
        ("sd", lambda x: normal(0.0, x, -1.0, 1.0)), ("value", point)])
    def test_non_finite_parameter_refused(self, name, build, bad):
        # refused at construction: a NaN sd or mu kept no rejection draw, so
        # sample() never returned, and uniform(0, inf) raised OverflowError
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number"):
            build(bad)


NON_POSITIVE_LEAD = "^node has non-positive leading denominator coefficient$"


class TestEnsembleSpec:
    def test_missing_parameter(self):
        with pytest.raises(ValueError,
                           match=r"^swing family needs parameters \['d'\]$"):
            EnsembleSpec("swing", {"m": point(1.0)})

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="^unknown family 'lc_circuit'$"):
            EnsembleSpec("lc_circuit", {})

    @pytest.mark.parametrize("family, params, unused", [
        ("swing", {"m": point(1.0), "d": point(1.0), "tau": uniform(1, 2)},
         ["tau"]),
        ("swing_turbine", {"m": point(1.0), "d": point(1.0), "r_inv": point(0.3),
                           "tau": point(2.0), "k": point(1.0), "a": point(1.0)},
         ["a", "k"]),
        # drawn from the nodes' stream, aa would shift every used draw
        ("custom_coeffs", {"num_0": point(1.0), "den_0": uniform(1, 2),
                           "den_1": point(1.0), "aa": uniform(5, 6)}, ["aa"]),
    ], ids=["swing", "swing_turbine", "custom_coeffs"])
    def test_unused_parameter_rejected(self, family, params, unused):
        with pytest.raises(ValueError,
                           match=f"^{family} family does not use parameters "
                                 + re.escape(repr(unused)) + "$"):
            EnsembleSpec(family, params)

    def test_swing_node_shape(self):
        spec = swing_spec()
        nodes = sample_nodes(spec, 5)
        for g in nodes:
            assert g.num.degree == 0
            assert g.den.degree == 1

    def test_swing_turbine_node_order(self):
        spec = EnsembleSpec(
            "swing_turbine",
            {"m": point(1.0), "d": point(1.0), "r_inv": uniform(0.2, 0.5),
             "tau": point(2.0)},
        )
        g = sample_nodes(spec, 1)[0]
        assert g.num.degree == 1
        assert g.den.degree == 2

    def test_custom_coeffs(self):
        spec = EnsembleSpec(
            "custom_coeffs",
            {"num_0": point(1.0), "den_0": uniform(1, 2), "den_1": point(1.0)},
        )
        g = sample_nodes(spec, 1)[0]
        assert g.num == RF([1], [1]).num
        assert g.den.degree == 1

    def test_custom_coeffs_placed_by_integer_suffix(self):
        # den_10 is the s^10 coefficient, although "den_10" < "den_2" as text
        params = {f"den_{k}": point(0.1 * (k + 1)) for k in range(11)}
        spec = EnsembleSpec("custom_coeffs", dict(params, num_0=point(1.0)))
        want = RF([1.0], [0.1 * (k + 1) for k in range(11)])
        assert sample_nodes(spec, 1)[0] == want
        assert expected_coherent(spec) == want

    @pytest.mark.parametrize("names", [
        ("num_0", "den_0", "den_2"), ("num_1", "den_0"), ("num_0", "den_x"),
        ("num_0", "den_0", "den_01"), ("den_0",),
    ], ids=["gap", "no-num_0", "non-integer", "leading-zero", "no-numerator"])
    def test_custom_coeffs_names_need_integers_without_gaps(self, names):
        with pytest.raises(ValueError, match=r"^(num|den)_k needs integers "
                                             r"k = 0, 1, \.\.\. without gaps, got \["):
            EnsembleSpec("custom_coeffs", {k: point(1.0) for k in names})

    @pytest.mark.parametrize("m", [-1.0, 0.0])
    def test_non_positive_inertia_rejected(self, m):
        # m = -1 gives the unstable node -1/(s - 1) and m = 0 the constant 1;
        # only the raw leading coefficient, not the monic one, shows that
        spec = EnsembleSpec("swing", {"m": point(m), "d": point(1.0)})
        with pytest.raises(ValueError, match=NON_POSITIVE_LEAD):
            sample_nodes(spec, 3)
        with pytest.raises(ValueError, match=NON_POSITIVE_LEAD):
            concentration_experiment(spec, SEGMENT, [3], 2, 0.1)

    def test_non_positive_turbine_leading_coefficient_rejected(self):
        spec = EnsembleSpec("swing_turbine", {"m": point(1.0), "d": point(1.0),
                                              "r_inv": point(0.3),
                                              "tau": uniform(-1.0, 1.0)})
        with pytest.raises(ValueError, match=NON_POSITIVE_LEAD):
            sample_nodes(spec, 50)


class TestSampling:
    def test_reproducible_per_stream(self):
        spec = swing_spec(seed=7)
        a = sample_nodes(spec, 4, stream_index=3)
        b = sample_nodes(spec, 4, stream_index=3)
        assert a == b

    def test_streams_disjoint(self):
        spec = swing_spec(seed=7)
        assert sample_nodes(spec, 4, 0) != sample_nodes(spec, 4, 1)

    def test_seed_changes_draws(self):
        assert sample_nodes(swing_spec(1), 4) != sample_nodes(swing_spec(2), 4)

    def test_stream_is_seed_and_index(self):
        # the documented counter-based stream (seed, stream index)
        rng = np.random.default_rng([5, 3])
        m, d = rng.uniform(1, 2, 4), rng.uniform(1, 2, 4)
        assert sample_nodes(swing_spec(5), 4, 3) == [
            RF([1.0], [di, mi]) for mi, di in zip(m, d)]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            swing_spec(-1)

    @pytest.mark.parametrize("seed", [1.5, "3", True])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError):
            swing_spec(seed)


class TestExpectedCoherent:
    def test_swing_analytic(self):
        ghat = expected_coherent(swing_spec())
        assert ghat == RF([1.0], [1.5, 1.5])

    def test_point_ensemble_matches_node(self):
        spec = EnsembleSpec("swing", {"m": point(2.0), "d": point(3.0)})
        assert expected_coherent(spec) == RF([1], [3, 2])

    def test_monte_carlo_converges_to_analytic(self):
        spec = swing_spec(seed=11)
        ghat = expected_coherent(spec)
        num, den = _sample_coeffs(spec, 40_000, 2**31 - 1)
        pts = [0.5, 1j, 1 + 1j]
        for s, mc in zip(pts, 40_000 / netfreq._inverse_sum(num, den, pts, [0])[0]):
            assert abs(mc - ghat(s)) < 5e-3

    def test_random_tau_not_affine(self):
        spec = EnsembleSpec(
            "swing_turbine",
            {"m": point(1.0), "d": point(1.0), "r_inv": point(0.3),
             "tau": uniform(1, 2)},
        )
        with pytest.raises(NotAffineError):
            expected_coherent(spec)

    def test_random_numerator_not_affine(self):
        spec = EnsembleSpec(
            "custom_coeffs",
            {"num_0": uniform(1, 2), "den_0": point(1.0), "den_1": point(1.0)},
        )
        with pytest.raises(NotAffineError):
            expected_coherent(spec)


SEGMENT = FrequencyRegion("vertical_segment", 0.1, (-2.0, 2.0), 9)


@pytest.fixture
def node_rows(monkeypatch):
    """Row count of every _node_inverses call that _inverse_sum makes."""
    rows = []
    real = netfreq._node_inverses

    def counting(num, den, pts):
        rows.append(len(num))
        return real(num, den, pts)

    monkeypatch.setattr(netfreq, "_node_inverses", counting)
    return rows


class TestConcentration:
    def test_point_ensemble_zero_deviation(self):
        spec = EnsembleSpec("swing", {"m": point(1.0), "d": point(1.0)})
        res = concentration_experiment(spec, SEGMENT, [2, 4], trials=3,
                                       epsilon=1e-6)
        assert all(d == pytest.approx(0.0, abs=1e-12)
                   for row in res.deviations for d in row)
        assert res.prob_estimates == [0.0, 0.0]

    def test_median_shrinks_with_size(self):
        res = concentration_experiment(swing_spec(3), SEGMENT, [5, 80],
                                       trials=30, epsilon=0.05)
        med = res.median_deviations
        assert med[1] < med[0]
        # one-over-sqrt-n scaling: ratio near 1/4 for 16x the nodes
        assert med[1] / med[0] == pytest.approx(0.25, abs=0.15)

    def test_probability_monotone(self):
        res = concentration_experiment(swing_spec(3), SEGMENT, [5, 80],
                                       trials=30, epsilon=0.03)
        assert res.prob_estimates[0] >= res.prob_estimates[1]

    def test_reproducible(self):
        a = concentration_experiment(swing_spec(5), SEGMENT, [4, 8], 5, 0.05)
        b = concentration_experiment(swing_spec(5), SEGMENT, [4, 8], 5, 0.05)
        assert a.deviations == b.deviations

    def test_sizes_must_increase(self):
        with pytest.raises(ValueError):
            concentration_experiment(swing_spec(), SEGMENT, [4, 4], 2, 0.1)

    @pytest.mark.parametrize("run", [concentration_experiment,
                                     full_network_concentration])
    @pytest.mark.parametrize("sizes,trials", [([4], 0), ([4], -3), ([], 2)],
                             ids=["zero-trials", "negative-trials", "empty-sizes"])
    def test_empty_run_rejected(self, run, sizes, trials):
        with pytest.raises(ValueError, match="trials >= 1 and at least one size"):
            run(swing_spec(), SEGMENT, sizes, trials, 0.1)


class TestFullNetworkConcentration:
    def test_deviation_shrinks_with_size(self):
        res = full_network_concentration(swing_spec(9), SEGMENT, [5, 40],
                                         trials=10, epsilon=0.05)
        med = res.median_deviations
        assert med[1] < med[0]

    def test_matrix_deviation_bounded_below_by_scalar_part(self):
        # ||T_n - (1/n) ghat 11^T|| >= |gbar_n - ghat| evaluated through 1/ n 11^T
        spec = swing_spec(13)
        scalar = concentration_experiment(spec, SEGMENT, [6], 5, 0.05)
        matrix = full_network_concentration(spec, SEGMENT, [6], 5, 0.05)
        # complete-graph coupling also contributes, so matrix >= scalar/ n is
        # the safe direction; just check both are positive and finite
        for d in matrix.deviations[0]:
            assert 0 < d < math.inf
        for d in scalar.deviations[0]:
            assert 0 < d < math.inf


class TestResultContainer:
    def test_median(self):
        res = ConcentrationResult([2], [[3.0, 1.0, 2.0]], [1.0])
        assert res.median_deviations == [2.0]


def _exact_route(spec, region, sizes, trials):
    """Deviations as the exact harmonic mean of the sampled nodes gives them."""
    ghat = expected_coherent(spec)
    pts = region.points()
    return [[max(abs(gbar(s) - ghat(s)) for s in pts)
             for gbar in (harmonic_mean(sample_nodes(spec, n, k * 1_000_003 + t + 1))
                          for t in range(trials))]
            for k, n in enumerate(sizes)]


FAMILIES = {
    "swing": EnsembleSpec("swing", {"m": uniform(1, 3), "d": uniform(0.5, 1.5)},
                          seed=5),
    "swing_turbine": EnsembleSpec(
        "swing_turbine", {"m": uniform(1, 2), "d": uniform(1, 2),
                          "r_inv": uniform(0.1, 0.4), "tau": point(2.0)}, seed=3),
    "custom_coeffs": EnsembleSpec(
        "custom_coeffs", {"num_0": point(1.0), "num_1": point(0.5),
                          "den_0": uniform(1, 2),
                          "den_1": normal(1.0, 0.3, 0.5, 2.0),
                          "den_2": point(1.0)}, seed=8),
}


class TestFloatEvaluation:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("region", [
        SEGMENT, FrequencyRegion("rect_grid", 0.3, (-1.0, 1.0), 4)],
        ids=["segment", "rect"])
    def test_matches_exact_route(self, family, region):
        spec = FAMILIES[family]
        got = concentration_experiment(spec, region, [3, 10, 40], 3, 0.05)
        want = _exact_route(spec, region, [3, 10, 40], 3)
        assert np.abs(np.array(got.deviations) - want).max() <= 1e-12

    def test_no_exact_sums(self, exact_sums):
        concentration_experiment(swing_spec(2), SEGMENT, [4, 16], 3, 0.05)
        assert len(exact_sums) == 0

    def test_node_zero_on_grid(self):
        # every node is (s - 0.5)/den_i; the grid passes through s = 0.5,
        # where gbar_n is 0 and the float sum of inverses is infinite
        spec = EnsembleSpec("custom_coeffs", {
            "num_0": point(-0.5), "num_1": point(1.0), "den_0": uniform(1, 2),
            "den_1": uniform(1, 2), "den_2": point(1.0)}, seed=2)
        region = FrequencyRegion("vertical_segment", 0.5, (-1.0, 1.0), 9)
        assert 0.5 + 0j in region.points()
        got = concentration_experiment(spec, region, [3, 10], 3, 0.05)
        assert np.all(np.isfinite(got.deviations))
        want = _exact_route(spec, region, [3, 10], 3)
        assert np.abs(np.array(got.deviations) - want).max() <= 1e-12

    def test_sampled_coherent_matches_eval_inverse_sum(self):
        spec = EnsembleSpec("swing_turbine", {
            "m": uniform(1, 2), "d": uniform(1, 2), "r_inv": uniform(0.1, 0.4),
            "tau": uniform(1, 3)}, seed=4)
        num, den = _sample_coeffs(spec, 300, 9)
        nodes = sample_nodes(spec, 300, 9)
        pts = SEGMENT.points()
        mc = 300 / netfreq._inverse_sum(num, den, pts, [0])[0]
        want = [300 / sum(g.eval_inverse(s) for g in nodes) for s in pts]
        assert np.allclose(mc, want, rtol=1e-12, atol=0)
        assert [300 / netfreq._inverse_sum(num, den, [s], [0])[0, 0] for s in pts] == list(mc)

    def test_inverse_sum_in_node_blocks(self, monkeypatch):
        # large draws x grid products are summed block by block
        num, den = _sample_coeffs(swing_spec(6), 300, 2**31 - 1)
        pts = SEGMENT.points()
        whole = netfreq._inverse_sum(num, den, pts, [0])[0]
        monkeypatch.setattr(netfreq, "_CHUNK_ELEMS", 40)  # 4 nodes per block
        assert np.allclose(netfreq._inverse_sum(num, den, pts, [0])[0], whole,
                           rtol=1e-13, atol=0)

    def test_distinct_numerators_in_blocks(self, monkeypatch, node_rows):
        # every run is one node, so the blocks still split the draws
        num, den = _sample_coeffs(turbine_spec(6), 300, 2**31 - 1)
        pts = SEGMENT.points()
        whole = netfreq._inverse_sum(num, den, pts, [0])[0]
        monkeypatch.setattr(netfreq, "_CHUNK_ELEMS", 40)  # 4 runs per block
        node_rows.clear()
        assert np.allclose(netfreq._inverse_sum(num, den, pts, [0])[0], whole,
                           rtol=1e-13, atol=0)
        assert node_rows == [4] * 75

    def test_one_evaluated_row_per_swing_trial(self, node_rows):
        # every swing node has the numerator 1, yet a run ends with its trial:
        # one evaluation per size, one row per trial
        concentration_experiment(swing_spec(3), SEGMENT, [40, 640], 3, 0.05)
        assert node_rows == [3, 3]

    def test_distinct_numerators_are_never_merged(self, node_rows):
        # ghat is a 10 000-draw Monte-Carlo mean, then one evaluation per size
        # with n rows for each of its trials
        concentration_experiment(turbine_spec(3), SEGMENT, [40, 80], 2, 0.05)
        assert node_rows == [10_000, 2 * 40, 2 * 80]


def _one_trial_route(spec, region, sizes, trials):
    """Deviations with one sampling pass, one _inverse_sum and one sup per trial;
    where the float sum is 0 or not finite, the trial's float realization."""
    pts, ghat = ensemble._ghat_on_grid(spec, region)
    devs = []
    for k, n in enumerate(sizes):
        devs.append([])
        for stream in (k * 1_000_003 + t + 1 for t in range(trials)):
            num, den = _sample_coeffs(spec, n, stream)
            inv = netfreq._inverse_sum(num, den, pts, [0])
            gbar = netfreq._gbar_values(n, pts, inv, lambda t: harmonic_realization(
                sample_nodes(spec, n, stream)))[0]
            devs[-1].append(float(np.max(np.abs(gbar - ghat))))
    return devs


# half the numerators are s - 0.5, a node zero at the grid point s = 0.5 of
# ZERO_REGION, the others s - 0.5 + 2**-54, so the trials of size 1 and 2 mix
# node-zero trials with regular ones
HALF_ZERO = EnsembleSpec("custom_coeffs", {
    "num_0": uniform(-0.5, np.nextafter(-0.5, 0)), "num_1": point(1.0),
    "den_0": uniform(1, 2), "den_1": uniform(1, 2), "den_2": point(1.0)}, seed=2)
ZERO_REGION = FrequencyRegion("vertical_segment", 0.5, (-1.0, 1.0), 9)


class TestBatchedTrials:
    @pytest.mark.parametrize("spec,region", [
        (FAMILIES["swing"], SEGMENT), (turbine_spec(4), SEGMENT),
        (FAMILIES["custom_coeffs"], SEGMENT), (HALF_ZERO, ZERO_REGION)],
        ids=["swing", "swing_turbine", "custom_coeffs", "node_zero_mix"])
    @pytest.mark.parametrize("chunk", [None, 200], ids=["one-batch", "split"])
    def test_matches_one_trial_route(self, spec, region, chunk, monkeypatch):
        # chunk=200: batches of two 10-node trials on 9 points; a 40-node
        # trial is a batch of its own, summed in pieces of 22 runs
        if chunk is not None:
            monkeypatch.setattr(netfreq, "_CHUNK_ELEMS", chunk)
        sizes = [1, 2, 10, 40]
        got = concentration_experiment(spec, region, sizes, 5, 0.05).deviations
        assert got == _one_trial_route(spec, region, sizes, 5)

    def test_node_zero_sizes_mix_trials(self):
        # the mix the test above needs: some trials of size 2 take the exact
        # route and some do not
        zero = [(np.abs(_sample_coeffs(HALF_ZERO, 2, t + 1_000_004)[0][:, 0] + 0.5) == 0
                 ).any() for t in range(5)]
        assert any(zero) and not all(zero)

    def test_full_network_matches_one_trial_batches(self, monkeypatch):
        spec = FAMILIES["swing_turbine"]  # an exact ghat, which no chunk touches
        whole = full_network_concentration(spec, SEGMENT, [3, 6], 4, 0.05)
        monkeypatch.setattr(netfreq, "_CHUNK_ELEMS", 1)  # one trial per batch
        assert full_network_concentration(spec, SEGMENT, [3, 6], 4, 0.05
                                          ).deviations == whole.deviations


# ascending numerator rows: 1, 2, s - 0.5 (a node zero on ZERO_GRID), 1 + s/2
NUMERATORS = np.array([[1.0, 0.0], [2.0, 0.0], [-0.5, 1.0], [1.0, 0.5]])
ZERO_GRID = FrequencyRegion("vertical_segment", 0.5, (-1.0, 1.0), 9).points()


class TestInverseSum:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(range(len(NUMERATORS))), min_size=1, max_size=12),
           st.integers(0, 2**32 - 1))
    @example([0] * 6, 0)  # all equal
    @example([0, 1, 2, 3], 0)  # all distinct
    @example([0, 0, 3, 3, 0], 0)  # interleaved runs
    @example([1, 0], 0)  # [2] beside [1]
    @example([3, 2, 2, 3], 0)  # a run with a node zero on the grid
    def test_matches_node_by_node_sum(self, labels, seed):
        # the same non-finite points, 1e-13 relative to sum_i |g_i^{-1}| elsewhere,
        # bitwise when no two neighbouring numerators are equal
        num = NUMERATORS[labels]
        den = np.random.default_rng(seed).uniform(0.5, 3.0, (len(labels), 3))
        terms = netfreq._node_inverses(num, den, ZERO_GRID)
        want, got = terms.sum(axis=1), netfreq._inverse_sum(num, den, ZERO_GRID, [0])[0]
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        err = np.abs(got[finite] - want[finite])
        assert np.all(err <= 1e-13 * np.abs(terms).sum(axis=1)[finite])
        if (num[1:] != num[:-1]).any(axis=1).all():
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [40, 640, 10_000])
    def test_distinct_numerators_bitwise(self, n):
        num, den = _sample_coeffs(turbine_spec(1), n, 0)
        pts = SEGMENT.points()
        want = netfreq._node_inverses(num, den, pts).sum(axis=1)
        assert np.array_equal(netfreq._inverse_sum(num, den, pts, [0])[0], want)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(range(len(NUMERATORS))), min_size=1, max_size=12),
           st.sets(st.integers(1, 11)), st.integers(1, 60), st.integers(0, 2**32 - 1))
    @example([0] * 6, {2, 4}, 1 << 20, 0)  # equal numerators across each boundary
    @example([0, 1, 2, 3] * 3, {3, 4}, 20, 0)  # 2 runs a chunk: blocks of 3 split
    def test_each_block_sums_as_if_alone(self, labels, cuts, chunk, seed):
        # bitwise, whether a chunk of chunk // 9 runs holds several blocks or
        # splits one
        num = NUMERATORS[labels]
        den = np.random.default_rng(seed).uniform(0.5, 3.0, (len(labels), 3))
        blocks = [0] + sorted(c for c in cuts if c < len(labels))
        real, rows = netfreq._node_inverses, []

        def counting(num, den, pts):
            rows.append(len(num))
            return real(num, den, pts)

        with (mock.patch.object(netfreq, "_CHUNK_ELEMS", chunk),
              mock.patch.object(netfreq, "_node_inverses", counting)):
            got = netfreq._inverse_sum(num, den, ZERO_GRID, blocks)
            assert got.shape == (len(blocks), len(ZERO_GRID))
            assert max(rows) <= max(1, chunk // len(ZERO_GRID))  # the memory bound
            for row, lo, hi in zip(got, blocks, blocks[1:] + [len(labels)]):
                alone = netfreq._inverse_sum(num[lo:hi], den[lo:hi], ZERO_GRID, [0])
                assert np.array_equal(row, alone[0])

    def test_runs_end_at_block_boundaries(self, node_rows):
        num, den = NUMERATORS[[0] * 6], np.ones((6, 3))
        got = netfreq._inverse_sum(num, den, ZERO_GRID, [0, 2, 5])
        assert node_rows == [3]  # one run per block
        s = np.array(ZERO_GRID)
        assert np.allclose(got, np.outer([2, 3, 1], 1 + s + s * s), rtol=1e-15)


def _exact_full_network(spec, region, sizes, trials):
    """Full-network deviations from canonical nodes and one eval_T per point."""
    pts = region.points()
    ghat = np.array([expected_coherent(spec)(s) for s in pts])
    devs = []
    for k, n in enumerate(sizes):
        L = builder("complete", n)
        nets = (NetworkModel(sample_nodes(spec, n, k * 1_000_003 + t + 1),
                             RF([1.0], [1.0]), L) for t in range(trials))
        devs.append([max(np.linalg.norm(eval_T(net, s) - gv / n * np.ones((n, n)), 2)
                         for s, gv in zip(pts, ghat)) for net in nets])
    return devs


def _mp_complete_transfer(num, den, s):
    """T(s) on the complete graph (L = nI - 11^T, f = 1) from the nodes'
    ascending coefficient rows, by Sherman-Morrison:
    T = diag{h} + c h h^T, h_i = g_i / (1 + n g_i), c = 1 / (1 - sum h).
    h, c and the diagonal are taken to 60 digits, each off-diagonal entry is
    the float product of c h_i and h_j, within a few ulps."""
    n = len(num)
    with mpmath.workdps(60):
        s = mpmath.mpc(s)
        g = [mpmath.polyval(a[::-1].tolist(), s) / mpmath.polyval(b[::-1].tolist(), s)
             for a, b in zip(num, den)]
        h = [gi / (1 + n * gi) for gi in g]
        c = 1 / (1 - mpmath.fsum(h))
        T = np.outer([complex(c * hi) for hi in h], [complex(hi) for hi in h])
        T[np.diag_indices(n)] = [complex(hi + c * hi * hi) for hi in h]
    return T


class TestFullNetworkKernel:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_exact_route(self, family):
        spec = FAMILIES[family]
        got = full_network_concentration(spec, SEGMENT, [3, 10, 40], 3, 0.05)
        want = _exact_full_network(spec, SEGMENT, [3, 10, 40], 3)
        assert np.allclose(got.deviations, want, rtol=1e-12, atol=0)

    def test_trials_build_no_rational_functions(self, monkeypatch):
        built = []
        real = RF.__init__

        def counting(self, *args):
            built.append(1)
            real(self, *args)

        monkeypatch.setattr(RF, "__init__", counting)
        full_network_concentration(swing_spec(2), SEGMENT, [3], 1, 0.05)
        assert len(built) == 1  # the analytic ghat
        full_network_concentration(swing_spec(2), SEGMENT, [3, 10, 40], 4, 0.05)
        assert len(built) == 2

    def test_builds_no_laplacian(self, monkeypatch):
        # the complete graph's Laplacian nI - 11^T needs no validation or spectrum
        built = []
        real = LaplacianMatrix.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(LaplacianMatrix, "__init__", counting)
        full_network_concentration(turbine_spec(4), SEGMENT, [3, 10], 2, 0.05)
        assert built == []

    def test_node_zero_on_grid(self):
        spec = EnsembleSpec("custom_coeffs", {
            "num_0": point(-0.5), "num_1": point(1.0), "den_0": uniform(1, 2),
            "den_1": uniform(1, 2), "den_2": point(1.0)}, seed=2)
        region = FrequencyRegion("vertical_segment", 0.5, (-1.0, 1.0), 9)
        got = full_network_concentration(spec, region, [3, 10], 3, 0.05)
        assert np.all(np.isfinite(got.deviations))
        want = _exact_full_network(spec, region, [3, 10], 3)
        assert np.allclose(got.deviations, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [2, 3, 10, 40, 160])
    def test_near_zero_nodes_match_60_digits(self, n, monkeypatch):
        # HALF_ZERO's numerators vanish 2**-54 apart at s = 0.5, a near-zero
        # node's |g^-1| near 1e16: every T solved for 20 trials (4 at n = 160)
        # is within 1e-10 of 60 digits
        solved, real = [], netfreq._transfer

        def recording(s, ginv, fv, L):
            T = real(s, ginv, fv, L)
            solved.append((s, T.copy()))
            return T

        monkeypatch.setattr(netfreq, "_transfer", recording)
        trials = 4 if n == 160 else 20
        got = full_network_concentration(HALF_ZERO, ZERO_REGION, [n], trials, 0.05)
        assert np.all(np.isfinite(got.deviations))
        classes = len(solved) // trials  # in trial order, 5 conjugate classes each
        assert classes == 5
        for t in range(trials):
            num, den = _sample_coeffs(HALF_ZERO, n, t + 1)
            for s, T in solved[t * classes:(t + 1) * classes]:
                want = _mp_complete_transfer(num, den, s)
                assert np.abs(T - want).max() <= 1e-10 * np.abs(want).max()

    def test_one_solve_per_conjugate_class(self, monkeypatch):
        # a symmetric 33-point segment has 17 classes (Re s, |Im s|); the
        # omega = 0 class is solved in float64
        region = FrequencyRegion("vertical_segment", 0.1, (-1.0, 1.0), 33)
        solved, real = [], netfreq._transfer

        def counting(s, ginv, fv, L):
            T = real(s, ginv, fv, L)
            solved.append((s, T.dtype))
            return T

        monkeypatch.setattr(netfreq, "_transfer", counting)
        full_network_concentration(swing_spec(2), region, [8], 1, 0.05)
        assert len(solved) == 17
        assert [s for s, dtype in solved if dtype == np.float64] == [0.1 + 0j]


# Re s = -1, 5 points, through s = -1
POLE_REGION = FrequencyRegion("vertical_segment", -1.0, (-1.0, 1.0), 5)


class TestCoherentPoleOnGrid:
    @pytest.mark.parametrize("spec", [
        EnsembleSpec("swing", {"m": uniform(1, 3), "d": point(2.0)}),
        # every g^{-1} = (1 + s)/(num_0 + s) vanishes at s = -1
        EnsembleSpec("custom_coeffs", {"num_0": uniform(2, 3), "num_1": point(1.0),
                                       "den_0": point(1.0), "den_1": point(1.0)})],
        ids=["analytic", "monte-carlo-zero-sum"])
    @pytest.mark.parametrize("experiment", [concentration_experiment,
                                            full_network_concentration])
    def test_ghat_pole_is_refused(self, spec, experiment):
        # ghat = 1/(2s + 2) has its pole at s = -1; so has the Monte-Carlo
        # ghat, whose sum of inverses is 0 there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoherentPoleAtSError, match="pole of ghat"):
                experiment(spec, POLE_REGION, [4, 8], 2, 0.05)

    def test_sampled_pole_takes_the_trials_realization(self, monkeypatch):
        # den_0 is a = 1 + 2**-52 or its successor b, and ghat's pole is at -b
        # (the mean a/2 + b/2 rounds to b): a one-node trial of den_0 = a has
        # its pole on the grid point -a, where its realization is singular
        a = np.nextafter(1.0, 2.0)
        spec = EnsembleSpec("custom_coeffs", {
            "num_0": point(1.0), "den_0": uniform(a, np.nextafter(a, 2.0)),
            "den_1": point(1.0)}, seed=0)
        region = FrequencyRegion("vertical_segment", -a, (-1.0, 1.0), 5)
        built = []

        def counting(gs):
            built.append(len(gs))
            return harmonic_realization(gs)

        monkeypatch.setattr(ensemble, "harmonic_realization", counting)
        got = concentration_experiment(spec, region, [1], 6, 0.05).deviations[0]
        at_pole = [_sample_coeffs(spec, 1, t + 1)[1][0, 0] == a for t in range(6)]
        assert any(at_pole) and not all(at_pole)
        assert [math.isinf(d) for d in got] == at_pole
        assert built == [1] * sum(at_pole)


def _mp_gbar(num, den, s):
    """n / sum_i den_i(s) / num_i(s) of ascending coefficient rows, to 60
    digits; 0, its limit, where a numerator is exactly 0 at s."""
    with mpmath.workdps(60):
        s = mpmath.mpc(s)
        nv = [mpmath.polyval(a[::-1].tolist(), s) for a in num]
        if any(v == 0 for v in nv):
            return 0j
        return complex(len(num) / mpmath.fsum(
            mpmath.polyval(b[::-1].tolist(), s) / v for b, v in zip(den, nv)))


class TestNodeZeroGbar:
    """An exact node zero on the grid gives gbar = 0 there, also when it sits
    beside near-zeros, which make the float realization singular."""

    def test_concentration_matches_60_digits(self):
        # HALF_ZERO trials mix exact zeros (s - 0.5) with near-zeros
        # (s - 0.5 + 2**-54) at the grid point s = 0.5
        sizes = [2, 3, 10, 40, 160]
        got = concentration_experiment(HALF_ZERO, ZERO_REGION, sizes, 20, 0.05)
        pts, ghat = ensemble._ghat_on_grid(HALF_ZERO, ZERO_REGION)
        for k, (n, devs) in enumerate(zip(sizes, got.deviations)):
            for t, dev in enumerate(devs):
                num, den = _sample_coeffs(HALF_ZERO, n, k * 1_000_003 + t + 1)
                want = max(abs(_mp_gbar(num, den, s) - g) for s, g in zip(pts, ghat))
                assert dev == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.mark.parametrize("n,stream", [(2, 5), (3, 1_000_013), (10, 2_000_009)])
    def test_sweep_through_a_node_zero(self, n, stream):
        # gbar(0.5) = 0, so the measured incoherence there is ||T(0.5)||_2
        net = NetworkModel(sample_nodes(HALF_ZERO, n, stream), RF([1.0], [1.0]),
                           builder("complete", n))
        reports, _ = netfreq.sweep_region(net, ZERO_REGION)
        [at] = [r.measured for r in reports if r.s == 0.5]
        assert at == pytest.approx(np.linalg.norm(eval_T(net, 0.5), 2), rel=1e-12, abs=0)

    def test_reducible_samples(self):
        # every node is (s - 0.5)/((s - 0.5)(s + 1)), 0/0 at the grid point
        # s = 0.5: only the reduced node 1/(s + 1) gives gbar and T there.  On the
        # complete graph T - (1/n) ghat 11^T has the modes 1/(s + 1 + n), largest
        # at s = 0.5
        spec = EnsembleSpec("custom_coeffs", {
            "num_0": point(-0.5), "num_1": point(1.0),
            "den_0": point(-0.5), "den_1": point(0.5), "den_2": point(1.0)})
        region = FrequencyRegion("vertical_segment", 0.5, (-1.0, 1.0), 5)
        assert 0.5 + 0j in region.points()
        got = concentration_experiment(spec, region, [3, 10], 2, 0.05)
        want = _exact_route(spec, region, [3, 10], 2)
        assert np.abs(np.array(got.deviations) - want).max() <= 1e-12
        got = full_network_concentration(spec, region, [3, 10], 2, 0.05)
        want = _exact_full_network(spec, region, [3, 10], 2)
        assert np.allclose(got.deviations, want, rtol=1e-12, atol=0)
        assert np.allclose(got.deviations, [[1 / 4.5] * 2, [1 / 11.5] * 2],
                           rtol=1e-12, atol=0)
