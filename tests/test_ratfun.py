import cmath
import math
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from netcoh import ratfun
from netcoh.errors import (
    AlgebraicLoopSingularError,
    ImproperError,
    ZeroFunctionError,
)
from netcoh.ratfun import (
    Polynomial,
    RationalFunction,
    StateSpaceModel,
    feedback,
    harmonic_mean,
    poly_gcd,
    poly_roots,
)


def rf(num, den):
    return RationalFunction(num, den)


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1

    def test_zero_polynomial_degree(self):
        assert Polynomial([0, 0]).degree == -math.inf
        assert Polynomial([]).is_zero

    def test_divmod_exact(self):
        p = Polynomial([2, 3, 1])  # (s+1)(s+2)
        q, r = divmod(p, Polynomial([1, 1]))
        assert q == Polynomial([2, 1])
        assert r.is_zero

    def test_gcd_finds_common_factor(self):
        a = Polynomial([1, 1]) * Polynomial([2, 1])
        b = Polynomial([1, 1]) * Polynomial([3, 1])
        assert poly_gcd(a, b) == Polynomial([1, 1])


class TestEval:
    def test_at_origin(self):
        assert rf([1], [1, 1])(0) == 1

    def test_at_j(self):
        assert rf([1], [1, 1])(1j) == pytest.approx(0.5 - 0.5j)

    def test_pole_gives_infinity(self):
        assert rf([1], [1, 1])(-1) == complex("inf")


class TestArithmetic:
    @pytest.mark.parametrize("den", [[0], []])
    def test_zero_denominator_rejected(self, den):
        with pytest.raises(ValueError):
            rf([1], den)

    def test_add_same_denominator(self):
        assert rf([1], [1, 1]) + rf([1], [1, 1]) == rf([2], [1, 1])

    def test_add_polynomial_plus_constant(self):
        assert rf([0, 1], [1]) + rf([1], [1]) == rf([1, 1], [1])


class TestReciprocal:
    def test_first_order(self):
        assert rf([1], [1, 1]).reciprocal() == rf([1, 1], [1])

    def test_second_order(self):
        r = rf([2, 1], [1, 3, 1]).reciprocal()
        assert r == rf([1, 3, 1], [2, 1])

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroFunctionError):
            rf([0], [1]).reciprocal()

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=4),
           st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_double_reciprocal_roundtrip(self, num, den):
        if all(c == 0 for c in num) or all(c == 0 for c in den):
            return
        r = rf(num, den)
        assert r.reciprocal().reciprocal() == r


# constants, s+1 and 2s+2, (s+1)(s+2) and (s+1)(s+3), s^2+1
NUMERATORS = [[1], [3], [-2], [1, 1], [2, 2], [2, 3, 1], [3, 4, 1], [1, 0, 1]]


def _pairwise_route(gs):
    """((1/n) sum g_i^{-1})^{-1} by reduced pairwise additions."""
    acc = gs[0].reciprocal()
    for g in gs[1:]:
        acc = acc + g.reciprocal()
    return acc.scale(Fraction(1, len(gs))).reciprocal()


class TestHarmonicMean:
    def test_homogeneous_identity(self):
        g = rf([1], [1, 1])
        assert harmonic_mean([g, g]) == g

    def test_two_first_order(self):
        got = harmonic_mean([rf([1], [1, 1]), rf([1], [3, 2])])
        assert got == rf([2], [4, 3])

    def test_swing_pair_sums_coefficients(self):
        m1, d1, m2, d2 = 2.0, 3.0, 5.0, 7.0
        got = harmonic_mean([rf([1], [d1, m1]), rf([1], [d2, m2])])
        assert got == rf([2], [d1 + d2, m1 + m2])

    @given(st.permutations([0, 1, 2]))
    @settings(max_examples=10, deadline=None)
    def test_permutation_invariance(self, perm):
        gs = [rf([1], [1, 1]), rf([1], [3, 2]), rf([1, 1], [2, 3, 1])]
        base = harmonic_mean(gs)
        assert harmonic_mean([gs[i] for i in perm]) == base

    def test_pointwise_consistency(self):
        rng = np.random.default_rng(0)
        gs = [rf([1], [1, 1]), rf([1], [2, 3]), rf([1, 1], [2, 3, 1])]
        gbar = harmonic_mean(gs)
        for _ in range(50):
            s = complex(rng.uniform(-1, 2), rng.uniform(-3, 3))
            direct = len(gs) / sum(1 / g(s) for g in gs)
            assert cmath.isclose(gbar(s), direct, rel_tol=1e-10)

    @given(st.lists(st.tuples(st.sampled_from(NUMERATORS),
                              st.lists(st.integers(-4, 4), min_size=1,
                                       max_size=3).filter(any)),
                    min_size=1, max_size=5))
    @example([([1, 1], [1, 2]), ([1, 1], [3, 1])])  # repeated numerator
    @example([([1, 1], [1, 2]), ([2, 2], [3, 1])])  # equal up to a factor
    @example([([2, 3, 1], [5, 1]), ([3, 4, 1], [1, 0, 1])])  # shared factor
    @example([([1], [1, 2]), ([3], [2, 0, 1])])  # constant numerators
    @settings(max_examples=80, deadline=None)
    def test_matches_pairwise_route(self, specs):
        gs = [rf(num, den) for num, den in specs]
        try:
            want = _pairwise_route(gs)
        except ZeroFunctionError:
            with pytest.raises(ZeroFunctionError):
                harmonic_mean(gs)
            return
        got = harmonic_mean(gs)
        assert got == want
        assert got.serialize() == want.serialize()

    @pytest.mark.parametrize("gs", [
        [rf([1], [1, 1]), rf([-1], [1, 1])],
        [rf([1], [1, 1]), rf([0], [1])],
    ], ids=["inverses-cancel", "zero-node"])
    def test_zero_rejected(self, gs):
        with pytest.raises(ZeroFunctionError):
            harmonic_mean(gs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            harmonic_mean([])

    def test_one_gcd_for_turbine_nodes(self, monkeypatch):
        # 12 turbine nodes 1/(m s + d + r/(tau s + 1)) over 8 distinct tau,
        # integer ones and float ones drawn as in the freq-domain benchmark:
        # one gcd, decided mod the prime without Euclid
        gcds, euclids = _count_calls(monkeypatch, "poly_gcd", "_euclid_gcd")
        for gs in ([_turbine(2 + k % 3, 1 + k % 2, 3, 1 + k % 8) for k in range(12)],
                   _drawn_turbines(12, 8)):
            gcds.clear()
            harmonic_mean(gs)
            assert (len(gcds), len(euclids)) == (1, 0)

    def test_twenty_distinct_turbines(self, monkeypatch):
        # Euclid over the Fraction coefficients takes about 40 s here on a
        # 2-CPU machine
        gs = _drawn_turbines(20, 20)
        (euclids,) = _count_calls(monkeypatch, "_euclid_gcd")
        start = time.perf_counter()
        got = harmonic_mean(gs)
        assert time.perf_counter() - start < 1.0
        assert euclids == []
        want = _euclid_route(*_unreduced_harmonic_mean(gs))
        assert got == want
        assert got.serialize() == want.serialize()


def _turbine(m, d, r, tau):
    return rf([1, tau], [d + r, m + d * tau, m * tau])


def _drawn_turbines(n, n_tau, seed=0):
    """n turbine nodes over n_tau distinct tau, float parameters drawn from
    the ranges of the freq-domain benchmark's aggregate."""
    rng = np.random.default_rng(seed)
    taus = rng.uniform(0.5, 8.0, n_tau)
    return [_turbine(*map(float, p), taus[k % n_tau]) for k, p in enumerate(zip(
        rng.uniform(1, 3, n), rng.uniform(0.5, 1.5, n), rng.uniform(2, 6, n)))]


def _unreduced_harmonic_mean(gs):
    """n / sum(den_i / num_i) as (numerator, denominator), not reduced."""
    num, den = Polynomial([]), Polynomial([1])
    for g in gs:
        num, den = num * g.num + g.den * den, den * g.num
    return den.scale(len(gs)).coeffs, num.coeffs


def _count_calls(monkeypatch, *names):
    """Replace each named ratfun function by one that records its calls."""
    def counting(real, log):
        def wrapper(*args):
            log.append(args)
            return real(*args)
        return wrapper

    logs = [[] for _ in names]
    for name, log in zip(names, logs):
        monkeypatch.setattr(ratfun, name, counting(getattr(ratfun, name), log))
    return logs


def _integers(p):
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    return [int(c * scale) for c in p.coeffs]


def _primitive(cs):
    g = math.gcd(*cs)  # 0 only for the zero polynomial
    return [c // g for c in cs] if g else cs


def _plain_gcd(a, b):
    """Monic gcd by Euclid's loop with no modular shortcut.  It runs over
    the integers: denominators are cleared, and each pseudo-remainder is
    divided by its content, so coefficients stay small."""
    a, b = _primitive(_integers(a)), _primitive(_integers(b))
    while b:
        while len(a) >= len(b):
            k, lead = len(a) - len(b), a[-1]
            a = [x * b[-1] for x in a]
            for i, c in enumerate(b):
                a[k + i] -= lead * c
            while a and not a[-1]:
                a.pop()
            a = _primitive(a)
        a, b = b, a
    return Polynomial(a).monic()


def _euclid_route(num, den):
    """num/den reduced by a plain Euclid whatever the degrees, then den made
    monic, built without the constructor."""
    num, den = Polynomial(num), Polynomial(den)
    if not num.is_zero:
        g = _plain_gcd(num, den)
        num, den = divmod(num, g)[0], divmod(den, g)[0]
    out = object.__new__(RationalFunction)
    object.__setattr__(out, "num", num.scale(1 / den.coeffs[-1]))
    object.__setattr__(out, "den", den.monic())
    return out


COEFFS = st.lists(st.integers(-4, 4), min_size=1, max_size=4)

TAUS = st.one_of(st.fractions(Fraction(1, 2), 8, max_denominator=9),
                 st.floats(0.5, 8.0))
FACTORS = st.one_of(
    st.builds(lambda tau: Polynomial([1, tau]), TAUS),  # turbine numerator
    st.builds(lambda c: Polynomial([c, 1]), st.integers(-7, 7)),  # s + c
    st.builds(lambda m, d, r, tau: _turbine(m, d, r, tau).den,  # turbine den
              st.integers(1, 3), st.integers(1, 2), st.integers(2, 6), TAUS),
    COEFFS.filter(any).map(Polynomial),
)


def _product(ps):
    out = Polynomial([1])
    for p in ps:
        out = out * p
    return out


class TestModularGcd:
    """poly_gcd decides coprimality mod a prime before Euclid; it must
    return what a plain Euclid loop returns, also for a prime that is
    unlucky for the input."""

    @given(st.lists(FACTORS, max_size=3), st.lists(FACTORS, max_size=3),
           st.lists(FACTORS, max_size=3), st.sampled_from([2**61 - 1, 7, 2]))
    @example([Polynomial([1, 2])], [Polynomial([3, 1])], [Polynomial([5, 2])],
             2**61 - 1)  # shared tau
    @example([], [Polynomial([7, 1])], [Polynomial([0, 1])], 7)  # unlucky
    @example([Polynomial([1, 7])], [Polynomial([2, 1])], [Polynomial([3, 1])],
             7)  # 7 s + 1 vanishes mod 7 but divides both
    @example([Polynomial([1, 1])] * 2, [Polynomial([1, 1])], [], 2**61 - 1)
    @example([_turbine(2, 1, 3, 2.5).den], [_turbine(2, 1, 3, 2.5).den],
             [_turbine(2, 1, 3, 2.5).num], 2**61 - 1)  # a repeated node
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_euclid(self, common, left, right, prime):
        # common: a factor of both; left and right: the cofactors
        a = _product(common + left)
        b = _product(common + right)
        with mock.patch.object(ratfun, "_PRIME", prime):
            assert poly_gcd(a, b) == _plain_gcd(a, b)
            assert poly_gcd(b, a) == _plain_gcd(a, b)

    @pytest.mark.parametrize("a, b", [
        ([7, 1], [0, 1]),  # s + 7 and s are both s mod 7
        ([1, 7], [1, 1]),  # 7 s + 1: 7 divides the leading coefficient
    ], ids=["gcd-mod-p-not-1", "leading-coefficient"])
    def test_unlucky_prime_falls_back_to_euclid(self, monkeypatch, a, b):
        monkeypatch.setattr(ratfun, "_PRIME", 7)
        (euclids,) = _count_calls(monkeypatch, "_euclid_gcd")
        assert poly_gcd(Polynomial(a), Polynomial(b)) == Polynomial([1])
        assert len(euclids) == 1
        assert rf(a, b).serialize() == f"num={a}, den={b}"


class TestCanonicalShortcuts:
    """Construction skips Euclid when a side is constant, and scale skips
    it altogether; both must give the Euclid route's canonical form."""

    @given(COEFFS, COEFFS.filter(any))
    @example([3], [2, 0, 1])  # constant numerator
    @example([2, 3, 1], [5])  # constant denominator
    @example([0], [1, 1])  # zero function
    @example([2, 2], [1, 1])  # common factor
    @settings(max_examples=80, deadline=None)
    def test_construction_matches_euclid(self, num, den):
        got, want = rf(num, den), _euclid_route(num, den)
        assert got == want
        assert got.serialize() == want.serialize()

    @given(COEFFS, COEFFS.filter(any),
           st.fractions(min_value=-5, max_value=5, max_denominator=7))
    @example([1, 1], [2, 3, 1], Fraction(0))
    @example([3], [2, 0, 1], Fraction(1, 3))
    @example([2, 3, 1], [5], Fraction(-2))
    @settings(max_examples=80, deadline=None)
    def test_scale_matches_euclid(self, num, den, k):
        r = rf(num, den)
        got = r.scale(k)
        want = _euclid_route(r.num.scale(k).coeffs, r.den.coeffs)
        assert got == want
        assert got.serialize() == want.serialize()


class TestRoots:
    def test_linear(self):
        assert poly_roots(Polynomial([1, 1])) == pytest.approx([-1])

    def test_quadratic_imaginary_pair(self):
        roots = sorted(poly_roots(Polynomial([1, 0, 1])), key=lambda z: z.imag)
        assert roots == pytest.approx([-1j, 1j])

    def test_constructed_cubic(self):
        p = Polynomial([1, 1]) * Polynomial([2, 1]) * Polynomial([3, 1])
        roots = sorted(r.real for r in poly_roots(p))
        assert roots == pytest.approx([-3, -2, -1])

    def test_residual_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            coeffs = rng.uniform(-4, 4, size=rng.integers(2, 9))
            coeffs[-1] = coeffs[-1] or 1.0
            p = Polynomial(list(coeffs))
            bound = 1e-8 * max(abs(c) for c in p.coeffs_float())
            for z in poly_roots(p):
                assert abs(p(z)) <= bound

    def test_constant_rejected(self):
        # a constant, or the zero polynomial, has no roots to find
        assert poly_roots(Polynomial([3])) == []
        assert poly_roots(Polynomial([])) == []


class TestStateSpace:
    def test_first_order_canonical(self):
        a = 2.5
        ss = rf([1], [a, 1]).to_state_space()
        assert ss.A == pytest.approx(np.array([[-a]]))
        assert ss.B == pytest.approx(np.ones((1, 1)))
        assert ss.C == pytest.approx(np.ones((1, 1)))
        assert ss.D == pytest.approx(np.zeros((1, 1)))

    def test_feedthrough_split(self):
        ss = rf([2, 1], [1, 1]).to_state_space()
        assert ss.D == pytest.approx(np.ones((1, 1)))
        # remainder realizes 1/(s+1)
        assert ss.response(1j)[0, 0] == pytest.approx(rf([2, 1], [1, 1])(1j))

    def test_random_third_order_response(self):
        r = rf([1, 2, 0.5], [6, 11, 6, 1])  # stable poles -1,-2,-3
        ss = r.to_state_space()
        for w in np.logspace(-2, 2, 100):
            assert abs(ss.response(1j * w)[0, 0] - r(1j * w)) < 1e-8 * max(
                1.0, abs(r(1j * w))
            )

    def test_improper_rejected(self):
        with pytest.raises(ImproperError):
            rf([1, 1, 1], [1, 1]).to_state_space()


@pytest.mark.parametrize("build, error, message", [
    (lambda: Polynomial([1, math.nan]), ValueError, "^non-finite coefficient nan$"),
    (lambda: Polynomial([1, "1"]), TypeError, "^unsupported coefficient type str$"),
    (lambda: StateSpaceModel(np.zeros((1, 2)), [[1]], [[1]], [[0]]), ValueError,
     "^A must be square$"),
    (lambda: StateSpaceModel([[0]], np.ones((2, 1)), [[1]], [[0]]), ValueError,
     "^B/C dimensions inconsistent with A$"),
    (lambda: StateSpaceModel([[0]], [[1]], [[1]], np.zeros((2, 1))), ValueError,
     "^D dimensions inconsistent with B/C$"),
], ids=["nan-coefficient", "str-coefficient", "non-square-A", "B-rows", "D-shape"])
def test_malformed_input_rejected(build, error, message):
    with pytest.raises(error, match=message):
        build()


def _lines(*roots):
    """The monic polynomial with the given roots."""
    return _product([Polynomial([-r, 1]) for r in roots])


# numerators (s+1)(s+2) and (s+1)(s+3) share the root -1: realized as two
# blocks, the bank would keep an uncontrollable mode there
SHARED_ROOT_PAIR = [rf(_lines(-1, -2), _lines(-3, -4, -5)),
                    rf(_lines(-1, -3), _lines(-2, -5, -6))]


def _mixed_nodes(n, seed):
    """A swing node, a node with a second-order numerator, and n - 2
    turbine nodes over distinct tau."""
    return ([rf([1.5, 2.0], [1]).reciprocal(), rf(_lines(-1, -2), _lines(-3, -4, -5))]
            + _drawn_turbines(n - 2, n - 2, seed))


def _max_match_error(got, want):
    """Largest distance, relative to max(1, |w|), from each w in want to the
    nearest unmatched value of got; got and want have equal lengths."""
    got, worst = list(got), 0.0
    assert len(got) == len(want)
    for w in want:
        k = int(np.argmin(np.abs(np.array(got) - w)))
        worst = max(worst, abs(got.pop(k) - w) / max(1.0, abs(w)))
    return worst


def _relative_newton_steps(gs, lams):
    """|h(lam) / h'(lam)| / |lam| at each lam, h = sum_i den_i/num_i in floats."""
    h = dh = 0j
    for g in gs:
        num, den = (np.polynomial.Polynomial(p.coeffs_float()) for p in (g.num, g.den))
        nv, dv = num(lams), den(lams)
        h = h + dv / nv
        dh = dh + (den.deriv()(lams) * nv - dv * num.deriv()(lams)) / nv ** 2
    return np.abs(h / dh) / np.abs(lams)


class TestHarmonicRealization:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_poles_match_exact_route(self, n):
        gs = _mixed_nodes(n, seed=n)
        model = ratfun.harmonic_realization(gs)
        want = harmonic_mean(gs)
        assert model.order == want.den.degree
        assert _max_match_error(np.linalg.eigvals(model.A), want.poles()) <= 1e-9
        rng = np.random.default_rng(n)
        for s in rng.uniform(-1, 1, 5) + 1j * rng.uniform(-3, 3, 5):
            assert model.response(s)[0, 0] == pytest.approx(want(s) / n, rel=1e-12)

    @pytest.mark.parametrize("n", [14, 64, 200])
    def test_turbine_poles_are_zeros_of_the_inverse_sum(self, n):
        gs = _drawn_turbines(n, n)
        start = time.perf_counter()
        eigs = np.linalg.eigvals(ratfun.harmonic_realization(gs).A)
        assert time.perf_counter() - start < 1.0
        assert len(eigs) == n + 1
        assert _relative_newton_steps(gs, eigs).max() <= 1e-12

    def test_numerators_sharing_a_root_are_merged(self):
        model = ratfun.harmonic_realization(SHARED_ROOT_PAIR)
        want = harmonic_mean(SHARED_ROOT_PAIR)
        eigs = np.linalg.eigvals(model.A)
        assert _max_match_error(eigs, want.poles()) <= 1e-9
        assert np.abs(eigs + 1).min() > 0.1  # -1 is a zero of gbar, not a pole
        assert abs(model.response(-1.0)[0, 0]) < 1e-15

    def test_swing_nodes_need_one_state(self):
        model = ratfun.harmonic_realization([rf([1], [1, 2]), rf([1], [3, 4])])
        assert model.A.tolist() == [[-4 / 6]]
        assert model.response(0.5)[0, 0] == pytest.approx(1 / (6 * 0.5 + 4))

    def test_constant_polynomial_part_is_feedthrough(self):
        # inverses 2 + 1/(s + 1) and 1: 1/h = (s + 1)/(3 s + 4)
        model = ratfun.harmonic_realization([rf([1, 1], [3, 2]), rf([1], [1])])
        assert (model.order, model.D.tolist()) == (1, [[1 / 3]])
        assert model.response(2j)[0, 0] == pytest.approx((2j + 1) / (6j + 4))

    def test_improper_rejected(self):
        # inverses s and -s + 1/(s + 2): gbar = 2(s + 2)
        gs = [rf([1], [0, 1]), rf([2, 1], [1, -2, -1])]
        assert harmonic_mean(gs) == rf([4, 2], [1])
        with pytest.raises(ImproperError):
            ratfun.harmonic_realization(gs)

    @pytest.mark.parametrize("gs", [
        [rf([1], [1, 1]), rf([-1], [1, 1])],
        [rf([1, 1], [2, 1]), rf([-1, -1], [2, 1])],
        [rf([1], [1, 1]), rf([0], [1])],
    ], ids=["inverses-cancel", "remainders-cancel", "zero-node"])
    def test_zero_rejected(self, gs):
        with pytest.raises(ZeroFunctionError):
            ratfun.harmonic_realization(gs)


def _harmonic_realization_before(gs):
    """harmonic_realization with the hand-derived closing lines that
    ratfun.feedback replaced, kept as an oracle."""
    P, bank = Polynomial([]), []
    for q, p in ratfun._inverse_groups(gs).items():
        quot, rem = divmod(p, q)
        P, block = P + quot, RationalFunction(rem, q)
        for other in [o for o in bank if ratfun._share_a_root(o.den, block.den)]:
            bank.remove(other)
            block = block + other
        if not block.is_zero:
            bank.append(block)
    models = [RationalFunction([1], P).to_state_space()] + [b.to_state_space() for b in bank]
    A, b, c = (ratfun._block_diag([getattr(m, k) for m in models]) for k in "ABC")
    b_f, b_r = b[:, :1], b[:, 1:].sum(axis=1, keepdims=True)
    c_f, c_r = c[:1], c[1:].sum(axis=0, keepdims=True)
    d = models[0].D
    C = c_f - d * c_r
    return StateSpaceModel(A + b_r @ C - b_f @ c_r, b_f + d * b_r, C, d)


def _bits(model):
    return [(getattr(model, k).shape, getattr(model, k).tobytes()) for k in "ABCD"]


class TestHarmonicRealizationOracle:
    @pytest.mark.parametrize("n", [2, 5, 14, 64])
    def test_mixed_nodes_bitwise_equal_to_the_closing_lines_before(self, n):
        gs = _mixed_nodes(n, seed=n)
        want = _bits(_harmonic_realization_before(gs))
        assert _bits(ratfun.harmonic_realization(gs)) == want

    @pytest.mark.parametrize("gs", [
        [rf([1, 1], [3, 2]), rf([1], [1])],
        SHARED_ROOT_PAIR,
        [rf([1], [1, 2]), rf([1], [3, 4])],
    ], ids=["feedthrough", "shared-root", "swing"])
    def test_small_cases_bitwise_equal(self, gs):
        want = _bits(_harmonic_realization_before(gs))
        assert _bits(ratfun.harmonic_realization(gs)) == want


ENTRIES = st.floats(-1.0, 1.0)


@st.composite
def _loops(draw):
    """G (m inputs, p outputs) and H (p inputs, m outputs), each with 1 to 3
    states and feedthrough, state matrices shifted so Re eig <= -1, and a
    point s with Re s >= 0."""
    m, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def model(ins, outs):
        k = draw(st.integers(1, 3))
        A, B, C, D = (draw(arrays(float, shape, elements=ENTRIES))
                      for shape in ((k, k), (k, ins), (outs, k), (outs, ins)))
        return StateSpaceModel(A - 4.0 * np.eye(k), B, C, D)

    s = complex(draw(st.floats(0.0, 2.0)), draw(st.floats(-5.0, 5.0)))
    return model(m, p), model(p, m), s


class TestFeedback:
    @given(_loops())
    @settings(max_examples=150, deadline=None)
    def test_mimo_loop_matches_the_transfer_formula(self, loop):
        # only well-posed loops: feedback refuses a near-singular I + D_G D_H
        G, H, s = loop
        assume(np.linalg.cond(np.eye(len(G.D)) + G.D @ H.D) < 1e4)
        Gs, Hs = G.response(s), H.response(s)
        M = np.eye(len(Gs)) + Gs @ Hs
        assume(np.linalg.cond(M) < 1e4)
        want = np.linalg.solve(M, Gs)
        got = feedback(G, H).response(s)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_singular_feedthrough_loop_names_the_network_loop(self):
        G = StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[1.0]])
        H = StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[-1.0]])
        with pytest.raises(AlgebraicLoopSingularError) as exc:
            feedback(G, H)
        assert str(exc.value) == "direct-feedthrough loop I + D_G D_F L is singular"

    def test_improper_closed_loop_is_refused(self):
        # G = 1 and H = 1/(s+4) - 1: I + D_G D_H = 0, and the loop s + 4 is improper
        G = StateSpaceModel([[-4.0]], [[0.0]], [[0.0]], [[1.0]])
        H = StateSpaceModel([[-4.0]], [[1.0]], [[1.0]], [[-1.0]])
        with pytest.raises(AlgebraicLoopSingularError):
            feedback(G, H)


class TestSerialization:
    def test_integer_form(self):
        assert rf([1], [1, 1]).serialize() == "num=[1], den=[1, 1]"
        assert rf([1], [7, 3]).serialize() == "num=[1], den=[7, 3]"
