import math

import numpy as np
import pytest
from scipy import integrate

from orliczfrac import (
    InvalidParameterError,
    UnsupportedDimensionError,
    compose,
    equivalence_constants,
    limit_density,
    make_combination,
    make_power,
    make_power_abslog,
    make_power_log,
    sphere_log_moment,
    sphere_moment,
    tilde_closed_form,
    tilde_eval,
    tilde_prelimit,
)
from orliczfrac.limit_density import radial_profile


class TestSphereMoments:
    def test_zero_sphere_is_two_points(self):
        assert sphere_moment(1, 0.7) == 2.0
        assert sphere_moment(1, 3.0) == 2.0

    def test_circle_second_moment(self):
        assert sphere_moment(2, 2.0) == pytest.approx(math.pi, abs=1e-10)

    def test_sphere_second_moment(self):
        assert sphere_moment(3, 2.0) == pytest.approx(4.0 * math.pi / 3.0,
                                                      abs=1e-10)

    def test_sphere_moment_closed_form(self):
        # n = 3 reduces to 4*pi/(p+1)
        for p in (1.5, 2.0, 3.7):
            assert sphere_moment(3, p) == pytest.approx(
                4.0 * math.pi / (p + 1.0), rel=1e-10)

    def test_log_moment(self):
        assert sphere_log_moment(1, 2.0) == 0.0
        assert sphere_log_moment(3, 2.0) == pytest.approx(
            4.0 * math.pi / 9.0, rel=1e-10)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            sphere_moment(4, 2.0)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [0.0, 1.5, 3.0, 4.7])
    def test_closed_forms_match_adaptive_quadrature(self, n, p):
        # the polar reductions, integrated by adaptive quadrature
        if n == 2:
            moment = 4.0 * integrate.quad(
                lambda t: np.sin(t) ** p, 0.0, math.pi / 2.0,
                epsabs=1e-14, epsrel=1e-12)[0]
            log_moment = 4.0 * integrate.quad(
                lambda t: np.sin(t) ** p * np.abs(np.log(np.sin(t))),
                0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-12)[0]
        else:
            moment = 2.0 * math.pi * integrate.quad(
                lambda phi: np.abs(np.cos(phi)) ** p * np.sin(phi),
                0.0, math.pi, epsabs=1e-14, epsrel=1e-12)[0]
            log_moment = 4.0 * math.pi * integrate.quad(
                lambda u: u ** p * np.abs(np.log(u)), 0.0, 1.0,
                epsabs=1e-14, epsrel=1e-12)[0]
        assert sphere_moment(n, p) == pytest.approx(moment, rel=1e-13)
        assert sphere_log_moment(n, p) == pytest.approx(log_moment,
                                                        rel=1e-13)


class TestTildeEval:
    def test_square_n1(self):
        # a^p K_{n,p} / p with K_{1,2} = 2
        G = make_power(2.0)
        assert tilde_eval(G, 1, 2.0) == pytest.approx(4.0, rel=1e-9)

    def test_zero_argument(self):
        assert tilde_eval(make_power(2.0), 1, 0.0) == 0.0

    def test_abslog_unit(self):
        # direct route: 2 * int_0^1 tau |log tau| dtau = 1/2
        G = make_power_abslog(2.0)
        assert tilde_eval(G, 1, 1.0) == pytest.approx(0.5, rel=1e-9)

    def test_abslog_above_one(self):
        # exact piecewise value 4 log 2 - 1 at a = 2, n = 1
        G = make_power_abslog(2.0)
        assert tilde_eval(G, 1, 2.0) == pytest.approx(
            4.0 * math.log(2.0) - 1.0, rel=1e-8)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            tilde_eval(make_power(2.0), 1, -1.0)


class TestPrelimit:
    def test_power_is_s_free(self):
        G = make_power(2.0)
        for s in (0.5, 0.9):
            assert tilde_prelimit(G, 1, 1.0, s) == pytest.approx(1.0,
                                                                 rel=1e-8)

    def test_zero(self):
        assert tilde_prelimit(make_power(2.0), 1, 0.0, 0.5) == 0.0

    def test_rejects_an_array_argument(self):
        G = make_power(2.0)
        with pytest.raises(InvalidParameterError):
            tilde_prelimit(G, 1, np.array([1.0, 2.0]), 0.5)
        assert tilde_prelimit(G, 1, np.array(1.5), 0.5) == pytest.approx(
            2.25, rel=1e-8)

    def test_matches_substituted_form_for_kinked_kind(self):
        # the change of variables is exact, so the pre-limit agrees with the
        # substituted evaluation at every s, for every growth function
        G = make_power_log(2.0)
        ref = tilde_eval(G, 2, 1.5)
        for s in (0.3, 0.7, 0.95):
            assert tilde_prelimit(G, 2, 1.5, s) == pytest.approx(ref,
                                                                 rel=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_upper_bound_by_surface_measure(self, n):
        # (1-s) * pre-limit <= n omega_n G(a) for every tested s
        G = make_power_log(2.0)
        surface = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[n]
        for a in (0.3, 1.0, 3.0):
            cap = surface * float(G(a))
            for s in (0.3, 0.6, 0.9):
                assert tilde_prelimit(G, n, a, s) <= cap * (1.0 + 1e-9)


class TestClosedForms:
    def test_power_example(self):
        assert tilde_closed_form("power", (2.0,), 1, 3.0) == pytest.approx(
            9.0)

    def test_max_small_argument(self):
        assert tilde_closed_form("max_powers", (2.0, 3.0), 1, 0.5) == \
            pytest.approx(0.25)

    def test_max_large_argument(self):
        # 2 a^p/p + 2 (1/q - 1/p) on the two-point sphere
        assert tilde_closed_form("max_powers", (2.0, 3.0), 1, 2.0) == \
            pytest.approx(17.0 / 3.0, rel=1e-12)

    def test_log_family_unit(self):
        assert tilde_closed_form("power_log", (2.0,), 1, 1.0) == \
            pytest.approx(0.5)

    def test_max_needs_ordered_exponents(self):
        with pytest.raises(InvalidParameterError):
            tilde_closed_form("max_powers", (3.0, 2.0), 1, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            tilde_closed_form("exotic", (2.0,), 1, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
    def test_quadrature_agreement(self, n, a):
        G = make_power_abslog(1.5)
        quad = tilde_eval(G, n, a)
        closed = tilde_closed_form("power_log", (1.5,), n, a)
        assert quad == pytest.approx(closed, rel=1e-7)

    # For a <= 1 the closed form is the exact moment formula, so it checks
    # the sphere rule where f(c |w_n|) behaves like |w_n|^p |log|w_n||.
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
    def test_sphere_rule_matches_exact_moments(self, n, a):
        quad = tilde_eval(make_power_abslog(1.5), n, a)
        closed = tilde_closed_form("power_abslog", (1.5,), n, a)
        assert quad == pytest.approx(closed, rel=1e-13)

    def test_max_large_argument_in_three_dimensions(self):
        # 4 pi int_0^1 I(2t) dt = 2 pi int_0^2 I(c) dc = 67 pi / 15 (mpmath,
        # 30 digits), with I the profile of max(t^1.5, t^4)
        assert tilde_closed_form("max_powers", (1.5, 4.0), 3, 2.0) == \
            pytest.approx(14.032447186034409798, rel=1e-13)


class TestStructure:
    def test_linearity(self):
        G1, G2 = make_power(2.0), make_power(3.0)
        G = make_combination("sum", [G1, G2], [0.5, 2.0])
        for a in (0.3, 1.0, 4.0):
            expected = 0.5 * tilde_eval(G1, 1, a) + 2.0 * tilde_eval(G2, 1, a)
            assert tilde_eval(G, 1, a) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equivalence_bounds(self, n):
        G = make_power_log(3.0)
        c1, c2 = equivalence_constants(G, n)
        assert 0.0 < c1 < c2
        for a in np.logspace(-2, 2, 15):
            val = tilde_eval(G, n, float(a))
            ga = float(G(a))
            assert c1 * ga <= val * (1.0 + 1e-9)
            assert val <= c2 * ga * (1.0 + 1e-9)

    def test_density_is_monotone_convex_on_grid(self):
        dens = limit_density(make_power_log(3.0), 1)
        a = np.linspace(0.05, 5.0, 41)
        vals = np.array([dens.value(x) for x in a])
        assert np.all(np.diff(vals) > 0.0)
        mid = np.array([dens.value(x) for x in 0.5 * (a[:-1] + a[1:])])
        assert np.all(mid <= 0.5 * (vals[:-1] + vals[1:]) + 1e-10)


class TestLimitDensityObject:
    def test_closed_form_backing_detected(self):
        dens = limit_density(make_power(2.0), 1)
        assert dens.backing == "closed_form"
        assert dens.value(2.0) == pytest.approx(4.0)

    def test_quadrature_backing(self):
        dens = limit_density(make_power_log(2.0), 1)
        assert dens.backing == "quadrature"
        assert dens.value(1.0) > 0.0

    def test_derivative_formula(self):
        # d/da tilde(a) = sphere integral of G(a |w|) / a; for t^2 and n = 1
        # this is 2a, matching the closed form a^2 * K/2 = a^2
        dens = limit_density(make_power(2.0), 1)
        assert dens.deriv(1.5) == pytest.approx(3.0, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("G", [
        make_power_log(3.0),
        make_combination("max", [make_power(2.0), make_power(3.0)]),
    ], ids=lambda G: G.label)
    def test_derivative_matches_central_difference(self, G, n):
        dens = limit_density(G, n)
        a = np.array([0.3, 0.999, 1.5, 4.0])
        h = 1e-5 * a
        fd = (tilde_eval(G, n, a + h) - tilde_eval(G, n, a - h)) / (2.0 * h)
        assert dens.deriv(a) == pytest.approx(fd, rel=1e-8, abs=0)
        assert dens.deriv(1.5) == pytest.approx(fd[2], rel=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("G", [
        make_power_log(3.0),
        make_combination("max", [make_power(2.0), make_power(3.0)]),
    ], ids=lambda G: G.label)
    def test_second_derivative_matches_central_difference(self, G, n):
        tilde = limit_density(G, n).as_orlicz()
        a = np.array([0.3, 0.98, 1.5, 4.0])
        h = 1e-6 * a
        fd = (tilde.deriv(a + h) - tilde.deriv(a - h)) / (2.0 * h)
        assert tilde(a, 3)[2] == pytest.approx(fd, rel=1e-7, abs=0)
        assert tilde(1.5, 3)[2] == pytest.approx(fd[2], rel=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_second_derivative_of_the_square(self, n):
        # tilde(a) = K_{n,2} a^2 / 2, also at a = 0 through G''(0) / 2
        dens = limit_density(make_power(2.0), n)
        K = sphere_moment(n, 2.0)
        assert dens.deriv(np.array([0.0, 0.5, 3.0]), 2)[1] == pytest.approx(
            [K, K, K], rel=1e-12)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf,
                                     np.array([0.5, -0.5])])
    @pytest.mark.parametrize("G", [make_power(2.0), make_power_log(3.0)],
                             ids=lambda G: G.label)
    def test_derivative_rejects_what_the_value_rejects(self, G, bad):
        # a negative, NaN or infinite argument is an error of every entry
        # point, not a derivative of 0 or NaN
        density = limit_density(G, 1)
        with pytest.raises(InvalidParameterError):
            density.value(bad)
        for n in (1, 2):
            with pytest.raises(InvalidParameterError):
                density.deriv(bad, n)

    def test_wrapping_keeps_growth_interface(self):
        tilde = limit_density(make_power(2.0), 1).as_orlicz()
        x = np.array([0.0, 0.5, 2.0])
        assert tilde(x) == pytest.approx([0.0, 0.25, 4.0])
        assert tilde.doubling_constant == pytest.approx(4.0)


def _abslog_antiderivative(a, p):
    """int_0^a v^(p-1) |log v| dv, from the explicit antiderivative."""
    if a <= 1.0:
        return (a ** p / p) * (1.0 / p - math.log(a))
    return 2.0 / p ** 2 + (a ** p / p) * (math.log(a) - 1.0 / p)


PROFILE_POINTS = [1e-3, 0.1, 0.5, 0.999, 1.0, 1.001, 1.5, 2.5, 10.0, 40.0]
PROFILE_CASES = [
    (make_power(1.1), lambda a: a ** 1.1 / 1.1),
    (make_power(3.0), lambda a: a ** 3 / 3.0),
    (make_power_abslog(2.0), lambda a: _abslog_antiderivative(a, 2.0)),
    (make_power_log(3.0),
     lambda a: a ** 3 / 3.0 + _abslog_antiderivative(a, 3.0)),
    (make_combination("max", [make_power(2.0), make_power(3.0)]),
     lambda a: a * a / 2.0 if a <= 1.0 else a ** 3 / 3.0 + 1.0 / 6.0),
]


class TestRadialProfile:
    """The n = 1 profile int_0^a G(v)/v dv, tilde_G = 2 * profile."""

    @pytest.mark.parametrize("G,exact", PROFILE_CASES,
                             ids=[G.label for G, _ in PROFILE_CASES])
    def test_matches_exact_values(self, G, exact):
        a = np.array(PROFILE_POINTS)
        ref = np.array([exact(x) for x in PROFILE_POINTS])
        assert radial_profile(G, a) == pytest.approx(ref, rel=1e-12, abs=0)
        assert tilde_eval(G, 1, a) == pytest.approx(2.0 * ref, rel=1e-12,
                                                    abs=0)

    def test_kink_above_every_argument_is_dropped(self):
        G = make_power_log(3.0)
        a = np.array([0.2, 0.7])
        ref = np.array([a[0] ** 3 / 3.0 + _abslog_antiderivative(a[0], 3.0),
                        a[1] ** 3 / 3.0 + _abslog_antiderivative(a[1], 3.0)])
        assert radial_profile(G, a) == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_array_and_scalar_agree(self, n):
        G = make_power_log(3.0)
        a = np.array(PROFILE_POINTS).reshape(2, 5)
        vals = tilde_eval(G, n, a)
        assert vals.shape == (2, 5)
        for x, v in zip(a.ravel(), vals.ravel()):
            scalar = tilde_eval(G, n, float(x))
            assert isinstance(scalar, float)
            assert v == pytest.approx(scalar, rel=1e-14)
        assert tilde_eval(G, n, np.array([0.0, 1.0]))[0] == 0.0

    @pytest.mark.parametrize("bad", [[1.0, -0.5], [0.5, np.nan],
                                     [np.inf], -1e-300])
    def test_bad_entries_rejected(self, bad):
        G = make_power_log(3.0)
        with pytest.raises(InvalidParameterError):
            tilde_eval(G, 1, np.array(bad))
        with pytest.raises(InvalidParameterError):
            tilde_closed_form("power", (2.0,), 1, np.array(bad))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("G", [
        make_power_log(3.0), compose(make_power(2.0), make_power_log(3.0)),
    ], ids=lambda G: G.label)
    def test_matches_independent_prelimit(self, G, n):
        # the literal r-integral at s = 0.5 shares no rule with the profile
        for a in (0.3, 1.0, 2.5):
            assert tilde_eval(G, n, a) == pytest.approx(
                tilde_prelimit(G, n, a, 0.5), rel=1e-8)

    def test_density_object_on_arrays(self):
        G = make_power_log(3.0)
        dens = limit_density(G, 1)
        a = np.array([0.0, 0.4, 1.0, 3.0])
        assert dens.value(a) == pytest.approx(
            [dens.value(float(x)) for x in a], rel=1e-14)
        expected = np.concatenate([[0.0], 2.0 * G(a[1:]) / a[1:]])
        assert np.array_equal(dens.deriv(a), expected)
        assert dens.deriv(1.5) == 2.0 * float(G(1.5)) / 1.5
        tilde = dens.as_orlicz()
        assert np.array_equal(tilde(a), dens.value(a))
        assert np.array_equal(tilde.deriv(a), dens.deriv(a))

    def test_closed_form_on_arrays(self):
        a = np.array([0.25, 1.0, 2.0])
        vals = tilde_closed_form("max_powers", (2.0, 3.0), 1, a)
        assert vals == pytest.approx(
            [tilde_closed_form("max_powers", (2.0, 3.0), 1, float(x))
             for x in a], rel=1e-15)
        assert tilde_closed_form("power_abslog", (2.0,), 2, a) == \
            pytest.approx([tilde_closed_form("power_log", (2.0,), 2, float(x))
                           for x in a], rel=1e-15)

    def test_abslog_has_its_own_kind(self):
        G = make_power_abslog(2.0)
        assert G.kind == "power_abslog"
        dens = limit_density(G, 1)
        assert dens.backing == "closed_form"
        assert dens.value(2.0) == pytest.approx(4.0 * math.log(2.0) - 1.0,
                                                rel=1e-12)
