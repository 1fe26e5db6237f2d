import math

import numpy as np
import pytest

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

    def test_array_and_scalar_agree(self):
        G = make_power_log(3.0)
        a = np.array(PROFILE_POINTS).reshape(2, 5)
        vals = tilde_eval(G, 1, a)
        assert vals.shape == (2, 5)
        for x, v in zip(a.ravel(), vals.ravel()):
            scalar = tilde_eval(G, 1, float(x))
            assert isinstance(scalar, float)
            assert v == pytest.approx(scalar, rel=1e-14)
        assert tilde_eval(G, 1, np.array([0.0, 1.0]))[0] == 0.0

    @pytest.mark.parametrize("bad", [[1.0, -0.5], [0.5, np.nan],
                                     [np.inf], -1e-300])
    def test_bad_entries_rejected(self, bad):
        G = make_power_log(3.0)
        with pytest.raises(InvalidParameterError):
            tilde_eval(G, 1, np.array(bad))
        with pytest.raises(InvalidParameterError):
            tilde_closed_form("power", (2.0,), 1, np.array(bad))

    @pytest.mark.parametrize("G", [
        make_power_log(3.0), compose(make_power(2.0), make_power_log(3.0)),
    ], ids=lambda G: G.label)
    def test_matches_independent_prelimit(self, G):
        # the literal r-integral at s = 0.5 shares no rule with the profile
        for a in (0.3, 1.0, 2.5):
            assert tilde_eval(G, 1, a) == pytest.approx(
                tilde_prelimit(G, 1, a, 0.5), rel=1e-8)

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
