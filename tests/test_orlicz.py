import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczfrac import (
    InvalidFunctionError,
    InvalidParameterError,
    NumericOverflowError,
    compose,
    conjugate,
    estimate_constants,
    make_combination,
    make_custom,
    make_power,
    make_power_abslog,
    make_power_log,
    verify_orlicz,
)
from orliczfrac.limit_density import (
    limit_density,
    sphere_integral,
    sphere_moment,
)
from orliczfrac.orlicz import _central_difference, _power


class TestPower:
    def test_evaluation(self):
        G = make_power(2.0)
        assert G(3.0) == pytest.approx(9.0)
        assert G.deriv(3.0) == pytest.approx(6.0)

    def test_exact_constants(self):
        G = make_power(2.0)
        assert G.doubling_constant == pytest.approx(4.0)
        assert G.upper_exponent == pytest.approx(2.0)
        assert G.lower_exponent == pytest.approx(2.0)

    def test_normalization(self):
        assert make_power(1.5)(1.0) == pytest.approx(1.0)

    def test_rejects_sublinear(self):
        with pytest.raises(InvalidParameterError):
            make_power(1.0)
        with pytest.raises(InvalidParameterError):
            make_power(0.5)


def _power_log_reference(p):
    """G, G', G'' of t**p (|log t| + 1) written with ``**``, zero at t <= 0
    (and G'' there infinite for p <= 2)."""
    def branches(fill, below, above):
        def f(x):
            x = np.asarray(x, dtype=float)
            out = np.full_like(x, fill)
            m = x > 0.0
            t, lg = x[m], np.log(x[m])
            out[m] = np.where(t < 1.0, below(t, lg), above(t, lg))
            return out
        return f

    def g(t, lg):
        return t ** p * (np.abs(lg) + 1.0)

    return (
        branches(0.0, g, g),
        branches(0.0,
                 lambda t, lg: t ** (p - 1.0) * (p * (1.0 - lg) - 1.0),
                 lambda t, lg: t ** (p - 1.0) * (p * (1.0 + lg) + 1.0)),
        branches(0.0 if p > 2.0 else math.inf,
                 lambda t, lg: t ** (p - 2.0)
                 * ((p - 1.0) * ((p - 1.0) - p * lg) - p),
                 lambda t, lg: t ** (p - 2.0)
                 * ((p - 1.0) * ((p + 1.0) + p * lg) + p)),
    )


def _power_reference(p):
    """G, G', G'' of |t|**p written with ``**``."""
    return (lambda x: np.abs(x) ** p,
            lambda x: p * np.abs(x) ** (p - 1.0),
            lambda x: p * (p - 1.0) * np.abs(x) ** (p - 2.0))


class TestIntegerPowers:
    """Integral exponents are taken by multiplication, not ``pow``: G, G'
    and G'' stay within 4 ulp of the ``**`` formulas everywhere, and
    non-integral exponents stay bit-identical to them."""

    X = np.concatenate([np.logspace(-300.0, 300.0, 4001), [0.0, np.inf,
                                                           np.nan]])
    # below the smallest normal number: subnormal results may differ by a
    # few units of their own spacing
    ATOL = np.finfo(float).tiny / 1024.0

    @pytest.mark.parametrize("G,ref", [
        (make_power(2.0), _power_reference(2.0)),
        (make_power(3.0), _power_reference(3.0)),
        (make_power(4.0), _power_reference(4.0)),
        (make_power_log(3.0), _power_log_reference(3.0)),
    ], ids=["power(2)", "power(3)", "power(4)", "power_log(3)"])
    def test_within_four_ulp_of_pow(self, G, ref):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for mine, theirs in zip((G, G.deriv, G.d2), ref):
                for x in (self.X, -self.X):
                    np.testing.assert_allclose(
                        mine(x), theirs(x), rtol=4.0 * np.finfo(float).eps,
                        atol=self.ATOL)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_power_is_even(self, p):
        G = make_power(p)
        with np.errstate(over="ignore", under="ignore"):
            for f in (G, G.deriv, G.d2):
                assert np.array_equal(f(-self.X), f(self.X), equal_nan=True)

    @pytest.mark.parametrize("G,ref", [
        (make_power(2.5), _power_reference(2.5)),
        (make_power_log(2.7), _power_log_reference(2.7)),
    ], ids=["power(2.5)", "power_log(2.7)"])
    def test_non_integral_exponent_is_bit_identical(self, G, ref):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for mine, theirs in zip((G, G.deriv, G.d2), ref):
                for x in (self.X, -self.X):
                    assert np.array_equal(mine(x), theirs(x), equal_nan=True)


class TestPowerLog:
    def test_evaluation(self):
        G = make_power_log(2.0)
        assert G(1.0) == pytest.approx(1.0)
        assert G(math.e) == pytest.approx(2.0 * math.e ** 2)

    def test_estimated_doubling(self):
        # sup G(2x)/G(x) is attained at the kink x = 1 with value 2^p (1+ln2);
        # the stored constant carries the 1.01 safety factor.
        G = make_power_log(2.0)
        raw = 4.0 * (1.0 + math.log(2.0))
        assert G.doubling_constant == pytest.approx(1.01 * raw, rel=1e-9)

    def test_estimated_upper_exponent(self):
        # x g(x)/G(x) = p + 1/(1 + log x) just right of the kink, so the
        # supremum is p + 1 (attained at x = 1 by right-continuity of g).
        G = make_power_log(2.0)
        assert G.upper_exponent == pytest.approx(1.01 * 3.0, rel=1e-9)

    def test_rejects_bad_exponent(self):
        with pytest.raises(InvalidParameterError):
            make_power_log(0.9)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.7])
    def test_is_power_plus_abslog(self, p):
        # t^p (|log t| + 1) = t^p + t^p |log t| on both sides of the kink.
        # G'' changes sign below 1, so the error is measured against the
        # size of the two terms, the scale of the sum's rounding.
        x = np.concatenate([np.logspace(-4, 4, 801),
                            [np.nextafter(1.0, 0.0), 1.0,
                             np.nextafter(1.0, 2.0)]])
        G = make_power_log(p)
        P, A = make_power(p), make_power_abslog(p)
        for name in ("__call__", "deriv", "d2"):
            terms = getattr(P, name)(x), getattr(A, name)(x)
            err = np.abs(getattr(G, name)(x) - (terms[0] + terms[1]))
            assert np.all(err <= 1e-14 * (np.abs(terms[0])
                                          + np.abs(terms[1]))), name


class TestLogWeightBranches:
    """G' and G'' of the log-weight family take one signed formula for
    both sides of the kink, and G skips the mask where every argument is
    positive: the bits of the two-branch, always-masked formulas."""

    @pytest.mark.parametrize("make,c", [(make_power_log, 1.0),
                                        (make_power_abslog, 0.0)],
                             ids=["power_log", "power_abslog"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.7])
    def test_same_bits_as_two_branches(self, make, c, p, rng):
        G = make(p)
        t = np.concatenate([rng.random(4000) * 3.0, np.logspace(-300, 3, 50),
                            [0.0, np.nextafter(1.0, 0.0), 1.0,
                             np.nextafter(1.0, 2.0)]])
        for x in (t, t[t > 0.0], np.float64(0.5), 2.0, 0.0):
            m = np.asarray(x) > 0.0
            xm = np.where(m, x, 1.0)
            lg = np.log(xm)
            below = xm < 1.0
            x1, x2 = _power(xm, p - 1.0), _power(xm, p - 2.0)
            ref = (
                np.where(m, _power(xm, p) * (np.abs(lg) + c), 0.0),
                np.where(m, np.where(below, x1 * (p * (c - lg) - 1.0),
                                     x1 * (p * (c + lg) + 1.0)), 0.0),
                np.where(m, np.where(
                    below, x2 * ((p - 1.0) * ((p * c - 1.0) - p * lg) - p),
                    x2 * ((p - 1.0) * ((p * c + 1.0) + p * lg) + p)),
                    0.0 if p > 2.0 else np.inf))
            for got, want in zip((G(x), G.deriv(x), G.d2(x)), ref):
                assert np.array_equal(got, want)


def _pow_by_product(a, e):
    """``_power`` as G, G' and G'' took it when each was its own callable:
    e = 3 as a * a * a, e = 4 as np.square(a * a)."""
    if e == 0.0:
        return np.ones_like(a)
    if e == 1.0:
        return a
    if e == 2.0:
        return a * a
    if e == 3.0:
        return a * a * a
    if e == 4.0:
        return np.square(a * a)
    return a ** e


def _three_power(p):
    """G, G', G'' of t^p as three callables, each taking |x|."""
    def d2(x):
        with np.errstate(divide="ignore"):
            return p * (p - 1.0) * _pow_by_product(np.abs(x), p - 2.0)
    return (lambda x: _pow_by_product(np.abs(x), p),
            lambda x: p * _pow_by_product(np.abs(x), p - 1.0), d2)


def _three_log_weight(p, c):
    """G, G', G'' of t^p (|log t| + c) as three callables, each with its
    own mask and log."""
    def positive(x):
        m = x > 0.0
        if m.all():
            return None, x, np.log(x)
        xm = np.where(m, x, 1.0)
        return m, xm, np.log(xm)

    def masked(m, val, at_zero=0.0):
        return val if m is None else np.where(m, val, at_zero)

    def fn(x):
        m, xm, lg = positive(x)
        return masked(m, _pow_by_product(xm, p) * (np.abs(lg) + c))

    def dfn(x):
        m, xm, lg = positive(x)
        sg = np.where(xm < 1.0, -1.0, 1.0)
        return masked(m, _pow_by_product(xm, p - 1.0)
                      * (p * (c + sg * lg) + sg))

    def d2fn(x):
        m, xm, lg = positive(x)
        sg = np.where(xm < 1.0, -1.0, 1.0)
        return masked(m, _pow_by_product(xm, p - 2.0)
                      * ((p - 1.0) * ((p * c + sg) + sg * (p * lg)) + sg * p),
                      0.0 if p > 2.0 else np.inf)

    return fn, dfn, d2fn


def _three_sum(parts):
    """The weighted sum of (w, callables) pairs, order by order."""
    return tuple((lambda x, i=i: sum(w * ref[i](x) for w, ref in parts))
                 for i in range(3))


def _three_max(refs):
    """The pointwise max and the attaining branch's derivatives, each
    order evaluating the branches' values anew."""
    def fn(x):
        return functools.reduce(np.maximum, [r[0](x) for r in refs])

    def attaining(x):
        vals = [r[0](x) for r in refs]
        top = functools.reduce(np.maximum, vals)
        floor = top - 1e-14 * np.maximum(top, 1.0)
        return [np.where(v >= floor, r[1](x), -np.inf)
                for v, r in zip(vals, refs)]

    def d2fn(x):
        pick = np.argmax(attaining(x), axis=0)
        return np.choose(pick, [r[2](x) for r in refs])

    return fn, lambda x: functools.reduce(np.maximum, attaining(x)), d2fn


def _three_compose(outer, inner):
    """The chain rule, each order evaluating the inner function anew."""
    def dfn(x):
        return outer[1](np.asarray(inner[0](x), dtype=float)) * inner[1](x)

    def d2fn(x):
        iv = np.asarray(inner[0](x), dtype=float)
        di = inner[1](x)
        return outer[2](iv) * di * di + outer[1](iv) * inner[2](x)

    return (lambda x: outer[0](np.asarray(inner[0](x), dtype=float)), dfn,
            d2fn)


def _three_density(dens):
    """`value` and the two derivatives of a limit density, each derivative
    its own sphere integral of the base."""
    G, n = dens.base, dens.dimension

    def dfn(a):
        pos = a > 0.0
        flux = sphere_integral(G, n, a, G.kinks)
        return np.where(pos, flux / np.where(pos, a, 1.0), 0.0)

    def d2fn(a):
        pos = a > 0.0
        curv = sphere_integral(lambda t: t * G.deriv(t) - G(t), n, a,
                               G.kinks)
        at_zero = 0.0 if pos.all() else (
            float(G.d2(0.0)) / 2.0 * sphere_moment(n, 2.0))
        return np.where(pos, curv / np.where(pos, a * a, 1.0), at_zero)

    return dens.value, dfn, d2fn


def _jet_cases():
    """(G, its G, G', G'' as three separate callables) per family."""
    cube = (lambda t: np.abs(t) ** 3, lambda t: 3.0 * t * np.abs(t),
            lambda t: 6.0 * np.abs(t))
    fd1 = _central_difference(cube[0], 1e-6)
    p2, p3, log3 = _three_power(2.0), _three_power(3.0), \
        _three_log_weight(3.0, 1.0)
    dens = limit_density(make_power_log(3.0), 1)
    # n = 2: the derivatives integrate both moments over the sphere's rule
    dens2 = limit_density(make_combination(
        "max", [make_power(2.0), make_power(3.0)]), 2)
    cases = [
        (make_power(1.5), _three_power(1.5)),
        (make_power(2.0), p2),
        (make_power(3.0), p3),
        (make_power(4.0), _three_power(4.0)),
        (make_power_log(3.0), log3),
        (make_power_abslog(2.0), _three_log_weight(2.0, 0.0)),
        (make_combination("sum", [make_power(2.0), make_power(3.0)],
                          [0.5, 2.0]), _three_sum([(0.5, p2), (2.0, p3)])),
        (make_combination("max", [make_power(2.0), make_power(3.0)]),
         _three_max([p2, p3])),
        (make_combination("max", [make_power(2.0), make_power_log(3.0),
                                  make_power(3.0)]),
         _three_max([p2, log3, p3])),
        (compose(make_power(2.0), make_power_log(3.0)),
         _three_compose(p2, log3)),
        (make_custom(*cube[:2], d2fn=cube[2], constants=(8.0, 3.0, 3.0)),
         cube),
        (make_custom(cube[0], constants=(8.0, 3.0, 3.0)),
         (cube[0], fd1, _central_difference(fd1, 1e-5))),
        (dens.as_orlicz(), _three_density(dens)),
        (dens2.as_orlicz(), _three_density(dens2)),
    ]
    return [pytest.param(G, ref, id=G.label) for G, ref in cases]


class TestJet:
    """``G(t, n)`` gives (G, G', G'')[:n] from one pass, with the bits of
    the three callables each family had before its jet, on arrays and on
    0-d arguments, at 0, 1, 1e-300, 1e6 and the kinks (a max's crossover
    points among them)."""

    @pytest.mark.parametrize("G,ref", _jet_cases())
    def test_same_bits_as_three_callables(self, G, ref):
        x = np.concatenate([[0.0, 1.0, 1e-300, 1e6, 0.3, 2.5], G.kinks])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for t in (x, *map(np.asarray, (0.0, 1.0, 1e-300, 1e6, 2.5))):
                want = [np.asarray(f(t)) for f in ref]
                for n in (1, 2, 3):
                    jet = G(t, n)
                    assert len(jet) == n
                    for got, w in zip(jet, want):
                        got = np.asarray(got)
                        assert got.shape == w.shape
                        assert got.tobytes() == w.tobytes()
                for got, w in zip((G(t), G.deriv(t), G.d2(t)), want):
                    assert np.asarray(got).tobytes() == w.tobytes()


class TestCombinations:
    def test_max_on_unit_interval(self):
        G = make_combination("max", [make_power(2.0), make_power(3.0)])
        assert G(0.5) == pytest.approx(0.25)

    def test_sum_zero_weight_drops_term(self):
        G = make_combination("sum", [make_power(2.0), make_power(3.0)],
                             [1.0, 0.0])
        assert G(2.0) == pytest.approx(4.0)

    def test_max_doubling_estimate(self):
        # ratio sup = 8 on the cubic branch, attained at the crossover x = 1
        G = make_combination("max", [make_power(2.0), make_power(3.0)])
        assert G.doubling_constant == pytest.approx(8.0 * 1.01, rel=1e-9)

    def test_empty_parts_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_combination("sum", [])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_combination("sum", [make_power(2.0)], [0.0])

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, w):
        # a nan weight would be dropped by the w > 0 filter and an infinite
        # one would fail later, in the function screening
        with pytest.raises(InvalidParameterError, match="finite"):
            make_combination("sum", [make_power(2.0), make_power(2.0)],
                             [w, 1.0])

    def test_non_monotone_max_rejected(self):
        dent = make_custom(
            lambda x: np.asarray(x, float) ** 2 * (1.0 + 0.5 * np.sin(
                3.0 * np.minimum(np.asarray(x, float), 10.0))),
            constants=(5.0, 3.0, 2.5), label="dented")
        with pytest.raises(InvalidFunctionError):
            make_combination("max", [dent, make_power(3.0)])

    @pytest.mark.parametrize("parts", [
        [make_power(2.0), make_power(3.0)],
        [make_power(2.0), make_power_log(3.0), make_power(3.0)],
    ])
    def test_max_matches_stacked_reference(self, parts):
        # the reference stacks the branches and applies the tie rule at once
        G = make_combination("max", parts)
        x = np.logspace(-3.0, 3.0, 4001)
        vals = np.stack([ch(x) for ch in parts])
        ders = np.stack([ch.deriv(x) for ch in parts])
        top = np.max(vals, axis=0)
        on_top = vals >= top - 1e-14 * np.maximum(top, 1.0)
        assert np.array_equal(G(x), top)
        assert np.array_equal(G.deriv(x),
                              np.max(np.where(on_top, ders, -np.inf), axis=0))

    def test_max_tie_takes_steeper_branch(self):
        G = make_combination("max", [make_power(2.0), make_power(3.0)])
        assert G.deriv(1.0) == 3.0

    def test_composition(self):
        G = compose(make_power(2.0), make_power(1.5))
        assert G(2.0) == pytest.approx(2.0 ** 3)
        assert G.upper_exponent >= 3.0


class TestEstimateConstants:
    def test_cube_grid_estimates(self):
        C, p, q = estimate_constants(make_power(3.0))
        assert C == pytest.approx(8.0 * 1.01, rel=1e-9)
        assert p == pytest.approx(3.0 * 1.01, rel=1e-9)
        assert q == pytest.approx(math.log2(8.08), rel=1e-9)


class TestConjugate:
    def test_square(self):
        # analytic a^2/4, via golden-section maximization of 2t - t^2
        assert conjugate(make_power(2.0), 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_zero(self):
        assert conjugate(make_power(2.0), 0.0) == 0.0

    def test_touching_identity(self):
        # at a = g(t0) the supremum is attained at t0
        G = make_power(2.0)
        t0 = 1.0
        a = float(G.deriv(t0))
        assert conjugate(G, a) == pytest.approx(a * t0 - float(G(t0)),
                                                abs=1e-9)

    def test_sublinear_conjugate_overflows(self):
        nearly_linear = make_custom(
            lambda x: np.asarray(x, float) * np.log1p(np.asarray(x, float))
            / np.log1p(1.0),
            constants=(4.0, 2.0, 2.0), label="log-linear")
        with pytest.raises(NumericOverflowError):
            conjugate(nearly_linear, 1e6)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            conjugate(make_power(2.0), -1.0)


class TestVerify:
    def test_square_passes(self):
        assert verify_orlicz(make_power(2.0)).all_passed

    def test_degenerate_linear_fails_decay(self):
        lin = make_custom(lambda x: np.asarray(x, dtype=float),
                          constants=(2.5, 1.01, 1.32), label="identity")
        report = verify_orlicz(lin)
        assert not report.h3.passed

    def test_abslog_fails_monotonicity(self):
        report = verify_orlicz(make_power_abslog(2.0))
        assert not report.h1.passed
        assert "monotonicity" in report.h1.detail
        # derivative changes sign at exp(-1/2), so the violation is left of 1
        assert math.exp(-0.5) < report.h1.worst_x <= 1.0


@given(st.floats(min_value=1.1, max_value=4.0),
       st.floats(min_value=1e-3, max_value=50.0),
       st.floats(min_value=1e-6, max_value=1.0 - 1e-9))
@settings(max_examples=200, deadline=None)
def test_contraction_property(p, a, b):
    G = make_power(p)
    assert float(G(a * b)) <= b * float(G(a)) * (1.0 + 1e-12)


@given(st.floats(min_value=1.1, max_value=4.0),
       st.floats(min_value=1.0, max_value=20.0),
       st.floats(min_value=1e-30, max_value=20.0))
@settings(max_examples=200, deadline=None)
def test_rescaling_upper_property(p, a, b):
    G = make_power(p)
    lhs = float(G(a * b))
    rhs = a ** G.upper_exponent * float(G(b))
    assert lhs <= rhs * (1.0 + 1e-12)


def test_instances_are_immutable():
    G = make_power(2.0)
    with pytest.raises(Exception):
        G.upper_exponent = 5.0


def test_stored_exponent_bounds_log_derivative():
    # a g(a)/G(a) <= p on sampled points, for every built-in
    from orliczfrac.properties import builtin_suite_functions

    a = np.logspace(-5, 5, 200)
    for G in builtin_suite_functions():
        ratio = a * G.deriv(a) / G(a)
        assert np.all(ratio <= G.upper_exponent * (1.0 + 1e-12)), G.label


def test_doubling_holds_on_sampled_grid():
    from orliczfrac.properties import builtin_suite_functions

    x = np.logspace(-5, 5, 200)
    for G in builtin_suite_functions():
        assert np.all(G(2.0 * x) <= G.doubling_constant * G(x)
                      * (1.0 + 1e-12)), G.label


D2_CASES = [
    make_power(1.5),
    make_power(2.0),
    make_power(3.0),
    make_power_log(3.0),
    make_power_log(1.5),
    make_power_abslog(3.0),
    make_power_abslog(1.5),
    make_combination("sum", [make_power(2.0), make_power_log(3.0)],
                     [0.5, 2.0]),
    make_combination("max", [make_power(2.0), make_power(3.0)]),
    compose(make_power(2.0), make_power_log(3.0)),
    make_custom(lambda x: np.asarray(x, float) ** 3,
                lambda x: 3.0 * np.asarray(x, float) ** 2, label="cube"),
]


@pytest.mark.parametrize("G", D2_CASES, ids=lambda G: G.label)
def test_second_derivative_matches_central_difference(G):
    x = np.logspace(-3, 2, 41)
    x = x[np.abs(x - 1.0) > 1e-2]       # every kink of the cases sits at 1
    h = 1e-6 * x
    fd = (G.deriv(x + h) - G.deriv(x - h)) / (2.0 * h)
    assert G.d2(x) == pytest.approx(fd, rel=1e-6, abs=1e-12)
    assert G.d2(float(x[5])) == pytest.approx(fd[5], rel=1e-6)


def test_second_derivative_at_kink_takes_the_derivative_branch():
    # deriv is right-continuous at t = 1; so is d2
    G = make_power_log(3.0)
    h = 1e-7
    right = (G.deriv(1.0 + 2 * h) - G.deriv(1.0)) / (2 * h)
    assert G.d2(1.0) == pytest.approx(right, rel=1e-5)


@pytest.mark.parametrize("p,at_zero", [(1.5, math.inf), (2.0, 2.0),
                                       (3.0, 0.0)])
def test_second_derivative_at_zero(p, at_zero):
    assert make_power(p).d2(0.0) == at_zero
    log_at_zero = 0.0 if p > 2.0 else math.inf
    assert make_power_log(p).d2(0.0) == log_at_zero
    assert make_power_abslog(p).d2(0.0) == log_at_zero
