import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import integrate

from orliczfrac import (
    DirichletProblem,
    GridFunction,
    InvalidInputError,
    InvalidParameterError,
    bbm_curve,
    fractional_modular,
    fractional_modular_with_gradient,
    make_combination,
    make_custom,
    make_power,
    make_power_log,
    solve,
)
from orliczfrac import fractional
from orliczfrac.properties import builtin_suite_functions
from orliczfrac._quadrature import gauss_rule_01
from orliczfrac.grid import _at_gauss_points
from orliczfrac.limit_density import LimitDensity, limit_density
from orliczfrac.fractional import (
    _add_element_terms,
    _core,
    _distinct_pairs,
    _far_field,
    _pair_orders,
    _same_element,
)
from orliczfrac.orlicz import OrliczFunction

from conftest import brute_force_seminorm

G2 = make_power(2.0)
G23 = make_combination("max", [make_power(2.0), make_power(3.0)])
# the same function without a closed-form limit density
G23_PLAIN = make_custom(G23, G23.deriv, kinks=G23.kinks)
# ... and with its exact G'': a custom kind, so every piece takes G's own rule
G23_EXACT = make_custom(G23, G23.deriv, d2fn=lambda x: G23(x, 3)[2],
                        kinks=G23.kinks)


def random_state(rng, n=33, amplitude=1.0):
    v = np.concatenate([[0.0], rng.normal(size=n - 2) * amplitude, [0.0]])
    return GridFunction(-1.0, 1.0, v)


class TestBasics:
    def test_zero_function(self):
        z = GridFunction.zeros(-1.0, 1.0, 65)
        assert fractional_modular(G2, 0.5, z) == 0.0

    def test_order_validation(self):
        u = GridFunction.hat(-1.0, 1.0, 17)
        for s in (0.0, 1.0, 1.5):
            with pytest.raises(InvalidParameterError):
                fractional_modular(G2, s, u)

    def test_quadratic_homogeneity(self):
        u = GridFunction.hat(-1.0, 1.0, 129)
        v1 = fractional_modular(G2, 0.5, u)
        v2 = fractional_modular(G2, 0.5, u * 2.0)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-14)

    def test_determinism(self):
        u = GridFunction.hat(-1.0, 1.0, 129)
        assert fractional_modular(G2, 0.37, u) == \
            fractional_modular(G2, 0.37, u)


class TestMultiOrder:
    """A 1-D sequence of orders: one pair pass, each entry bit-identical to
    the one-order value."""

    S = (0.9, 0.5, 0.995, 0.3, 0.5)  # unsorted, with a repeated order

    @pytest.mark.parametrize("n", [33, 1025])
    @pytest.mark.parametrize("shape", ["hat", "random"])
    @pytest.mark.parametrize("G", [
        G2, make_power(3.0), make_power(1.5), G23, make_power_log(3.0),
        make_combination("sum", [make_power(2.0), make_power(3.0)],
                         [0.5, 2.0]),
    ], ids=lambda G: G.label)
    def test_matches_one_order_at_a_time(self, G, shape, n, rng):
        if shape == "hat":
            u = GridFunction.hat(-1.0, 1.0, n)
        else:
            u = random_state(rng, n)
        multi = fractional_modular(G, self.S, u)
        assert multi.dtype == float and multi.shape == (len(self.S),)
        assert np.array_equal(
            multi, [fractional_modular(G, s, u) for s in self.S])

    def test_scalar_order_returns_float(self):
        u = GridFunction.hat(-1.0, 1.0, 17)
        for s in (0.5, np.float64(0.5), np.array(0.5)):
            assert type(fractional_modular(G2, s, u)) is float
        one = fractional_modular(G2, [0.5], u)
        assert isinstance(one, np.ndarray) and one.shape == (1,)

    @pytest.mark.parametrize("s", [[], [0.5, 1.0], [0.0, 0.5], [[0.5, 0.9]],
                                   [0.5, float("nan")]])
    def test_invalid_orders(self, s):
        u = GridFunction.hat(-1.0, 1.0, 17)
        with pytest.raises(InvalidParameterError):
            fractional_modular(G2, s, u)

    # the gradient path takes one order; a 0-D array is one
    @pytest.mark.parametrize("s", [[0.5, 0.6], [0.5], np.array([0.5])])
    def test_derivative_paths_reject_a_sequence(self, s):
        u = GridFunction.hat(-1.0, 1.0, 17)
        with pytest.raises(InvalidParameterError):
            fractional_modular_with_gradient(G2, s, u)

    def test_derivative_paths_take_a_0d_order(self):
        u = GridFunction.hat(-1.0, 1.0, 17)
        val, _ = fractional_modular_with_gradient(G2, np.array(0.5), u)
        assert val == fractional_modular_with_gradient(G2, 0.5, u)[0]

    def test_curve_sweeps_the_pairs_once(self, monkeypatch):
        calls = []
        bands = fractional._pair_bands

        def counted(*args):
            calls.append(args[0])
            return bands(*args)

        monkeypatch.setattr(fractional, "_pair_bands", counted)
        u = GridFunction.hat(-1.0, 1.0, 65)
        bbm_curve(G2, u, [0.9, 0.95, 0.99])
        assert len(calls) == 1
        assert np.array_equal(calls[0], [0.9, 0.95, 0.99])


CUBE = make_custom(lambda t: np.abs(t) ** 3, lambda t: 3.0 * t * np.abs(t),
                   label="custom(t^3)", d2fn=lambda t: 6.0 * np.abs(t))


class TestStatesAxis:
    """`_core` on k orders, each at its own nodal vector or all at one:
    every state's value, gradient and Hessian are bit-identical to its
    one-state call."""

    # s = 0.5 takes numpy's sqrt path for a lone exponent 1 - s; for
    # max(t^2, t^3) the amplitudes put some states' arguments all below the
    # kink at 1 and others above it, so a block gives each state its rule
    ORDERS = (0.6, 0.9, 0.5, 0.3)
    AMPLITUDES = (0.3, 3.0, 1.0, 0.01)

    @pytest.mark.parametrize("shared", [False, True],
                             ids=["distinct", "shared"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("n", [3, 4, 33, 129])
    @pytest.mark.parametrize("G", [make_power(3.0), make_power_log(3.0),
                                   CUBE, G23], ids=lambda G: G.label)
    def test_each_state_matches_its_one_state_call(self, G, n, k, shared,
                                                    rng):
        orders = self.ORDERS[:k]
        states = [random_state(rng, n, a) for a in self.AMPLITUDES[:k]]
        if shared:
            states = [states[-1]] * k
        stacked = states[0] if shared else states
        for want_grad, want_hess in ((False, False), (True, False),
                                     (True, True)):
            got = _core(G, np.array(orders), stacked, want_grad=want_grad,
                        want_hess=want_hess)
            for i, (s, u) in enumerate(zip(orders, states)):
                one = _core(G, s, u, want_grad=want_grad,
                            want_hess=want_hess)
                assert len(got) == len(one)
                for a, b in zip(got, one):
                    if b is None:
                        assert a is None
                    else:
                        assert a.shape[0] == k
                        assert np.array_equal(a[i], b)

    def test_far_field_chunks_take_their_own_rules(self, rng, monkeypatch):
        # the max's states alternate below T = 1 and past it: the far field
        # takes no chunks of states, and takes the four states one by one
        n = 129
        orders = np.array(self.ORDERS)
        states = [random_state(rng, n, a) for a in (0.01, 3.0, 0.01, 3.0)]
        modes = ((False, False), (True, False), (True, True))
        far, sizes = fractional._far_field, []

        def recorded(G, s, *args):
            sizes.append(len(s))
            return far(G, s, *args)

        with monkeypatch.context() as m:
            m.setattr(fractional, "_far_field", recorded)
            got = [_core(G23, orders, states, want_grad=want_grad,
                         want_hess=want_hess)
                   for want_grad, want_hess in modes]
        assert sizes == [4, 1, 1, 1, 1] * len(modes)
        for out, (want_grad, want_hess) in zip(got, modes):
            for i, (s, u) in enumerate(zip(orders, states)):
                one = _core(G23, s, u, want_grad=want_grad,
                            want_hess=want_hess)
                assert len(out) == len(one)
                for a, b in zip(out, one):
                    if b is None:
                        assert a is None
                    else:
                        assert np.array_equal(a[i], b)

    @pytest.mark.parametrize("G", [make_power(3.0), G23],
                             ids=lambda G: G.label)
    def test_far_field_takes_one_profile_for_a_shared_row(self, G,
                                                          monkeypatch):
        # three orders on the hat at 1025 nodes, as a bbm curve: t^p's
        # profile at |U| serves all of them from one evaluation
        calls = []
        value = LimitDensity.value
        monkeypatch.setattr(LimitDensity, "value",
                            lambda self, a: calls.append(a) or value(self, a))
        u = GridFunction.hat(-1.0, 1.0, 1025)
        for want_grad, want_hess in ((False, False), (True, False),
                                     (True, True)):
            calls.clear()
            _far_field(G, np.array([0.9, 0.95, 0.99]), u, u.values[None],
                       want_grad, want_hess)
            assert len(calls) == 1

    @pytest.mark.parametrize("G", [make_power(3.0), make_power_log(3.0),
                                   G23], ids=lambda G: G.label)
    def test_far_field_stacks_keep_the_bits_at_513_nodes(self, G, rng):
        # more far-field points per state than 2^14 / 4: a stack of four
        # states, a row each, and one of three orders on a shared row
        n = 513
        states = [random_state(rng, n, a) for a in self.AMPLITUDES]
        rows = np.stack([u.values for u in states])
        u = states[0]
        for orders, stack in ((np.array(self.ORDERS), rows),
                              (np.array(self.ORDERS[:3]), rows[:1])):
            for want_grad, want_hess in ((False, False), (True, False),
                                         (True, True)):
                got = _far_field(G, orders, u, stack, want_grad, want_hess)
                for i, s in enumerate(orders):
                    one = _far_field(G, orders[i:i + 1], u,
                                     stack[i % len(stack)][None], want_grad,
                                     want_hess)
                    for a, b in zip(got, one):
                        assert b is None and a is None or same_bits(
                            a[i:i + 1], b)

    def test_states_take_their_own_pair_rules(self, rng, monkeypatch):
        # one state below the least power's range, one above it: some
        # blocks give each state its own rule, t^2's or G's
        rules = fractional._pair_rule
        split = []

        def recorded(G, on, du, kern, block, weight, n=1):
            out = rules(G, on, du, kern, block, weight, n)
            if len(du) > 1:
                split.append(out is None)
            return out

        states = [random_state(rng, 33, 0.01), random_state(rng, 33, 3.0)]
        monkeypatch.setattr(fractional, "_pair_rule", recorded)
        got = _core(G23, np.array([0.6, 0.9]), states, want_grad=True,
                    want_hess=True)
        monkeypatch.undo()
        assert any(split)
        for i, (s, u) in enumerate(zip([0.6, 0.9], states)):
            one = _core(G23, s, u, want_grad=True, want_hess=True)
            assert all(np.array_equal(a[i], b) for a, b in zip(got, one))

    def test_rows_are_built_once_per_call(self, rng, monkeypatch):
        # `_core` builds the (mesh, rows) pair once and hands it to every
        # piece, for one state and for a stack
        nodal, calls = fractional._nodal, []

        def counted(u, k):
            calls.append(u)
            return nodal(u, k)

        monkeypatch.setattr(fractional, "_nodal", counted)
        states = [random_state(rng, 17), random_state(rng, 17)]
        for s, u in ((0.6, states[0]), (np.array([0.6, 0.9]), states)):
            calls.clear()
            _core(G23, s, u, want_grad=True, want_hess=True)
            assert calls == [u]

    def test_states_share_a_mesh(self):
        u = GridFunction.hat(-1.0, 1.0, 17)
        with pytest.raises(InvalidInputError):
            _core(G2, np.array([0.5, 0.6]),
                  [u, GridFunction.hat(-1.0, 2.0, 17)], want_grad=True)

    def test_states_are_one_or_one_per_order(self, rng):
        # a sequence of one state serves every order as its row; any other
        # length but one state per order, none included, is refused
        G, orders = make_power(3.0), np.array([0.5, 0.7, 0.9])
        u, v = random_state(rng), random_state(rng)
        with pytest.raises(InvalidInputError):
            fractional_modular(G, [0.5], [u, u * 2.0])
        with pytest.raises(InvalidInputError):
            fractional_modular(G, 0.5, [])
        for states in ([u, v], [], [u, v, u, v]):
            with pytest.raises(InvalidInputError):
                _core(G, orders, states, want_grad=False)
        one = _core(G, orders, [u], want_grad=True, want_hess=True)
        shared = _core(G, orders, u, want_grad=True, want_hess=True)
        assert all(np.array_equal(a, b) for a, b in zip(one, shared))


def power_log3_profile(w):
    """int_0^w v^2 (|log v| + 1) dv."""
    lg = np.log(np.where(w > 0.0, w, 1.0))
    cube = w ** 3 / 3.0
    return np.where(w <= 1.0, cube * (4.0 / 3.0 - lg),
                    cube * (2.0 / 3.0 + lg) + 2.0 / 9.0)


def max23_profile(w):
    """int_0^w max(v, v^2) dv."""
    return np.where(w <= 1.0, w * w / 2.0, w ** 3 / 3.0 + 1.0 / 6.0)


class TestSameElementPiece:
    @pytest.mark.parametrize("G,s,m", [
        (make_power(2.0), 0.5, 1.3),
        (make_power(3.0), 0.9, 0.4),
        (make_power_log(2.0), 0.5, 2.1),
        (make_combination("max", [make_power(2.0), make_power(3.0)]),
         0.75, 5.0),
    ])
    def test_against_adaptive_quadrature(self, G, s, m):
        h = 1.0 / 64.0
        val = _same_element(G, np.array([s]), h, np.array([[m]]),
                            want_grad=False)[0][0]

        def integrand(t):
            return (h - t) * float(G(abs(m) * t ** (1.0 - s))) / t

        ref, _ = integrate.quad(integrand, 0.0, h, epsabs=1e-16,
                                epsrel=1e-12, limit=400)
        assert val == pytest.approx(2.0 * ref, rel=1e-7)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_generic_branch_matches_closed_form(self, p):
        # t^p outside its family, with exact G' and G'': the generic branch
        # against the closed form, up to s = 0.9999
        closed = make_power(p)
        plain = make_custom(closed, closed.deriv,
                            d2fn=lambda x: closed(x, 3)[2])
        for s in (0.1, 0.5, 0.9, 0.99, 0.999, 0.9999):
            for h in (1.0 / 64.0, 1.0 / 512.0):
                for m in (0.3, 1.3, 5.0, 40.0):
                    got = _same_element(plain, np.array([s]), h,
                                        np.array([[m]]), True, True)
                    ref = _same_element(closed, np.array([s]), h,
                                        np.array([[m]]), True, True)
                    for a, b in zip(got, ref):
                        assert np.asarray(a) == pytest.approx(
                            np.asarray(b), rel=1e-13)

    @pytest.mark.parametrize("G,profile", [
        (make_power_log(3.0), power_log3_profile),
        (G23, max23_profile),
        (G23_PLAIN, max23_profile),
    ], ids=["power_log(3)", "max(power(2), power(3))",
            "max_without_closed_form"])
    def test_kinked_against_exact_profile(self, G, profile):
        # 2*int_0^h (h-t) G(m t^e) dt/t = (2h/e) I(c) - 2h int_0^1 G(c r^e) dr
        # with e = 1-s and c = m h^e: the exact profile I, and the smooth
        # integral by adaptive quadrature in r = exp(-y), split at the kink
        for s in (0.1, 0.5, 0.9, 0.99, 0.999):
            e = 1.0 - s
            for h in (1.0 / 64.0, 1.0 / 512.0):
                for m in (0.3, 1.3, 5.0, 40.0):
                    c = m * h ** e

                    def smooth(y):
                        return float(G(c * np.exp(-e * y))) * np.exp(-y)

                    edges = [0.0, *([np.log(c) / e] if c > 1.0 else []),
                             np.inf]
                    tail = sum(integrate.quad(smooth, lo, hi, epsabs=0.0,
                                              epsrel=1e-13, limit=400)[0]
                               for lo, hi in zip(edges[:-1], edges[1:]))
                    ref = (2.0 * h / e) * float(profile(c)) - 2.0 * h * tail
                    val = _same_element(G, np.array([s]), h, np.array([[m]]),
                                        False)[0][0]
                    assert val == pytest.approx(ref, rel=1e-11)

    def test_gradient_matches_value_derivative(self):
        G = make_power_log(2.0)
        h = 1.0 / 32.0
        m, s = np.array([[0.8]]), np.array([0.6])
        der = _same_element(G, s, h, m, want_grad=True)[1][0]
        eps = 1e-7
        up = _same_element(G, s, h, m + eps, want_grad=False)[0][0]
        dn = _same_element(G, s, h, m - eps, want_grad=False)[0][0]
        assert der[0] == pytest.approx((up - dn) / (2 * eps), rel=1e-6)


class TestOracleAgreement:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_hat(self, s):
        u = GridFunction.hat(-1.0, 1.0, 129)
        val = fractional_modular(G2, s, u)
        ref = brute_force_seminorm(G2, s, u)
        assert val == pytest.approx(ref, rel=1e-2)

    def test_hat_fine_mesh(self):
        u = GridFunction.hat(-1.0, 1.0, 513)
        val = fractional_modular(G2, 0.5, u)
        ref = brute_force_seminorm(G2, 0.5, u)
        assert val == pytest.approx(ref, rel=1e-2)

    def test_random_nonpower_kind(self, rng):
        G = make_combination("max", [make_power(2.0), make_power(3.0)])
        u = random_state(rng, n=65, amplitude=0.8)
        for s in (0.25, 0.6):
            val = fractional_modular(G, s, u)
            ref = brute_force_seminorm(G, s, u)
            assert val == pytest.approx(ref, rel=1e-2)


class TestGradient:
    @pytest.mark.parametrize("s", [0.5, 0.9])
    def test_finite_difference_consistency(self, s, rng):
        # 33 nodes span all four pair-order bands of order 5. A central
        # difference of a computed value carries a rounding error of about
        # ulp(val) / eps, which the absolute floor of the newer cases
        # admits: power_log(3) reaches val ~ 1e3 on this state, so a
        # one-ulp change is 1e-7 in the difference quotient.
        u = random_state(rng, n=33)
        eps = 1e-6
        for G, ulps in ((G2, 0.0), (make_power_log(3.0), 4.0), (G23, 4.0)):
            val, grad = fractional_modular_with_gradient(G, s, u)
            atol = max(1e-10, ulps * np.spacing(val) / eps)
            for i in range(u.node_count):
                vp = u.values.copy()
                vm = u.values.copy()
                vp[i] += eps
                vm[i] -= eps
                fd = (fractional_modular(G, s, u.with_values(vp))
                      - fractional_modular(G, s, u.with_values(vm))) \
                    / (2 * eps)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=atol)

    @pytest.mark.parametrize("s", [0.5, 0.9])
    def test_finite_difference_in_blocks_of_offsets(self, s, rng):
        # at 129 nodes the bands split into blocks of several offsets, the
        # last ones padded (see TestPairBlocks)
        u = random_state(rng, n=129)
        eps = 1e-6
        val, grad = fractional_modular_with_gradient(G23, s, u)
        atol = max(1e-10, 4.0 * np.spacing(val) / eps)
        for i in range(u.node_count):
            vp = u.values.copy()
            vm = u.values.copy()
            vp[i] += eps
            vm[i] -= eps
            fd = (fractional_modular(G23, s, u.with_values(vp))
                  - fractional_modular(G23, s, u.with_values(vm))) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=atol)

    # Phi_s(-u) = Phi_s(u): every piece reads |u(x) - u(y)|, or |u| in the
    # far field, and takes its sign back only in the derivative
    @pytest.mark.parametrize("G", [make_power(3.0), make_power_log(3.0),
                                   G23], ids=lambda G: G.label)
    def test_even_value_odd_gradient(self, G, rng):
        u = random_state(rng, n=33)
        val, grad = fractional_modular_with_gradient(G, 0.6, u)
        neg_val, neg_grad = fractional_modular_with_gradient(G, 0.6, u * -1.0)
        assert neg_val == val
        assert np.array_equal(neg_grad, -grad)

    # x -> -x maps (-1, 1) to itself and keeps |x - y|, so a reflected state
    # has the same modular and the reflected gradient, up to the order of
    # the sums
    @pytest.mark.parametrize("G", [make_power(3.0), make_power_log(3.0),
                                   G23], ids=lambda G: G.label)
    def test_reflection_invariance(self, G, rng):
        u = random_state(rng, n=33)
        val, grad = fractional_modular_with_gradient(G, 0.6, u)
        ref_val, ref_grad = fractional_modular_with_gradient(
            G, 0.6, u.with_values(u.values[::-1]))
        assert ref_val == pytest.approx(val, rel=1e-12)
        np.testing.assert_allclose(ref_grad[::-1], grad, rtol=1e-11,
                                   atol=1e-12 * np.max(np.abs(grad)))

    def test_zero_state_gradient_vanishes(self):
        z = GridFunction.zeros(-1.0, 1.0, 33)
        val, grad = fractional_modular_with_gradient(G2, 0.5, z)
        assert val == 0.0
        assert not np.any(grad)


def far_field_reference(profile, s, u, order=5):
    """(iii) written out: the exact profile I at every element Gauss point,
    for the partner beyond either end."""
    h = u.spacing
    x, w = gauss_rule_01(order)
    X = u.left + h * (np.arange(u.node_count - 1)[:, None] + x[None, :])
    U = u.values[:-1, None] * (1.0 - x) + u.values[1:, None] * x
    return sum((2.0 * h / s) * float(np.sum(w * profile(np.abs(U) * d ** -s)))
               for d in (u.right - X, X - u.left))


class TestHessian:
    """`_core(..., want_hess=True)` is the derivative of its own gradient."""

    @pytest.mark.parametrize("s", [0.5, 0.9])
    @pytest.mark.parametrize("G", [
        G2, make_power(3.0), make_power_log(3.0), G23,
    ], ids=lambda G: G.label)
    def test_matches_central_difference_of_gradient(self, G, s, rng):
        u = random_state(rng, n=33, amplitude=0.4)
        val, grad, hess = _core(G, s, u, want_grad=True, want_hess=True)
        ref_val, ref_grad = _core(G, s, u, want_grad=True)
        assert val == ref_val and np.array_equal(grad, ref_grad)
        assert np.array_equal(hess, hess.T)
        eps = 1e-6
        fd = np.empty_like(hess)
        for i in range(u.node_count):
            vp = u.values.copy()
            vm = u.values.copy()
            vp[i] += eps
            vm[i] -= eps
            fd[:, i] = (_core(G, s, u.with_values(vp), want_grad=True)[1]
                        - _core(G, s, u.with_values(vm), want_grad=True)[1]
                        ) / (2.0 * eps)
        assert np.max(np.abs(hess - fd)) <= 1e-6 * np.max(np.abs(hess))

    @pytest.mark.parametrize("G", [make_power(3.0), make_power_log(3.0),
                                   G23], ids=lambda G: G.label)
    def test_central_difference_in_blocks_of_offsets(self, G, rng):
        # 129 nodes: bands of several blocks of several offsets, whose cross
        # terms land on several diagonals per block (see TestPairBlocks);
        # for G23 some blocks take t^2's rule and the others G's own
        u = random_state(rng, n=129, amplitude=0.4)
        hess = _core(G, 0.7, u, want_grad=True, want_hess=True)[2]
        eps = 1e-6
        fd = np.empty_like(hess)
        for i in range(u.node_count):
            vp = u.values.copy()
            vm = u.values.copy()
            vp[i] += eps
            vm[i] -= eps
            fd[:, i] = (_core(G, 0.7, u.with_values(vp), want_grad=True)[1]
                        - _core(G, 0.7, u.with_values(vm), want_grad=True)[1]
                        ) / (2.0 * eps)
        assert np.max(np.abs(hess - fd)) <= 1e-6 * np.max(np.abs(hess))

    @pytest.mark.parametrize("s", [0.5, 0.9])
    @pytest.mark.parametrize("seed", range(6))
    def test_central_difference_with_a_difference_quotient_d2(self, s, seed):
        # G23_PLAIN has no d2fn, so its G'' is a central difference of G';
        # the same-element block reads G and G' only
        u = random_state(np.random.default_rng(seed), n=33, amplitude=0.4)
        hess = _core(G23_PLAIN, s, u, want_grad=True, want_hess=True)[2]
        eps = 1e-6
        fd = np.empty_like(hess)
        for i in range(u.node_count):
            vp = u.values.copy()
            vm = u.values.copy()
            vp[i] += eps
            vm[i] -= eps
            fd[:, i] = (_core(G23_PLAIN, s, u.with_values(vp), True)[1]
                        - _core(G23_PLAIN, s, u.with_values(vm), True)[1]
                        ) / (2.0 * eps)
        assert np.max(np.abs(hess - fd)) <= 1e-6 * np.max(np.abs(hess))

    def test_square_hessian_is_constant(self, rng):
        # for t^2 the modular is a quadratic form, so its Hessian does not
        # depend on u and Phi_s(u) = u^T H u / 2
        u = random_state(rng, n=17)
        hess = _core(G2, 0.6, u, want_grad=True, want_hess=True)[2]
        zero = _core(G2, 0.6, u.with_values(0.0 * u.values),
                     want_grad=True, want_hess=True)[2]
        assert hess == pytest.approx(zero, rel=1e-12, abs=1e-12)
        assert fractional_modular(G2, 0.6, u) == pytest.approx(
            0.5 * u.values @ hess @ u.values, rel=1e-12)


class TestSquareHessian:
    """t^2's pair Hessian is formed per offset: its blocks add nothing per
    pair, and a per-offset table gives each element's sums and one
    Toeplitz interior, row 0 and the last column. The modular is then
    exactly quadratic: H u = grad Phi(u) and u^T H u = 2 Phi(u)."""

    SIZES = [2, 3, 4, 5, 9, 33, 129, 257]
    ORDERS = (0.1, 0.5, 0.9, 0.99)

    @staticmethod
    def state(rng, n):
        # nonzero boundary values: row 0 and the last column take part
        return GridFunction(-1.0, 1.0, rng.normal(size=n))

    @staticmethod
    def assert_quadratic(val, grad, hess, v):
        assert np.array_equal(hess, hess.T)
        assert np.max(np.abs(hess @ v - grad)) <= \
            1e-12 * np.max(np.abs(grad))
        assert v @ hess @ v == pytest.approx(2.0 * val, rel=1e-12)

    @pytest.mark.parametrize("s", ORDERS)
    @pytest.mark.parametrize("n", SIZES)
    def test_identities(self, n, s):
        u = self.state(np.random.default_rng(n), n)
        self.assert_quadratic(*_core(G2, s, u, True, True), u.values)

    @pytest.mark.parametrize("orders", [ORDERS[:3], ORDERS[1:]],
                             ids=["0.1-0.9", "0.5-0.99"])
    @pytest.mark.parametrize("n", SIZES)
    def test_stacks_keep_each_state_bits(self, n, orders):
        rng = np.random.default_rng(n)
        states = [self.state(rng, n) for _ in orders]
        got = _core(G2, np.array(orders), states, True, True)
        for i, (s, u) in enumerate(zip(orders, states)):
            one = _core(G2, s, u, True, True)
            assert all(same_bits(a[i], b) for a, b in zip(got, one))
            self.assert_quadratic(*one, u.values)

    @pytest.mark.parametrize("case", ["t^2", "t^2 zero state", "max on hat"])
    def test_blocks_add_no_cross_terms(self, case, monkeypatch):
        # under t^2's rule a block's Hessian is its per-offset table: no
        # strided cross view (`_add_diagonals`), no skewed sum (`_skew_sum`)
        # and no repeat over the elements, beyond the gradient's own
        G, u = G2, random_state(np.random.default_rng(5), 129)
        if case == "t^2 zero state":
            u = u.with_values(0.0 * u.values)
        elif case == "max on hat":  # every pair argument below 1
            G, u = G23, GridFunction.hat(-1.0, 1.0, 129)
        block = fractional._pair_block
        counts = {"_add_diagonals": 0, "_skew_sum": 0, "repeat": 0}
        inside = []

        def spy(name, f):
            def counted(*args, **kwargs):
                counts[name] += bool(inside)
                return f(*args, **kwargs)
            return counted

        def recorded(*args, **kwargs):
            inside.append(True)
            try:
                return block(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(fractional, "_pair_block", recorded)
        for name in ("_add_diagonals", "_skew_sum"):
            monkeypatch.setattr(fractional, name,
                                spy(name, getattr(fractional, name)))
        monkeypatch.setattr(np, "repeat", spy("repeat", np.repeat))
        _core(G, 0.7, u, True)
        gradient = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        _core(G, 0.7, u, True, True)
        assert counts == gradient
        assert counts["_add_diagonals"] == counts["repeat"] == 0
        if case == "t^2 zero state":  # no gradient pass either
            assert counts["_skew_sum"] == 0


class TestZeroState:
    """At the zero state (every row 0, G(0) = 0) `_core` makes no value or
    gradient pass: the value is 0.0 and the gradient +0.0, and with
    ``want_hess`` the Hessian alone is assembled, with the full pass's
    bits."""

    MODES = [(False, False), (True, False), (True, True)]

    @staticmethod
    def full_pass(monkeypatch, G, s, u, *modes):
        with monkeypatch.context() as m:
            m.setattr(fractional, "_zero_state", lambda G, rows: False)
            return _core(G, s, u, *modes)

    @staticmethod
    def row_dots(monkeypatch):
        calls, dots = [], fractional._row_dots
        monkeypatch.setattr(fractional, "_row_dots",
                            lambda *a: calls.append(a) or dots(*a))
        return calls

    @pytest.mark.parametrize("modes", MODES, ids=["value", "grad", "hess"])
    @pytest.mark.parametrize("orders", [0.6, (0.3, 0.6, 0.9)],
                             ids=["1 order", "3 orders"])
    @pytest.mark.parametrize("G", builtin_suite_functions(),
                             ids=lambda G: G.label)
    def test_no_pass_and_the_full_pass_bits(self, G, orders, modes,
                                            monkeypatch):
        z = GridFunction.zeros(-1.0, 1.0, 33)
        s = np.array(orders)
        u = z if s.ndim == 0 else [z] * len(s)
        calls = self.row_dots(monkeypatch)
        got = _core(G, s, u, *modes)
        assert calls == []
        full = self.full_pass(monkeypatch, G, s, u, *modes)
        assert calls
        assert len(got) == len(full)
        assert np.all(got[0] == 0.0) and not np.any(np.signbit(got[0]))
        if modes[0]:
            assert np.all(got[1] == 0.0) and not np.any(np.signbit(got[1]))
        for a, b in zip(got, full):
            assert b is None and a is None or same_bits(np.asarray(a),
                                                        np.asarray(b))
        if G.label == "power(1.5)" and modes[1]:  # G''(0) = inf
            assert np.isnan(got[2]).any() and np.isinf(got[2]).any()

    def test_nonzero_at_zero_takes_the_full_pass(self, monkeypatch):
        G = make_custom(lambda t: 1.0 + t * t, lambda t: 2.0 * t,
                        d2fn=lambda t: 2.0 + 0.0 * t)
        z = GridFunction.zeros(-1.0, 1.0, 17)
        calls = self.row_dots(monkeypatch)
        for modes in self.MODES:
            calls.clear()
            got = _core(G, 0.6, z, *modes)
            assert calls and got[0] > 0.0
            full = self.full_pass(monkeypatch, G, 0.6, z, *modes)
            assert all(b is None and a is None or same_bits(
                np.asarray(a), np.asarray(b)) for a, b in zip(got, full))

    @pytest.mark.parametrize("G", [G2, make_power(3.0), G23],
                             ids=lambda G: G.label)
    def test_a_stack_with_one_zero_row_takes_the_full_pass(self, G, rng,
                                                          monkeypatch):
        # the stack is not the zero state; its zero row keeps the bits of
        # its lone call, which is
        states = [GridFunction.zeros(-1.0, 1.0, 33), random_state(rng, 33)]
        orders = np.array([0.6, 0.9])
        calls = self.row_dots(monkeypatch)
        for modes in self.MODES:
            calls.clear()
            got = _core(G, orders, states, *modes)
            assert calls
            for i, (s, u) in enumerate(zip(orders, states)):
                one = _core(G, s, u, *modes)
                assert all(b is None and a is None or same_bits(
                    np.asarray(a[i]), np.asarray(b)) for a, b in zip(got, one))

    @pytest.mark.parametrize("orders", [0.6, (0.3, 0.6, 0.9)],
                             ids=["1 order", "3 orders"])
    @pytest.mark.parametrize("n", [33, 257])
    @pytest.mark.parametrize("G", [G2, G23], ids=lambda G: G.label)
    def test_square_hessian_reads_the_weight_tables_alone(self, G, n, orders,
                                                          monkeypatch):
        # under t^2's rule the zero state's pair Hessian folds the weight
        # tables: it forms no difference (`_pair_bands`) and pads nothing
        # (`_drop_padding`)
        z = GridFunction.zeros(-1.0, 1.0, n)
        s = np.array(orders)
        u = z if s.ndim == 0 else [z] * len(s)
        calls = []
        for name in ("_pair_bands", "_drop_padding"):
            def spy(*args, name=name, f=getattr(fractional, name)):
                calls.append(name)
                return f(*args)
            monkeypatch.setattr(fractional, name, spy)
        got = _core(G, s, u, True, True)
        assert calls == []
        full = self.full_pass(monkeypatch, G, s, u, True, True)
        assert "_pair_bands" in calls
        assert all(same_bits(np.asarray(a), np.asarray(b))
                   for a, b in zip(got, full))


class TestHessianMemory:
    """A Hessian pass holds the Hessian and a few arrays of a pair block's
    size at a time. Its peak traced memory (`tracemalloc`, numpy's arrays
    included) at 257 nodes, after a first call that builds the cached pair
    tables, stays under the Hessian's bytes plus ``arrays`` arrays of
    `_BLOCK_POINTS` floats."""

    @pytest.mark.parametrize("G, zero, arrays", [
        (make_power(3.0), False, 7), (G2, True, 3)],
        ids=["power(3)", "power(2) zero state"])
    def test_peak_traced_memory(self, G, zero, arrays):
        n = 257
        u = random_state(np.random.default_rng(3), n)
        if zero:
            u = u.with_values(0.0 * u.values)
        _core(G, 0.7, u, True, True)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _core(G, 0.7, u, True, True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 8 * (n * n + arrays * fractional._BLOCK_POINTS)


def add_element_blocks(hess, a, b, W):
    """The Hessian part of the element scatter, as written out before
    `_add_element_terms`."""
    fractional._add_diagonals(hess, 0, 0, (a * a) @ W)
    fractional._add_diagonals(hess, 1, 0, (a * b) @ W)
    fractional._add_diagonals(hess, 0, 1, (b * b) @ W)


def far_field_by_hand(G, s, u, power=True):
    """(value, flux, curvature, Gauss nodes) of the far field, flux and
    curvature per element and Gauss point (elements x points). With
    ``power``, where G is t^p on the range of every argument, t^p's
    profile at |U| times the sum over both ends of dist**(-s p); else G's
    own profile at |U| dist**(-s) per end."""
    h = u.spacing
    xg, wg = gauss_rule_01(5)
    X = (u.left + h * np.arange(u.node_count - 1))[:, None] + h * xg[None, :]
    dist = np.stack([u.right - X, X - u.left])
    kern = dist ** (-s)
    U = _at_gauss_points(u.values, xg)
    on = fractional._power_on(G)
    if power and on is not None and \
            np.max(np.abs(U) * kern) * (1.0 + 1e-12) < on[1]:
        p = on[0].params[0]
        tilde = limit_density(on[0], 1)
        ends = np.sum(dist ** (-s * p), axis=0)
        a = np.abs(U)
        val = (2.0 * h / s) * float(np.sum(wg * (tilde.value(a) / 2.0
                                                 * ends)))
        dc = (2.0 * h / s) * wg * (tilde.deriv(a) / 2.0 * ends) * np.sign(U)
        curv = (2.0 * h / s) * wg * (tilde.deriv(a, 2)[1] / 2.0 * ends)
        return val, dc, curv, xg
    tilde = limit_density(G, 1)
    prof = tilde.value(np.abs(U) * kern) / 2.0
    val = (2.0 * h / s) * float(np.sum(wg * prof))
    dprof = tilde.deriv(np.abs(U) * kern) / 2.0
    dc = (2.0 * h / s) * wg * np.sum(dprof * kern, axis=0) * np.sign(U)
    curv = tilde.deriv(np.abs(U) * kern, 2)[1] / 2.0
    curv = (2.0 * h / s) * wg * np.sum(curv * kern * kern, axis=0)
    return val, dc, curv, xg


def core_by_hand(monkeypatch, G, s, u):
    """(value, gradient, Hessian) of `_core`, with every element-local
    derivative scattered to the nodes by the expressions that
    `_add_element_terms` replaced, in the same order."""
    h = u.spacing
    hess = np.zeros((u.node_count, u.node_count))

    def pair_scatter(grad, hess, _, x, gU, hU):
        grad, hess, gU, hU = grad[0], hess[0], gU[0], hU[0]  # one state
        grad[:-1] += (1.0 - x) @ gU
        grad[1:] += x @ gU
        add_element_blocks(hess, 1.0 - x, x, hU)

    with np.errstate(invalid="ignore"):
        val, ders, curv = (a[0] for a in _same_element(
            G, np.array([s]), h, u.slopes[None], True, True))
        with monkeypatch.context() as m:
            m.setattr(fractional, "_add_element_terms", pair_scatter)
            pairs, pair_grad = (a[0] for a in _distinct_pairs(
                G, np.array([s]), u, u.values[None], True, hess[None]))
        far, dc, far_curv, xg = far_field_by_hand(G, s, u)
        far_grad = np.zeros(u.node_count)
        far_grad[:-1] += dc @ (1.0 - xg)
        far_grad[1:] += dc @ xg
        add_element_blocks(hess, 1.0 - xg, xg, far_curv.T)
        add_element_blocks(hess, -np.ones(1), np.ones(1),
                           curv[None] / (h * h))
    val += pairs + far
    grad = pair_grad + far_grad
    grad[:-1] -= ders / h
    grad[1:] += ders / h
    hess += np.triu(hess, 1).T
    return val, grad, hess


class TestElementScatter:
    """Every element-local derivative reaches the nodes through
    `_add_element_terms`, with the bits of the scatters it replaced."""

    @pytest.mark.parametrize("s", [0.3, 0.9])
    @pytest.mark.parametrize("n", [3, 4, 33, 129])
    @pytest.mark.parametrize("G", [make_power(3.0), make_power_log(3.0),
                                   G23], ids=lambda G: G.label)
    def test_same_bits_as_the_scatters_it_replaced(self, G, n, s,
                                                   monkeypatch):
        # 1.5 x a random state: G23's arguments fall on both sides of 1
        rng = np.random.default_rng(n)
        u = random_state(rng, n, amplitude=1.5)
        got = _core(G, s, u, want_grad=True, want_hess=True)
        ref = core_by_hand(monkeypatch, G, s, u)
        assert got[0] == ref[0]
        assert np.array_equal(got[1], ref[1])
        assert np.array_equal(got[2], ref[2])
        assert np.array_equal(_core(G, s, u, want_grad=True)[1], ref[1])


class TestPairStackEvaluations:
    """Each output asks one jet of G per pair stack, of the order it needs:
    the value n = 1, the gradient n = 2, never n = 3; G' and G'' are never
    asked for on their own."""

    @staticmethod
    def record(monkeypatch, G, s, u, want_grad, want_hess=False):
        """Shapes of the pair stacks that `_pair_bands` yields, and per G
        call on one of them its (instance, shape, order n), for one
        `_core` call; asserts that no `deriv` call meets a stack."""
        bands = fractional._pair_bands
        stacks, calls, alone = [], [], []
        call, deriv = OrliczFunction.__call__, OrliczFunction.deriv

        def seen(blocks):
            for b in blocks:
                stacks.append(b[4].shape)
                yield b

        def recorded(*args):
            for x, blocks in bands(*args):
                yield x, seen(blocks)

        def counted(self, x, n=None):
            calls.append((self, np.shape(x), n))
            return call(self, x, n)

        def single(self, x):
            alone.append(np.shape(x))
            return deriv(self, x)

        with monkeypatch.context() as m:
            m.setattr(fractional, "_pair_bands", recorded)
            m.setattr(OrliczFunction, "__call__", counted)
            m.setattr(OrliczFunction, "deriv", single)
            _core(G, s, u, want_grad=want_grad, want_hess=want_hess)
        assert len(stacks) > 1
        assert not [shape for shape in alone if shape in stacks]
        return stacks, [c for c in calls if c[1] in stacks]

    @classmethod
    def orders(cls, monkeypatch, G, rng, want_grad):
        """The orders n asked for on the pair stacks, after checking that
        each stack gets one G call."""
        u = random_state(rng, 33, amplitude=1.5)
        stacks, calls = cls.record(monkeypatch, G, 0.6, u, want_grad)
        assert sorted(shape for _, shape, _ in calls) == sorted(stacks)
        return {n for _, _, n in calls}

    @pytest.mark.parametrize("G", [make_power(3.0), make_power_log(3.0),
                                   G23], ids=lambda G: G.label)
    def test_value_evaluates_no_derivative(self, G, monkeypatch, rng):
        if G.kind == "power":
            # t^p's value stacks take the row dots of du alone
            # (`_value_operands`): no jet at all
            u = random_state(rng, 33, amplitude=1.5)
            assert self.record(monkeypatch, G, 0.6, u, False)[1] == []
        else:
            assert self.orders(monkeypatch, G, rng, False) == {1}

    @pytest.mark.parametrize("G", [make_power(3.0), make_power_log(3.0),
                                   G23], ids=lambda G: G.label)
    def test_gradient_evaluates_no_second_derivative(self, G, monkeypatch,
                                                      rng):
        if G.kind == "power":
            # t^3's derivative stacks take their factors from the value's
            # operands (`_value_operands`): no jet at all
            u = random_state(rng, 33, amplitude=1.5)
            assert self.record(monkeypatch, G, 0.6, u, True)[1] == []
        else:
            assert self.orders(monkeypatch, G, rng, True) == {2}


class TestPairBlocks:
    """`_pair_bands` walks each band in blocks of consecutive offsets."""

    @pytest.mark.parametrize("n", [3, 33, 129, 1025])
    def test_blocks_tile_the_offsets(self, n):
        u = GridFunction.hat(-1.0, 1.0, n)
        ne = n - 1
        offsets, sizes = [], []
        for x, blocks in fractional._pair_bands(np.array([0.5]), u.spacing,
                                                u.values[None]):
            band = []
            for j0, kern, block, _, du, _ in blocks:
                du, kern = du[0], kern[0]  # one state
                nj = du.shape[1]
                assert du.shape == (x.size ** 2, nj, ne - j0)
                assert kern.shape == block.shape == (x.size ** 2, nj, 1)
                offsets += range(j0, j0 + nj)
                band.append(nj)
            sizes.append(band)
        assert offsets == list(range(1, ne))
        if n == 129:
            # the block-path tests above need bands of several blocks,
            # each of several offsets
            assert any(len(b) > 1 and min(b) > 1 for b in sizes)

    @pytest.mark.parametrize("n", [3, 33, 129, 257, 1025])
    def test_one_block_layout(self, n):
        # the blocks tile each band's offsets once, and each holds the most
        # offsets from its first that stay within `_BLOCK_POINTS`, and at
        # least one
        ne = n - 1
        points = fractional._BLOCK_POINTS
        q = _pair_orders(ne, fractional._ORDER)
        bands = fractional._band_tables((0.5,), 2.0 / ne, ne, None)
        first = 1  # of the band
        for x, blocks, _ in bands:
            rows, count = x.size ** 2, int(np.sum(q == x.size))
            j = first
            for j0, nj, *_ in blocks:
                assert j0 == j and nj >= 1
                assert nj == 1 or rows * (ne - j0) * nj <= points
                # the band ends, or the next offset would not fit
                assert j0 + nj == first + count or \
                    rows * (ne - j0) * (nj + 1) > points
                j += nj
            assert j == first + count
            first += count
        assert first == ne
        if n == 1025:
            assert sum(len(b[1]) for b in bands) == 156

    @pytest.mark.parametrize("G", [G2, make_power(3.0), make_power_log(3.0),
                                   G23], ids=lambda G: G.label)
    def test_every_pass_takes_the_same_blocks(self, G, rng, monkeypatch):
        # the value, the gradient and the Hessian pass of `_core` each see
        # the band tables' blocks (j0, nj), in the same order
        u = random_state(rng, 257)
        ne = u.node_count - 1
        block, seen = fractional._pair_block, []

        def recorded(G, on, n, fold, blk, kern, weight, du, *rest, **outs):
            seen.append((ne - du.shape[-1], du.shape[-2]))
            return block(G, on, n, fold, blk, kern, weight, du, *rest,
                         **outs)

        monkeypatch.setattr(fractional, "_pair_block", recorded)
        passes = []
        for modes in ((False, False), (True, False), (True, True)):
            seen.clear()
            _core(G, 0.7, u, *modes)
            passes.append(list(seen))
        tables = [(j0, nj) for _, blocks, _ in fractional._band_tables(
            (0.7,), u.spacing, ne, None) for j0, nj, *_ in blocks]
        assert passes == [tables] * 3

    def test_padding_is_zeroed_without_nan(self):
        # G''(0) = inf for p < 2, and inf * 0 is NaN: the padding of a
        # block is assigned 0, and every other entry is left as it is
        u = GridFunction.hat(-1.0, 1.0, 33)
        for _, blocks in fractional._pair_bands(np.array([0.5]), u.spacing,
                                                u.values[None]):
            for _, _, _, _, du, _ in blocks:
                du = du[0]  # one state
                nj, L = du.shape[1:]
                out = fractional._drop_padding(np.full(du.shape, np.inf))
                padding = np.arange(L) >= L - np.arange(nj)[:, None]
                assert np.array_equal(out == 0.0, np.broadcast_to(
                    padding, out.shape))
                assert np.all(np.isinf(out[:, ~padding]))

    @pytest.mark.parametrize("G, shared", [
        (G23, True), (G2, False), (make_power(3.0), False),
        (make_power(4.0), False), (make_power_log(3.0), False)],
        ids=["max, shared row", "power(2)", "power(3)", "power(4)",
             "power_log(3)"])
    def test_derivative_calls_write_du_only_as_its_abs(self, G, shared, rng):
        # a block's gradient and Hessian call takes |du| in place where its
        # rule reads it (t^3's operands, G's own rule, a max's range test)
        # and writes nothing else to du's pairs: states that share a row,
        # here with rules of their own, read it after one another
        n, orders = 129, np.array([0.3, 0.9])
        rows = (random_state(rng, n, 0.05).values[None] if shared else
                np.stack([random_state(rng, n).values for _ in orders]))
        ne, on = n - 1, fractional._power_on(G)
        split = []
        for x, blocks in fractional._pair_bands(orders, 2.0 / ne, rows, on):
            q = x.size
            outs = dict(gU=np.zeros((2, q, ne)), hU=np.zeros((2, q, ne)),
                        hess=np.zeros((2, n, n)),
                        tab=np.zeros((2, 2 * q + 4, ne)))
            for _, kern, block, weight, du, _ in blocks:
                before = du.copy()
                split.append(fractional._pair_rule(
                    G, on, du.copy(), kern, block, weight, 3) is None)
                fractional._pair_block(G, on, 3, fractional._hessian_fold(q),
                                       block, kern, weight, du, **outs)
                nj, L = du.shape[-2:]
                pairs = np.arange(L) < L - np.arange(nj)[:, None]
                want = before if G.label in ("power(2)", "power(4)") \
                    else np.abs(before)
                assert np.array_equal(du[..., pairs], want[..., pairs])
        assert any(split) == shared


class TestRowDots:
    """Each pair row's value is summed by one dot product of its operands
    (`_value_operands`): du with itself for t^2, du^2 with |du| for t^3,
    du^2 with itself for t^4, and G's values with a ones row for any other
    G (`_row_dots`)."""

    @staticmethod
    def blocks(rng, states=1):
        rows = np.stack([random_state(rng, 129).values
                         for _ in range(states)])
        for _, blocks in fractional._pair_bands(np.array([0.7] * states),
                                                2.0 / 128, rows):
            for _, _, block, _, du, _ in blocks:
                yield block, fractional._drop_padding(du)

    @staticmethod
    def row_sums(p, du, block):
        g = None if p else make_power_log(3.0)(np.abs(du), 1)
        return fractional._row_dots(*fractional._value_operands(
            p, du.copy(), g), block)

    @pytest.mark.parametrize("p", [None, 2.0, 3.0, 4.0])
    def test_matches_an_exact_sum_per_row(self, p, rng):
        # each row's sum within 1e-14 of math.fsum over its elements'
        # values, G's (power_log(3) for p None) as G's jet gives them
        G = make_power(p) if p else make_power_log(3.0)
        for block, du in self.blocks(rng):
            got = self.row_sums(p, du, block)
            nj, L = du.shape[-2:]
            values = G(np.abs(du))
            ref = np.array([[[math.fsum(values[0, r, k, :L - k])
                              * block[r, k, 0] for k in range(nj)]
                             for r in range(du.shape[1])]])
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-14 * ref)

    @pytest.mark.parametrize("p", [None, 2.0, 3.0, 4.0])
    def test_a_row_alone_has_its_bits_in_a_block_and_a_stack(self, p, rng):
        for block, du in self.blocks(rng, states=2):
            stack = self.row_sums(p, du, block)
            for i in range(2):
                assert same_bits(self.row_sums(p, du[i:i + 1], block),
                                 stack[i:i + 1])
                for r in (0, du.shape[1] - 1):
                    for k in (0, du.shape[2] - 1):
                        row = np.ascontiguousarray(du[i, r, k])
                        one = self.row_sums(p, row[None, None, None],
                                            block[r:r + 1, k:k + 1])
                        assert one[0, 0, 0] == stack[i, r, k]

    def test_ones_rows_are_cached_and_read_only(self, rng, monkeypatch):
        # G's values take a C-contiguous slice of a cached ones row of the
        # next power of two as their second operand
        seen, dots = [], fractional._row_dots

        def recorded(x, y, w):
            seen.append((y, x.shape[-1]))
            return dots(x, y, w)

        u = random_state(rng, 129)
        monkeypatch.setattr(fractional, "_row_dots", recorded)
        _distinct_pairs(make_power_log(3.0), np.array([0.7]), u,
                        u.values[None], False)
        assert seen
        for y, width in seen:
            assert y.shape == (width,) and y.strides == (8,)
            assert y.base is fractional._ones(y.base.size)
            assert y.base.size == 1 << (width - 1).bit_length()
            assert np.array_equal(y, np.ones(width))
            with pytest.raises(ValueError):
                y[...] = 0.0


def window_block(s, h, v, x, j0, nj):
    """A block's kern, block and differences of nodal values ``v`` as the
    pair pass first built them: the band's tables per call, and the right
    rows read through a sliding window over the padded repeated rows."""
    ne = len(v) - 1
    _, w = gauss_rule_01(x.size)
    dist = h * (np.arange(j0, j0 + nj)[:, None]
                + np.subtract.outer(x, x).reshape(-1, 1, 1))
    kern = dist ** -np.reshape(s, np.shape(s) + (1, 1, 1))
    block = 2.0 * h * h * np.outer(w, w).reshape(-1, 1, 1) / dist
    V = _at_gauss_points(v, x).T
    R = np.repeat(V, x.size, axis=0)
    W = sliding_window_view(np.pad(R, ((0, 0), (0, ne))), ne, axis=-1)
    L = np.tile(V, (x.size, 1))
    return kern, block, W[:, j0:j0 + nj, :ne - j0] - L[:, None, :ne - j0]


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBandWindows:
    """The strided view of one padded buffer per band gives bit for bit the
    differences of the sliding-window construction it replaced."""

    @pytest.mark.parametrize("s", [0.5, np.array(0.5), np.array([0.3, 0.9])],
                             ids=["float", "0-d", "1-d"])
    @pytest.mark.parametrize("n", [3, 4, 33, 129])
    def test_blocks_match_the_sliding_window(self, n, s, rng):
        u, v = random_state(rng, n), random_state(rng, n)
        h = u.spacing
        s = np.reshape(s, -1)  # a lone order is one state
        for nodal in (u.values[None], np.vstack([u.values, v.values])):
            offsets = 0
            for x, blocks in fractional._pair_bands(s, h, nodal):
                for j0, kern, block, _, du, _ in blocks:
                    nj = kern.shape[-2]
                    assert len(du) == len(nodal)
                    for d, vals in zip(du, nodal):
                        ref = window_block(s, h, vals, x, j0, nj)
                        assert same_bits(kern, ref[0])
                        assert same_bits(block, ref[1])
                        assert same_bits(d, ref[2])
                    offsets += nj
            assert offsets == n - 2

    def test_one_element_has_no_pairs(self):
        v = np.array([[0.0, 1.0]])
        assert list(fractional._pair_bands(np.array([0.5]), 2.0, v)) == []
        assert list(fractional._pair_bands(np.array([0.5, 0.7]), 2.0,
                                           np.vstack([v, v]))) == []


class TestBandTables:
    """`_band_tables` holds the pair pass's tables per (s, h, ne, p)."""

    def test_tables_are_read_only(self):
        u = GridFunction.hat(-1.0, 1.0, 129)
        for s in (np.array([0.5]), np.array([0.3, 0.9])):
            for x, blocks in fractional._pair_bands(s, u.spacing,
                                                    u.values[None]):
                for _, kern, block, _, du, _ in blocks:
                    for table in (x, kern, block):
                        with pytest.raises(ValueError):
                            table[...] = 0.0
                    du[...] = 0.0  # the differences are the caller's
            for p in (None, 3.0):
                for _, blocks, peak in fractional._band_tables(
                        tuple(s), u.spacing, 128, p):
                    tables = [peak] + [t for _, _, *ts in blocks
                                       for t in ts if t is not None]
                    for table in tables:
                        with pytest.raises(ValueError):
                            table[...] = 0.0

    @pytest.mark.parametrize("n", [3, 4, 33, 129, 1025])
    @pytest.mark.parametrize("s", [(0.5,), (0.9, 0.95, 0.99)],
                             ids=["1 order", "3 orders"])
    @pytest.mark.parametrize("G", [make_power(1.5), G2, make_power(3.0),
                                   make_power(4.0), G23],
                             ids=lambda G: G.label)
    def test_power_weights_are_built_once_per_band(self, G, s, n):
        # t^p's weights, of G's least power for a max, are the blocks'
        # block * kern**p bit for bit, read-only, and what t^p's rule
        # weighs every output with; G's own rule gets none
        F, _ = fractional._power_on(G)
        p = F.params[0]
        u = GridFunction.hat(-1.0, 1.0, n)
        rows = u.values[None]
        for x, blocks in fractional._pair_bands(np.array(s), u.spacing, rows,
                                                (F, np.inf)):
            for _, kern, block, weight, du, _ in blocks:
                assert same_bits(weight, block * kern ** p)
                with pytest.raises(ValueError):
                    weight[...] = 0.0
                for k in (1, 2, 3):
                    rule, arg, w = fractional._pair_rule(
                        G, (F, np.inf), du, kern, block, weight, k)
                    assert rule is F and arg is du
                    assert len(w) == k and all(a is weight for a in w)
        for _, blocks in fractional._pair_bands(np.array(s), u.spacing, rows):
            assert all(weight is None for _, _, _, weight, _, _ in blocks)

    def test_growth_functions_share_one_build(self):
        # the tables depend on (s, h, ne) and t^p's exponent: the growth
        # functions of the suite that share an exponent, of a power or of
        # a max's least power, or G's own rule (None), read one build, and
        # t^p's weights are block * kern**p bit for bit
        tables = fractional._band_tables
        tables.cache_clear()
        u = GridFunction.hat(-1.0, 1.0, 129)

        def exponent(G):
            on = fractional._power_on(G)
            return -1.0 if on is None else on[0].params[0]

        suite = sorted(builtin_suite_functions(), key=exponent)
        for G in suite:
            fractional_modular(G, 0.7, u)
        info = tables.cache_info()
        assert info.misses == len({exponent(G) for G in suite}) == 4
        assert info.hits == len(suite) - info.misses
        for p in (1.5, 2.0, 3.0, None):
            for _, blocks, _ in tables((0.7,), u.spacing, 128, p):
                for _, _, kern, block, weight in blocks:
                    if p is None:
                        assert weight is None
                    else:
                        assert same_bits(weight, block * kern ** p)

    def test_one_solve_builds_its_tables_once(self):
        tables = fractional._band_tables
        tables.cache_clear()
        result = solve(DirichletProblem(omega=(0.0, 1.0), rhs=1.0,
                                        G=make_power(3.0), s=0.7,
                                        scaling="bbm_scaled", mesh_nodes=33))
        # each evaluation of the solve but the first, at the zero state,
        # which asks no Hessian of t^3 (G''(0) = 0), makes one pair pass
        assert result.evaluations > 2
        info = tables.cache_info()
        assert (info.misses, info.hits) == (1, result.evaluations - 2)

    def test_keys(self):
        tables = fractional._band_tables
        tables.cache_clear()
        u = GridFunction.hat(-1.0, 1.0, 33)
        shifted = GridFunction.hat(3.0, 5.0, 33)
        assert shifted.spacing == u.spacing
        fractional_modular(G2, 0.5, u)
        misses = tables.cache_info().misses
        # the tables depend on (s, h, ne, p) only: a shifted interval, and
        # the order as a 0-D array or as a list of one, share the entry
        fractional_modular(G2, 0.5, shifted)
        fractional_modular_with_gradient(G2, np.array(0.5), shifted)
        fractional_modular(G2, [0.5], u)
        assert tables.cache_info().misses == misses
        for s, w in ((0.6, u), ([0.5, 0.6], u),
                     (0.5, GridFunction.hat(-1.0, 2.0, 33)),
                     (0.5, GridFunction.hat(-1.0, 1.0, 35))):
            fractional_modular(G2, s, w)
            misses += 1
            assert tables.cache_info().misses == misses
            fractional_modular(G2, s, w)
            assert tables.cache_info().misses == misses
        assert tables.cache_info().currsize == 2


class TestFarField:
    """(iii) through the shared kink-split radial profile."""

    @pytest.mark.parametrize("s", [0.3, 0.9])
    @pytest.mark.parametrize("G,profile", [
        (make_power_log(3.0), power_log3_profile),
        (G23_PLAIN, max23_profile),
    ], ids=["power_log(3)", "max_without_closed_form"])
    def test_generic_profile_matches_exact_profile(self, G, profile, s):
        # 3 x hat puts the profile arguments on both sides of the kink at 1
        u = GridFunction.hat(-1.0, 1.0, 33) * 3.0
        val = _far_field(G, np.array([s]), u, u.values[None],
                         want_grad=False)[0][0]
        assert val == pytest.approx(far_field_reference(profile, s, u),
                                    rel=1e-12)

    def test_closed_form_max_matches_generic_profile(self):
        u = GridFunction.hat(-1.0, 1.0, 33) * 3.0
        s, rows = np.array([0.6]), u.values[None]
        val, grad = (a[0] for a in _far_field(G23, s, u, rows, True))
        ref, ref_grad = (a[0] for a in _far_field(G23_PLAIN, s, u, rows,
                                                  True))
        assert val == pytest.approx(ref, rel=1e-12)
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("s", [0.5, 0.9])
    def test_finite_difference_across_the_kink(self, s):
        # The far field alone: on this state some distinct-pair Gauss
        # points of (ii) sit exactly on the kink of G at s = 0.5, where the
        # discrete value itself has a kink.
        G = make_power_log(3.0)
        u = GridFunction.hat(-1.0, 1.0, 33) * 3.0
        eps = 1e-6
        s = np.array([s])
        flux = _far_field(G, s, u, u.values[None], want_grad=True)[1][0]
        x, _ = gauss_rule_01(fractional._ORDER)
        grad = np.zeros(u.node_count)
        _add_element_terms(grad, None, 1.0 - x, x, flux)
        for i in range(u.node_count):
            vp = u.values.copy()
            vm = u.values.copy()
            vp[i] += eps
            vm[i] -= eps
            fd = (_far_field(G, s, u, vp[None], False)[0][0]
                  - _far_field(G, s, u, vm[None], False)[0][0]) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-7, abs=1e-10)


def assert_close(got, ref, rel):
    """Entry by entry within ``rel`` of ``ref``, non-finite entries equal."""
    got, ref = np.asarray(got), np.asarray(ref)
    finite = np.isfinite(ref)
    assert np.array_equal(got[~finite], ref[~finite])
    assert np.all(np.abs(got[finite] - ref[finite])
                  <= rel * np.abs(ref[finite]))


class TestHomogeneousFarField:
    """Where G is t^p on the range of the far field's arguments, (iii)
    takes t^p's profile at |U| once, times dist**(-s p) per order and end:
    the profile at |U| dist**(-s) to roundoff."""

    @staticmethod
    def powers(monkeypatch, *args):
        """`_far_field` on ``args``, and whether it took t^p's powers of
        the distances (`_pow`, which no other branch of it calls)."""
        calls, pow_ = [], fractional._pow
        with monkeypatch.context() as m:
            m.setattr(fractional, "_pow",
                      lambda *a: calls.append(a) or pow_(*a))
            out = _far_field(*args)
        return out, bool(calls)

    @pytest.mark.parametrize("n", [17, 129, 1025])
    @pytest.mark.parametrize("G", [make_power(1.5), G2, make_power(3.0),
                                   make_power(4.0), G23],
                             ids=lambda G: G.label)
    def test_matches_the_profile_at_the_argument(self, G, n, monkeypatch,
                                                 rng):
        # the hat keeps every far argument of the max below 1; a random
        # state is taken by the pure powers only
        states = [GridFunction.hat(-1.0, 1.0, n)]
        if G is not G23:
            states.append(random_state(rng, n))
        orders = np.array([0.3, 0.9, 0.99])
        for u in states:
            for s in (orders[1:2], orders):
                (val, flux, curv), power = self.powers(
                    monkeypatch, G, s, u, u.values[None], True, True)
                assert power
                for i, o in enumerate(s):
                    ref = far_field_by_hand(G, float(o), u, power=False)
                    assert_close(val[i], ref[0], 1e-13)
                    assert_close(flux[i], ref[1].T, 1e-13)
                    assert_close(curv[i], ref[2].T, 1e-13)
                value, power = self.powers(monkeypatch, G, s, u,
                                           u.values[None], False)
                assert power and np.array_equal(value[0], val)

    def test_max_past_its_kink_takes_its_own_profile(self, monkeypatch):
        # on the hat of peak 2 the far arguments pass 1: the max takes its
        # own profile, with the bits it has without t^2's rule; a stack of
        # that state and the hat gives each state its lone call's bits
        hat = GridFunction.hat(-1.0, 1.0, 129)
        u, s = hat * 2.0, np.array([0.6])
        h = u.spacing
        xg, _ = gauss_rule_01(5)
        X = (u.left + h * np.arange(128))[:, None] + h * xg
        assert np.max(np.abs(_at_gauss_points(u.values, xg))
                      * (u.right - X) ** -0.6) > 1.0
        for want_grad, want_hess in ((False, False), (True, False),
                                     (True, True)):
            args = (s, u, u.values[None], want_grad, want_hess)
            got, power = self.powers(monkeypatch, G23, *args)
            assert not power
            with monkeypatch.context() as m:
                m.setattr(fractional, "_power_on", lambda G: None)
                ref = _far_field(G23, *args)
            for a, b in zip(got, ref):
                assert b is None and a is None or same_bits(a, b)
            orders, rows = np.array([0.6, 0.9]), np.stack(
                [u.values, hat.values])
            both = _far_field(G23, orders, u, rows, want_grad, want_hess)
            for i, v in enumerate((u, hat)):
                one = _far_field(G23, orders[i:i + 1], u, v.values[None],
                                 want_grad, want_hess)
                for a, b in zip(both, one):
                    assert b is None and a is None or same_bits(a[i:i + 1],
                                                                b)


def uniform_pair_sum(G, s, u, order=5):
    """Distinct-element pairs with the tensor Gauss rule of ``order`` on
    every pair, row by row: the rule before the separation grading."""
    h = u.spacing
    ne = u.node_count - 1
    x, w = gauss_rule_01(order)
    X = u.left + h * (np.arange(ne)[:, None] + x[None, :])
    U = u.values[:-1, None] * (1.0 - x) + u.values[1:, None] * x
    total = 0.0
    for k in range(ne - 1):
        dist = X[k + 1:, :, None] - X[k][None, None, :]
        du = U[k + 1:, :, None] - U[k][None, None, :]
        total += float(np.sum(2.0 * h * h * np.outer(w, w) / dist
                              * G(np.abs(du) * dist ** (-s))))
    return total


def block_first_pair_sum(G, s, u):
    """The distinct-element pairs of the graded rule offset by offset, with
    each pair weighted before the sum over its elements."""
    h = u.spacing
    ne = u.node_count - 1
    total = 0.0
    for j, q in enumerate(_pair_orders(ne, 5), start=1):
        x, w = gauss_rule_01(int(q))
        U = u.values[:-1, None] * (1.0 - x) + u.values[1:, None] * x
        dist = h * (j + np.subtract.outer(x, x))  # right point a, left b
        du = U[j:, :, None] - U[:-j, None, :]
        total += (2.0 * h * h * np.outer(w, w) / dist
                  * G(np.abs(du) * dist ** (-s))).sum()
    return total


class TestPairReduction:
    """`_distinct_pairs` sums each pair row over its elements before it
    takes the row's weight; that reorders the sum, so it moves the value
    only at roundoff."""

    @pytest.mark.parametrize("n", [129, 1025])
    @pytest.mark.parametrize("shape", ["hat", "random"])
    @pytest.mark.parametrize("G", [
        G2, make_power(3.0), make_power(1.5), G23, make_power_log(3.0),
    ], ids=lambda G: G.label)
    def test_matches_block_first_sum(self, G, shape, n, rng):
        if shape == "hat":
            u = GridFunction.hat(-1.0, 1.0, n)
        else:
            u = random_state(rng, n)
        for s in (0.1, 0.9):
            pairs = _distinct_pairs(G, np.array([s]), u, u.values[None],
                                    want_grad=False)[0][0]
            assert pairs == pytest.approx(block_first_pair_sum(G, s, u),
                                          rel=1e-14)


def pair_pass(G, s, u):
    """(value, gradient, Hessian) of `_distinct_pairs` alone; the Hessian
    is its upper triangle, with G''(0) = inf left as it falls."""
    hess = np.zeros((u.node_count, u.node_count))
    with np.errstate(invalid="ignore"):
        val, grad = _distinct_pairs(G, np.array([s]), u, u.values[None],
                                    True, hess[None])
    return val[0], grad[0], hess


def pair_points(monkeypatch, G, s, u):
    """Points of the first operands whose row dots (`_row_dots`) are the
    value of `_distinct_pairs`, after checking that any G call it makes
    asks for the value alone (n = 1)."""
    calls, seen = [], []
    call, dots = OrliczFunction.__call__, fractional._row_dots

    def counted(self, x, n=None):
        calls.append(n)
        return call(self, x, n)

    def recorded(x, y, w):
        seen.append(x.size)
        return dots(x, y, w)

    with monkeypatch.context() as m:
        m.setattr(OrliczFunction, "__call__", counted)
        m.setattr(fractional, "_row_dots", recorded)
        _distinct_pairs(G, np.reshape(s, -1), u, u.values[None], False)
    assert set(calls) <= {1}
    return sum(seen)


def rule_values(G, on, du, kern, block, weight, n=1):
    """A block's value (per order) as `_distinct_pairs` evaluates it
    (`_pair_block`): from its `_pair_rule` rule, or its states' rules one
    by one, with the row sums of `_row_dots`."""
    sums = fractional._pair_block(G, on, n, None, block, kern, weight, du)
    return np.add.reduce(sums, (-2, -1))


def assert_same_pairs(got, ref):
    """Pair passes agree: the value to 1e-13 relative, the gradient and the
    Hessian to 1e-12 of their largest finite entry, with their non-finite
    entries in the same places."""
    assert got[0] == pytest.approx(ref[0], rel=1e-13)
    for a, b in zip(got[1:], ref[1:]):
        finite = np.isfinite(b)
        assert np.array_equal(np.isfinite(a), finite)
        assert np.max(np.abs(a[finite] - b[finite])) <= \
            1e-12 * np.max(np.abs(b[finite]))


class TestHomogeneousPairs:
    """A pure power's pairs evaluate G^(i)(|du|) once for all orders and
    weigh it by block kern^p: the generic rule G^(i)(|du| kern) kern^i up
    to roundoff."""

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9, 0.995])
    @pytest.mark.parametrize("shape", ["hat", "random"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_generic_rule(self, p, shape, s, rng):
        power = make_power(p)
        plain = make_custom(power, power.deriv,
                            d2fn=lambda x: power(x, 3)[2])
        if shape == "hat":
            u = GridFunction.hat(-1.0, 1.0, 129)
        else:
            u = random_state(rng, 129)
        assert_same_pairs(pair_pass(power, s, u), pair_pass(plain, s, u))

    def test_infinite_curvature_in_the_same_places(self):
        # p = 1.5 on a plateau: equal nodal values give pairs with du = 0,
        # where G''(0) = inf on both rules
        power = make_power(1.5)
        plain = make_custom(power, power.deriv,
                            d2fn=lambda x: power(x, 3)[2])
        u = GridFunction.hat(-1.0, 1.0, 129)
        u = u.with_values(np.minimum(1.0, 3.0 * u.values))
        ref = pair_pass(plain, 0.7, u)
        assert not np.isfinite(ref[2]).all()
        assert_same_pairs(pair_pass(power, 0.7, u), ref)

    @pytest.mark.parametrize("G,factor", [(make_power(3.0), 1), (G23, 1),
                                          (make_power_log(3.0), 3)],
                             ids=["power(3)", "max(power(2), power(3))",
                                  "power_log(3)"])
    def test_orders_share_the_power_points(self, G, factor, monkeypatch):
        # a power's row dots have no orders axis, nor have a max of powers
        # whose arguments stay in [0, 1], as on the hat; any other G's
        # have one
        u = GridFunction.hat(-1.0, 1.0, 129)
        one = pair_points(monkeypatch, G, 0.9, u)
        three = pair_points(monkeypatch, G, np.array([0.9, 0.95, 0.99]), u)
        assert three == factor * one > 0


class TestRuleParity:
    """t^p's rule of a pair pass (`_pair_rule`) against G's own, for the
    value, the gradient and the Hessian: t^p's derivative factors come from
    the value's operands with no jet, a max's from the bound or a scan of
    its arguments, and G's own rule takes the jet of G at |du| kern."""

    ORDERS = np.array([0.3, 0.7, 0.9])

    @staticmethod
    def pass_of(G, s, rows, mesh, monkeypatch):
        """(value, gradient, Hessian) of one `_distinct_pairs` call, the
        growth function of every jet it asks, and the range end T of every
        `_pair_block` call under t^p's rule."""
        calls, rules = [], []
        call, block = OrliczFunction.__call__, fractional._pair_block

        def counted(self, x, n=None):
            calls.append(self)
            return call(self, x, n)

        def recorded(G, on, *args, **kwargs):
            if on is not None:
                rules.append(on[1])
            return block(G, on, *args, **kwargs)

        hess = np.zeros((len(s), mesh.node_count, mesh.node_count))
        with monkeypatch.context() as m:
            m.setattr(OrliczFunction, "__call__", counted)
            m.setattr(fractional, "_pair_block", recorded)
            val, grad = _distinct_pairs(G, s, mesh, rows, True, hess)
        return (val, grad, hess), calls, rules

    @pytest.mark.parametrize("shared", [False, True],
                             ids=["distinct", "shared"])
    @pytest.mark.parametrize("scale", [1.0, 0.05])
    @pytest.mark.parametrize("n", [33, 129])
    @pytest.mark.parametrize("G", [make_power(2.0), make_power(3.0),
                                   make_power(4.0), G23],
                             ids=lambda G: G.label)
    def test_matches_own_rule(self, G, n, scale, shared, rng, monkeypatch):
        states = [random_state(rng, n, scale) for _ in self.ORDERS]
        rows = np.stack([u.values for u in states[:1 if shared else 3]])
        got, calls, rules = self.pass_of(G, self.ORDERS, rows, states[0],
                                         monkeypatch)
        # t^p's derivative stacks ask no jet
        assert not [F for F in calls if F.kind == "power"]
        if G is G23:
            # the bound decides some blocks of the small states, none of
            # the large ones; the rest are scanned
            assert (np.inf in rules) == (scale < 1.0)
            assert any(T < np.inf for T in rules)
        with monkeypatch.context() as m:
            m.setattr(fractional, "_power_on", lambda G: None)
            ref = self.pass_of(G, self.ORDERS, rows, states[0], m)[0]
        for a, b in zip(got, ref):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


class TestLeastPower:
    """max(t^2, t^3) is t^2 on [0, 1]. Its value, gradient and Hessian take
    t^2's rules where every argument lies there (below 1 for the
    derivatives, which take t^3's branch at 1): per block and order in the
    pair pass, per order in the same-element piece. Elsewhere they take
    its own rules."""

    @pytest.mark.parametrize("scale", [1.0, 1.2, 3.0])
    def test_pairs_match_generic_rule(self, scale):
        u = GridFunction.hat(-1.0, 1.0, 129) * scale
        orders = np.array([0.1, 0.5, 0.9, 0.995])
        got, _ = _distinct_pairs(G23, orders, u, u.values[None], False)
        ref = [_distinct_pairs(G23_PLAIN, s, u, u.values[None], False)[0][0]
               for s in orders[:, None]]
        assert got == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9, 0.995])
    @pytest.mark.parametrize("scale", [1.0, 1.2, 3.0, "random"])
    def test_derivatives_match_generic_rule(self, scale, s, rng):
        if scale == "random":
            u = random_state(rng, 129)
        else:
            u = GridFunction.hat(-1.0, 1.0, 129) * scale
        assert_same_pairs(pair_pass(G23, s, u), pair_pass(G23_EXACT, s, u))

    def test_orders_choose_their_rule_per_block(self):
        # on 1.2 times the hat, small offsets have all their arguments
        # below 1 at s = 0.1 but not at s = 0.995; each block of a
        # two-order call gives each order its one-order value, and some
        # blocks give s = 0.1 the least power's value, which differs from
        # G's own in its last bits, next to G's own value for s = 0.995
        u = GridFunction.hat(-1.0, 1.0, 257) * 1.2
        h = u.spacing
        orders = np.array([0.1, 0.995])
        on, plain = fractional._power_on(G23), fractional._power_on(G23_PLAIN)
        split = 0
        for bands in zip(*(fractional._pair_bands(s, h, u.values[None], on)
                           for s in (orders, *orders[:, None]))):
            for multi, *ones in zip(*(blocks for _, blocks in bands)):
                _, kern, block, weight, du, _ = multi
                got = rule_values(G23, on, du, kern, block, weight)
                assert np.array_equal(got, [rule_values(
                    G23, on, d, k, b, w)[0] for _, k, b, w, d, _ in ones])
                own = rule_values(G23_PLAIN, plain, du, kern, block, None)
                split += got[0] != own[0] and got[1] == own[1]
        assert split > 0

    @pytest.mark.parametrize("s", [0.1, 0.9, 0.995])
    def test_same_element_value(self, s):
        h = 1.0 / 64.0
        below = np.array([0.3, 1.0, 0.999 * h ** (s - 1.0)])  # c < 1
        above = np.array([0.3, 2.0 * h ** (s - 1.0)])

        def value(G, m):
            return _same_element(G, np.array([s]), h, m[None], False)[0][0]

        assert value(G23, below) == value(make_power(2.0), below)
        for m in (below, above):
            assert value(G23, m) == pytest.approx(value(G23_PLAIN, m),
                                                  rel=1e-11)

    def test_same_element_derivatives_at_the_kink(self, monkeypatch):
        # h^(1-s) = 1/8 exactly: slope 8 gives c = 1, where the value takes
        # t^2's closed form and the derivatives keep G's own rule; a slope
        # just below takes t^2's closed form for all three outputs
        h, s = 1.0 / 64.0, np.array([0.5])
        at = np.array([[0.3, -8.0]])
        below = np.array([[0.3, -8.0 * (1.0 - 2.0 ** -20)]])
        G2 = make_power(2.0)

        def outputs(G, m):
            return tuple(a[0] for a in _same_element(G, s, h, m, True, True))

        assert _same_element(G23, s, h, at, False)[0][0] == \
            _same_element(G2, s, h, at, False)[0][0]
        closed = [outputs(G23, m) for m in (at, below)]
        with monkeypatch.context() as patched:
            patched.setattr(fractional, "_power_on", lambda G: None)
            own = outputs(G23, at)
        for got, ref in zip(closed[0][1:], own[1:]):
            assert np.array_equal(got, ref)
        for got, ref in zip(closed[1][1:], outputs(G2, below)[1:]):
            assert np.array_equal(got, ref)
        for m, got in zip((at, below), closed):
            ref = outputs(G23_EXACT, m)
            assert got[0] == pytest.approx(ref[0], rel=1e-12)
            for a, b in zip(got[1:], ref[1:]):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_pair_derivatives_at_the_kink(self):
        # a block with one pair argument exactly 1 takes t^2's rule for its
        # value and G's own for its derivatives, whose G'(1) is t^3's 3;
        # an argument just below 1 takes t^2's rule for both
        on = fractional._power_on(G23)
        # one order, one row
        kern, block = np.ones((1, 1, 1, 1)), np.ones((1, 1, 1))
        weight = block * kern ** 2.0
        for top, rules in ((1.0, (G23.children[0], G23)),
                           (1.0 - 2.0 ** -52, (G23.children[0],) * 2)):
            du = np.array([[[[0.5, -top]]]])
            for n, rule in zip((1, 2), rules):
                F, arg, w = fractional._pair_rule(G23, on, du, kern, block,
                                                  weight, n)
                val = rule_values(G23, on, du, kern, block, weight, n)[0]
                assert F is rule and val == 0.25 + top * top
            slope = w[1] * F.deriv(arg)
            assert slope[0, 0, 0, 1] == (3.0 if top == 1.0 else 2.0 * top)

    def test_derivatives_skip_the_max_on_the_hat(self, monkeypatch):
        # on the hat at s = 0.7 every pair argument is below 1: each block
        # of a gradient + Hessian pass takes t^2's rule, whose factors come
        # from the value's operands, so no pair stack asks a jet, t^2's
        # or the max's own
        u = GridFunction.hat(-1.0, 1.0, 129)
        stacks, calls = TestPairStackEvaluations.record(
            monkeypatch, G23, 0.7, u, True, want_hess=True)
        assert stacks and calls == []


def exact_range_test(monkeypatch):
    """Patch `_band_tables` so that every factor of the pair blocks' bound
    is +inf: no bound decides a block, and a max of powers scans each
    block's arguments."""
    tables = fractional._band_tables

    def unbounded(*key):
        return tuple((x, blocks, np.full_like(peak, np.inf))
                     for x, blocks, peak in tables(*key))

    monkeypatch.setattr(fractional, "_band_tables", unbounded)


def reaches(s, u):
    """Every pair block's bound on |du| kern, and its exact maximum."""
    out = []
    for _, blocks in fractional._pair_bands(np.reshape(s, -1), u.spacing,
                                            u.values[None],
                                            fractional._power_on(G23)):
        for _, kern, _, _, du, reach in blocks:
            top = kern[..., 0] * fractional._drop_padding(
                np.abs(du)).max(axis=-1)
            out.append((reach, top.max()))
    return out


class TestMaxBound:
    """A max of powers decides t^p's range per pair block from a bound on
    its arguments, from u's oscillation and Lipschitz constant, and scans
    the block only where the bound does not decide: every output has the
    bits of the scan everywhere."""

    @staticmethod
    def assert_same_as_scan(monkeypatch, s, u, want_hess):
        got = _core(G23, s, u, want_grad=True, want_hess=want_hess)
        with monkeypatch.context() as m:
            exact_range_test(m)
            ref = _core(G23, s, u, want_grad=True, want_hess=want_hess)
        for a, b in zip(got, ref):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_hat_at_1025_nodes(self, monkeypatch):
        # the bound decides all but the block where the pair distances
        # cross 1
        u = GridFunction.hat(-1.0, 1.0, 1025)
        orders = np.array([0.9, 0.95, 0.99])
        for s in orders:
            bounds = reaches(s, u)
            assert len(bounds) == 156  # blocks
            assert sum(r <= 1.0 for r, _ in bounds) == 155
            assert all(r >= top for r, top in bounds)
        got = _core(G23, orders, u, want_grad=False)[0]
        with monkeypatch.context() as m:
            exact_range_test(m)
            assert got.tobytes() == _core(G23, orders, u, False)[0].tobytes()
        self.assert_same_as_scan(monkeypatch, 0.9, u, want_hess=False)

    @pytest.mark.parametrize("shape", ["hat of peak 2", "steep random"])
    @pytest.mark.parametrize("s", [0.3, 0.9])
    def test_where_the_scan_fails(self, shape, s, monkeypatch, rng):
        if shape == "hat of peak 2":
            u = GridFunction.hat(-1.0, 1.0, 129) * 2.0
        else:
            u = random_state(rng, 129, amplitude=3.0)
        bounds = reaches(s, u)
        assert all(r >= top for r, top in bounds)
        assert any(top > 1.0 for _, top in bounds)
        self.assert_same_as_scan(monkeypatch, s, u, want_hess=True)

    def test_argument_at_the_kink(self, monkeypatch):
        # on unit elements, u = 0, 1, 2 at the first nodes puts the pair of
        # the middle Gauss points (x = 1/2) of elements 0 and 1 at dist 1
        # and du 1: its argument is exactly 1, where the derivatives take
        # t^3's branch
        u = GridFunction(0.0, 6.0, [0.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0])
        assert u.spacing == 1.0
        _, blocks = next(fractional._pair_bands(np.array([0.6]), 1.0,
                                                u.values[None]))
        _, kern, _, _, du, _ = next(blocks)
        assert np.abs(du[0, 12, 0, 0]) * kern[0, 12, 0, 0] == 1.0
        self.assert_same_as_scan(monkeypatch, 0.6, u, want_hess=True)


class TestSeparationGrading:
    @pytest.mark.parametrize("n", [65, 129])
    @pytest.mark.parametrize("shape", ["hat", "bump"])
    @pytest.mark.parametrize("G", [
        make_power(1.5), G2, make_power(3.0), G23, make_power_log(3.0),
    ], ids=lambda G: G.label)
    def test_matches_uniform_order_five(self, G, shape, n):
        if shape == "hat":
            u = GridFunction.hat(-1.0, 1.0, n)
        else:
            u = GridFunction.from_callable(
                lambda x: (1.0 - x * x) * (0.5 + np.sin(3.0 * x)),
                -1.0, 1.0, n)
        for s in (0.1, 0.5, 0.9, 0.99):
            same = _same_element(G, np.array([s]), u.spacing, u.slopes[None],
                                 want_grad=False)[0][0]
            far = _far_field(G, np.array([s]), u, u.values[None],
                             want_grad=False)[0][0]
            ref = same + uniform_pair_sum(G, s, u) + far
            assert fractional_modular(G, s, u) == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("order", [2, 3, 5, 8])
    @pytest.mark.parametrize("ne", [2, 3, 8, 32, 1024])
    def test_order_rule(self, order, ne):
        q = _pair_orders(ne, order)
        assert q.shape == (ne - 1,)
        assert np.all(q[:2] == order)
        assert np.all(np.diff(q) <= 0)
        assert q.min() >= 2

    def test_order_bands_at_1024_elements(self):
        counts = np.bincount(_pair_orders(1024, 5))
        assert counts[2:].tolist() == [1002, 16, 3, 2]
