import numpy as np
import pytest

from orliczfrac import (
    GridFunction,
    InvalidParameterError,
    UndefinedRatioError,
    bbm_curve,
    make_power,
    poincare_budget,
    poincare_check,
)
from orliczfrac.properties import random_zero_trace

G2 = make_power(2.0)


class TestCurve:
    def test_hat_extrapolates_to_slope_modular(self):
        u = GridFunction.hat(-1.0, 1.0, 257)
        curve = bbm_curve(G2, u, [0.9, 0.95, 0.99])
        assert curve.target == pytest.approx(2.0, rel=1e-9)
        assert curve.rel_gap < 0.02

    def test_zero_function(self):
        z = GridFunction.zeros(-1.0, 1.0, 65)
        curve = bbm_curve(G2, z, [0.5, 0.9])
        assert all(y == 0.0 for _, y in curve.entries)
        assert curve.extrapolated_limit == 0.0
        assert curve.target == 0.0

    def test_quadratic_homogeneity_of_curve(self):
        u = GridFunction.hat(-1.0, 1.0, 129)
        c1 = bbm_curve(G2, u, [0.8, 0.9])
        c2 = bbm_curve(G2, u * 2.0, [0.8, 0.9])
        for (_, y1), (_, y2) in zip(c1.entries, c2.entries):
            assert y2 == pytest.approx(4.0 * y1, rel=1e-12)

    def test_single_order_is_its_own_extrapolation(self):
        u = GridFunction.hat(-1.0, 1.0, 65)
        curve = bbm_curve(G2, u, [0.9])
        ((s, y),) = curve.entries
        assert s == 0.9
        assert curve.extrapolated_limit == y
        assert bbm_curve(G2, u, 0.9) == curve   # a scalar is one order

    def test_needs_zero_trace(self):
        bad = GridFunction(-1.0, 1.0, np.linspace(1.0, 0.0, 17))
        with pytest.raises(InvalidParameterError):
            bbm_curve(G2, bad, [0.5])

    def test_orders_must_increase(self):
        u = GridFunction.hat(-1.0, 1.0, 17)
        with pytest.raises(InvalidParameterError):
            bbm_curve(G2, u, [0.9, 0.5])


class TestRandomCurves:
    @staticmethod
    def _random_coarse(rng, node_count=1025, coarse=17, amplitude=1.0):
        # random kinks on a coarse aligned grid, represented exactly on the
        # fine mesh; feature scale above the mesh keeps s = 0.99 inside the
        # asymptotic regime of the limit (mesh-scale noise would not be)
        stride = (node_count - 1) // (coarse - 1)
        coarse_vals = np.concatenate([[0.0],
                                      rng.normal(size=coarse - 2) * amplitude,
                                      [0.0]])
        v = np.empty(node_count)
        for i in range(coarse - 1):
            seg = np.linspace(coarse_vals[i], coarse_vals[i + 1],
                              stride + 1)
            v[i * stride:(i + 1) * stride + 1] = seg
        return GridFunction(-1.0, 1.0, v)

    def test_random_states_reach_target(self, rng):
        """20 random zero-trace functions, cycling the built-in set.

        Along each sampled curve: the extrapolation lands within 5% of the
        slope-modular target, every entry obeys the local upper bound
        (1-s) Phi_s <= 2 Phi(|u'|) + 4C(1-s)/s Phi(u), and consecutive
        entries satisfy the two-order comparison.
        """
        from orliczfrac import gradient_modular, modular
        from orliczfrac.properties import builtin_suite_functions

        builtins = builtin_suite_functions()
        s_list = [0.9, 0.95, 0.99]
        for k in range(20):
            G = builtins[k % len(builtins)]
            u = self._random_coarse(rng, coarse=(9, 17, 33)[k % 3],
                                    amplitude=rng.uniform(0.3, 1.5))
            curve = bbm_curve(G, u, s_list)
            assert curve.rel_gap <= 0.05, (G.label, curve.rel_gap)

            slope_mod = gradient_modular(G, u)
            plain_mod = modular(G, u)
            C = G.doubling_constant
            for s, y in curve.entries:
                cap = 2.0 * slope_mod + 4.0 * C * (1.0 - s) / s * plain_mod
                assert y <= cap * (1.0 + 1e-9)
            for (s1, y1), (s2, y2) in zip(curve.entries, curve.entries[1:]):
                bound = 2.0 ** (1.0 - s1) * y2 \
                    + 4.0 * C * (1.0 - s1) / s1 * plain_mod
                assert y1 <= bound * (1.0 + 1e-6)


class TestPoincare:
    def test_hat_ratio_is_finite_and_positive(self):
        u = GridFunction.hat(-1.0, 1.0, 129)
        rep = poincare_check(G2, 0.5, u)
        assert 0.0 < rep.ratio < np.inf
        assert rep.within_budget

    def test_ratio_is_scale_free_for_powers(self):
        u = GridFunction.hat(-1.0, 1.0, 129)
        r1 = poincare_check(G2, 0.5, u).ratio
        r2 = poincare_check(G2, 0.5, u * 2.0).ratio
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_budget_formula(self):
        # 2 q s (d+1)^(2qs) / (n omega_n (1-s)) with q = 2, d = 2, n = 1
        got = poincare_budget(G2, 0.5, 2.0)
        assert got == pytest.approx(2.0 * 2.0 * 0.5 * 3.0 ** 2.0
                                    / (2.0 * 0.5))

    def test_random_batch_within_budget(self, rng):
        for _ in range(10):
            u = random_zero_trace(rng, node_count=129,
                                  amplitude=rng.uniform(0.2, 3.0))
            for s in (0.3, 0.6, 0.9):
                assert poincare_check(G2, s, u).within_budget

    def test_zero_function_rejected(self):
        z = GridFunction.zeros(-1.0, 1.0, 17)
        with pytest.raises(UndefinedRatioError):
            poincare_check(G2, 0.5, z)
        with pytest.raises(UndefinedRatioError):
            poincare_check(G2, [0.5, 0.9], z)

    def test_orders_give_one_report_each(self, rng):
        u = random_zero_trace(rng, node_count=65)
        orders = [0.9, 0.3, 0.6, 0.3]
        reports = poincare_check(G2, orders, u)
        assert reports == tuple(poincare_check(G2, s, u) for s in orders)
