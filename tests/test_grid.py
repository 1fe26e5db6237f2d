import math

import numpy as np
import pytest

from orliczfrac import (
    DegenerateMollifierWarning,
    GridFunction,
    InvalidInputError,
    InvalidParameterError,
    fractional_modular,
    gradient_modular,
    luxemburg_norm,
    make_power,
    modular,
    mollify,
    translate,
    truncate,
)

G2 = make_power(2.0)


class TestGridFunction:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            GridFunction(0.0, 1.0, [1.0])
        with pytest.raises(InvalidParameterError):
            GridFunction(1.0, 0.0, [0.0, 0.0])
        with pytest.raises(InvalidParameterError):
            GridFunction(0.0, 1.0, [0.0, np.nan, 0.0])

    def test_zero_extension(self):
        u = GridFunction.hat(-1.0, 1.0, 9)
        assert u(0.0) == 1.0
        assert u(2.0) == 0.0
        assert u(-5.0) == 0.0

    def test_values_immutable(self):
        u = GridFunction.hat(-1.0, 1.0, 9)
        with pytest.raises(ValueError):
            u.values[0] = 3.0

    def test_zero_trace_flag(self):
        assert GridFunction.hat(-1.0, 1.0, 9).in_zero_trace_cone
        assert not GridFunction(0.0, 1.0, [1.0, 0.0, 0.0]).in_zero_trace_cone

    def test_arithmetic_requires_matching_mesh(self):
        u = GridFunction.hat(-1.0, 1.0, 9)
        v = GridFunction.hat(-1.0, 1.0, 17)
        with pytest.raises(InvalidInputError):
            _ = u + v

    def test_embed_alignment(self):
        u = GridFunction.hat(-1.0, 1.0, 9)
        w = u.embed(-1.5, 1.25)
        assert w.node_count == 9 + 2 + 1
        assert np.allclose(w(u.nodes), u.values)
        with pytest.raises(InvalidInputError):
            u.embed(-1.1, 1.0)

    def test_csv_roundtrip(self):
        u = GridFunction.hat(-1.0, 1.0, 9, peak=math.pi)
        text = u.to_csv()
        assert text.splitlines()[0] == "x,u"
        v = GridFunction.from_csv(text)
        assert v.left == u.left and v.right == u.right
        assert np.array_equal(v.values, u.values)


class TestModulars:
    def test_hat_square_modular(self):
        # int (1-|x|)^2 over (-1,1) = 2/3
        u = GridFunction.hat(-1.0, 1.0, 1025)
        assert modular(G2, u) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_zero(self):
        z = GridFunction.zeros(-1.0, 1.0, 65)
        assert modular(G2, z) == 0.0
        assert gradient_modular(G2, z) == 0.0

    def test_plateau_limit(self):
        # trapezoid approaching the indicator of (0,1): modular -> c^2
        c = 1.7
        for n in (257, 1025, 4097):
            x = np.linspace(0.0, 1.0, n)
            ramp = np.minimum(1.0, np.minimum(x, 1.0 - x) * (n - 1))
            u = GridFunction(0.0, 1.0, c * ramp)
            val = modular(G2, u)
        assert val == pytest.approx(c ** 2, rel=2e-3)

    def test_hat_slope_modular(self):
        u = GridFunction.hat(-1.0, 1.0, 129)
        assert gradient_modular(G2, u) == pytest.approx(2.0)

    def test_parabola_slope_modular(self):
        # int_0^1 ((1-2x)/4)^2 dx = 1/48
        u = GridFunction.from_callable(lambda x: x * (1.0 - x) / 4.0,
                                       0.0, 1.0, 2049)
        assert gradient_modular(G2, u) == pytest.approx(1.0 / 48.0, abs=1e-5)


class TestLuxemburg:
    def test_zero(self):
        z = GridFunction.zeros(-1.0, 1.0, 65)
        assert luxemburg_norm(lambda f: modular(G2, f), z) == 0.0

    def test_hat_matches_l2_norm(self):
        u = GridFunction.hat(-1.0, 1.0, 1025)
        lam = luxemburg_norm(lambda f: modular(G2, f), u)
        assert lam == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-7)

    def test_unit_modular_scaling(self):
        u = GridFunction.hat(-1.0, 1.0, 1025)
        u = u * (1.0 / math.sqrt(modular(G2, u)))
        lam = luxemburg_norm(lambda f: modular(G2, f), u)
        assert lam == pytest.approx(1.0, abs=1e-8)

    def test_bracketing_at_convergence(self):
        u = GridFunction.hat(-1.0, 1.0, 257) * 3.7
        lam = luxemburg_norm(lambda f: modular(G2, f), u)
        assert modular(G2, u * (1.0 / (lam + 1e-7))) <= 1.0
        assert modular(G2, u * (1.0 / (lam - 1e-7))) >= 1.0


class TestTranslate:
    def test_zero_shift_identity(self):
        u = GridFunction.hat(-1.0, 1.0, 65)
        assert translate(u, 0.0) is u

    def test_whole_spacing_shift_exact(self):
        u = GridFunction.hat(-1.0, 1.0, 65)
        h = u.spacing
        v = translate(u, h)
        assert v.node_count == 66
        assert np.allclose(v(u.nodes - h), u.values)

    def test_shift_bound(self):
        u = GridFunction.hat(-1.0, 1.0, 65)
        with pytest.raises(InvalidParameterError):
            translate(u, 2.5)


class TestMollify:
    def test_zero(self):
        z = GridFunction.zeros(-1.0, 1.0, 65)
        assert not np.any(mollify(z, 0.1).values)

    def test_mass_preserved(self):
        u = GridFunction.hat(-1.0, 1.0, 257)
        v = mollify(u, 0.1)
        mass_u = u.spacing * np.sum(u.values)
        mass_v = v.spacing * np.sum(v.values)
        assert mass_v == pytest.approx(mass_u, abs=1e-10)

    def test_degenerate_width_warns(self):
        u = GridFunction.hat(-1.0, 1.0, 17)
        with pytest.warns(DegenerateMollifierWarning):
            v = mollify(u, 1e-4)
        assert v is u

    def test_seminorm_does_not_increase(self):
        u = GridFunction.hat(-1.0, 1.0, 257)
        v = mollify(u, 0.1)
        lhs = fractional_modular(G2, 0.5, v)
        rhs = fractional_modular(G2, 0.5, u)
        assert lhs <= rhs * (1.0 + 1e-3)


class TestTransformBoundsOnTent:
    def test_translation_bound(self):
        # Phi(shifted - u) <= 2^(2+s) C / 2 * |h|^s * Phi_s(u)
        u = GridFunction.hat(-1.0, 1.0, 257)
        s, shift = 0.5, 0.5
        shifted = translate(u, shift)
        diff = shifted - u.embed(shifted.left, shifted.right)
        lhs = modular(G2, diff)
        rhs = 2.0 ** (2.0 + s) * G2.doubling_constant / 2.0 \
            * shift ** s * fractional_modular(G2, s, u)
        assert lhs <= rhs

    def test_truncation_bound(self):
        # Phi_s(cutoff u) <= Phi_s(u) + C^2/2 * 2 * (1/s + 1/(k(1-s))) Phi(u)
        u = GridFunction.hat(-1.0, 1.0, 257)
        s, k = 0.5, 0.5
        lhs = fractional_modular(G2, s, truncate(u, k))
        C = G2.doubling_constant
        rhs = fractional_modular(G2, s, u) + 0.5 * C ** 2 * 2.0 \
            * (1.0 / s + 1.0 / (k * (1.0 - s))) * modular(G2, u)
        assert lhs <= rhs

    def test_gauge_norm_of_fractional_modular(self):
        u = GridFunction.hat(-1.0, 1.0, 65)
        lam = luxemburg_norm(lambda f: fractional_modular(G2, 0.5, f), u)
        assert lam > 0.0
        assert fractional_modular(G2, 0.5, u * (1.0 / (lam + 1e-7))) <= 1.0
        assert fractional_modular(G2, 0.5, u * (1.0 / (lam - 1e-7))) >= 1.0


class TestTruncate:
    def test_wide_cutoff_is_identity(self):
        u = GridFunction.hat(-1.0, 1.0, 65)
        v = truncate(u, 2.0)
        assert np.array_equal(v.values, u.values)

    def test_support_shrinks(self):
        u = GridFunction.hat(-1.0, 1.0, 257)
        v = truncate(u, 0.4)
        outside = np.abs(v.nodes) >= 0.8
        assert not np.any(v.values[outside])

    def test_positive_radius_required(self):
        with pytest.raises(InvalidParameterError):
            truncate(GridFunction.hat(-1.0, 1.0, 17), 0.0)

