"""The growth function induced by the s->1 limit of scaled seminorms.

For a growth function G and dimension n, the limit density is

    tilde_G(a) = integral over tau in (0,1) and the unit sphere of
                 G(a * |w_n| * tau) dS_w dtau/tau,

obtained from the scaled pre-limit (1-s) * int_0^1 int_S G(a |w_n| r^(1-s))
dS dr/r through the exact change of variables tau = r^(1-s), which removes
the s-dependence altogether. In n = 1 the sphere is two points and the
density is twice the radial profile I(a) = int_0^a G(v)/v dv, which the far
field of the fractional modular needs as well (`radial_profile`). Closed
forms are available for pure powers, the log-weight family t^p |log t|, and
maxima of two powers; everything else goes through quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import integrate

from ._quadrature import gauss_rule_01, tanh_sinh_rule_01
from .errors import (
    InvalidParameterError,
    ToleranceNotMetError,
    UnsupportedDimensionError,
)
from .orlicz import OrliczFunction, make_custom

_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}
_SPHERE_ORDER = 120  # Gauss order for the polar reduction of sphere integrals
_TAU_FLOOR = 1e-12
# Tanh-sinh rule of the radial profile: 2*20+1 nodes per piece, last node at
# t = 3.1. Against exact values for powers (p = 1.01 .. 8), power_log(3),
# power_abslog(2) and max(power(2), power(3)) on a in [1e-3, 40] it is within
# 3e-15 relative; span 3.0 loses a digit, 2.9 two.
_PROFILE_STEPS = 20
_PROFILE_SPAN = 3.1


def ball_volume(n: int) -> float:
    """Volume of the unit ball, hard-coded for n in {1, 2, 3}."""
    try:
        return _BALL_VOLUME[n]
    except KeyError:
        raise UnsupportedDimensionError(f"dimension {n} not in {{1, 2, 3}}")


def sphere_surface(n: int) -> float:
    """Surface measure n * omega_n of the unit sphere."""
    return n * ball_volume(n)


def _check_dim(n):
    if n not in (1, 2, 3):
        raise UnsupportedDimensionError(f"dimension {n} not in {{1, 2, 3}}")


def sphere_moment(n: int, p: float) -> float:
    """Moment K = int over the unit sphere of |w_n|^p dS.

    n = 1 is the two-point sphere (K = 2); n = 2 reduces to the angle
    integral of |sin|^p; n = 3 reduces to the polar angle.
    """
    _check_dim(n)
    if not (np.isfinite(p) and p >= 0.0):
        raise InvalidParameterError(f"moment exponent must be >= 0: {p}")
    if n == 1:
        return 2.0
    if n == 2:
        val, _ = integrate.quad(lambda t: np.sin(t) ** p, 0.0, math.pi / 2.0,
                                epsabs=1e-14, epsrel=1e-12)
        return 4.0 * val
    val, _ = integrate.quad(
        lambda phi: np.abs(np.cos(phi)) ** p * np.sin(phi), 0.0, math.pi,
        epsabs=1e-14, epsrel=1e-12)
    return 2.0 * math.pi * val


def sphere_log_moment(n: int, p: float) -> float:
    """int over the sphere of |w_n|^p * |log|w_n|| dS (zero for n = 1)."""
    _check_dim(n)
    if n == 1:
        return 0.0
    if n == 2:
        val, _ = integrate.quad(
            lambda t: np.sin(t) ** p * np.abs(np.log(np.sin(t))),
            0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-12)
        return 4.0 * val
    val, _ = integrate.quad(
        lambda u: u ** p * np.abs(np.log(u)), 0.0, 1.0,
        epsabs=1e-14, epsrel=1e-12)
    return 4.0 * math.pi * val


def sphere_integral(G, n: int, c: float) -> float:
    """int over the unit sphere of G(c * |w_n|) dS for scalar c >= 0.

    The polar reduction is integrated piecewise between the preimages of
    G's derivative kinks (where c * |w_n| crosses them), so the fixed-order
    Gauss rule keeps its accuracy for kinked growth functions.
    """
    _check_dim(n)
    if c == 0.0:
        return 0.0
    if n == 1:
        return 2.0 * float(G(np.asarray(c, dtype=float)))
    x, w = gauss_rule_01(_SPHERE_ORDER)
    kinks = getattr(G, "kinks", ())
    cuts = sorted({k / c for k in kinks if 0.0 < k / c < 1.0})
    if n == 2:
        edges = [0.0, *(math.asin(t) for t in cuts), 0.5 * math.pi]
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            theta = lo + (hi - lo) * x
            total += (hi - lo) * float(w @ G(c * np.sin(theta)))
        return 4.0 * total
    edges = [0.0, *cuts, 1.0]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        t = lo + (hi - lo) * x
        total += (hi - lo) * float(w @ G(c * t))
    return 4.0 * math.pi * total


def _density_argument(a):
    """a as a float array, after checking that every entry is finite, >= 0."""
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise InvalidParameterError(f"density argument must be >= 0: {a}")
    return arr


def _scalar_or_array(out):
    out = np.asarray(out, dtype=float)
    return float(out) if out.ndim == 0 else out


def _elementwise(f, a):
    """f applied to every entry of the array a; a float for a 0-d a."""
    if a.ndim == 0:
        return f(float(a))
    return np.array([f(float(x)) for x in a.ravel()]).reshape(a.shape)


def radial_profile(G: OrliczFunction, w) -> np.ndarray:
    """I(w) = int_0^w G(v)/v dv elementwise, for an array w >= 0.

    One tanh-sinh rule per piece between 0, the kinks of G below w and w
    itself (a kink above w gives a piece of width zero). A kink at or above
    every entry is dropped, so no piece has zero width for every entry; G
    is evaluated once, on all pieces together. The double-exponential node
    clustering resolves the algebraic/logarithmic behaviour of G(v)/v at
    v = 0, and the split keeps every piece free of interior kinks. The
    derivative is exactly G(w)/w.
    """
    w = np.asarray(w, dtype=float)
    x, om = tanh_sinh_rule_01(_PROFILE_STEPS, _PROFILE_SPAN)
    top = float(np.max(w, initial=0.0))
    cuts = [k for k in sorted(set(G.kinks)) if 0.0 < k < top]
    lo = np.stack([np.zeros_like(w), *(np.minimum(k, w) for k in cuts)],
                  axis=-1)
    width = np.concatenate([lo[..., 1:], w[..., None]], axis=-1) - lo
    v = lo[..., None] + width[..., None] * x
    f = G(v) / np.where(v > 0.0, v, 1.0)  # G(0) = 0 closes the v = 0 node
    return np.sum(width * (f @ om), axis=-1)


def _sphere_tilde(G, n, a):
    """tilde_G(a) for scalar a > 0, n in {2, 3}: adaptive tau quadrature
    over the sphere integral.

    The tau integrand extends continuously by 0 at tau = 0; the sliver
    (0, 1e-12) is added as its trapezoid estimate (bounded through the
    small-slope constant), the rest goes to adaptive quadrature.
    """
    if a == 0.0:
        return 0.0

    def integrand(tau):
        return sphere_integral(G, n, a * tau) / tau

    # The sphere integrand changes analytic branch where a*tau crosses the
    # kinks of G; telling the adaptive rule about those points keeps its
    # extrapolation stable on top of the fixed-order inner rule.
    breaks = sorted({k / a for k in (1.0, *G.kinks)
                     if _TAU_FLOOR < k / a < 1.0})
    val, err = integrate.quad(integrand, _TAU_FLOOR, 1.0,
                              epsabs=1e-14, epsrel=1e-9, limit=400,
                              points=breaks or None)
    val += 0.5 * integrand(_TAU_FLOOR) * _TAU_FLOOR
    if not np.isfinite(val) or (err > 1e-7 * max(abs(val), 1e-300)
                                and err > 1e-11):
        raise ToleranceNotMetError(
            f"density quadrature failed at a = {a}", achieved=val)
    return val


def tilde_eval(G: OrliczFunction, n: int, a):
    """Limit density at a (a float, or an array of the shape of a).

    n = 1: twice the radial profile, a fixed kink-split tanh-sinh rule
    evaluated for all entries at once. n = 2, 3: the s-free substituted
    double integral, by adaptive quadrature per entry. Never dispatches to
    a closed form, so it can be checked against `tilde_closed_form`.
    """
    _check_dim(n)
    a = _density_argument(a)
    if n == 1:
        return _scalar_or_array(2.0 * radial_profile(G, a))
    return _elementwise(lambda x: _sphere_tilde(G, n, x), a)


def tilde_prelimit(G: OrliczFunction, n: int, a: float, s: float) -> float:
    """Scaled pre-limit (1-s) * int_0^1 int_S G(a |w_n| r^(1-s)) dS dr/r.

    Computed from the literal r-integral (no flattening substitution) so it
    can cross-validate `tilde_eval` and exhibit the s-independence
    empirically. The radial variable is parametrized logarithmically,
    r = exp(-y), because for s near 1 essentially all of the mass sits at
    radii like exp(-1/(1-s)) that an algebraic subdivision never reaches.
    """
    _check_dim(n)
    if not (0.0 < s < 1.0):
        raise InvalidParameterError(f"fractional parameter must be in (0,1): {s}")
    if not np.isfinite(a) or a < 0.0:
        raise InvalidParameterError(f"density argument must be >= 0: {a}")
    if a == 0.0:
        return 0.0

    def integrand(y):
        return sphere_integral(G, n, a * math.exp(-(1.0 - s) * y))

    # Split where the sphere argument crosses the kinks of G, then a final
    # infinite piece for the decaying tail.
    breaks = sorted({math.log(a / k) / (1.0 - s) for k in (1.0, *G.kinks)
                     if a > k})
    edges = [0.0, *breaks]
    val = 0.0
    err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        piece, perr = integrate.quad(integrand, lo, hi, epsabs=1e-14,
                                     epsrel=1e-9, limit=400)
        val += piece
        err += perr
    piece, perr = integrate.quad(integrand, edges[-1], np.inf,
                                 epsabs=1e-14, epsrel=1e-9, limit=400)
    val += piece
    err += perr
    val *= (1.0 - s)
    err *= (1.0 - s)
    if not np.isfinite(val) or (err > 1e-6 * max(abs(val), 1e-300)
                                and err > 1e-11):
        raise ToleranceNotMetError(
            f"pre-limit quadrature failed at a = {a}, s = {s}", achieved=val)
    return val


def _piece_integral(f, lo, hi, order=_SPHERE_ORDER):
    if hi <= lo:
        return 0.0
    x, w = gauss_rule_01(order)
    t = lo + (hi - lo) * x
    return (hi - lo) * float(w @ f(t))


def _abslog_profile(c, p):
    """int_0^c u^(p-1) |log u| du, elementwise for c >= 0."""
    c = np.asarray(c, dtype=float)
    out = np.zeros_like(c)
    m = (c > 0.0) & (c <= 1.0)
    with np.errstate(divide="ignore"):
        out[m] = (c[m] ** p / p) * (np.abs(np.log(c[m])) + 1.0 / p)
    m = c > 1.0
    out[m] = (c[m] ** p / p) * (np.log(c[m]) - 1.0 / p) + 2.0 / p ** 2
    return out


def _closed_profile(kind, params, a):
    """Radial profile int_0^a G(v)/v dv of a closed-form family, elementwise
    (tilde_G = 2 * profile in n = 1)."""
    if kind == "power":
        (p,) = params
        return a ** p / p
    if kind in ("power_log", "power_abslog"):
        return _abslog_profile(a, params[0])
    q, p = params
    return np.where(a <= 1.0, a ** q / q, a ** p / p + (1.0 / q - 1.0 / p))


def _sphere_closed_form(kind, params, n, a):
    """tilde_closed_form for scalar a >= 0 and n in {2, 3}."""
    if a == 0.0:
        return 0.0

    if kind == "power":
        (p,) = params
        return sphere_moment(n, p) * a ** p / p

    if kind in ("power_log", "power_abslog"):
        (p,) = params
        if a <= 1.0:
            K = sphere_moment(n, p)
            Klog = sphere_log_moment(n, p)
            return (a ** p / p) * (K * abs(math.log(a)) + Klog + K / p)
        c = 1.0 / a
        if n == 2:
            theta_c = math.asin(c)

            def f(theta):
                return _abslog_profile(a * np.sin(theta), p)

            return 4.0 * (_piece_integral(f, 0.0, theta_c)
                          + _piece_integral(f, theta_c, math.pi / 2.0))

        def f(t):
            return _abslog_profile(a * t, p)

        return 4.0 * math.pi * (_piece_integral(f, 0.0, c)
                                + _piece_integral(f, c, 1.0))

    q, p = params
    if a <= 1.0:
        return sphere_moment(n, q) * a ** q / q
    c = 1.0 / a
    if n == 2:
        theta_c = math.asin(c)
        below = 4.0 * _piece_integral(
            lambda t: np.sin(t) ** q, 0.0, theta_c)
        above = 4.0 * _piece_integral(
            lambda t: np.sin(t) ** p, theta_c, math.pi / 2.0)
        area = 2.0 * math.pi - 4.0 * theta_c
    else:
        below = 4.0 * math.pi * c ** (q + 1.0) / (q + 1.0)
        above = 4.0 * math.pi * (1.0 - c ** (p + 1.0)) / (p + 1.0)
        area = 4.0 * math.pi * (1.0 - c)
    return (a ** q / q) * below + (a ** p / p) * above \
        + (1.0 / q - 1.0 / p) * area


def tilde_closed_form(kind: str, params, n: int, a):
    """Explicit limit densities for the three worked families.

    kind = 'power'         params (p,)     base G(t) = t^p
    kind = 'power_abslog'  params (p,)     base G(t) = t^p |log t|
                           ('power_log' is accepted as an alias)
    kind = 'max_powers'    params (q, p)   base G(t) = max(t^q, t^p), 1 < q < p

    a is a float or an array (entrywise; vectorized in n = 1, where the
    density is twice the explicit radial profile). For the log-weight family
    the literature formula (a^p/p) (K_{n,p} |log a| + K_{log,n,p} + K_{n,p}/p)
    is exact only for a <= 1 (all logarithms share a sign there); for a > 1
    the exact value is the sphere integral of the explicit radial
    antiderivative, split at |w_n| = 1/a, mirroring the a > 1 branch of the
    max-of-powers family.
    """
    _check_dim(n)
    a = _density_argument(a)
    if kind not in ("power", "power_log", "power_abslog", "max_powers"):
        raise InvalidParameterError(f"no closed form for kind {kind!r}")
    if kind == "max_powers" and not (1.0 < params[0] < params[1]):
        raise InvalidParameterError(
            f"max_powers needs 1 < q < p, got q={params[0]}, p={params[1]}")
    if n == 1:
        return _scalar_or_array(2.0 * _closed_profile(kind, params, a))
    return _elementwise(lambda x: _sphere_closed_form(kind, params, n, x), a)


def _closed_form_spec(G: OrliczFunction):
    """(kind, params) for tilde_closed_form if G belongs to a known family."""
    if G.kind in ("power", "power_abslog"):
        return G.kind, G.params
    if (G.kind == "pointwise_max" and len(G.children) == 2
            and all(ch.kind == "power" for ch in G.children)):
        exps = sorted(ch.params[0] for ch in G.children)
        if exps[0] < exps[1]:
            return "max_powers", tuple(exps)
    return None


@dataclass(frozen=True)
class LimitDensity:
    """Limit density of a base growth function in dimension n.

    `backing` records whether values come from a closed form or quadrature.
    `value` and `deriv` take a float or an array (entrywise). The derivative
    is always cheap: d/da tilde_G(a) = (1/a) * int_S G(a |w_n|) dS, which in
    n = 1 is 2 G(a)/a, evaluated for all entries at once.
    """

    base: OrliczFunction
    dimension: int
    _spec: Tuple = None

    @property
    def backing(self):
        return "quadrature" if self._spec is None else "closed_form"

    def value(self, a):
        if self._spec is not None:
            kind, params = self._spec
            return tilde_closed_form(kind, params, self.dimension, a)
        return tilde_eval(self.base, self.dimension, a)

    def deriv(self, a):
        a = np.asarray(a, dtype=float)
        if self.dimension == 1:
            pos = a > 0.0
            return _scalar_or_array(np.where(
                pos, 2.0 * self.base(a) / np.where(pos, a, 1.0), 0.0))
        return _elementwise(
            lambda x: sphere_integral(self.base, self.dimension, x) / x
            if x > 0.0 else 0.0, a)

    def as_orlicz(self) -> OrliczFunction:
        """Wrap as a growth function usable by modulars and the solver.

        The wrapper hands whole arrays to `value` and `deriv`, looked up on
        every call (so a wrapper later installed on the class, such as a
        tracing span, sees them). The structural constants are inherited
        from the base function: the doubling ratio and the exponent bound
        survive the averaging that defines the density, and the small-slope
        constant is the value at 1 (the density is again a growth function,
        so G(x)/x is monotone).
        """
        g = self.base
        constants = (g.doubling_constant, g.upper_exponent,
                     g.lower_exponent, self.value(1.0))
        return make_custom(lambda x: self.value(x), lambda x: self.deriv(x),
                           label=f"tilde({g.label}; n={self.dimension})",
                           constants=constants)


def limit_density(G: OrliczFunction, n: int) -> LimitDensity:
    """Build the limit density: the closed form where G's family has one,
    quadrature otherwise."""
    _check_dim(n)
    return LimitDensity(base=G, dimension=n, _spec=_closed_form_spec(G))


def equivalence_constants(G: OrliczFunction, n: int) -> Tuple[float, float]:
    """(c1, c2) with c1 * G <= tilde_G <= c2 * G, from the stored exponents."""
    q = G.lower_exponent
    return sphere_moment(n, 2.0 * q) / (2.0 * q), sphere_surface(n)
