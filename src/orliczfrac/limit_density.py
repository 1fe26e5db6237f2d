"""The growth function induced by the s->1 limit of scaled seminorms.

For a growth function G and dimension n, the limit density is

    tilde_G(a) = int_0^1 int_S G(a |w_n| r) dS_w dr/r = int_S I(a |w_n|) dS_w,

with the radial profile I(c) = int_0^c G(v)/v dv (substitute v = a |w_n| r).
The scaled pre-limit (1-s) int_0^1 int_S G(a |w_n| r^(1-s)) dS dr/r equals
it for every s, through the change of variables r -> r^(1-s). The profile
is one fixed rule (`radial_profile`); the far field of the fractional
modular reads it, and its derivatives, as half the n = 1 density through
`limit_density(G, 1)`. `sphere_integral` is the only place where the
dimension enters: the density, its derivative and the closed forms for
a > 1 are all sphere integrals of a radial function. Closed forms are
available for pure powers, the log-weight family t^p |log t|, and maxima of
two powers; everything else goes through quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._quadrature import tanh_sinh_rule_01
from .errors import (
    InvalidParameterError,
    ToleranceNotMetError,
    UnsupportedDimensionError,
)
from .orlicz import OrliczFunction, _finalize

_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}
# Tanh-sinh rule of the radial profile and of the sphere integral's pieces:
# 2*20+1 nodes per piece, last node at t = 3.1. For the profile, against
# exact values for powers (p = 1.01 .. 8), power_log(3), power_abslog(2) and
# max(power(2), power(3)) on a in [1e-3, 40] it is within 3e-15 relative;
# span 3.0 loses a digit, 2.9 two.
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
    """Moment K = int over the unit sphere of |w_n|^p dS, in closed form:

        K = 2 pi^((n-1)/2) Gamma((p+1)/2) / Gamma((n+p)/2),

    the Beta integral of the polar reduction (K = 2 for the two-point
    sphere n = 1).
    """
    _check_dim(n)
    if not (np.isfinite(p) and p >= 0.0):
        raise InvalidParameterError(f"moment exponent must be >= 0: {p}")
    return (2.0 * math.pi ** ((n - 1) / 2.0) * math.gamma((p + 1.0) / 2.0)
            / math.gamma((n + p) / 2.0))


def sphere_log_moment(n: int, p: float) -> float:
    """int over the sphere of |w_n|^p * |log|w_n|| dS (zero for n = 1).

    Minus half the p-derivative of the moment, since |w_n| <= 1:
    -K(p) (psi((p+1)/2) - psi((n+p)/2)) / 2 with the digamma function psi.
    """
    _check_dim(n)
    if n == 1:
        return 0.0
    # imported here, as n = 1 needs none of it: scipy.special is a large
    # share of a CLI call's start-up
    from scipy.special import digamma
    return -sphere_moment(n, p) * (digamma((p + 1.0) / 2.0)
                                   - digamma((n + p) / 2.0)) / 2.0


def sphere_integral(f, n: int, c, kinks) -> np.ndarray:
    """int over the unit sphere of f(c |w_n|) dS, elementwise for an array
    c >= 0 and a vectorized f with derivative kinks at `kinks`. An f that
    returns a tuple of arrays, several integrands from one evaluation,
    gives the tuple of their integrals.

    n = 1: the sphere is the two points +-1, so the value is 2 f(c).
    n = 2, 3: the polar reductions 4 int_0^(pi/2) f(c sin t) dt and
    4 pi int_0^1 f(c t) dt by `_kink_split_rule`, which keeps the rule's
    accuracy for kinked f and for f(c |w_n|) ~ |w_n|^p at |w_n| = 0.
    """
    _check_dim(n)
    c = np.asarray(c, dtype=float)
    if n == 1:
        return _each(f(c), lambda v: 2.0 * v)
    scale = 4.0 if n == 2 else 4.0 * math.pi
    return _each(_kink_split_rule(f, c, kinks, polar=n == 2),
                 lambda v: scale * v)


def _each(vals, op):
    """op on an array, or on each array of a tuple."""
    return tuple(map(op, vals)) if isinstance(vals, tuple) else op(vals)


def _kink_cuts(c, kinks):
    """min(k/c, 1) per kink k of f below max(c), in increasing order: where
    the argument c t crosses a kink (a kink above an entry gives it 1)."""
    top = float(np.max(c, initial=0.0))
    with np.errstate(divide="ignore"):
        return [np.minimum(k / c, 1.0) for k in sorted(set(kinks))
                if 0.0 < k < top]


def split_nodes(shape, cuts, end):
    """The profile's tanh-sinh rule on the pieces of (0, end) between
    ``cuts`` (increasing arrays of ``shape``): nodes t (shape + (pieces,
    nodes)), piece widths and weights w, so that
    ``np.sum(width * (f(t) @ w), axis=-1)`` integrates f per entry."""
    x, w = tanh_sinh_rule_01(_PROFILE_STEPS, _PROFILE_SPAN)
    lo = np.stack([np.zeros(shape), *cuts], axis=-1)
    hi = np.concatenate([lo[..., 1:], np.full(shape + (1,), end)], -1)
    width = hi - lo
    return lo[..., None] + width[..., None] * x, width, w


def _kink_split_rule(f, c, kinks, polar):
    """int_0^1 f(c t) dt, or int_0^(pi/2) f(c sin t) dt if ``polar``,
    elementwise for an array c >= 0.

    Split per entry where the argument crosses a kink, then the profile's
    tanh-sinh rule on every piece: its node clustering resolves algebraic
    and logarithmic behaviour at the ends. f is evaluated once, on all
    pieces and entries together (an f that returns a tuple gives one
    integral per entry of it).
    """
    cuts = _kink_cuts(c, kinks)
    end = 1.0
    if polar:
        cuts, end = [np.arcsin(t) for t in cuts], 0.5 * math.pi
    t, width, w = split_nodes(c.shape, cuts, end)
    vals = f(c[..., None, None] * (np.sin(t) if polar else t))
    return _each(vals, lambda v: np.sum(width * (v @ w), axis=-1))


def _density_argument(a):
    """a as a float array, after checking that every entry is finite, >= 0:
    a NaN makes the least entry NaN, which fails the test too."""
    arr = np.asarray(a, dtype=float)
    if arr.size and not 0.0 <= arr.min() <= arr.max() < np.inf:
        raise InvalidParameterError(f"density argument must be >= 0: {a}")
    return arr


def _scalar_or_array(out):
    out = np.asarray(out, dtype=float)
    return float(out) if out.ndim == 0 else out


def radial_profile(G: OrliczFunction, w) -> np.ndarray:
    """I(w) = int_0^w G(v)/v dv = w int_0^1 g(w t) dt with g(v) = G(v)/v,
    elementwise for an array w >= 0, by `_kink_split_rule`: one tanh-sinh
    piece between 0, the kinks of G below w and w itself. The derivative
    is exactly G(w)/w.
    """
    w = np.asarray(w, dtype=float)

    def g(v):
        return G(v) / np.where(v > 0.0, v, 1.0)  # G(0) = 0 closes v = 0

    return w * _kink_split_rule(g, w, G.kinks, polar=False)


def tilde_eval(G: OrliczFunction, n: int, a):
    """Limit density at a (a float, or an array of the shape of a).

    The sphere integral of the radial profile, int_S I(a |w_n|) dS, both by
    fixed rules, for all entries at once (2 I(a) in n = 1). Never
    dispatches to a closed form, so it can be checked against
    `tilde_closed_form`.
    """
    _check_dim(n)
    a = _density_argument(a)
    return _scalar_or_array(
        sphere_integral(lambda c: radial_profile(G, c), n, a, G.kinks))


def tilde_prelimit(G: OrliczFunction, n: int, a: float, s: float) -> float:
    """Scaled pre-limit (1-s) * int_0^1 int_S G(a |w_n| r^(1-s)) dS dr/r.

    Computed from the literal r-integral (no flattening substitution) so it
    can cross-validate `tilde_eval` and exhibit the s-independence
    empirically. The radial variable is parametrized logarithmically,
    r = exp(-y), because for s near 1 essentially all of the mass sits at
    radii like exp(-1/(1-s)) that an algebraic subdivision never reaches.
    """
    # imported here: scipy.integrate (with scipy.optimize) is a large import
    # that nothing else in the package needs
    from scipy import integrate

    _check_dim(n)
    if not (0.0 < s < 1.0):
        raise InvalidParameterError(f"fractional parameter must be in (0,1): {s}")
    if _density_argument(a).ndim:
        raise InvalidParameterError(f"pre-limit argument must be a float: {a}")
    if a == 0.0:
        return 0.0

    def integrand(y):
        return float(sphere_integral(G, n, a * math.exp(-(1.0 - s) * y),
                                     G.kinks))

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
    """Radial profile int_0^a G(v)/v dv of a kinked closed-form family,
    elementwise."""
    if kind != "max_powers":
        return _abslog_profile(a, params[0])
    q, p = params
    return np.where(a <= 1.0, a ** q / q, a ** p / p + (1.0 / q - 1.0 / p))


def tilde_closed_form(kind: str, params, n: int, a):
    """Explicit limit densities for the three worked families.

    kind = 'power'         params (p,)     base G(t) = t^p
    kind = 'power_abslog'  params (p,)     base G(t) = t^p |log t|
                           ('power_log' is accepted as an alias)
    kind = 'max_powers'    params (q, p)   base G(t) = max(t^q, t^p), 1 < q < p

    a is a float or an array (entrywise). Pure powers give K_{n,p} a^p / p
    with the sphere moment K_{n,p}. The kinked families have their kink at
    1, so for a <= 1 the moment formulas are exact: K_{n,q} a^q / q for the
    max of powers, and (a^p/p) (K_{n,p} |log a| + K_{log,n,p} + K_{n,p}/p)
    for the log-weight family (all logarithms share a sign there). For
    a > 1 the value is the sphere integral of the explicit radial profile,
    split where a |w_n| = 1.
    """
    _check_dim(n)
    a = _density_argument(a)
    if kind not in ("power", "power_log", "power_abslog", "max_powers"):
        raise InvalidParameterError(f"no closed form for kind {kind!r}")
    if kind == "max_powers" and not (1.0 < params[0] < params[1]):
        raise InvalidParameterError(
            f"max_powers needs 1 < q < p, got q={params[0]}, p={params[1]}")
    p = params[0]
    K = sphere_moment(n, p)
    if kind == "power":
        return _scalar_or_array(K * a ** p / p)
    out = np.zeros_like(a)
    low, high = (a > 0.0) & (a <= 1.0), a > 1.0
    x = a[low]
    if kind == "max_powers":
        out[low] = K * x ** p / p
    else:
        out[low] = (x ** p / p) * (K * np.abs(np.log(x))
                                   + sphere_log_moment(n, p) + K / p)
    out[high] = sphere_integral(lambda c: _closed_profile(kind, params, c),
                                n, a[high], (1.0,))
    return _scalar_or_array(out)


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
    `value` and `deriv` take a float or an array (entrywise). The
    derivatives are always cheap: d/da tilde_G(a) = (1/a) int_S G(a |w_n|) dS
    is one sphere integral of G itself (2 G(a)/a in n = 1), and
    d^2/da^2 tilde_G(a) = (1/a^2) int_S (t G'(t) - G(t))|_{t = a |w_n|} dS
    one of t G'(t) - G(t) (2 (a G'(a) - G(a)) / a^2 in n = 1). Both come
    from one jet G(t, 2) of the base on the sphere's arguments, for all
    entries at once (`deriv` with n = 2, whose second entry is the second
    derivative).
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

    def deriv(self, a, n=1):
        """The first derivative at a (n = 1), or the pair of the first and
        the second (n = 2) from one evaluation of the base's jet. ``a``
        is checked as `value` checks it."""
        a = _density_argument(a)
        pos = a > 0.0
        G = self.base

        def integrands(t):  # G, and for n = 2 also t G'(t) - G(t)
            g = G(t, n)
            return (g[0],) if n == 1 else (g[0], t * g[1] - g[0])

        flux, *curv = sphere_integral(integrands, self.dimension, a, G.kinks)
        d1 = _scalar_or_array(np.where(pos, flux / np.where(pos, a, 1.0), 0.0))
        if n == 1:
            return d1
        # at a = 0 the limit is G''(0)/2 times int_S |w_n|^2 dS, read only
        # where some a is 0
        at_zero = 0.0 if pos.all() else (
            float(G(0.0, 3)[2]) / 2.0 * sphere_moment(self.dimension, 2.0))
        return d1, _scalar_or_array(
            np.where(pos, curv[0] / np.where(pos, a * a, 1.0), at_zero))

    def as_orlicz(self) -> OrliczFunction:
        """Wrap as a growth function usable by modulars and the solver.

        The wrapper's jet hands whole arrays to `value` and `deriv`, looked
        up on every call (so a wrapper later installed on the class, such
        as a tracing span, sees them); its G' and G'' are one `deriv` call.
        The structural constants are inherited from the base function: the
        doubling ratio and the exponent bound survive the averaging that
        defines the density.
        """
        g = self.base
        constants = (g.doubling_constant, g.upper_exponent, g.lower_exponent)

        def jet(x, n):
            out = [self.value(x)]
            if n == 2:
                out.append(self.deriv(x))
            if n == 3:
                out.extend(self.deriv(x, 2))
            return out

        return _finalize("custom", (), jet,
                         f"tilde({g.label}; n={self.dimension})",
                         exact=constants)


def limit_density(G: OrliczFunction, n: int) -> LimitDensity:
    """Build the limit density: the closed form where G's family has one,
    quadrature otherwise."""
    _check_dim(n)
    return LimitDensity(base=G, dimension=n, _spec=_closed_form_spec(G))


def equivalence_constants(G: OrliczFunction, n: int) -> Tuple[float, float]:
    """(c1, c2) with c1 * G <= tilde_G <= c2 * G, from the stored exponents."""
    q = G.lower_exponent
    return sphere_moment(n, 2.0 * q) / (2.0 * q), sphere_surface(n)
