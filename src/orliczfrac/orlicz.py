"""Orlicz growth functions and their structural constants.

A growth function G here is a convex, increasing map of the half line with
G(0) = 0, doubling control G(2x) <= C*G(x), and superlinear decay at zero.
It stores the constants estimated at construction time:

    doubling_constant   C     sup G(2x)/G(x)
    upper_exponent      p     sup x*G'(x)/G(x)
    lower_exponent      q     log(C)/log(2)

C is read by `verify_orlicz` and by `properties` (the inequality battery
and the transform suite), p by `properties`, q by `properties`, `limits`
(the Poincare budget) and `limit_density` (the equivalence constants);
`LimitDensity.as_orlicz` hands C, p and q on to the density it wraps.

Factories cover the standard families (powers, powers with log weights,
weighted sums, pointwise maxima, compositions), each with one jet that
gives G and its first two derivatives from one pass; `make_custom` wraps
arbitrary callables for internal use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    InvalidFunctionError,
    InvalidParameterError,
    NumericOverflowError,
)

_SAFETY = 1.01
_GRID_POINTS = 512
_VERIFY_POINTS = 256
_GRID_LO, _GRID_HI = 1e-6, 1e6


@dataclass(frozen=True)
class OrliczFunction:
    """Immutable growth function with cached structural constants.

    Instances are callable, vectorized over numpy arrays of arguments
    t >= 0: ``G(t)`` is the value, and ``G(t, n)`` the jet (G, G', G'')[:n]
    of the first n - 1 derivatives, n = 1, 2 or 3, from one pass of the
    family's ``jet``, which shares whatever the orders have in common (an
    |t|, a mask, a log, a branch). Below 0 a power is even and a log
    weight 0. :meth:`deriv` and :meth:`d2` read one entry of the jet. At a
    kink both derivatives take the branch on the same side. All operations
    are pure; instances can be shared freely across threads.
    """

    kind: str
    params: Tuple[float, ...]
    jet: Callable[[np.ndarray, int], list]
    doubling_constant: float
    upper_exponent: float
    lower_exponent: float
    label: str
    kinks: Tuple[float, ...] = ()
    children: Tuple["OrliczFunction", ...] = ()

    def __call__(self, x, n=None):
        x = np.asarray(x, dtype=float)
        return self.jet(x, 1)[0] if n is None else self.jet(x, n)

    def deriv(self, x):
        return self.jet(np.asarray(x, dtype=float), 2)[1]

    def d2(self, x):
        return self.jet(np.asarray(x, dtype=float), 3)[2]

    def __repr__(self):
        return self.label


@dataclass(frozen=True)
class HypothesisCheck:
    passed: bool
    worst_x: float
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class OrliczReport:
    """Numerical screening outcome for the three structural hypotheses."""

    h1: HypothesisCheck
    h2: HypothesisCheck
    h3: HypothesisCheck

    @property
    def all_passed(self):
        return self.h1.passed and self.h2.passed and self.h3.passed


def _screening_grid(n_points=_GRID_POINTS, kinks=()):
    grid = np.logspace(math.log10(_GRID_LO), math.log10(_GRID_HI), n_points)
    extra = [k for k in kinks if _GRID_LO < k < _GRID_HI]
    if extra:
        # np.unique would do, but it imports numpy.ma at first use
        grid = np.sort(np.concatenate([grid, np.asarray(extra, float)]))
        grid = grid[np.concatenate([[True], grid[1:] != grid[:-1]])]
    return grid


def _estimate(jet, kinks=()):
    """Grid estimates of (C, p, q) with the 1.01 safety factor, from the
    jet of G.

    Points where G vanishes (possible for degenerate inputs like t^p|log t|
    at t = 1) are skipped in the ratio suprema rather than producing inf.
    """
    grid = _screening_grid(kinks=kinks)
    gx, dgx = (np.asarray(v, dtype=float) for v in jet(grid, 2))
    g2x = np.asarray(jet(2.0 * grid, 1)[0], dtype=float)
    if not (np.all(np.isfinite(gx)) and np.all(np.isfinite(g2x))
            and np.all(np.isfinite(dgx))):
        raise InvalidFunctionError("non-finite evaluation on screening grid")

    pos = gx > 0.0
    if not np.any(pos):
        raise InvalidFunctionError("function vanishes on the whole grid")
    doubling = float(np.max(g2x[pos] / gx[pos])) * _SAFETY
    upper = float(np.max(grid[pos] * dgx[pos] / gx[pos])) * _SAFETY
    lower = math.log(doubling) / math.log(2.0)
    return doubling, upper, lower


def estimate_constants(G: OrliczFunction):
    """Re-estimate (C, p, q) for G on the standard screening grid.

    This is the pure grid estimator (with safety factor); factories may store
    sharper exact constants when the family permits.
    """
    return _estimate(G.jet, G.kinks)


def _finalize(kind, params, jet, label, kinks=(), children=(), exact=None):
    if exact is not None:
        doubling, upper, lower = exact
    else:
        doubling, upper, lower = _estimate(jet, kinks)
    return OrliczFunction(
        kind=kind,
        params=tuple(float(v) for v in params),
        jet=jet,
        doubling_constant=doubling,
        upper_exponent=upper,
        lower_exponent=lower,
        label=label,
        kinks=tuple(kinks),
        children=tuple(children),
    )


def _power(a, e):
    """a ** e for a >= 0. An integral e from 0 to 4 is done by multiplication
    (e = 4 by squaring a * a), in place after the first product, several
    times cheaper than ``pow`` and within 2 ulp of it; any other e goes
    through ``**`` unchanged. A 0-d ``a`` gives a numpy scalar, which
    ``*=`` rebinds rather than writes."""
    if e == 0.0:
        return np.ones_like(a)
    if e == 1.0:
        return a
    if e not in (2.0, 3.0, 4.0):
        return a ** e
    out = a * a
    if e == 3.0:
        out *= a
    elif e == 4.0:
        out *= out
    return out


def make_power(p: float) -> OrliczFunction:
    """G(t) = |t|**p for p > 1, with exact constants. Each order of the
    jet takes its power of |t| from `_power`, so for p = 2, 3 or 4 none
    calls ``pow``."""
    if not (np.isfinite(p) and p > 1.0):
        raise InvalidParameterError(f"power exponent must be > 1, got {p}")
    p = float(p)

    def jet(t, n):
        a = np.abs(t)  # G is even: one |t| for all orders
        out = [_power(a, p)]
        if n > 1:
            out.append(p * _power(a, p - 1.0))
        if n > 2:
            with np.errstate(divide="ignore"):
                out.append(p * (p - 1.0) * _power(a, p - 2.0))
        return out

    return _finalize("power", (p,), jet, f"power({p:g})",
                     exact=(2.0 ** p, p, p))


def _log_weight(kind, p, c):
    """G(t) = t**p * (|log t| + c), kinked at t = 1: power_log (c = 1) and
    power_abslog (c = 0). With lg = log t, G' = t**(p-1) (p (c -+ lg) -+ 1)
    and G'' = t**(p-2) ((p-1) ((p c -+ 1) -+ p lg) -+ p), the upper signs
    below 1. At t = 0, G'' tends to 0 for p > 2 and to +inf for p <= 2.

    The jet takes one mask of t > 0 (none where every t is positive), one
    log and one branch sign sg, -1 below 1 and +1 above it, for all its
    orders. G' and G'' take sg into one formula (c + sg lg for c -+ lg,
    and so on): x + (-y) rounds as x - y, so each entry has the bits of
    the branch that applies, and one branch is computed, not two."""
    if not (np.isfinite(p) and p > 1.0):
        raise InvalidParameterError(f"{kind} exponent must be > 1, got {p}")
    p = float(p)

    def masked(m, val, at_zero=0.0):
        return val if m is None else np.where(m, val, at_zero)

    def jet(t, n):
        m = t > 0.0
        if m.all():
            m, tm = None, t
        else:  # 1 off the mask, where the log is 0
            tm = np.where(m, t, 1.0)
        lg = np.log(tm)
        out = [masked(m, _power(tm, p) * (np.abs(lg) + c))]
        if n > 1:
            sg = np.where(tm < 1.0, -1.0, 1.0)
            out.append(masked(m, _power(tm, p - 1.0)
                              * (p * (c + sg * lg) + sg)))
        if n > 2:
            out.append(masked(
                m, _power(tm, p - 2.0)
                * ((p - 1.0) * ((p * c + sg) + sg * (p * lg)) + sg * p),
                0.0 if p > 2.0 else np.inf))
        return out

    return _finalize(kind, (p,), jet, f"{kind}({p:g})", kinks=(1.0,))


def make_power_log(p: float) -> OrliczFunction:
    """G(t) = t**p * (|log t| + 1) for p > 1.

    Constants are grid estimates; the derivative kink sits at t = 1 where the
    right-continuous branch is used.
    """
    return _log_weight("power_log", p, 1.0)


def make_power_abslog(p: float) -> OrliczFunction:
    """G(t) = t**p * |log t|, the log-weight family without the +1 shift.

    Not a growth function in the strict sense (it decreases on an interval
    left of t = 1 and G(1) = 0); provided because the limit-density examples
    compute with it. `verify_orlicz` flags the defect.
    """
    return _log_weight("power_abslog", p, 0.0)


def make_combination(mode: str, parts: Sequence[OrliczFunction],
                     weights: Optional[Sequence[float]] = None
                     ) -> OrliczFunction:
    """Weighted sum or pointwise maximum of growth functions.

    For ``mode='sum'`` the jet is the weighted sum of the child jets; for
    ``mode='max'`` the derivatives are those of the attaining branch (ties
    resolved toward the steeper branch, matching right-continuity), picked
    once for G' and G''. A pointwise maximum that fails the monotonicity
    or midpoint-convexity screening is rejected at construction.
    """
    parts = tuple(parts)
    if not parts:
        raise InvalidParameterError("combination needs at least one part")
    if mode not in ("sum", "max"):
        raise InvalidParameterError(f"combination mode must be sum|max: {mode}")

    kinks = sorted({k for ch in parts for k in ch.kinks})

    if mode == "sum":
        if weights is None:
            weights = [1.0] * len(parts)
        weights = tuple(float(w) for w in weights)
        if len(weights) != len(parts):
            raise InvalidParameterError("weights/parts length mismatch")
        if not all(0.0 <= w < math.inf for w in weights):
            raise InvalidParameterError("weights must be finite and "
                                        "nonnegative")
        if not any(w > 0 for w in weights):
            raise InvalidParameterError("weights must not all vanish")
        live = [(w, ch) for w, ch in zip(weights, parts) if w > 0.0]

        def jet(t, n):
            jets = [(w, ch.jet(t, n)) for w, ch in live]
            return [sum(w * g[i] for w, g in jets) for i in range(n)]

        label = "sum(" + ", ".join(
            f"{w:g}*{ch.label}" for w, ch in zip(weights, parts)) + ")"
        return _finalize("weighted_sum", (), jet, label, kinks=kinks,
                         children=parts)

    def jet(t, n):
        jets = [ch.jet(t, n) for ch in parts]
        top = functools.reduce(np.maximum, [g[0] for g in jets])
        out = [top]
        if n > 1:
            # branch derivatives where the branch attains the max, else -inf
            floor = top - 1e-14 * np.maximum(top, 1.0)
            attaining = [np.where(g[0] >= floor, g[1], -np.inf)
                         for g in jets]
            out.append(functools.reduce(np.maximum, attaining))
        if n > 2:
            # the branch whose derivative G' takes
            pick = np.argmax(attaining, axis=0)
            out.append(np.choose(pick, [g[2] for g in jets]))
        return out

    label = "max(" + ", ".join(ch.label for ch in parts) + ")"
    kinks = sorted(set(kinks) | set(_crossovers(parts)))
    G = _finalize("pointwise_max", (), jet, label, kinks=kinks,
                  children=parts)
    report = verify_orlicz(G)
    if not report.h1.passed:
        raise InvalidFunctionError(
            f"pointwise max fails monotonicity/convexity screening "
            f"near t = {report.h1.worst_x:.6g}")
    return G


def compose(outer: OrliczFunction, inner: OrliczFunction) -> OrliczFunction:
    """Composition outer(inner(t)); again a growth function. Its jet is the
    chain rule on one jet of each."""

    def jet(t, n):
        gi = inner.jet(t, n)
        go = outer.jet(np.asarray(gi[0], dtype=float), n)
        out = [go[0]]
        if n > 1:
            out.append(go[1] * gi[1])
        if n > 2:
            out.append(go[2] * gi[1] * gi[1] + go[1] * gi[2])
        return out

    label = f"compose({outer.label}, {inner.label})"
    return _finalize("composition", (), jet, label,
                     kinks=sorted(set(outer.kinks) | set(inner.kinks)),
                     children=(outer, inner))


def make_custom(fn, dfn=None, label="custom", kinks=(),
                constants=None, d2fn=None) -> OrliczFunction:
    """Wrap raw callables; a missing derivative falls back to a central
    difference of the function, a missing second derivative to one of the
    derivative; given ``constants`` (C, p, q), they are stored in place of
    the grid estimates. The jet calls ``fn``, ``dfn`` and ``d2fn`` as its
    order asks. The modular's Hessian (`fractional._core`) is the
    derivative of its gradient only where ``d2fn`` is the derivative of
    ``dfn``, itself that of ``fn``: its far field builds I'' from G and G',
    while its pairs call ``d2fn``."""
    if dfn is None:
        dfn = _central_difference(fn, 1e-6)
    if d2fn is None:
        d2fn = _central_difference(dfn, 1e-5)
    calls = (fn, dfn, d2fn)

    def jet(t, n):
        return [f(t) for f in calls[:n]]

    return _finalize("custom", (), jet, label, kinks=kinks, exact=constants)


def _central_difference(f, rel):
    """x -> (f(x + h) - f(x - h)) / 2h with h = rel * max(1, |x|), one-sided
    where x - h would leave the half line."""
    def df(x):
        x = np.asarray(x, dtype=float)
        h = rel * np.maximum(1.0, np.abs(x))
        lo = np.maximum(x - h, 0.0)
        return (f(x + h) - f(lo)) / (x + h - lo)
    return df


def _crossovers(parts):
    """Arguments where the attaining branch of a pointwise max switches."""
    if len(parts) < 2:
        return []
    grid = np.logspace(-4.0, 4.0, 400)
    vals = np.stack([ch.jet(grid, 1)[0] for ch in parts])
    top = np.argmax(vals, axis=0)
    out = []
    for i in range(len(grid) - 1):
        if top[i] != top[i + 1]:
            a, b = grid[i], grid[i + 1]
            fa = parts[top[i]].jet
            fb = parts[top[i + 1]].jet
            for _ in range(80):
                mid = 0.5 * (a + b)
                at = np.asarray(mid)
                if fa(at, 1)[0] >= fb(at, 1)[0]:
                    a = mid
                else:
                    b = mid
            out.append(0.5 * (a + b))
    return out


def conjugate(G: OrliczFunction, a: float) -> float:
    """Convex conjugate sup_{t>0} (a*t - G(t)) by bracketing + golden section.

    The bracket is grown by doubling from t = 1 until the objective turns
    over; failure to turn over signals growth that is not superlinear at
    infinity and raises NumericOverflowError.
    """
    if not np.isfinite(a) or a < 0.0:
        raise InvalidParameterError(f"conjugate argument must be >= 0: {a}")
    if a == 0.0:
        return 0.0

    def h(t):
        return a * t - float(G.jet(np.asarray(t, dtype=float), 1)[0])

    hi = 1.0
    val = h(hi)
    while h(2.0 * hi) > val:
        hi *= 2.0
        val = h(hi)
        if hi > 2.0 ** 64:
            raise NumericOverflowError(
                "conjugate bracket expansion exceeded 2^64; "
                "growth appears sublinear-conjugate (not superlinear)")
    lo, hi = 0.0, 2.0 * hi

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = h(x1), h(x2)
    for _ in range(300):
        if hi - lo <= 1e-10 * max(1e-300, abs(lo) + abs(hi)):
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = h(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = h(x1)
    best = max(f1, f2, 0.0)
    return best


def verify_orlicz(G: OrliczFunction) -> OrliczReport:
    """Screen the three structural hypotheses on a sampled grid of
    `_VERIFY_POINTS` points (plus the kinks).

    Failures are reported (with the worst offending point), never raised.
    """
    grid = _screening_grid(n_points=_VERIFY_POINTS, kinks=G.kinks)
    gx = G(grid)
    scale = np.maximum.accumulate(np.maximum(gx, 1e-300))

    # H1: G(0) = 0, nondecreasing, midpoint convex.
    h1_pass, h1_x, h1_margin, h1_detail = True, 0.0, 0.0, ""
    g0 = float(G(0.0))
    if not (abs(g0) <= 1e-12):
        h1_pass, h1_x, h1_margin, h1_detail = False, 0.0, abs(g0), "G(0) != 0"
    mono = np.diff(gx)
    bad = mono < -1e-9 * scale[:-1]
    if h1_pass and np.any(bad):
        i = int(np.argmin(mono / np.maximum(scale[:-1], 1e-300)))
        h1_pass = False
        h1_x = float(grid[i + 1])
        h1_margin = float(-mono[i])
        h1_detail = "monotonicity fails"
    if h1_pass:
        mids = 0.5 * (grid[:-1] + grid[1:])
        gap = G(mids) - 0.5 * (gx[:-1] + gx[1:])
        bad = gap > 1e-9 * scale[1:]
        if np.any(bad):
            i = int(np.argmax(gap / np.maximum(scale[1:], 1e-300)))
            h1_pass = False
            h1_x = float(mids[i])
            h1_margin = float(gap[i])
            h1_detail = "midpoint convexity fails"
    h1 = HypothesisCheck(h1_pass, h1_x, h1_margin, h1_detail)

    # H2: doubling against the stored constant.
    pos = gx > 0.0
    ratio = np.full_like(gx, -np.inf)
    ratio[pos] = G(2.0 * grid[pos]) / gx[pos]
    excess = ratio - G.doubling_constant * (1.0 + 1e-12)
    i = int(np.argmax(excess))
    h2 = HypothesisCheck(bool(excess[i] <= 0.0), float(grid[i]),
                         float(max(excess[i], 0.0)),
                         "" if excess[i] <= 0.0 else "doubling bound fails")

    # H3: G(x)/x strictly decreasing along x = 10^-k, k = 1..8.
    xs = 10.0 ** -np.arange(1, 9, dtype=float)
    slopes = G(xs) / xs
    steps = np.diff(slopes)
    floor = -1e-9 * np.abs(slopes[:-1]) - 1e-300
    j = int(np.argmax(steps - floor))
    h3 = HypothesisCheck(bool(np.all(steps < floor)),
                         float(xs[j + 1]), float(max(steps[j], 0.0)),
                         "" if steps[j] < floor[j]
                         else "G(x)/x not decaying at 0")

    return OrliczReport(h1=h1, h2=h2, h3=h3)
