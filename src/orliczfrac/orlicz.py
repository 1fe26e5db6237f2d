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
weighted sums, pointwise maxima, compositions); `make_custom` wraps arbitrary
callables for internal use.
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

    Instances are callable (vectorized over numpy arrays) and expose the
    first and second derivatives through :meth:`deriv` and :meth:`d2`. At a
    kink both take the branch on the same side. All operations are pure;
    instances can be shared freely across threads.
    """

    kind: str
    params: Tuple[float, ...]
    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]
    d2fn: Callable[[np.ndarray], np.ndarray]
    doubling_constant: float
    upper_exponent: float
    lower_exponent: float
    label: str
    kinks: Tuple[float, ...] = ()
    children: Tuple["OrliczFunction", ...] = ()

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def deriv(self, x):
        return self.dfn(np.asarray(x, dtype=float))

    def d2(self, x):
        return self.d2fn(np.asarray(x, dtype=float))

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


def _estimate_from_callables(fn, dfn, kinks=()):
    """Grid estimates of (C, p, q) with the 1.01 safety factor.

    Points where G vanishes (possible for degenerate inputs like t^p|log t|
    at t = 1) are skipped in the ratio suprema rather than producing inf.
    """
    grid = _screening_grid(kinks=kinks)
    gx = np.asarray(fn(grid), dtype=float)
    g2x = np.asarray(fn(2.0 * grid), dtype=float)
    dgx = np.asarray(dfn(grid), dtype=float)
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
    return _estimate_from_callables(G.fn, G.dfn, G.kinks)


def _finalize(kind, params, fn, dfn, d2fn, label, kinks=(), children=(),
              exact=None):
    if exact is not None:
        doubling, upper, lower = exact
    else:
        doubling, upper, lower = _estimate_from_callables(fn, dfn, kinks)
    return OrliczFunction(
        kind=kind,
        params=tuple(float(v) for v in params),
        fn=fn,
        dfn=dfn,
        d2fn=d2fn,
        doubling_constant=doubling,
        upper_exponent=upper,
        lower_exponent=lower,
        label=label,
        kinks=tuple(kinks),
        children=tuple(children),
    )


def _power(a, e):
    """a ** e for a >= 0. An integral e from 0 to 4 is done by multiplication
    (e = 4 by squaring a * a), several times cheaper than ``pow`` and within
    2 ulp of it; any other e goes through ``**`` unchanged."""
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


def make_power(p: float) -> OrliczFunction:
    """G(t) = t**p for p > 1, with exact constants. G, G' and G'' take their
    powers of |t| from `_power`, so for p = 2, 3 or 4 none calls ``pow``."""
    if not (np.isfinite(p) and p > 1.0):
        raise InvalidParameterError(f"power exponent must be > 1, got {p}")
    p = float(p)

    def fn(x):
        return _power(np.abs(x), p)

    def dfn(x):
        return p * _power(np.abs(x), p - 1.0)

    def d2fn(x):
        with np.errstate(divide="ignore"):
            return p * (p - 1.0) * _power(np.abs(x), p - 2.0)

    return _finalize("power", (p,), fn, dfn, d2fn, f"power({p:g})",
                     exact=(2.0 ** p, p, p))


def _log_weight(kind, p, c):
    """G(t) = t**p * (|log t| + c), kinked at t = 1: power_log (c = 1) and
    power_abslog (c = 0). With lg = log t, G' = t**(p-1) (p (c -+ lg) -+ 1)
    and G'' = t**(p-2) ((p-1) ((p c -+ 1) -+ p lg) -+ p), the upper signs
    below 1. At t = 0, G'' tends to 0 for p > 2 and to +inf for p <= 2.

    G' and G'' take the sign sg = -1 below 1 and +1 above it into one
    formula (c + sg lg for c -+ lg, and so on): x + (-y) rounds as x - y,
    so each entry has the bits of the branch that applies, and one branch
    is computed, not two. Where every t is positive, no mask is
    applied."""
    if not (np.isfinite(p) and p > 1.0):
        raise InvalidParameterError(f"{kind} exponent must be > 1, got {p}")
    p = float(p)

    def positive(x):
        """(x > 0 mask, or None if every entry is, x with 1 elsewhere, its
        log: 0 elsewhere)"""
        x = np.asarray(x, dtype=float)
        m = x > 0.0
        if m.all():
            return None, x, np.log(x)
        xm = np.where(m, x, 1.0)
        return m, xm, np.log(xm)

    def masked(m, val, at_zero=0.0):
        return val if m is None else np.where(m, val, at_zero)

    def fn(x):
        m, xm, lg = positive(x)
        return masked(m, _power(xm, p) * (np.abs(lg) + c))

    def dfn(x):
        m, xm, lg = positive(x)
        sg = np.where(xm < 1.0, -1.0, 1.0)
        return masked(m, _power(xm, p - 1.0) * (p * (c + sg * lg) + sg))

    def d2fn(x):
        m, xm, lg = positive(x)
        sg = np.where(xm < 1.0, -1.0, 1.0)
        return masked(m, _power(xm, p - 2.0)
                      * ((p - 1.0) * ((p * c + sg) + sg * (p * lg)) + sg * p),
                      0.0 if p > 2.0 else np.inf)

    return _finalize(kind, (p,), fn, dfn, d2fn, f"{kind}({p:g})",
                     kinks=(1.0,))


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

    For ``mode='sum'`` the derivative is the exact weighted sum of the child
    derivatives; for ``mode='max'`` it is the derivative of the attaining
    branch (ties resolved toward the steeper branch, matching
    right-continuity). A pointwise maximum that fails the monotonicity or
    midpoint-convexity screening is rejected at construction.
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

        def fn(x):
            return sum(w * ch.fn(x) for w, ch in live)

        def dfn(x):
            return sum(w * ch.dfn(x) for w, ch in live)

        def d2fn(x):
            return sum(w * ch.d2fn(x) for w, ch in live)

        label = "sum(" + ", ".join(
            f"{w:g}*{ch.label}" for w, ch in zip(weights, parts)) + ")"
        return _finalize("weighted_sum", (), fn, dfn, d2fn, label, kinks=kinks,
                         children=parts)

    def fn(x):
        return functools.reduce(np.maximum, [ch.fn(x) for ch in parts])

    def attaining(x):
        """Branch derivatives where the branch attains the max, else -inf."""
        vals = [ch.fn(x) for ch in parts]
        top = functools.reduce(np.maximum, vals)
        floor = top - 1e-14 * np.maximum(top, 1.0)
        return [np.where(val >= floor, ch.dfn(x), -np.inf)
                for val, ch in zip(vals, parts)]

    def dfn(x):
        return functools.reduce(np.maximum, attaining(x))

    def d2fn(x):
        # the branch whose derivative dfn returns
        pick = np.argmax(attaining(x), axis=0)
        return np.choose(pick, [ch.d2fn(x) for ch in parts])

    label = "max(" + ", ".join(ch.label for ch in parts) + ")"
    kinks = sorted(set(kinks) | set(_crossovers(parts)))
    G = _finalize("pointwise_max", (), fn, dfn, d2fn, label, kinks=kinks,
                  children=parts)
    report = verify_orlicz(G)
    if not report.h1.passed:
        raise InvalidFunctionError(
            f"pointwise max fails monotonicity/convexity screening "
            f"near t = {report.h1.worst_x:.6g}")
    return G


def compose(outer: OrliczFunction, inner: OrliczFunction) -> OrliczFunction:
    """Composition outer(inner(t)); again a growth function."""

    def fn(x):
        return outer.fn(np.asarray(inner.fn(x), dtype=float))

    def dfn(x):
        iv = np.asarray(inner.fn(x), dtype=float)
        return outer.dfn(iv) * inner.dfn(x)

    def d2fn(x):
        iv = np.asarray(inner.fn(x), dtype=float)
        di = inner.dfn(x)
        return outer.d2fn(iv) * di * di + outer.dfn(iv) * inner.d2fn(x)

    label = f"compose({outer.label}, {inner.label})"
    return _finalize("composition", (), fn, dfn, d2fn, label,
                     kinks=sorted(set(outer.kinks) | set(inner.kinks)),
                     children=(outer, inner))


def make_custom(fn, dfn=None, label="custom", kinks=(),
                constants=None, d2fn=None) -> OrliczFunction:
    """Wrap raw callables; a missing derivative falls back to a central
    difference of the function, a missing second derivative to one of the
    derivative; given ``constants`` (C, p, q), they are stored in place of
    the grid estimates. The modular's Hessian (`fractional._core`) is the
    derivative of its gradient only where ``d2fn`` is the derivative of
    ``dfn``, itself that of ``fn``: its far field builds I'' from G and G',
    while its pairs call ``d2fn``."""
    if dfn is None:
        dfn = _central_difference(fn, 1e-6)
    if d2fn is None:
        d2fn = _central_difference(dfn, 1e-5)
    return _finalize("custom", (), fn, dfn, d2fn, label, kinks=kinks,
                     exact=constants)


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
    vals = np.stack([ch.fn(grid) for ch in parts])
    top = np.argmax(vals, axis=0)
    out = []
    for i in range(len(grid) - 1):
        if top[i] != top[i + 1]:
            a, b = grid[i], grid[i + 1]
            fa = parts[top[i]].fn
            fb = parts[top[i + 1]].fn
            for _ in range(80):
                mid = 0.5 * (a + b)
                if fa(np.asarray(mid)) >= fb(np.asarray(mid)):
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
        return a * t - float(G.fn(np.asarray(t, dtype=float)))

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
